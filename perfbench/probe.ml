(* One [Runner.run] observed from outside the program. The [on_setup] and
   [on_drain] hooks mark the set-up -> transaction -> audit boundaries; at
   each mark the probe reads host time, GC words and the layers' public
   counters, so every per-phase number is a delta across two marks. The
   probe's own reads sit in the set-up and audit intervals, never in the
   transaction phase.

   Host time is process CPU time. A run uses one domain, so CPU time is the
   run's own work and leaves out the time other processes hold the core. *)

module Runner = Icdb_workload.Runner
module Federation = Icdb_core.Federation
module Graph = Icdb_core.Serialization_graph
module Db = Icdb_localdb.Engine
module Site = Icdb_net.Site
module Sim = Icdb_sim.Engine
module Registry = Icdb_obs.Registry
module Buffer_pool = Icdb_storage.Buffer_pool
module Log = Icdb_wal.Log

let now = Sys.time

type counters = {
  events : int;
  lock_acquisitions : int;
  local_aborts : int;
  buffer_hits : int;
  buffer_misses : int;
  evictions : int;
  wal_records : int;
  wal_forces : int;
}

let read_counters (fed : Federation.t) =
  let dbs = List.map (fun (_, site) -> Site.db site) fed.sites in
  let sum f = List.fold_left (fun acc db -> acc + f db) 0 dbs in
  let pool f = sum (fun db -> f (Db.buffer_pool db)) in
  {
    events = Array.fold_left (fun acc e -> acc + Sim.executed e) 0 fed.engines;
    lock_acquisitions =
      List.fold_left
        (fun acc ((k : Registry.key), v) ->
          if k.name = "icdb_lock_acquisitions_total" then acc + v else acc)
        0 (Registry.snapshot fed.registry).counters;
    local_aborts = sum Db.abort_count;
    buffer_hits = pool Buffer_pool.hit_count;
    buffer_misses = pool Buffer_pool.miss_count;
    evictions = pool Buffer_pool.eviction_count;
    wal_records = sum (fun db -> Log.record_count (Db.wal db));
    wal_forces = sum (fun db -> Log.force_count (Db.wal db));
  }

let diff a b =
  {
    events = b.events - a.events;
    lock_acquisitions = b.lock_acquisitions - a.lock_acquisitions;
    local_aborts = b.local_aborts - a.local_aborts;
    buffer_hits = b.buffer_hits - a.buffer_hits;
    buffer_misses = b.buffer_misses - a.buffer_misses;
    evictions = b.evictions - a.evictions;
    wal_records = b.wal_records - a.wal_records;
    wal_forces = b.wal_forces - a.wal_forces;
  }

type run = {
  config : Runner.config;
  report : Runner.report;
  setup_s : float;
  txn_s : float;
  audit_s : float;
  setup_words : float;
  txn_words : float;
  audit_words : float;
  txn : counters;  (** transaction-phase deltas *)
  minor_collections : int;
  major_collections : int;
  wal_retained_end : int;
  batch_members : int;
  journal_open_end : int;
  recorded_locals : int;
  response : Registry.histogram list;  (** this run's response times *)
  snapshot_s : float;  (** timed [Federation.snapshot]; 0 unless probed *)
  violations_s : float;  (** timed [Serialization_graph.violations]; 0 unless probed *)
}

type mark = { t : float; w : float; c : counters }

let collections () =
  let gc = Gc.quick_stat () in
  (gc.minor_collections, gc.major_collections)

(* The heap is collected first, as it was before the run, so that no
   garbage the run left is collected on this call's clock. *)
let timed f =
  Gc.full_major ();
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  now () -. t0

(* [observe config] runs the workload config once with the probe's hooks
   attached. [probe_audit] re-times the audit's two layer calls directly on
   the finished federation, after the runner has returned. [on_setup] runs
   extra set-up work (tracing capture) after the set-up mark is read. *)
let observe ?registry ?tracer ?(probe_audit = false) ?(on_setup = fun _ _ -> ()) config =
  let hooked = ref None and at_setup = ref None and at_drain = ref None in
  let minor0, major0 = collections () in
  let start_t = now () and start_w = Gc.minor_words () in
  let on_setup engine fed =
    let c = read_counters fed in
    let w = Gc.minor_words () in
    at_setup := Some { t = now (); w; c };
    hooked := Some fed;
    on_setup engine fed
  in
  let on_drain () =
    let t = now () and w = Gc.minor_words () in
    Option.iter (fun fed -> at_drain := Some { t; w; c = read_counters fed }) !hooked
  in
  let report = Runner.run ?registry ?tracer ~on_setup ~on_drain config in
  let stop_t = now () and stop_w = Gc.minor_words () in
  let fed, s, d =
    match (!hooked, !at_setup, !at_drain) with
    | Some fed, Some s, Some d -> (fed, s, d)
    | _ -> failwith "Probe.observe: runner skipped a hook"
  in
  let minor1, major1 = collections () in
  let dbs = List.map (fun (_, site) -> Site.db site) fed.sites in
  let snapshot_s, violations_s =
    if probe_audit then
      (timed (fun () -> Federation.snapshot fed), timed (fun () -> Graph.violations fed.graph))
    else (0.0, 0.0)
  in
  {
    config;
    report;
    setup_s = s.t -. start_t;
    txn_s = d.t -. s.t;
    audit_s = stop_t -. d.t;
    setup_words = s.w -. start_w;
    txn_words = d.w -. s.w;
    audit_words = stop_w -. d.w;
    txn = diff s.c d.c;
    minor_collections = minor1 - minor0;
    major_collections = major1 - major0;
    wal_retained_end = List.fold_left (fun acc db -> acc + Log.retained_count (Db.wal db)) 0 dbs;
    batch_members =
      List.fold_left
        (fun acc (name, _) ->
          match Federation.batcher fed name with
          | Some b -> acc + Icdb_net.Batcher.member_count b
          | None -> acc)
        0 fed.sites;
    journal_open_end = Federation.total_journal_entries fed;
    recorded_locals = Graph.recorded_locals fed.graph;
    response = Pooled.named fed.registry "icdb_txn_response_time";
    snapshot_s;
    violations_s;
  }
