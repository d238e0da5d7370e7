(* The repository's benchmark.

     bench --workload NAME --seed N --seconds S --trace 0|1

   Runs passes of one workload (see [Workloads]) until S host seconds have
   been measured, checks every run's correctness gate, and prints one JSON
   object as the last line of standard output. With [--trace 0] it holds
   the end-to-end metrics, from untraced passes; with [--trace 1] the
   per-layer metrics, from the same untraced passes plus one traced pass,
   one lock-capture run and the single-layer kernels. A host time is
   process CPU time (see [Probe]), the median over passes of each config's
   time, summed over configs; every other metric is deterministic in the
   seed and is taken from the first pass (later passes must repeat it
   exactly). Every run is gated, the traced and lock-capture runs too, and
   those two must return the first pass's reports. A failed gate counts
   the run's transactions as failed and the command exits 1. *)

open Perfbench
module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span

let usage = "bench --workload NAME --seed N --seconds S --trace 0|1"

(* Passes stop once this many wall seconds are spent, whatever [--seconds]
   asked, so a run always ends well inside its time limit. The pass loop
   is paced by wall time for the same reason; what a pass measures is CPU
   time. *)
let budget_s = 100.0
let min_passes = 3

let wall = Unix.gettimeofday

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* --- passes --------------------------------------------------------------- *)

(* Transactions of every run started so far, one that raised included. *)
let issued = ref 0

(* Each run starts from a freshly collected heap, so one run's garbage is
   never collected on the next run's clock. *)
let run_pass ?registry ?tracer ~probe_audit (w : Workloads.t) =
  List.map
    (fun (c : Runner.config) ->
      Gc.full_major ();
      issued := !issued + c.n_txns;
      Probe.observe ?registry ?tracer ~probe_audit c)
    w.configs

(* Untraced passes until [seconds] are measured (at least [min_passes]). *)
let measured_passes ~seconds ~probe_audit w =
  let t0 = wall () in
  let rec loop acc =
    let acc = run_pass ~probe_audit w :: acc in
    let spent = wall () -. t0 in
    let n = List.length acc in
    let next = spent /. float_of_int n in
    if (n >= min_passes && spent >= seconds) || spent +. next > budget_s then List.rev acc
    else loop acc
  in
  loop []

let gate (w : Workloads.t) (r : Probe.run) =
  let rep = r.report in
  List.filter_map
    (fun (ok, what) ->
      if ok then None else Some (Protocol.name r.config.protocol ^ ": " ^ what))
    [
      ((not w.increments) || rep.money_conserved, "money not conserved");
      (rep.serializable, "serialization graph reports violations");
      (rep.started = rep.committed + rep.aborted, "started <> committed + aborted");
      (r.journal_open_end = 0, "coordinator journal entries left open");
    ]

(* Everything a pass must repeat exactly when run again with its seed. The
   traced and lock-capture runs are held to their reports only: the tracer
   allocates, and the capture replaces the lock observers that fill the
   lock-acquisition counter. *)
let fingerprint pass =
  List.map
    (fun (r : Probe.run) ->
      (r.report, r.txn, r.setup_words, r.txn_words, r.audit_words, r.wal_retained_end,
       r.batch_members, r.journal_open_end, r.recorded_locals))
    pass

(* --- metrics -------------------------------------------------------------- *)

type metric = string * float * string

let reports pass = List.map (fun (r : Probe.run) -> r.report) pass
let started_of pass = sumi (fun (r : Runner.report) -> r.started) (reports pass)
let committed_of pass = sumi (fun (r : Runner.report) -> r.committed) (reports pass)

let host passes f =
  let configs = List.length (List.hd passes) in
  sumf (fun i -> median (List.map (fun p -> f (List.nth p i)) passes)) (List.init configs Fun.id)

let end_to_end passes : metric list =
  let first = List.hd passes in
  let reps = reports first in
  let started = started_of first and committed = committed_of first in
  let forces =
    sumi
      (fun (r : Runner.report) ->
        r.log_forces + r.central_log_forces + r.shard_log_forces + r.paxos_acceptor_forces)
      reps
  in
  let response = List.concat_map (fun (r : Probe.run) -> r.response) first in
  [
    ("setup_s", host passes (fun r -> r.setup_s), "s");
    ( "committed_per_ktu",
      float_of_int committed *. 1000.0 /. sumf (fun (r : Runner.report) -> r.elapsed) reps,
      "1/ktu" );
    ("response_p50_tu", Pooled.quantile response 0.50, "tu");
    ("response_p99_tu", Pooled.quantile response 0.99, "tu");
    ("msgs_per_commit", per (sumi (fun (r : Runner.report) -> r.messages) reps) committed, "count");
    ("forces_per_commit", per forces committed, "count");
    ( "minor_words_per_txn",
      sumf (fun (r : Probe.run) -> r.setup_words +. r.txn_words +. r.audit_words) first
      /. float_of_int started,
      "words" );
    ("top_heap_mb", mb_of_words (Gc.quick_stat ()).top_heap_words, "MB");
    ("txn_attempted", float_of_int started, "count");
    ("txn_aborted", float_of_int (sumi (fun (r : Runner.report) -> r.aborted) reps), "count");
  ]

let phase_metric name = String.map (fun c -> if c = '-' then '_' else c) name

(* [passes] are untraced and audit-probed; [traced] ran with a flight-ring
   tracer and [registry]; [capture] is the lock stream of a separate run. *)
let per_layer (w : Workloads.t) passes ~traced ~registry ~tracer ~capture : metric list =
  let first = List.hd passes in
  let reps = reports first in
  let started = started_of first and committed = committed_of first in
  let sum_r f = sumi f reps and sum_p f = sumi f first in
  let per_txn n = per n started and per_commit n = per n committed in
  let txn_s = host passes (fun r -> r.txn_s) in
  let total_s = host passes (fun r -> r.setup_s +. r.txn_s +. r.audit_s) in
  let audit_s = host passes (fun r -> r.audit_s) in
  let snapshot_s = host passes (fun r -> r.snapshot_s) in
  let violations_s = host passes (fun r -> r.violations_s) in
  let events = sum_p (fun r -> r.txn.events) in
  let accounts = sumi Workloads.accounts w.configs in
  let depth = Replay.median_depth capture in
  let engine = Replay.engine_hold ~depth in
  let lock = Replay.lock_replay capture in
  let load = Replay.load (List.hd w.configs) in
  let hits = sum_p (fun r -> r.txn.buffer_hits) and misses = sum_p (fun r -> r.txn.buffer_misses) in
  let envelopes = sum_r (fun r -> r.batch_envelopes) in
  let waits = Pooled.named registry "icdb_lock_wait_time" in
  let holds =
    Pooled.named registry "icdb_lock_hold_time" ~keep:(fun k ->
        match Registry.label k "table" with
        | Some t -> String.starts_with ~prefix:"site-" t
        | None -> false)
  in
  let phases =
    List.concat_map
      (fun phase ->
        let name = Span.phase_name phase in
        let hs =
          Pooled.named registry "icdb_phase_time" ~keep:(fun k -> Registry.label k "phase" = Some name)
        in
        let m = "core.phase." ^ phase_metric name in
        [ (m ^ "_p50_tu", Pooled.quantile hs 0.50, "tu"); (m ^ "_p99_tu", Pooled.quantile hs 0.99, "tu") ])
      Span.all_phases
  in
  (* host seconds the named layers account for, by their own probes *)
  let lock_ops_per_acquisition = per capture.Replay.n (Replay.acquisitions capture) in
  let shares =
    [
      ("load", load.ns_per_op *. float_of_int accounts /. 1e9);
      ("engine", engine.ns_per_op *. float_of_int events /. 1e9);
      ( "lock",
        lock.ns_per_op *. lock_ops_per_acquisition
        *. float_of_int (sum_p (fun r -> r.txn.lock_acquisitions))
        /. 1e9 );
      ("snapshot", snapshot_s);
      ("graph", violations_s);
    ]
  in
  let traced_txn_s = sumf (fun (r : Probe.run) -> r.txn_s) traced in
  let traced_started = started_of traced in
  [
    ("runner.total_s", total_s, "s");
    ("runner.txn_per_host_s", float_of_int committed /. txn_s, "1/s");
    ("runner.setup_s", host passes (fun r -> r.setup_s), "s");
    ("runner.txn_phase_s", txn_s, "s");
    ("runner.audit_s", audit_s, "s");
    ( "gc.setup_minor_words_per_account",
      sumf (fun (r : Probe.run) -> r.setup_words) first /. float_of_int accounts,
      "words" );
    ("gc.txn_minor_words_per_txn", sumf (fun (r : Probe.run) -> r.txn_words) first /. float_of_int started, "words");
    ("gc.audit_minor_words", sumf (fun (r : Probe.run) -> r.audit_words) first, "words");
    ("gc.minor_collections", float_of_int (sum_p (fun r -> r.minor_collections)), "count");
    ("gc.major_collections", float_of_int (sum_p (fun r -> r.major_collections)), "count");
    ("sim.events_per_txn", per_txn events, "count");
    ("sim.host_ns_per_event", txn_s /. float_of_int (max 1 events) *. 1e9, "ns");
    ("sim.engine.replay_depth", float_of_int depth, "count");
    ("sim.engine.replay_ns_per_event", engine.ns_per_op, "ns");
    ("sim.engine.replay_minor_words_per_event", engine.words_per_op, "words");
    ("lock.acquisitions_per_txn", per_txn (sum_p (fun r -> r.txn.lock_acquisitions)), "count");
    ("lock.replay_ns_per_op", lock.ns_per_op, "ns");
    ("lock.replay_minor_words_per_op", lock.words_per_op, "words");
    ("lock.waits_per_txn", per_txn (sum_r (fun r -> r.local_lock_waits)), "count");
    ("lock.deadlocks", float_of_int (sum_r (fun r -> r.local_lock_deadlocks)), "count");
    ("lock.timeouts", float_of_int (sum_r (fun r -> r.local_lock_timeouts)), "count");
    ("lock.wait_p50_tu", Pooled.quantile waits 0.50, "tu");
    ("lock.wait_p99_tu", Pooled.quantile waits 0.99, "tu");
    ("lock.hold_mean_tu", Pooled.mean holds, "tu");
    ("lock.hold_p95_tu", Pooled.quantile holds 0.95, "tu");
    ("localdb.load_s_per_million_accounts", load.ns_per_op /. 1e3, "s");
    ("localdb.local_aborts_per_txn", per_txn (sum_p (fun r -> r.txn.local_aborts)), "count");
    ("storage.buffer_hit_ratio", per hits (hits + misses), "ratio");
    ("storage.buffer_misses_per_txn", per_txn misses, "count");
    ("storage.evictions_per_txn", per_txn (sum_p (fun r -> r.txn.evictions)), "count");
    ("wal.records_per_txn", per_txn (sum_p (fun r -> r.txn.wal_records)), "count");
    ("wal.forces_per_commit", per_commit (sum_p (fun r -> r.txn.wal_forces)), "count");
    ("wal.retained_records_end", float_of_int (sum_p (fun r -> r.wal_retained_end)), "count");
    ("net.link.messages_per_txn", per_txn (sum_r (fun r -> r.messages)), "count");
    ("net.batcher.envelopes_per_commit", per_commit envelopes, "count");
    ("net.batcher.occupancy_mean", per (sum_p (fun r -> r.batch_members)) envelopes, "count");
    ("mlt.l1_acquisitions_per_txn", per_txn (sum_r (fun r -> r.l1_acquisitions)), "count");
    ("mlt.compensations_per_txn", per_txn (sum_r (fun r -> r.compensations)), "count");
    ("core.repetitions_per_txn", per_txn (sum_r (fun r -> r.repetitions)), "count");
    ("core.global_cc_acquisitions_per_txn", per_txn (sum_r (fun r -> r.global_cc_acquisitions)), "count");
  ]
  @ phases
  @ [
      ("core.central_forces_per_commit", per_commit (sum_r (fun r -> r.central_log_forces)), "count");
      ("core.shard_forces_per_commit", per_commit (sum_r (fun r -> r.shard_log_forces)), "count");
      ("core.paxos.rounds_per_commit", per_commit (sum_r (fun r -> r.paxos_rounds)), "count");
      ( "core.paxos.acceptor_forces_per_commit",
        per_commit (sum_r (fun r -> r.paxos_acceptor_forces)),
        "count" );
      ("core.decision_log_entries_end", float_of_int (sum_r (fun r -> r.decision_log_entries)), "count");
      ("core.journal_open_end", float_of_int (sum_p (fun r -> r.journal_open_end)), "count");
      ("core.snapshot_s", snapshot_s, "s");
      ("core.graph.violations_s", violations_s, "s");
      ("core.graph.recorded_locals", float_of_int (sum_p (fun r -> r.recorded_locals)), "count");
      ( "core.response_samples",
        float_of_int (Pooled.count (List.concat_map (fun (r : Probe.run) -> r.response) first)),
        "count" );
      ( "obs.trace_events_per_txn",
        per (Tracer.length tracer + Tracer.dropped tracer) traced_started,
        "count" );
      ("obs.trace_overhead_pct", (traced_txn_s -. txn_s) /. txn_s *. 100.0, "%");
      ("layers.coverage", sumf snd shares /. total_s, "ratio");
      ("layers.audit_share.snapshot", snapshot_s /. audit_s, "ratio");
      ("layers.audit_share.graph", violations_s /. audit_s, "ratio");
    ]
  @ List.map (fun (layer, s) -> ("layers.share." ^ layer, s /. total_s, "ratio")) shares

(* --- output --------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  host seconds of passes to measure");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Workloads.names) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let w = Workloads.make ~seed:!seed !workload in
  let traced = !trace = 1 in
  let measure () =
    let seconds = float_of_int !seconds in
    let passes = measured_passes ~seconds ~probe_audit:traced w in
    if not traced then (passes, [], end_to_end passes)
    else begin
      let registry = Registry.create () in
      let tracer = Tracer.create ~enabled:true ~limit:65_536 ~clock:(fun () -> 0.0) () in
      let traced_pass = run_pass ~registry ~tracer ~probe_audit:false w in
      let capture = Replay.new_capture () in
      let config = List.hd w.configs in
      issued := !issued + config.n_txns;
      let captured = Probe.observe ~on_setup:(Replay.attach capture) config in
      ( passes,
        [ ("the traced pass", traced_pass); ("the lock-capture run", [ captured ]) ],
        per_layer w passes ~traced:traced_pass ~registry ~tracer ~capture )
    end
  in
  match measure () with
  | exception e ->
    (* a program defect surfaced as an exception: the run cannot be measured *)
    prerr_endline ("gate failed: a run raised " ^ Printexc.to_string e);
    print_result ~correct:false ~attempted:!issued ~failed:!issued [];
    exit 1
  | passes, others, metrics ->
    let all_runs = List.concat passes @ List.concat_map snd others in
    let first = List.hd passes in
    let failures =
      List.concat_map (gate w) all_runs
      @ (let fp = fingerprint first in
         if List.for_all (fun p -> compare (fingerprint p) fp = 0) passes then []
         else [ "a pass did not repeat the first pass's deterministic results" ])
      @ List.filter_map
          (fun (what, runs) ->
            let expected = List.filteri (fun i _ -> i < List.length runs) (reports first) in
            if compare (reports runs) expected = 0 then None
            else Some (what ^ " did not return the first pass's reports"))
          others
    in
    List.iter (fun f -> prerr_endline ("gate failed: " ^ f)) failures;
    let correct = failures = [] in
    let attempted = sumi (fun (r : Probe.run) -> r.report.started) all_runs in
    let failed =
      if correct then
        sumi (fun (r : Probe.run) -> r.report.started - r.report.committed - r.report.aborted) all_runs
      else attempted
    in
    print_result ~correct ~attempted ~failed metrics;
    exit (if correct then 0 else 1)
