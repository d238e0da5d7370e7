module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Lock = Icdb_lock.Lock_table
module Mode = Icdb_lock.Mode
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Batcher = Icdb_net.Batcher
module Db = Icdb_localdb.Engine
module Log = Icdb_wal.Log
module Conflict = Icdb_mlt.Conflict
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span
module Symbol = Icdb_util.Symbol

type journal_phase = Executing | Decided of bool

type journal_entry = {
  j_protocol : string;
  j_branches : (string * int) Queue.t;  (* in arrival order *)
  mutable j_phase : journal_phase;
}

(* Lifecycle notifications for the online monitors: the three journal
   choke points every protocol already routes through. *)
type journal_event =
  | J_opened of int
  | J_decided of { gid : int; commit : bool }
  | J_closed of int

(* One coordinator: the central system, or a shard coordinator (a
   contiguous group of sites whose first member doubles as coordinator).
   Each keeps its own stable journal and decision log (the L1 transaction
   manager of the paper's two-level split; a shard coordinator is the same
   component one level down), its own serial log device and group-commit
   queue, its own volatile CC and L1 tables — so a coordinator crash loses
   exactly its lock tables and recovery runs per coordinator — and,
   under Paxos Commit, the acceptor group that replicates its decisions. *)
type coordinator = {
  sh_name : string;  (* "central" | "shard-<id>": metric label and trace actor *)
  sh_coord : string;  (* coordinator site (first member); "central" is no site *)
  sh_sites : string list;
  sh_journal : (int, journal_entry) Hashtbl.t;
  sh_decision_log : (int, bool) Hashtbl.t;
  sh_cc : Mode.t Lock.t;
  sh_l1 : Conflict.clazz Lock.t;
  mutable sh_forces : int;
  mutable sh_decisions : int;
  mutable sh_cgc_waiters : unit Fiber.resumer list;
  mutable sh_cgc_scheduled : bool;
  mutable sh_busy_until : float;  (* decision-log device (serial) *)
  sh_decided_c : Registry.counter option;
  sh_forced : unit -> unit;
  mutable sh_group : Acceptor_group.t option;
}

type shard = coordinator

type cc_object = { cc_name : string; cc_table : Mode.t Lock.t; mutable cc_sym : Symbol.t }

type t = {
  engine : Sim.t;
  engines : Sim.t array; (* [| engine |]: the one engine every site runs on *)
  sites : (string * Site.t) list;
  by_name : (string, Site.t) Hashtbl.t;
  syms : Symbol.table;
      (* federation-level interner: global-CC and L1 lock objects; one per
         federation, so parallel sweep domains never share a table *)
  trace : Trace.t;
  registry : Registry.t;
  tracer : Tracer.t;
  metrics : Metrics.t;
  central : coordinator;
  global_cc : Mode.t Lock.t;  (* = central.sh_cc *)
  cc_objects : (string, (string, cc_object) Hashtbl.t) Hashtbl.t;
      (* site -> key -> that account's global-CC lock object, made on its
         first request *)
  conflict : Conflict.t;
  l1_locks : Conflict.clazz Lock.t;  (* = central.sh_l1 *)
  redo_log : Action_log.t;
  undo_log : Action_log.t;
  mlt_undo_log : Action_log.t;
  graph : Serialization_graph.t;
  mutable next_gid : int;
  mutable global_cc_enabled : bool;
  mutable central_fail : gid:int -> string -> unit;
  mutable journal_hook : journal_event -> unit;
  global_lock_timeout : float option;
  batchers : (string, Batcher.t) Hashtbl.t;
  central_gc_window : float option;
  (* protocol name -> per-phase [icdb_phase_time] histogram handles, filled
     lazily per slot so exactly the instruments the run uses exist — the
     hot path then skips the registry's per-call label-key allocation *)
  phase_hists : (string, Registry.histogram option array) Hashtbl.t;
  shards : coordinator array;  (* [||] = unsharded: central coordinates everything *)
  shard_of_site : (string, int) Hashtbl.t;
  gid_route : (int, int array) Hashtbl.t;
      (* gid -> sorted participating shard ids; a singleton routes the whole
         protocol round to that shard coordinator (the fast path), anything
         longer is a top-level transaction over the shard coordinators.
         Absent entries (and the whole table when unsharded) mean "central". *)
  decision_force_time : float option;
      (* service time of one decision-log force on its serial device; [None]
         models the force as instantaneous (the pre-sharding behavior) *)
}

let default_conflict =
  Conflict.of_commuting_pairs
    [
      ("read", "read");
      ("increment", "increment");
      ("increment", "decrement");
      ("decrement", "decrement");
      ("deposit", "deposit");
      ("deposit", "withdraw");
      ("withdraw", "withdraw");
      ("deposit", "transfer-in");
      ("deposit", "transfer-out");
      ("withdraw", "transfer-in");
      ("withdraw", "transfer-out");
      ("transfer-in", "transfer-in");
      ("transfer-in", "transfer-out");
      ("transfer-out", "transfer-out");
      ("read-balance", "read-balance");
    ]

(* --- observability glue --------------------------------------------------

   The lower layers (sim, net, lock, wal, localdb) expose generic hooks and
   know nothing about [icdb_obs]; this is the one place those hooks are
   pointed at the federation's registry and tracer. All handles are created
   once here, so the per-event cost is an increment (counters) or a single
   branch (tracer disabled). *)

(* One handler per lock table, labelled by table name ("global-cc", "l1", or
   the site name for a local database's table). [names] is the symbol table
   the lock table's objects are interned against; an object is resolved back
   to its string only when the tracer is enabled and a span label is
   actually materialized. *)
let lock_handler t ~table ~names =
  let labels = [ ("table", table) ] in
  let wait_h = Registry.histogram t.registry ~labels "icdb_lock_wait_time" in
  let hold_h = Registry.histogram t.registry ~labels "icdb_lock_hold_time" in
  let acquired = Registry.counter t.registry ~labels "icdb_lock_acquisitions_total" in
  let outcome_counter o =
    Registry.counter t.registry
      ~labels:(("outcome", o) :: labels)
      "icdb_lock_wait_outcomes_total"
  in
  let granted_c = outcome_counter "granted"
  and timeout_c = outcome_counter "timeout"
  and deadlock_c = outcome_counter "deadlock"
  and cancelled_c = outcome_counter "cancelled" in
  fun (e : Lock.observer_event) ->
    match e with
    | Lock.Acquired _ -> Registry.inc acquired
    | Lock.Wait_started _ -> ()
    | Lock.Wait_ended { obj; outcome; waited; _ } ->
      Registry.observe wait_h waited;
      Registry.inc
        (match outcome with
        | `Granted -> granted_c
        | `Timeout -> timeout_c
        | `Deadlock -> deadlock_c
        | `Cancelled -> cancelled_c);
      if Tracer.enabled t.tracer then
        Tracer.complete_lock t.tracer ~actor:table
          ~start:(Sim.now t.engine -. waited)
          ~wait:true ~table ~obj:(Symbol.name names obj)
    | Lock.Released { obj; held; _ } ->
      Registry.observe hold_h held;
      if Tracer.enabled t.tracer then
        Tracer.complete_lock t.tracer ~actor:table
          ~start:(Sim.now t.engine -. held)
          ~wait:false ~table ~obj:(Symbol.name names obj)

let observe_site t site_name site =
  let db = Site.db site in
  (* Wire events: per-(site, label) counters cached so the hot path is one
     hashtable probe, not a key allocation. *)
  let sent_cache : (string, Registry.counter) Hashtbl.t = Hashtbl.create 16 in
  let dropped =
    Registry.counter t.registry ~labels:[ ("site", site_name) ]
      "icdb_messages_dropped_total"
  in
  Link.set_observer (Site.link site) (function
    | Link.Msg_sent { label } ->
      let c =
        match Hashtbl.find_opt sent_cache label with
        | Some c -> c
        | None ->
          let c =
            Registry.counter t.registry
              ~labels:[ ("site", site_name); ("label", label) ]
              "icdb_messages_total"
          in
          Hashtbl.replace sent_cache label c;
          c
      in
      Registry.inc c;
      if Tracer.enabled t.tracer then
        Tracer.instant_message t.tracer ~actor:site_name ~label
          ~direction:Span.Send
    | Link.Msg_received { label } ->
      if Tracer.enabled t.tracer then
        Tracer.instant_message t.tracer ~actor:site_name ~label
          ~direction:Span.Recv
    | Link.Msg_dropped { label } ->
      Registry.inc dropped;
      if Tracer.enabled t.tracer then
        Tracer.instant_message t.tracer ~actor:site_name ~label
          ~direction:Span.Drop);
  (* Local lock table (survives restarts via the stored listener). *)
  Db.set_lock_observer db (lock_handler t ~table:site_name ~names:(Db.symbols db));
  (* WAL forces — the log object itself survives crashes, so wiring once is
     enough. *)
  let forces =
    Registry.counter t.registry ~labels:[ ("site", site_name) ]
      "icdb_wal_forces_total"
  in
  (* the kind is per-site constant: build it once, not per force *)
  let wal_kind = Span.Wal_force { site = site_name } in
  Log.set_force_hook (Db.wal db) (fun () ->
      Registry.inc forces;
      Tracer.instant t.tracer ~actor:site_name wal_kind);
  (* Site outages: crash opens the window, recovery closes it with a
     retrospective span. A crash with no later restart stays a bare mark. *)
  let crashes =
    Registry.counter t.registry ~labels:[ ("site", site_name) ]
      "icdb_site_crashes_total"
  in
  let down_since = ref nan in
  Db.set_state_hook db (function
    | `Crash ->
      Registry.inc crashes;
      down_since := Sim.now t.engine;
      Tracer.instant t.tracer ~actor:site_name (Span.Mark "crash")
    | `Recovered ->
      if not (Float.is_nan !down_since) then
        Tracer.complete t.tracer ~actor:site_name ~start:!down_since
          (Span.Outage { site = site_name });
      down_since := nan)

let install_observability t =
  List.iter (fun (name, site) -> observe_site t name site) t.sites;
  Lock.set_observer t.global_cc (lock_handler t ~table:"global-cc" ~names:t.syms);
  Lock.set_observer t.l1_locks (lock_handler t ~table:"l1" ~names:t.syms);
  (* Per-shard CC modules get their own table label, so lock metrics split
     by shard; unsharded federations have no shards and add no metrics. *)
  Array.iter
    (fun sh ->
      Lock.set_observer sh.sh_cc
        (lock_handler t ~table:(sh.sh_name ^ "-cc") ~names:t.syms);
      Lock.set_observer sh.sh_l1
        (lock_handler t ~table:(sh.sh_name ^ "-l1") ~names:t.syms))
    t.shards;
  let sim_events = Registry.counter t.registry "icdb_sim_events_total" in
  Sim.set_observer t.engine (fun () -> Registry.inc sim_events);
  (* Calendar-mode engine metrics are materialized on the first rebuild:
     seed-scale runs never cross the activation threshold, so creating them
     lazily keeps default-config metric snapshots byte-identical to
     pre-calendar ones. The counter is seeded with the events this engine
     already executed so it reads as a true lifetime total. *)
  let engine_events = ref None in
  Sim.set_resize_hook t.engine (fun ~buckets ~width:_ ~events ->
      let occupancy =
        Registry.histogram t.registry "icdb_engine_bucket_occupancy"
      in
      Registry.observe occupancy (float_of_int events /. float_of_int buckets);
      match !engine_events with
      | Some _ -> ()
      | None ->
        let c = Registry.counter t.registry "icdb_engine_events_total" in
        Registry.inc ~by:(Sim.executed t.engine) c;
        engine_events := Some c;
        Sim.set_observer t.engine (fun () ->
            Registry.inc sim_events;
            Registry.inc c))

(* A window of 0 (or less) means "off": the feature must be byte-invisible
   unless positively enabled, so reports with the default config reproduce
   pre-batching output exactly. *)
let normalize_window = function
  | Some w when w > 0.0 -> Some w
  | Some _ | None -> None

let create engine ?(latency = 1.0) ?(loss = 0.0) ?(global_lock_timeout = Some 200.0)
    ?(conflict = default_conflict) ?registry ?tracer ?(msg_batch_window = None)
    ?(central_gc_window = None) ?(shards = 1) ?(decision_force_time = None) configs =
  let msg_batch_window = normalize_window msg_batch_window in
  let central_gc_window = normalize_window central_gc_window in
  let decision_force_time = normalize_window decision_force_time in
  if shards < 1 then invalid_arg "Federation.create: fewer than one shard";
  if shards > List.length configs then
    invalid_arg "Federation.create: more shards than sites";
  let registry = match registry with Some r -> r | None -> Registry.create () in
  let tracer =
    match tracer with
    | Some tr -> tr
    | None -> Tracer.create ~clock:(fun () -> Sim.now engine) ()
  in
  let metrics = Metrics.create registry in
  let sites =
    List.map
      (fun (config : Db.config) ->
        let site = Site.create engine ~latency ~loss config in
        Db.set_hold_time_hook (Site.db site) (fun ~obj:_ ~duration ->
            Metrics.observe_hold_time metrics duration);
        (config.site_name, site))
      configs
  in
  let by_name = Hashtbl.create 16 in
  List.iter (fun (name, site) -> Hashtbl.replace by_name name site) sites;
  let syms = Symbol.create ~capacity:256 () in
  (* The L1 lock manager's compatibility checks run per acquisition; give
     the federation its own memoizing instance of the relation. *)
  let conflict = Conflict.memoized conflict in
  let coordinator_record ~name ~coord ~sites ~decided_c ~forced =
    {
      sh_name = name;
      sh_coord = coord;
      sh_sites = sites;
      sh_journal = Hashtbl.create 64;
      sh_decision_log = Hashtbl.create 256;
      sh_cc = Lock.create engine ~syms ~compatible:Mode.compatible ~combine:Mode.combine;
      sh_l1 =
        Lock.create engine ~syms ~compatible:(Conflict.compatible conflict)
          ~combine:(Conflict.combine conflict);
      sh_forces = 0;
      sh_decisions = 0;
      sh_cgc_waiters = [];
      sh_cgc_scheduled = false;
      sh_busy_until = 0.0;
      sh_decided_c = decided_c;
      sh_forced = forced;
      sh_group = None;
    }
  in
  (* Shard layout: contiguous balanced blocks of sites in creation order
     (site i -> shard i*S/n), first member of each block is the shard
     coordinator. [shards = 1] builds no shard at all: the central
     coordinator alone coordinates, exactly the pre-sharding federation. *)
  let shard_of_site = Hashtbl.create 16 in
  let names = List.map fst sites in
  let shards_arr =
    if shards = 1 then [||]
    else begin
      let n = List.length names in
      List.iteri (fun i name -> Hashtbl.replace shard_of_site name (i * shards / n)) names;
      Array.init shards (fun s ->
          let members = List.filteri (fun i _ -> i * shards / n = s) names in
          let name = "shard-" ^ string_of_int s in
          let counter metric = Registry.counter registry ~labels:[ ("shard", name) ] metric in
          let forces_c = counter "icdb_shard_decision_forces_total" in
          coordinator_record ~name ~coord:(List.hd members) ~sites:members
            ~decided_c:(Some (counter "icdb_shard_decisions_total"))
            ~forced:(fun () -> Registry.inc forces_c))
    end
  in
  (* The central coordinator's shared forces are counted and marked in the
     trace only with group commit on: created lazily, so default-config
     metric snapshots stay identical to pre-batching ones. *)
  let central_forced =
    match central_gc_window with
    | None -> ignore
    | Some _ ->
      let forces =
        Registry.counter registry ~labels:[ ("site", "central") ]
          "icdb_central_decision_forces_total"
      in
      let wal_kind = Span.Wal_force { site = "central" } in
      fun () ->
        Registry.inc forces;
        Tracer.instant tracer ~actor:"central" wal_kind
  in
  let central =
    coordinator_record ~name:"central" ~coord:"central" ~sites:names
      ~decided_c:None ~forced:central_forced
  in
  let t =
    {
      engine;
      engines = [| engine |];
      sites;
      by_name;
      syms;
      trace = Trace.create engine;
      registry;
      tracer;
      metrics;
      central;
      global_cc = central.sh_cc;
      cc_objects = Hashtbl.create 16;
      conflict;
      l1_locks = central.sh_l1;
      redo_log = Action_log.create ();
      undo_log = Action_log.create ();
      mlt_undo_log = Action_log.create ();
      graph = Serialization_graph.create ();
      next_gid = 0;
      global_cc_enabled = true;
      central_fail = (fun ~gid:_ _ -> ());
      journal_hook = (fun _ -> ());
      global_lock_timeout;
      batchers = Hashtbl.create 16;
      central_gc_window;
      phase_hists = Hashtbl.create 8;
      shards = shards_arr;
      shard_of_site;
      gid_route = Hashtbl.create 64;
      decision_force_time;
    }
  in
  install_observability t;
  (* Batching wiring is lazy on purpose: registry metrics exist from the
     moment they are created, so creating them only when the feature is on
     keeps default-config metric snapshots identical to pre-batching ones. *)
  (match msg_batch_window with
  | None -> ()
  | Some window ->
    List.iter
      (fun (name, site) ->
        let b = Batcher.create engine (Site.link site) ~window in
        let h =
          Registry.histogram registry ~labels:[ ("site", name) ]
            "icdb_batch_occupancy"
        in
        Batcher.set_observer b (fun n -> Registry.observe h (float_of_int n));
        Hashtbl.replace t.batchers name b)
      t.sites);
  t

let site t name =
  match Hashtbl.find_opt t.by_name name with
  | Some s -> s
  | None -> raise Not_found

(* Intern a global lock-object name (global-CC "site/key" objects, L1
   objects) against the federation's symbol table. *)
let intern t s = Symbol.intern t.syms s

(* Pre-resolved [icdb_phase_time] handle for a (protocol, phase) pair.
   Slots fill lazily on first use so a run registers exactly the instruments
   it would have before — metric snapshots stay identical — while repeat
   observations skip the registry lookup and its label-list allocation. *)
let phase_histogram t ~protocol phase =
  let slots =
    match Hashtbl.find_opt t.phase_hists protocol with
    | Some slots -> slots
    | None ->
      let slots = Array.make Span.num_phases None in
      Hashtbl.replace t.phase_hists protocol slots;
      slots
  in
  let i = Span.phase_index phase in
  match slots.(i) with
  | Some h -> h
  | None ->
    let h =
      Registry.histogram t.registry
        ~labels:[ ("protocol", protocol); ("phase", Span.phase_name phase) ]
        "icdb_phase_time"
    in
    slots.(i) <- Some h;
    h

let site_names t = List.map fst t.sites

let fresh_gid t =
  t.next_gid <- t.next_gid + 1;
  t.next_gid

let sharded t = Array.length t.shards > 0

(* The participating shard ids a gid was opened with (sorted), or [None]
   when the federation is unsharded / the gid was opened without sites. *)
let route t gid = Hashtbl.find_opt t.gid_route gid

(* The coordinator owning a route: the shard on the single-shard fast path,
   the central system for everything else. *)
let owner t = function Some [| s |] -> t.shards.(s) | Some _ | None -> t.central
let coordinator t ~gid = owner t (route t gid)

(* Cross-shard transactions keep a mirror entry at each participating shard
   coordinator; everything else has none. *)
let mirrors = function Some r when Array.length r > 1 -> r | Some _ | None -> [||]

let coordinators t = t.central :: Array.to_list t.shards

let decision t ~gid =
  List.find_map (fun c -> Hashtbl.find_opt c.sh_decision_log gid) (coordinators t)

let decision_log_size t =
  List.fold_left (fun acc c -> acc + Hashtbl.length c.sh_decision_log) 0 (coordinators t)

let journal_open_routed t ~sites ~gid ~protocol =
  let entry () = { j_protocol = protocol; j_branches = Queue.create (); j_phase = Executing } in
  (* no recognizable member sites (or no shards): the central system
     coordinates, as it would have before sharding *)
  let route =
    if not (sharded t) then None
    else
      match
        List.filter_map (Hashtbl.find_opt t.shard_of_site) sites
        |> List.sort_uniq compare |> Array.of_list
      with
      | [||] -> None
      | r ->
        Hashtbl.replace t.gid_route gid r;
        Some r
  in
  (* the owner's entry, plus — for a top-level transaction — one mirror per
     participating shard, each holding that shard's branches (what the shard
     coordinator knows as an L1 participant) *)
  Hashtbl.replace (owner t route).sh_journal gid (entry ());
  Array.iter (fun s -> Hashtbl.replace t.shards.(s).sh_journal gid (entry ())) (mirrors route);
  t.journal_hook (J_opened gid)

(* Legacy entry point: central coordinates (no route), exactly as before
   sharding existed. Tests and hand-built transactions use it. *)
let journal_open t ~gid ~protocol = journal_open_routed t ~sites:[] ~gid ~protocol

let journal_branch t ~gid ~site ~txn_id =
  let route = route t gid in
  let branch = (site, txn_id) in
  (match Hashtbl.find (owner t route).sh_journal gid with
  | entry -> Queue.push branch entry.j_branches
  | exception Not_found -> failwith "Federation: no journal entry for this transaction");
  if Array.length (mirrors route) > 0 then
    match Hashtbl.find_opt t.shard_of_site site with
    | Some s -> (
      match Hashtbl.find_opt t.shards.(s).sh_journal gid with
      | Some mirror -> Queue.push branch mirror.j_branches
      | None -> ())
    | None -> ()

(* One decision-log force at [c]. With group commit on, every decision made
   within one [central_gc_window] shares a single force: the caller (always
   a protocol fiber) blocks until the shared force completes, so the
   decision is durable on return. Off, the log is a serial device: forces
   queue behind each other on [c]'s [busy_until] watermark, each occupying
   the log head for [decision_force_time] — so S shards plus the central
   system really are S+1 independent log heads, the resource the sharding
   experiment varies. [None] keeps the pre-sharding model of an
   instantaneous force. *)
let force t c =
  match (t.central_gc_window, t.decision_force_time) with
  | None, None -> ()
  | None, Some ft ->
    let now = Sim.now t.engine in
    let start = if c.sh_busy_until > now then c.sh_busy_until else now in
    let fin = start +. ft in
    c.sh_busy_until <- fin;
    Fiber.sleep t.engine (fin -. now)
  | Some window, _ ->
    Fiber.await (fun resumer ->
        c.sh_cgc_waiters <- resumer :: c.sh_cgc_waiters;
        if not c.sh_cgc_scheduled then begin
          c.sh_cgc_scheduled <- true;
          ignore
            (Sim.schedule t.engine ~delay:window (fun () ->
                 let waiters = List.rev c.sh_cgc_waiters in
                 c.sh_cgc_waiters <- [];
                 c.sh_cgc_scheduled <- false;
                 c.sh_forces <- c.sh_forces + 1;
                 c.sh_forced ();
                 List.iter (fun r -> r (Ok ())) waiters))
        end)

(* Record a decision at coordinator [c]: its journal entry (if still open)
   flips to [Decided], and its stable decision log and counters advance. *)
let decide c ~gid ~commit =
  (match Hashtbl.find_opt c.sh_journal gid with
  | Some entry -> entry.j_phase <- Decided commit
  | None -> ());
  Hashtbl.replace c.sh_decision_log gid commit;
  c.sh_decisions <- c.sh_decisions + 1;
  match c.sh_decided_c with Some k -> Registry.inc k | None -> ()

(* The owner decides, then makes the decision durable: an accept round over
   its acceptor group under Paxos Commit (its own log is then just a cache
   and never forced), its own log force otherwise. A cross-shard decision is
   then pushed to every participating shard coordinator, which records it in
   its mirror and forces its own log before acknowledging. A shard
   coordinator down past the RPC retry budget simply misses the round — the
   decision is durable at the top level, and per-coordinator recovery
   pushes it when the coordinator comes back ({!Central_recovery}). *)
let journal_decide t ~gid ~commit =
  let route = route t gid in
  let c = owner t route in
  decide c ~gid ~commit;
  t.journal_hook (J_decided { gid; commit });
  (match c.sh_group with
  | Some group -> Acceptor_group.replicate group ~gid ~commit
  | None -> force t c);
  match mirrors route with
  | [||] -> ()
  | shards ->
    ignore
      (Fiber.all t.engine
         (List.map
            (fun s () ->
              let sh = t.shards.(s) in
              try
                Link.rpc ~gid
                  (Site.link (Hashtbl.find t.by_name sh.sh_coord))
                  ~label:"shard-decide"
                  (fun () ->
                    decide sh ~gid ~commit;
                    force t sh;
                    ("shard-decided", ()))
              with Link.Unreachable _ -> ())
            (Array.to_list shards)))

let journal_close t ~gid =
  let route = route t gid in
  Hashtbl.remove (owner t route).sh_journal gid;
  Array.iter (fun s -> Hashtbl.remove t.shards.(s).sh_journal gid) (mirrors route);
  Hashtbl.remove t.gid_route gid;
  (* The transaction is finished at the coordinator: any receiver-side dedup
     state its wire exchanges left behind (orphans from capped retries) can
     never be consulted again — evict it. *)
  List.iter (fun (_, site) -> Link.evict_gid (Site.link site) ~gid) t.sites;
  (* fired after the removal so a monitor sees the post-close journal *)
  t.journal_hook (J_closed gid)

let batcher t name = Hashtbl.find_opt t.batchers name

(* Decision-log forces at one coordinator: with group commit on, the shared
   forces that actually happened; off, one (conceptual) force per decision —
   the §5 baseline the group-commit numbers are compared against. Under
   Paxos Commit the coordinator's log is never forced for its own decisions
   (durability lives at the acceptor quorum; see
   [Paxos_commit.acceptor_forces]). *)
let log_forces t c =
  if Option.is_some c.sh_group then 0
  else if t.central_gc_window <> None then c.sh_forces
  else c.sh_decisions

let central_log_forces t = log_forces t t.central

let batch_envelopes t =
  Hashtbl.fold (fun _ b acc -> acc + Batcher.envelope_count b) t.batchers 0

let batch_occupancy_mean t =
  let members =
    Hashtbl.fold (fun _ b acc -> acc + Batcher.member_count b) t.batchers 0
  in
  let envelopes = batch_envelopes t in
  if envelopes = 0 then 0.0 else float_of_int members /. float_of_int envelopes

(* Every coordinator's own entries, one per gid: a cross-shard transaction
   appears once, as the top entry (it has every branch and the
   authoritative phase; the mirrors only their shard's slice). *)
let journal_open_entries t =
  List.fold_left
    (fun acc c ->
      Hashtbl.fold
        (fun gid entry acc -> if coordinator t ~gid == c then (gid, entry) :: acc else acc)
        c.sh_journal acc)
    [] (coordinators t)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Raw open-entry count across every coordinator's journal (cross-shard
   mirrors counted once per shard they live at) — zero exactly when every
   journal is empty, which is what the quiescence monitors and drain checks
   ask. *)
let total_journal_entries t =
  Array.fold_left
    (fun acc sh -> acc + Hashtbl.length sh.sh_journal)
    (Hashtbl.length t.central.sh_journal)
    t.shards

(* {2 Sharded lock-table routing}

   The additional CC module and the L1 lock manager live at the shard
   coordinator owning the object's site; unsharded federations (and objects
   at unknown sites) keep the central tables. Lock objects are "site/key"
   strings, disjoint across shards, so routing changes which volatile table
   holds an entry — and therefore what a shard-coordinator crash wipes —
   without changing any grant decision. *)

let shard_for_site t site =
  if not (sharded t) then None else Hashtbl.find_opt t.shard_of_site site

let site_coordinator t site =
  match shard_for_site t site with Some s -> t.shards.(s) | None -> t.central

let cc_table t ~site = (site_coordinator t site).sh_cc
let l1_table t ~site = (site_coordinator t site).sh_l1

(* The global-CC lock object of [key] at [site]: its ["site/key"] name, the
   CC table that owns it, and its symbol, interned on the first request for
   it (as interning at every request would). Cached per account, so a
   request builds no name. *)
let cc_object t ~site ~key =
  let by_key =
    match Hashtbl.find t.cc_objects site with
    | tbl -> tbl
    | exception Not_found ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.replace t.cc_objects site tbl;
      tbl
  in
  match Hashtbl.find by_key key with
  | o -> o
  | exception Not_found ->
    let o = { cc_name = site ^ "/" ^ key; cc_table = cc_table t ~site; cc_sym = -1 } in
    Hashtbl.replace by_key key o;
    o

let cc_symbol t o =
  if o.cc_sym < 0 then o.cc_sym <- intern t o.cc_name;
  o.cc_sym

(* Release everything a global transaction holds, wherever it holds it.
   [release_all] is a no-op per table when the owner holds nothing there. *)
let release_cc_owner t ~gid =
  Lock.release_all t.global_cc ~owner:gid;
  Array.iter (fun sh -> Lock.release_all sh.sh_cc ~owner:gid) t.shards

let release_l1_owner t ~gid =
  Lock.release_all t.l1_locks ~owner:gid;
  Array.iter (fun sh -> Lock.release_all sh.sh_l1 ~owner:gid) t.shards

(* Trace/span actor for a global transaction: its coordinator's name —
   always "central" when unsharded, so traces are byte-identical. *)
let gid_actor t ~gid = (coordinator t ~gid).sh_name

(* A coordinator crash loses its volatile lock state (its CC module and L1
   manager); its stable journal and decision log survive. Crashing a shard
   coordinator's {e site} is the caller's separate decision. *)
let crash_coordinator c =
  Lock.reset c.sh_cc;
  Lock.reset c.sh_l1

let shard_crash t ~shard = crash_coordinator t.shards.(shard)

(* Shard decision-log forces, summed: same convention as
   {!central_log_forces}, including the Paxos gate. *)
let shard_log_forces t = Array.fold_left (fun acc sh -> acc + log_forces t sh) 0 t.shards

let shard_decisions t =
  Array.fold_left (fun acc sh -> acc + sh.sh_decisions) 0 t.shards

let total_messages t =
  List.fold_left (fun acc (_, site) -> acc + Link.message_count (Site.link site)) 0 t.sites

let messages_by_label t =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun (_, site) ->
      List.iter
        (fun (label, n) ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt merged label) in
          Hashtbl.replace merged label (cur + n))
        (Link.messages_by_label (Site.link site)))
    t.sites;
  Hashtbl.fold (fun label n acc -> (label, n) :: acc) merged [] |> List.sort compare

let reset_message_counters t =
  List.iter (fun (_, site) -> Link.reset_counters (Site.link site)) t.sites

(* Sites in name order, then each site's records in key order: the order
   of sorting the (site, key, value) triples, without sorting them. *)
let fold_committed t ~init ~f =
  List.sort (fun (a, _) (b, _) -> String.compare a b) t.sites
  |> List.fold_left
       (fun acc (name, site) ->
         Db.fold_committed (Site.db site) ~init:acc ~f:(fun acc key v ->
             if Db.internal_key key then acc else f acc name key v))
       init

let snapshot t =
  List.rev (fold_committed t ~init:[] ~f:(fun acc name key v -> (name, key, v) :: acc))

let money t = fold_committed t ~init:0 ~f:(fun acc _ _ v -> acc + v)
