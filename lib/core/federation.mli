(** The integrated database system: central system + local systems (Fig. 1).

    A federation bundles everything the global transaction manager needs:
    the simulated sites with their links, its coordinators, the L1 conflict
    relation for multi-level transactions (§4), the central redo-/undo-logs,
    metrics, the protocol trace and the serialization-graph recorder.

    A coordinator ({!type-coordinator}) owns a stable journal and decision log,
    a serial decision-log device with its group-commit queue, the volatile
    additional CC module (§3.2/§3.3) and L1 lock manager, and — under
    Paxos Commit — the acceptor group replicating its decisions. The
    central system is one coordinator; a sharded federation adds one per
    shard, the same component one level down. Each gid is routed to one
    coordinator ({!val-coordinator}); a cross-shard transaction is the central
    coordinator over mirror entries at the participating shards. *)

(** How far a global transaction's protocol run had progressed, as recorded
    in the central system's stable journal. Central-crash recovery presumes
    abort for [Executing] entries and pushes the decision for [Decided]
    ones. *)
type journal_phase = Executing | Decided of bool

(** One journal entry per in-flight global transaction. [branches] collects
    [(site, local transaction id)] pairs in the order they become known —
    enough for recovery to find in-doubt locals and abort orphaned running
    ones. *)
type journal_entry = {
  j_protocol : string;  (** "2pc" | "after" | "before" | "mlt" | ... *)
  j_branches : (string * int) Queue.t;
  mutable j_phase : journal_phase;
}

(** Journal lifecycle notifications, fired at the three choke points every
    protocol routes through ({!journal_open}, {!journal_decide},
    {!journal_close} — the latter after the entry is removed). The online
    monitors ({!Monitor}) listen here; default listener is a no-op. *)
type journal_event =
  | J_opened of int
  | J_decided of { gid : int; commit : bool }
  | J_closed of int

(** One coordinator: the central system, or a shard coordinator — a
    contiguous group of sites whose first member coordinates. A shard
    coordinator is simultaneously an L1 participant of top-level
    (cross-shard) transactions and the L0 coordinator of transactions
    confined to its shard (the paper's two-level split, one level down).
    The volatile lock tables model the CC state a coordinator crash
    loses. *)
type coordinator = {
  sh_name : string;  (** "central" | "shard-<id>": metric label and trace actor *)
  sh_coord : string;
      (** coordinator site name (first member); "central" for the central
          system, which is no site *)
  sh_sites : string list;  (** member sites; every site at central *)
  sh_journal : (int, journal_entry) Hashtbl.t;
  sh_decision_log : (int, bool) Hashtbl.t;  (** gid -> decision (stable) *)
  sh_cc : Icdb_lock.Mode.t Icdb_lock.Lock_table.t;
  sh_l1 : Icdb_mlt.Conflict.clazz Icdb_lock.Lock_table.t;
  mutable sh_forces : int;  (** shared group-commit forces taken *)
  mutable sh_decisions : int;
  mutable sh_cgc_waiters : unit Icdb_sim.Fiber.resumer list;
  mutable sh_cgc_scheduled : bool;
  mutable sh_busy_until : float;  (** serial decision-log device *)
  sh_decided_c : Icdb_obs.Registry.counter option;
      (** [icdb_shard_decisions_total{shard}]; none at central *)
  sh_forced : unit -> unit;
      (** counts one shared group-commit force in the registry (and marks
          it in the trace at central) *)
  mutable sh_group : Acceptor_group.t option;
      (** the acceptor group replicating this coordinator's decisions,
          set by {!Paxos_commit.install}; [None] = own log forces *)
}

type shard = coordinator

(** A global-CC lock object: an account's ["site/key"] name, the CC table
    that owns it (the shard coordinator's, or central's when unsharded) and
    its symbol in {!t.syms} ([-1] until first requested). *)
type cc_object = private {
  cc_name : string;
  cc_table : Icdb_lock.Mode.t Icdb_lock.Lock_table.t;
  mutable cc_sym : Icdb_util.Symbol.t;
}

type t = {
  engine : Icdb_sim.Engine.t;
  engines : Icdb_sim.Engine.t array;
      (** [[| engine |]]: every site runs on the federation's one engine *)
  sites : (string * Icdb_net.Site.t) list;  (** in creation order *)
  by_name : (string, Icdb_net.Site.t) Hashtbl.t;
  syms : Icdb_util.Symbol.table;
      (** federation-level interner: the global-CC and L1 lock tables key
          their objects by symbols of this table (each site's local table
          uses the site engine's own) *)
  trace : Icdb_sim.Trace.t;
  registry : Icdb_obs.Registry.t;
      (** all numeric observations (metrics, message / lock / WAL counts,
          protocol phase latencies) land here *)
  tracer : Icdb_obs.Tracer.t;
      (** span recorder; disabled unless the caller passed an enabled one *)
  metrics : Metrics.t;
  central : coordinator;
      (** the central system: coordinates every gid not routed to a single
          shard *)
  global_cc : Icdb_lock.Mode.t Icdb_lock.Lock_table.t;
      (** [central.sh_cc], the central additional CC module: strict global
          2PL on (site/key) *)
  cc_objects : (string, (string, cc_object) Hashtbl.t) Hashtbl.t;
      (** site -> key -> global-CC lock object, behind {!cc_object} *)
  conflict : Icdb_mlt.Conflict.t;
  l1_locks : Icdb_mlt.Conflict.clazz Icdb_lock.Lock_table.t;
      (** [central.sh_l1], the central L1 lock manager: commutativity-based
          compatibility *)
  redo_log : Action_log.t;  (** commitment-after (§3.2) *)
  undo_log : Action_log.t;  (** commitment-before standalone (§3.3) *)
  mlt_undo_log : Action_log.t;
      (** the L1 transaction manager's own undo-log, reused by
          commitment-before under multi-level transactions (§4.3) *)
  graph : Serialization_graph.t;
  mutable next_gid : int;
  mutable global_cc_enabled : bool;
      (** V7 switches this off to demonstrate the serializability
          requirements; never disable it otherwise *)
  mutable central_fail : gid:int -> string -> unit;
      (** fault-injection hook called by protocols at named points
          ("executed", "decided", ...); tests make it raise to simulate a
          central-system crash mid-protocol. Default: no-op. *)
  mutable journal_hook : journal_event -> unit;
      (** journal lifecycle listener (see {!journal_event}); installing
          replaces the previous listener. Default: no-op. *)
  global_lock_timeout : float option;
  batchers : (string, Icdb_net.Batcher.t) Hashtbl.t;
      (** per-site decision-traffic batchers; empty unless
          [msg_batch_window] was set at creation *)
  central_gc_window : float option;
      (** group-commit window for every coordinator's decision log; [None]
          = each decision is forced on its own (the pre-batching model) *)
  phase_hists : (string, Icdb_obs.Registry.histogram option array) Hashtbl.t;
      (** lazily filled per-(protocol, phase) handle cache behind
          {!phase_histogram} *)
  shards : coordinator array;
      (** [[||]] when unsharded — the central coordinator then coordinates
          every gid, exactly the pre-sharding federation *)
  shard_of_site : (string, int) Hashtbl.t;
  gid_route : (int, int array) Hashtbl.t;
      (** gid -> sorted participating shard ids, registered by
          {!journal_open}; a singleton is the single-shard fast path *)
  decision_force_time : float option;
      (** service time of one decision-log force on its coordinator's
          serial log device; [None] (default) = instantaneous forces, the
          pre-sharding model. Ignored while [central_gc_window] batches
          forces. *)
}

(** [create engine ?latency ?loss ?global_lock_timeout ?conflict configs]
    builds one site per config. [latency] is the per-direction link delay
    (default 1.0); [loss] the per-message-copy drop probability (default 0,
    see {!Icdb_net.Link}); [global_lock_timeout] bounds waits in the
    additional CC module and the L1 lock manager (default [Some 200.]);
    [conflict] is the L1 commutativity relation (default
    {!Icdb_mlt.Conflict.banking} merged with read/write/increment classes —
    see {!default_conflict}).

    [registry] lets several runs share one metrics registry (e.g. [icdb
    check]'s combined snapshot); default is a fresh one. [tracer] installs a
    span recorder; default is a disabled tracer on the engine's virtual
    clock, whose per-event cost is a single branch. Either way, the
    federation wires the sim engine, every link, every lock table (global
    CC, L1, and each site's local table — across restarts), every WAL, and
    the site crash/recovery transitions into them.

    [msg_batch_window] (default [None]) turns on per-site decision-message
    piggybacking: one {!Icdb_net.Batcher} per site with that window, plus an
    [icdb_batch_occupancy{site}] histogram. [central_gc_window] (default
    [None]) turns on group commit for every coordinator's decision log:
    {!journal_decide} calls within one window share a single log force,
    counted by [icdb_central_decision_forces_total] at central. Both treat a
    non-positive window as [None], and when off add no metrics and no
    behavior change — default-config runs are byte-identical to before.

    [shards] (default 1) groups the sites into that many contiguous
    balanced shards, each coordinated by its first site; 1 builds no shard
    state at all and reproduces unsharded runs byte-for-byte.
    [decision_force_time] (default [None]) gives every decision-log force a
    service time on its coordinator's serial log device — the knob the S2
    sharding lab turns to expose the central log as the bottleneck. Raises
    [Invalid_argument] when [shards] is below 1 or exceeds the site
    count. *)
val create :
  Icdb_sim.Engine.t ->
  ?latency:float ->
  ?loss:float ->
  ?global_lock_timeout:float option ->
  ?conflict:Icdb_mlt.Conflict.t ->
  ?registry:Icdb_obs.Registry.t ->
  ?tracer:Icdb_obs.Tracer.t ->
  ?msg_batch_window:float option ->
  ?central_gc_window:float option ->
  ?shards:int ->
  ?decision_force_time:float option ->
  Icdb_localdb.Engine.config list ->
  t

(** The relation used when [?conflict] is omitted: banking classes plus
    read/write/increment. *)
val default_conflict : Icdb_mlt.Conflict.t

(** [site t name]. Raises [Not_found] for unknown names. *)
val site : t -> string -> Icdb_net.Site.t

(** [intern t s] interns a global lock-object name against the federation's
    symbol table (use for global-CC and L1 lock objects). *)
val intern : t -> string -> Icdb_util.Symbol.t

(** Pre-resolved handle on the [icdb_phase_time{protocol, phase}] histogram:
    first use registers the instrument (exactly as the direct registry call
    would), repeat uses are an array index. *)
val phase_histogram :
  t -> protocol:string -> Icdb_obs.Span.phase -> Icdb_obs.Registry.histogram

val site_names : t -> string list
val fresh_gid : t -> int

(** [decision t ~gid] looks the decision up in the central log first, then
    in every shard's log — a decision is a decision no matter which
    coordinator logged it. *)
val decision : t -> gid:int -> bool option

(** Stable decision records across the central and all shard logs. *)
val decision_log_size : t -> int

(** {2 Sharding} *)

(** Whether the federation was created with [shards > 1]. *)
val sharded : t -> bool

(** [route t gid] is the sorted participating shard ids {!journal_open}
    registered for [gid]; [None] when unsharded or opened without sites
    (central coordinates either way). *)
val route : t -> int -> int array option

(** [coordinator t ~gid] is the coordinator owning [gid]: its shard's on
    the single-shard fast path, {!t.central} otherwise. *)
val coordinator : t -> gid:int -> coordinator

(** The central coordinator, then every shard's. *)
val coordinators : t -> coordinator list

(** The shard owning a site, or [None] when unsharded / unknown. *)
val shard_for_site : t -> string -> int option

(** The CC-module / L1 lock table responsible for objects at [site]: the
    owning shard's table, or the central one when unsharded. *)
val cc_table : t -> site:string -> Icdb_lock.Mode.t Icdb_lock.Lock_table.t

val l1_table : t -> site:string -> Icdb_mlt.Conflict.clazz Icdb_lock.Lock_table.t

(** [cc_object t ~site ~key] is the global-CC lock object of [key] at
    [site], made on its first request and cached. *)
val cc_object : t -> site:string -> key:string -> cc_object

(** [cc_symbol t o] is [o]'s symbol, interning its name on first use. *)
val cc_symbol : t -> cc_object -> Icdb_util.Symbol.t

(** Release a global transaction's locks across the central and every
    shard table (no-op per table where it holds nothing). *)
val release_cc_owner : t -> gid:int -> unit

val release_l1_owner : t -> gid:int -> unit

(** Coordinator actor for a gid's spans and traces: its coordinator's
    [sh_name] — "shard-<i>" on the single-shard fast path, "central"
    otherwise. *)
val gid_actor : t -> gid:int -> string

(** [crash_coordinator c] wipes [c]'s volatile lock tables (CC module + L1
    manager); its stable journal and decision log survive. *)
val crash_coordinator : coordinator -> unit

(** [shard_crash t ~shard] is {!crash_coordinator} on one shard. Crashing
    the coordinator site itself is the caller's separate step. *)
val shard_crash : t -> shard:int -> unit

(** Shard decision-log forces summed over shards (group-commit forces when
    the window is on, one per shard decision otherwise), and total shard
    decisions. Both 0 when unsharded. *)
val shard_log_forces : t -> int

val shard_decisions : t -> int

(** {2 Journal (used by the protocols and recovery)} *)

(** [journal_open_routed t ~sites ~gid ~protocol] adds an [Executing]
    entry. In a sharded federation [sites] (the member sites the
    transaction will touch) routes the entry: one shard — the entry lives
    only in that shard's journal and the whole commit round stays there;
    several — a top-level entry plus a mirror at each participating shard.
    An empty/unknown site list (or an unsharded federation) keeps the
    central journal, as before. *)
val journal_open_routed :
  t -> sites:string list -> gid:int -> protocol:string -> unit

(** [journal_open t ~gid ~protocol] = [journal_open_routed ~sites:[]]: the
    central system coordinates. *)
val journal_open : t -> gid:int -> protocol:string -> unit

(** [journal_branch t ~gid ~site ~txn_id] appends one local transaction to
    the gid's journal entry (cross-shard transactions also to the owning
    shard's mirror), in O(1). *)
val journal_branch : t -> gid:int -> site:string -> txn_id:int -> unit

(** [journal_decide t ~gid ~commit] flips the entry at the gid's
    coordinator to [Decided] {e and} writes its decision log, then makes
    the decision durable before returning: an accept round over the
    coordinator's acceptor group when it has one, its own log force
    otherwise (with [central_gc_window] set the caller, a protocol fiber,
    blocks until the window's shared force completes). A single-shard
    transaction decides entirely at its shard coordinator (no top-level
    write, force or message); a cross-shard one decides at central and then
    runs a "shard-decide" RPC round over the participating shard
    coordinators, each recording the decision in its mirror and forcing
    its own log before acknowledging (a coordinator down past the retry
    budget misses the round and is caught up by its recovery). *)
val journal_decide : t -> gid:int -> commit:bool -> unit

(** [journal_close t ~gid] removes the entry (and any shard mirrors) once
    every site has applied the outcome. *)
val journal_close : t -> gid:int -> unit

(** Open entries (recovery's work list), sorted by gid: every
    coordinator's own entries, one per gid (cross-shard transactions
    appear as their central entry, which has every branch, not as
    mirrors). *)
val journal_open_entries : t -> (int * journal_entry) list

(** Raw open-entry count over every coordinator's journal (mirrors counted
    per shard); 0 exactly when every journal is empty — the quiescence
    check the monitors and drain probes use. *)
val total_journal_entries : t -> int

(** Sum of message counts over all links, and the per-label breakdown. *)
val total_messages : t -> int

val messages_by_label : t -> (string * int) list

val reset_message_counters : t -> unit

(** {2 Commit-overhead batching} *)

(** [batcher t site] is the site's decision-traffic batcher, or [None] when
    message batching is off. Protocols route decision-phase traffic through
    it via {!Protocol_common}. *)
val batcher : t -> string -> Icdb_net.Batcher.t option

(** Central decision-log forces: with group commit on, the shared forces
    that actually happened; off, one per decision (the baseline they are
    compared against). Always 0 while the coordinator has an acceptor group
    — durability then lives at the acceptor quorum. *)
val central_log_forces : t -> int

(** Batch envelopes put on the wire across all sites, and members per
    envelope on average (0 with batching off). *)
val batch_envelopes : t -> int

val batch_occupancy_mean : t -> float

(** Committed state across all sites, protocol marker keys filtered out:
    [(site, key, value)] sorted. The invariant checks of the test-suite and
    the V6 crash matrix compare these snapshots. Built from one
    {!Icdb_localdb.Engine.fold_committed} per site, in site-name order. *)
val snapshot : t -> (string * string * int) list

(** Sum of every committed value in {!snapshot}, computed without building
    it: the end-of-run money audit. *)
val money : t -> int
