(** Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit") over
    the federation's decision logs.

    The commit/abort record that every protocol forces at one coordinator
    becomes a consensus instance replicated across 2F+1 acceptor sites, so
    a decision survives — and an in-doubt transaction can be completed by a
    {e new} leader — as long as F+1 acceptors are reachable. The gid's
    coordinator is its initial leader and owns ballot 0, making the
    fault-free path a single accept round (phase 1 skipped); leader
    recovery runs the classic prepare/accept ballots.

    The acceptor group is coordinator state: {!install} gives every
    {!Federation.coordinator} its {!Acceptor_group} ([sh_group]).
    [Federation.journal_decide] then replicates a decision over the
    deciding coordinator's group instead of forcing its log, and
    {!Central_recovery} reads the group's quorum before presuming abort.
    Without an installed group every run is byte-identical to the
    single-coordinator code. *)

module Acceptor = Acceptor_group.Acceptor

type t

(** [install fed ~acceptors] gives every coordinator an acceptor group of
    [acceptors] (= 2F+1, odd) sites: the central group is the federation's
    first 2F+1 sites; in a sharded federation each shard coordinator leads
    its own group over the shard's first min(2F+1, size) members
    (fast-path decisions replicate there, cross-shard ones at the central
    group). [failover_delay] (default 25.0) models crash detection plus
    election before a new leader acts. Registers the [icdb_paxos_*_total]
    counters — only here, so Paxos-free runs keep byte-identical metric
    snapshots. Raises [Invalid_argument] for an even or out-of-range group
    size. *)
val install : ?failover_delay:float -> Federation.t -> acceptors:int -> t

(** Group size (2F+1) this instance was installed with. *)
val group_size : t -> int

(** [replicate t ~gid ~commit] is the leader's ballot-0 accept round over
    the group of [gid]'s coordinator: the calling fiber blocks until the
    value is durable at an acceptor quorum (or every acceptor has
    answered). Exposed for tests; protocols reach it through
    [Federation.journal_decide]. *)
val replicate : t -> gid:int -> commit:bool -> unit

(** [read_decision t ~gid] is the quorum's memory of [gid]: the
    highest-ballot accepted value, or [None] when no acceptor ever voted
    (recovery then presumes abort). A stable-storage read; costs no
    messages. *)
val read_decision : t -> gid:int -> bool option

(** [failover fed ~gid] elects a new leader for [gid]'s instance: after the
    group's failover delay it runs prepare/accept at a fresh ballot
    (re-proposing the quorum's value, abort if the quorum is silent) and
    completes the transaction via {!Central_recovery.takeover}. Fault
    injectors call it right after simulating a coordinator crash. Returns
    immediately — the work runs in its own fiber; a transaction that
    closes in the meantime is left alone. A no-op when the gid's
    coordinator has no acceptor group. *)
val failover : Federation.t -> gid:int -> unit

(** Acceptor log forces across all groups (each acceptor counted once),
    accept rounds driven, and failovers triggered. *)
val acceptor_forces : t -> int

val rounds : t -> int
val failovers : t -> int
