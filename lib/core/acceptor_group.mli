(** The replicated decision log of Paxos Commit (Gray & Lamport,
    "Consensus on Transaction Commit"): one coordinator's commit/abort
    records, each a consensus instance over 2F+1 acceptor sites.

    A group is coordinator state ({!Federation.coordinator}'s [sh_group]):
    the coordinator is every instance's initial leader and owns ballot 0,
    so the fault-free path is one {!replicate} round with phase 1 skipped;
    a new leader runs {!prepare_round} then {!accept_round} at a higher
    ballot ({!Paxos_commit.failover}). Needs only sites, links and fibers,
    so it sits below {!Federation}. *)

module Acceptor : sig
  (** One acceptor site's replicated decision-log fragment: per-gid
      (promised ballot, accepted vote) pairs on stable storage — they
      survive the site's crashes, but a down acceptor answers nothing until
      restart. *)
  type t

  val create : Icdb_net.Site.t -> t
  val name : t -> string

  (** Log forces this acceptor performed (one per promise, one per vote). *)
  val forces : t -> int

  (** Last accepted (ballot, value) vote for [gid], if any. *)
  val accepted : t -> gid:int -> (int * bool) option

  (** Phase 2b: vote for (ballot, value) and force, unless a higher ballot
      was promised. Returns whether the vote was cast. *)
  val receive_accept : t -> gid:int -> ballot:int -> value:bool -> bool

  type promise = Rejected | Promised of (int * bool) option

  (** Phase 1b: promise [ballot] (forced) and report the last accepted
      vote; [Rejected] if an equal-or-higher ballot was already promised. *)
  val receive_prepare : t -> gid:int -> ballot:int -> promise
end

(** Round, force and failover counts shared by every group of one Paxos
    Commit installation. *)
type stats

(** [stats registry] registers the [icdb_paxos_*_total] counters — only
    when Paxos Commit is installed, so Paxos-free runs keep byte-identical
    metric snapshots. *)
val stats : Icdb_obs.Registry.t -> stats

val rounds : stats -> int
val failovers : stats -> int

type t

val create : stats:stats -> failover_delay:float -> Acceptor.t array -> t
val members : t -> Acceptor.t array

(** Crash detection plus election time before a new leader acts. *)
val failover_delay : t -> float

(** [replicate t ~gid ~commit] is the leader's ballot-0 accept round: the
    calling fiber blocks until the value is durable at a quorum (or every
    acceptor has answered). *)
val replicate : t -> gid:int -> commit:bool -> unit

(** One accept round at [ballot], blocking like {!replicate}. *)
val accept_round : t -> gid:int -> ballot:int -> value:bool -> unit

(** Phase 1 at a fresh ballot for [gid]: whether a quorum promised, and the
    ballot to run {!accept_round} at. *)
val prepare_round : t -> gid:int -> bool * int

(** [read_decision t ~gid] is the quorum's memory of [gid]: the
    highest-ballot accepted value, or [None] when no acceptor ever voted.
    A stable-storage read; costs no messages. *)
val read_decision : t -> gid:int -> bool option

(** Count one leader failover in the shared stats. *)
val count_failover : t -> unit
