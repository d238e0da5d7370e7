(** Recovery of the {e central} system and of shard coordinators.

    The paper assumes the global transaction manager survives; this module
    answers the obvious follow-up — what if it does not? A coordinator's
    stable state is its decision log and per-transaction protocol journal,
    plus the central redo-/undo-logs. Its volatile state — the additional
    CC module's lock table, the L1 lock table, and every in-flight protocol
    fiber — is lost by {!crash}.

    {!recover} then completes every journaled transaction:

    - entries still [Executing] are {b presumed aborted} (no decision was
      ever logged, so no site can have been told to commit … except
      commitment-before locals, which commit unilaterally — those are
      detected via their database-resident commit markers and compensated);
    - [Decided] entries have their outcome {b pushed to completion}:
      prepared locals are resolved, orphaned running locals rolled back,
      missing commitment-after locals re-executed from the redo-log, and
      committed locals of aborted transactions undone from the undo-log.

    All repair work is marker-guarded, so recovering twice — or crashing
    during recovery and recovering again — never double-applies. *)

type summary = {
  entries_recovered : int;  (** journal entries processed *)
  decisions_pushed : int;  (** prepared locals resolved with the decision *)
  locals_aborted : int;  (** orphaned running locals rolled back *)
  branches_redone : int;  (** commitment-after locals completed by redo *)
  branches_undone : int;  (** committed locals compensated *)
}

val pp_summary : Format.formatter -> summary -> unit

(** [crash fed] discards the central system's volatile state: every
    coordinator's CC/L1 tables are reset (blocked requesters are woken with
    [Lock_revoked]) — a whole-federation crash subsumes the shard
    coordinators. In-flight protocol fibers are {e not} magically
    stopped — simulate the crash of their control flow by installing a
    raising [fed.central_fail] hook. For a crash of {e one} shard
    coordinator use {!Federation.shard_crash} + [recover ~shard]. *)
val crash : Federation.t -> unit

(** [recover fed] completes every open transaction, each at its own
    coordinator; [recover ~shard fed] restart-recovers one shard
    coordinator alone, independent of the rest of the federation. Must run
    in a fiber (repairs execute local transactions and may wait for site
    recoveries). Per journal entry:

    - a coordinator completes its own entries: a [Decided] phase is
      pushed; an [Executing] one whose decision {e was} logged at some
      coordinator (e.g. the top level decided but the shard-decide push was
      lost), or accepted by the coordinator's acceptor quorum, is completed
      with that decision; otherwise abort is presumed;
    - a shard's mirror of a cross-shard transaction defers to its parent,
      the central coordinator: a known decision is pushed to {e this
      shard's branches only} and the mirror retired; without one the entry
      stays open, in doubt, until the parent finishes — the blocking window
      atomic commitment cannot avoid.

    The recovering coordinator logs each decision it applies.
    [summary.entries_recovered] counts entries completed, excluding
    in-doubt mirrors left open. Idempotent; per-shard and whole-federation
    passes interleave safely. Raises [Invalid_argument] on an out-of-range
    shard id. *)
val recover : ?shard:int -> Federation.t -> summary

(** [takeover fed ~gid] completes one in-doubt transaction as a freshly
    elected Paxos leader would: {!recover}'s per-entry step for [gid] at its
    coordinator, decision from the journal phase, the decision logs, or the
    acceptor quorum — abort presumed only when all three are silent.
    Returns [false] (and does nothing) when the entry is already closed.
    Must run in a fiber; idempotent and safe to race a later {!recover}. *)
val takeover : Federation.t -> gid:int -> bool
