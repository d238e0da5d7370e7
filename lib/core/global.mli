(** Global transaction specifications and outcomes.

    A {e flat} global transaction ({!spec}) decomposes into one local
    transaction per site ({!branch}) — the shape the 2PC, commitment-after
    and commitment-before protocols operate on. A {e multi-level} global
    transaction ({!mlt_spec}) is a sequence of L1 actions (§4), each of
    which runs as its own L0 transaction. *)

type branch = {
  site : string;
  program : Icdb_localdb.Program.t;
  vote_commit : bool;
      (** [false] models an {e intended} local abort: the branch executes
          but then votes/decides abort — the case §4.3 says commitment-after
          handles better. *)
}

val branch : ?vote_commit:bool -> site:string -> Icdb_localdb.Program.t -> branch

type spec = { gid : int; branches : branch list }

type mlt_spec = {
  mlt_gid : int;
  actions : Icdb_mlt.Action.t list;
  abort_after : int option;
      (** [Some k]: intended global abort after [k] actions completed *)
}

(** Why a global transaction aborted. *)
type abort_cause =
  | Local_abort of { site : string; reason : Icdb_localdb.Engine.abort_reason }
      (** a local system aborted its transaction on its own authority *)
  | Voted_abort of string  (** this site's branch requested the abort *)
  | Global_cc_denied
      (** the additional global concurrency-control module refused the lock
          set (deadlock or timeout at the global level) *)
  | Intended_abort  (** the transaction program itself decided to abort *)
  | Unsupported_site of string
      (** 2PC was attempted against a site with no ready state *)

type outcome = Committed | Aborted of abort_cause

val abort_cause_to_string : abort_cause -> string
val pp_abort_cause : Format.formatter -> abort_cause -> unit
val pp_outcome : Format.formatter -> outcome -> unit
val outcome_to_string : outcome -> string
val is_committed : outcome -> bool
