type branch = {
  site : string;
  program : Icdb_localdb.Program.t;
  vote_commit : bool;
}

let branch ?(vote_commit = true) ~site program = { site; program; vote_commit }

type spec = { gid : int; branches : branch list }

type mlt_spec = {
  mlt_gid : int;
  actions : Icdb_mlt.Action.t list;
  abort_after : int option;
}

type abort_cause =
  | Local_abort of { site : string; reason : Icdb_localdb.Engine.abort_reason }
  | Voted_abort of string
  | Global_cc_denied
  | Intended_abort
  | Unsupported_site of string

type outcome = Committed | Aborted of abort_cause

(* Concatenation, not [Format]: an abort's trace label is built from this
   on every abort. *)
let abort_cause_to_string = function
  | Local_abort { site; reason } ->
    "local abort at " ^ site ^ " (" ^ Icdb_localdb.Engine.abort_reason_to_string reason ^ ")"
  | Voted_abort site -> "voted abort at " ^ site
  | Global_cc_denied -> "global concurrency control denied"
  | Intended_abort -> "intended abort"
  | Unsupported_site site -> "site " ^ site ^ " has no ready state"

let pp_abort_cause fmt c = Format.pp_print_string fmt (abort_cause_to_string c)

let pp_outcome fmt = function
  | Committed -> Format.pp_print_string fmt "committed"
  | Aborted cause -> Format.fprintf fmt "aborted: %a" pp_abort_cause cause

let outcome_to_string o = Format.asprintf "%a" pp_outcome o
let is_committed = function Committed -> true | Aborted _ -> false
