module Site = Icdb_net.Site
module Db = Icdb_localdb.Engine
open Protocol_common

type summary = {
  entries_recovered : int;
  decisions_pushed : int;
  locals_aborted : int;
  branches_redone : int;
  branches_undone : int;
}

let pp_summary fmt s =
  Format.fprintf fmt
    "recovered %d entries: %d decisions pushed, %d locals aborted, %d redone, %d undone"
    s.entries_recovered s.decisions_pushed s.locals_aborted s.branches_redone
    s.branches_undone

(* A central crash takes the whole volatile CC state with it, the shard
   coordinators' tables included; a single shard coordinator's crash is
   {!Federation.shard_crash}. *)
let crash (fed : Federation.t) =
  List.iter Federation.crash_coordinator (Federation.coordinators fed)

(* Same marker scheme as Commit_before_mlt. *)
let action_marker ~gid ~seq = "__am:" ^ string_of_int gid ^ ":" ^ string_of_int seq

type tally = {
  mutable pushed : int;
  mutable aborted : int;
  mutable redone : int;
  mutable undone : int;
}

(* Push [decision] to an entry's branches and action-log records,
   restricted to sites satisfying [site_ok] (every site for the entry's
   owner; a shard's member set when a shard coordinator recovers a
   cross-shard mirror, so it only touches its own slice). Every path waits
   for its site to be up — a crashed site's committed state is not readable
   until its restart recovery — and is marker-guarded/idempotent, so
   overlapping recovery passes, or recovery racing the still-running
   top-level coordinator, converge on the same state. *)
let resolve_entry (fed : Federation.t) ~gid ~(entry : Federation.journal_entry)
    ~decision ~site_ok tally =
  let up_db site_name =
    let site = Federation.site fed site_name in
    Site.await_up site;
    Site.db site
  in
  (* roll back a still-running branch at [site_name] *)
  let abort_running db site_name =
    Queue.iter
      (fun (s, txn_id) ->
        if s = site_name && Db.abort_txn_id db ~txn_id then
          tally.aborted <- tally.aborted + 1)
      entry.j_branches
  in
  let compensate ~site ~seq program =
    if
      persistently_apply fed ~gid ~site ~marker:(undo_marker ~gid ~seq) ~compensation:true
        ~on_attempt:(fun () -> Metrics.compensation fed.metrics)
        program
    then tally.undone <- tally.undone + 1
  in
  match entry.j_protocol with
  | "after" when decision ->
    (* Complete phase 2: any still-running original is rolled back and
       the branch re-executed from the redo-log unless its marker shows
       a commit already happened. *)
    List.iter
      (fun (e : Action_log.entry) ->
        if site_ok e.site then begin
          abort_running (up_db e.site) e.site;
          if
            persistently_apply fed ~gid ~site:e.site ~marker:(commit_marker ~gid)
              ~compensation:false
              ~on_attempt:(fun () -> Metrics.repetition fed.metrics)
              e.program
          then tally.redone <- tally.redone + 1
        end)
      (Action_log.entries fed.redo_log ~gid)
  | "mlt" ->
    if not decision then
      (* Undo committed actions in reverse order; the per-action marker
         tells which ones committed. *)
      List.mapi (fun seq e -> (seq, e)) (Action_log.entries fed.mlt_undo_log ~gid)
      |> List.rev
      |> List.iter (fun (seq, (e : Action_log.entry)) ->
             if site_ok e.site then begin
               let db = up_db e.site in
               abort_running db e.site;
               if Db.committed_value db (action_marker ~gid ~seq) = Some 1 then
                 compensate ~site:e.site ~seq e.program
             end)
  | _ ->
    (* 2pc and commitment-before shapes (incl. presumed-abort and hybrid
       variants): resolve prepared locals, abort orphaned running ones,
       and on a (presumed) abort compensate unilaterally committed
       commitment-before locals. *)
    Queue.iter
      (fun (site, txn_id) ->
        if site_ok site then begin
          let db = up_db site in
          if Db.abort_txn_id db ~txn_id then tally.aborted <- tally.aborted + 1
          else
            match Db.resolve_prepared db ~txn_id ~commit:decision with
            | () -> tally.pushed <- tally.pushed + 1
            | exception Failure _ -> () (* already finished before the crash *)
        end)
      entry.j_branches;
    if not decision then
      List.iter
        (fun (e : Action_log.entry) ->
          if site_ok e.site && Db.committed_value (up_db e.site) (commit_marker ~gid) = Some 1
          then compensate ~site:e.site ~seq:0 e.program)
        (Action_log.entries fed.undo_log ~gid)

(* Recovery of one journal entry at coordinator [c]; whether it completed.

   - [owned]: [c] is the gid's coordinator. The decision is the entry's
     [Decided] phase, else one logged at any coordinator (e.g. the top
     level decided but the shard-decide push was lost), else what [c]'s
     acceptor quorum accepted — a decision the crashed coordinator made
     durable though its own journal never saw it — else abort is presumed.
     It is pushed to every branch, and the entry, its action-log records
     and its mirrors are closed.
   - Otherwise [c] holds a mirror of a cross-shard transaction: it is an
     L1 participant, and the authority is its parent, the central
     coordinator. A known decision is pushed to this shard's slice and the
     mirror retired; none yet leaves the mirror open, in doubt, for the
     parent to finish (its close retires the mirror) — the blocking window
     atomic commitment cannot avoid.

   Either way [c] logs the decision it applied. *)
let recover_entry (fed : Federation.t) (c : Federation.coordinator) ~owned ~gid
    ~(entry : Federation.journal_entry) tally =
  let known =
    match entry.j_phase with
    | Decided d -> Some d
    | Executing -> (
      match Federation.decision fed ~gid with
      | Some d -> Some d
      | None ->
        Option.bind (if owned then c else fed.central).sh_group
          (Acceptor_group.read_decision ~gid))
  in
  match if owned then Some (Option.value ~default:false known) else known with
  | None -> false
  | Some decision ->
    resolve_entry fed ~gid ~entry ~decision
      ~site_ok:(fun site -> owned || List.mem site c.sh_sites)
      tally;
    Hashtbl.replace c.sh_decision_log gid decision;
    if owned then begin
      Action_log.remove fed.redo_log ~gid;
      Action_log.remove fed.undo_log ~gid;
      Action_log.remove fed.mlt_undo_log ~gid;
      Serialization_graph.record_outcome fed.graph ~gid ~committed:decision;
      Federation.journal_close fed ~gid
    end
    else Hashtbl.remove c.sh_journal gid;
    true

let new_tally () = { pushed = 0; aborted = 0; redone = 0; undone = 0 }

let recover ?shard (fed : Federation.t) =
  let tally = new_tally () in
  let completed =
    match shard with
    | None ->
      (* every coordinator completes its own entries, in gid order *)
      List.filter
        (fun (gid, entry) ->
          recover_entry fed (Federation.coordinator fed ~gid) ~owned:true ~gid ~entry tally)
        (Federation.journal_open_entries fed)
    | Some s ->
      if s < 0 || s >= Array.length fed.shards then invalid_arg "Central_recovery.recover";
      let c = fed.shards.(s) in
      Hashtbl.fold (fun gid entry acc -> (gid, entry) :: acc) c.sh_journal []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.filter (fun (gid, entry) ->
             let owned = Federation.coordinator fed ~gid == c in
             recover_entry fed c ~owned ~gid ~entry tally)
  in
  {
    entries_recovered = List.length completed;
    decisions_pushed = tally.pushed;
    locals_aborted = tally.aborted;
    branches_redone = tally.redone;
    branches_undone = tally.undone;
  }

let takeover (fed : Federation.t) ~gid =
  let c = Federation.coordinator fed ~gid in
  match Hashtbl.find_opt c.sh_journal gid with
  | None -> false (* already closed: nothing was in doubt *)
  | Some entry -> recover_entry fed c ~owned:true ~gid ~entry (new_tally ())
