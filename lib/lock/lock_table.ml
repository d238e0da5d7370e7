module Engine = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Symbol = Icdb_util.Symbol

type outcome = Granted | Timeout | Deadlock

exception Lock_revoked

(* Objects are interned symbols: callers intern once (typically at workload
   generation or at the operation boundary) and every structure below is
   int-keyed — the dense-id [entries] array makes the per-acquire lookup an
   array index instead of a string hash. Observer events carry the symbol;
   listeners resolve it to a string only when they actually materialize a
   label (e.g. with tracing on). *)

type observer_event =
  | Wait_started of { owner : int; obj : Symbol.t }
  | Wait_ended of {
      owner : int;
      obj : Symbol.t;
      outcome : [ `Granted | `Timeout | `Deadlock | `Cancelled ];
      waited : float;
    }
  | Acquired of { owner : int; obj : Symbol.t }
  | Released of { owner : int; obj : Symbol.t; held : float }

type 'mode waiter = {
  w_owner : int;
  w_mode : 'mode;
  w_upgrade : bool;
  w_since : float;
  mutable w_active : bool;
  w_resume : outcome Fiber.resumer;
}

(* An object's lock state. Holders are parallel arrays in grant order
   ([0, n)), scanned newest first. An entry that empties goes on the
   table's free list and is handed to the next object that needs one, so
   steady-state locking allocates no entries. *)
type 'mode entry = {
  mutable n : int;
  mutable owners : int array;
  mutable modes : 'mode array;
  mutable since : float array; (* acquisition times *)
  waiters : 'mode waiter Queue.t;
  mutable next_free : 'mode entry;
}

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A local recursive function over free variables is a closure allocated
   per call, so the helpers on the acquire/release path are top-level
   functions. *)

type 'mode t = {
  engine : Engine.t;
  syms : Symbol.table;
  compatible : 'mode -> 'mode -> bool;
  combine : 'mode -> 'mode -> 'mode;
  (* dense symbol id -> entry ([none] when the object is unlocked); symbols
     come from one per-federation (or per-site) table, so the array stays
     compact *)
  mutable entries : 'mode entry array;
  none : 'mode entry;
  mutable free : 'mode entry; (* free list through [next_free], ends at [none] *)
  (* owner -> objects held. The inner table is keyed by the object's
     *string* name (mapping to its symbol) on purpose: release order during
     [release_all] is this table's iteration order, which feeds fiber
     wake-ups — keeping the seed's string-keyed layout keeps simulation
     schedules, and therefore reports, byte-identical. An emptied table is
     reset and kept for the next owner; a reset table iterates exactly as a
     fresh one. *)
  owned : (int, (string, Symbol.t) Hashtbl.t) Hashtbl.t;
  mutable spare : (string, Symbol.t) Hashtbl.t list;
  (* [release_all]'s iterator, made once: it releases [releasing]'s hold
     on each object it is given *)
  mutable releasing : int;
  mutable release_one : string -> Symbol.t -> unit;
  (* owner -> the single wait it is currently blocked in *)
  waiting_on : (int, Symbol.t * 'mode waiter) Hashtbl.t;
  (* scratch visited-set for [would_deadlock], generation-stamped so checks
     reuse it without a per-check allocation or clear *)
  dd_visited : (int, int) Hashtbl.t;
  mutable dd_gen : int;
  mutable hold_time_hook : obj:Symbol.t -> duration:float -> unit;
  mutable observer : observer_event -> unit;
  mutable acquisitions : int;
  mutable waits : int;
  mutable deadlocks : int;
  mutable timeouts : int;
  mutable held_total : int; (* live (owner, object) holder pairs *)
}

let symbols t = t.syms
let intern t s = Symbol.intern t.syms s
let obj_name t obj = Symbol.name t.syms obj

(* Pre-size the dense entries array for a known object population (e.g. a
   million preloaded accounts) so the first acquires don't pay log2(n)
   doubling copies. *)
let ensure_capacity t n =
  if n > Array.length t.entries then t.entries <- grow t.entries n t.none

let find_entry t obj = if obj < Array.length t.entries then t.entries.(obj) else t.none

(* [mode] fills a fresh entry's mode array; any value of the type would do. *)
let entry_of t obj mode =
  if obj >= Array.length t.entries then
    t.entries <- grow t.entries (max (2 * Array.length t.entries) (obj + 1)) t.none;
  let e = t.entries.(obj) in
  if e != t.none then e
  else begin
    let e =
      if t.free != t.none then begin
        let e = t.free in
        t.free <- e.next_free;
        e.next_free <- t.none;
        e
      end
      else
        {
          n = 0;
          owners = Array.make 2 0;
          modes = Array.make 2 mode;
          since = Array.make 2 0.0;
          waiters = Queue.create ();
          next_free = t.none;
        }
    in
    t.entries.(obj) <- e;
    e
  end

(* Unlocked and unwaited: back on the free list. *)
let maybe_free t obj e =
  if e.n = 0 && Queue.is_empty e.waiters then begin
    t.entries.(obj) <- t.none;
    e.next_free <- t.free;
    t.free <- e
  end

let rec holder_from e owner i = if i < 0 || e.owners.(i) = owner then i else holder_from e owner (i - 1)

let holder_index e owner = holder_from e owner (e.n - 1)

let note_owned t owner obj =
  let objs =
    match Hashtbl.find t.owned owner with
    | objs -> objs
    | exception Not_found ->
      let objs =
        match t.spare with
        | objs :: rest ->
          t.spare <- rest;
          objs
        | [] -> Hashtbl.create 8
      in
      Hashtbl.replace t.owned owner objs;
      objs
  in
  Hashtbl.replace objs (obj_name t obj) obj

let no_active_waiter e = Queue.fold (fun acc w -> acc && not w.w_active) true e.waiters

let rec compatible_from t e owner want i =
  i < 0
  || ((e.owners.(i) = owner || t.compatible e.modes.(i) want)
     && compatible_from t e owner want (i - 1))

(* A request is grantable when every *other* holder's mode is compatible
   with the (possibly combined) requested mode. *)
let grantable t e ~owner ~mode ~upgrade =
  let want =
    if upgrade then
      let i = holder_index e owner in
      if i >= 0 then t.combine e.modes.(i) mode else mode
    else mode
  in
  compatible_from t e owner want (e.n - 1)

let grant t e ~obj ~owner ~mode =
  let i = holder_index e owner in
  if i >= 0 then e.modes.(i) <- t.combine e.modes.(i) mode
  else begin
    let n = e.n in
    if n = Array.length e.owners then begin
      e.owners <- grow e.owners (2 * n) 0;
      e.modes <- grow e.modes (2 * n) mode;
      e.since <- grow e.since (2 * n) 0.0
    end;
    e.owners.(n) <- owner;
    e.modes.(n) <- mode;
    e.since.(n) <- Engine.now t.engine;
    e.n <- n + 1;
    t.held_total <- t.held_total + 1
  end;
  note_owned t owner obj;
  t.acquisitions <- t.acquisitions + 1;
  t.observer (Acquired { owner; obj })

let wake t obj e w =
  w.w_active <- false;
  Hashtbl.remove t.waiting_on w.w_owner;
  t.observer
    (Wait_ended
       { owner = w.w_owner; obj; outcome = `Granted; waited = Engine.now t.engine -. w.w_since });
  grant t e ~obj ~owner:w.w_owner ~mode:w.w_mode;
  w.w_resume (Ok Granted)

(* Wake newly grantable waiters: upgrades first (they hold part of the lock
   already — making them wait behind ordinary requests invites needless
   deadlocks), then the FIFO prefix of ordinary waiters. *)
let grant_pass t obj e =
  if not (Queue.is_empty e.waiters) then begin
    Queue.iter
      (fun w ->
        if w.w_active && w.w_upgrade
           && grantable t e ~owner:w.w_owner ~mode:w.w_mode ~upgrade:true
        then wake t obj e w)
      e.waiters;
    let continue = ref true in
    while !continue do
      match Queue.peek_opt e.waiters with
      | None -> continue := false
      | Some w ->
        if not w.w_active then ignore (Queue.pop e.waiters)
        else if grantable t e ~owner:w.w_owner ~mode:w.w_mode ~upgrade:w.w_upgrade then begin
          ignore (Queue.pop e.waiters);
          wake t obj e w
        end
        else continue := false
    done
  end;
  maybe_free t obj e

let other_holders e owner =
  let rec go i acc =
    if i >= e.n then acc
    else go (i + 1) (if e.owners.(i) <> owner then e.owners.(i) :: acc else acc)
  in
  go 0 []

(* Waits-for edges of a blocked owner: the holders of the object it waits
   on, plus active waiters queued ahead of it (they will be granted first). *)
let blockers t owner =
  match Hashtbl.find_opt t.waiting_on owner with
  | None -> []
  | Some (obj, w) ->
    let entry = find_entry t obj in
    if entry == t.none then []
    else begin
      let ahead = ref [] in
      (try
         Queue.iter
           (fun w' ->
             if w' == w then raise Exit
             else if w'.w_active && w'.w_owner <> owner then ahead := w'.w_owner :: !ahead)
           entry.waiters
       with Exit -> ());
      other_holders entry owner @ List.rev !ahead
    end

(* Would blocking [owner] on [entry] close a waits-for cycle back to it?
   The visited-set is the table's generation-stamped scratch table, so the
   check allocates nothing beyond the transient blocker lists. *)
let would_deadlock t entry ~owner ~upgrade =
  let initial =
    let from_holders = other_holders entry owner in
    if upgrade then from_holders
    else
      from_holders
      @ List.rev
          (Queue.fold
             (fun acc w -> if w.w_active && w.w_owner <> owner then w.w_owner :: acc else acc)
             [] entry.waiters)
  in
  t.dd_gen <- t.dd_gen + 1;
  let gen = t.dd_gen in
  let rec reaches_owner node =
    if node = owner then true
    else if Hashtbl.find_opt t.dd_visited node = Some gen then false
    else begin
      Hashtbl.replace t.dd_visited node gen;
      List.exists reaches_owner (blockers t node)
    end
  in
  List.exists reaches_owner initial

let acquire t ~owner ~obj ~mode ?timeout () =
  let entry = entry_of t obj mode in
  let i = holder_index entry owner in
  let upgrade = i >= 0 in
  if upgrade && t.combine entry.modes.(i) mode = entry.modes.(i) then Granted
  else if grantable t entry ~owner ~mode ~upgrade && (upgrade || no_active_waiter entry) then begin
    grant t entry ~obj ~owner ~mode;
    Granted
  end
  else begin
    t.waits <- t.waits + 1;
    if would_deadlock t entry ~owner ~upgrade then begin
      t.deadlocks <- t.deadlocks + 1;
      t.observer (Wait_started { owner; obj });
      t.observer (Wait_ended { owner; obj; outcome = `Deadlock; waited = 0.0 });
      Deadlock
    end
    else begin
      t.observer (Wait_started { owner; obj });
      Fiber.await (fun resume ->
          let w =
            { w_owner = owner; w_mode = mode; w_upgrade = upgrade;
              w_since = Engine.now t.engine; w_active = true; w_resume = resume }
          in
          Queue.add w entry.waiters;
          Hashtbl.replace t.waiting_on owner (obj, w);
          match timeout with
          | None -> ()
          | Some d ->
            ignore
              (Engine.schedule t.engine ~delay:d (fun () ->
                   if w.w_active then begin
                     w.w_active <- false;
                     Hashtbl.remove t.waiting_on owner;
                     t.timeouts <- t.timeouts + 1;
                     t.observer
                       (Wait_ended
                          { owner; obj; outcome = `Timeout;
                            waited = Engine.now t.engine -. w.w_since });
                     resume (Ok Timeout)
                   end)))
    end
  end

let try_acquire t ~owner ~obj ~mode =
  let entry = entry_of t obj mode in
  let upgrade = holder_index entry owner >= 0 in
  if grantable t entry ~owner ~mode ~upgrade && (upgrade || no_active_waiter entry) then begin
    grant t entry ~obj ~owner ~mode;
    true
  end
  else begin
    maybe_free t obj entry;
    false
  end

let drop_holder t obj e owner =
  let i = holder_index e owner in
  if i >= 0 then begin
    let acquired_at = e.since.(i) in
    (* close the gap, keeping grant order; usually there is none *)
    for k = i to e.n - 2 do
      e.owners.(k) <- e.owners.(k + 1);
      e.modes.(k) <- e.modes.(k + 1);
      e.since.(k) <- e.since.(k + 1)
    done;
    e.n <- e.n - 1;
    t.held_total <- t.held_total - 1;
    let held = Engine.now t.engine -. acquired_at in
    t.hold_time_hook ~obj ~duration:held;
    t.observer (Released { owner; obj; held })
  end

let release_held t _name obj =
  let entry = find_entry t obj in
  if entry != t.none then begin
    drop_holder t obj entry t.releasing;
    grant_pass t obj entry
  end

let create engine ~syms ~compatible ~combine =
  let rec none =
    { n = 0; owners = [||]; modes = [||]; since = [||]; waiters = Queue.create (); next_free = none }
  in
  let t =
    {
      engine;
      syms;
      compatible;
      combine;
      entries = Array.make 256 none;
      none;
      free = none;
      owned = Hashtbl.create 64;
      spare = [];
      releasing = 0;
      release_one = (fun _ _ -> ());
      waiting_on = Hashtbl.create 64;
      dd_visited = Hashtbl.create 64;
      dd_gen = 0;
      hold_time_hook = (fun ~obj:_ ~duration:_ -> ());
      observer = (fun _ -> ());
      acquisitions = 0;
      waits = 0;
      deadlocks = 0;
      timeouts = 0;
      held_total = 0;
    }
  in
  t.release_one <- release_held t;
  t

let release t ~owner ~obj =
  let entry = find_entry t obj in
  if entry != t.none then begin
    drop_holder t obj entry owner;
    (match Hashtbl.find t.owned owner with
    | objs -> Hashtbl.remove objs (obj_name t obj)
    | exception Not_found -> ());
    grant_pass t obj entry
  end

let cancel_wait t owner =
  match Hashtbl.find t.waiting_on owner with
  | exception Not_found -> ()
  | obj, w ->
    w.w_active <- false;
    Hashtbl.remove t.waiting_on owner;
    t.observer
      (Wait_ended
         { owner; obj; outcome = `Cancelled;
           waited = Engine.now t.engine -. w.w_since });
    w.w_resume (Error Lock_revoked);
    let entry = find_entry t obj in
    if entry != t.none then grant_pass t obj entry

let release_all t ~owner =
  cancel_wait t owner;
  match Hashtbl.find t.owned owner with
  | exception Not_found -> ()
  | objs ->
    Hashtbl.remove t.owned owner;
    t.releasing <- owner;
    Hashtbl.iter t.release_one objs;
    Hashtbl.reset objs;
    t.spare <- objs :: t.spare

let reset t =
  let pending =
    Hashtbl.fold (fun _ (_, w) acc -> w :: acc) t.waiting_on []
  in
  Array.fill t.entries 0 (Array.length t.entries) t.none;
  t.free <- t.none;
  Hashtbl.reset t.owned;
  Hashtbl.reset t.waiting_on;
  t.held_total <- 0;
  List.iter
    (fun w ->
      if w.w_active then begin
        w.w_active <- false;
        w.w_resume (Error Lock_revoked)
      end)
    pending

let held t ~owner =
  match Hashtbl.find t.owned owner with
  | exception Not_found -> []
  | objs ->
    Hashtbl.fold
      (fun name obj acc ->
        let entry = find_entry t obj in
        let i = holder_index entry owner in
        if i >= 0 then (name, entry.modes.(i)) :: acc else acc)
      objs []
    |> List.sort compare

let holders t ~obj =
  let e = find_entry t obj in
  List.init e.n (fun i -> (e.owners.(i), e.modes.(i))) |> List.sort compare

let set_hold_time_hook t f = t.hold_time_hook <- f
let set_observer t f = t.observer <- f
let acquisition_count t = t.acquisitions
let wait_count t = t.waits
let deadlock_count t = t.deadlocks
let timeout_count t = t.timeouts
let blocked_count t = Hashtbl.length t.waiting_on
let held_count t = t.held_total
