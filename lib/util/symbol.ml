(* Deterministic string<->int interner.

   Ids are handed out in first-intern order, so for a fixed workload the
   mapping is a pure function of the access sequence: re-running the same
   seeded simulation — or running it on another domain of a [-j N] sweep —
   produces identical ids. Each federation (and each local database engine)
   owns its own table; tables are never shared across domains, which makes
   them Domain-safe without locks.

   The reverse direction ([name]) is an array index, so resolving a symbol
   back to its string allocates nothing: the returned string is the one
   interned originally.

   Concurrency invariant: a table belongs to one simulation, and one
   simulation runs on one domain. What is NOT safe is sharing a table
   between two simulations running concurrently (e.g. two [-j] sweep
   cells): their interleaved interning would race. The debug ownership
   check below catches exactly that class: enable it with [set_debug true]
   (or ICDB_SYMBOL_DEBUG=1) and [seal] the table once setup interning is
   done; a sealed table then refuses NEW interning from any domain but the
   one that sealed it. Lookups of already-interned strings are never
   checked — they are read-only and the hot path. *)

type t = int

type table = {
  mutable names : string array; (* id -> string, dense prefix [0, count) *)
  mutable count : int;
  ids : (string, int) Hashtbl.t;
  mutable owner : int; (* domain that sealed the table; -1 while unsealed *)
}

let debug =
  ref
    (match Sys.getenv_opt "ICDB_SYMBOL_DEBUG" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let set_debug on = debug := on

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    names = Array.make capacity "";
    count = 0;
    ids = Hashtbl.create capacity;
    owner = -1;
  }

let self_id () = (Domain.self () :> int)

let seal tbl = tbl.owner <- self_id ()

let check_owner tbl s =
  if !debug && tbl.owner >= 0 && tbl.owner <> self_id () then
    failwith
      (Printf.sprintf
         "Symbol.intern: new symbol %S interned from non-owner domain %d after seal"
         s (self_id ()))

let count tbl = tbl.count

(* Pre-size for a known load (e.g. a million-account preload) so interning
   does not go through log2(n) doubling copies of the names array. *)
let ensure_capacity tbl n =
  if n > Array.length tbl.names then begin
    let bigger = Array.make n "" in
    Array.blit tbl.names 0 bigger 0 tbl.count;
    tbl.names <- bigger
  end

let intern tbl s =
  match Hashtbl.find_opt tbl.ids s with
  | Some id -> id
  | None ->
    check_owner tbl s;
    let id = tbl.count in
    if id = Array.length tbl.names then begin
      let bigger = Array.make (2 * id) "" in
      Array.blit tbl.names 0 bigger 0 id;
      tbl.names <- bigger
    end;
    tbl.names.(id) <- s;
    tbl.count <- id + 1;
    Hashtbl.replace tbl.ids s id;
    id

let find tbl s = Hashtbl.find_opt tbl.ids s

let name tbl id =
  if id < 0 || id >= tbl.count then invalid_arg "Symbol.name: unknown symbol";
  tbl.names.(id)

(* Point-in-time copy of the mapping: index i holds the string of symbol i. *)
let snapshot tbl = Array.sub tbl.names 0 tbl.count

let mem tbl s = Hashtbl.mem tbl.ids s
