(* Reference trace: the implementation from before gid-scoped labels were
   rendered lazily, kept verbatim as an executable specification. Every
   entry is a record holding its full label string. The trace property in
   test_sim records the same stream into it and into [Icdb_sim.Trace] and
   demands the same answers from every query. Not used by the engine. *)

module Engine = Icdb_sim.Engine

type entry = { time : float; actor : string; label : string }

(* Append-order growable array: [record] is amortized O(1) and every query
   below is a single linear scan — no per-query [List.rev] of the log. *)
type t = { engine : Engine.t; mutable arr : entry array; mutable len : int }

let dummy = { time = 0.0; actor = ""; label = "" }

let create engine = { engine; arr = Array.make 64 dummy; len = 0 }

let record t ~actor label =
  if t.len = Array.length t.arr then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.arr 0 bigger 0 t.len;
    t.arr <- bigger
  end;
  t.arr.(t.len) <- { time = Engine.now t.engine; actor; label };
  t.len <- t.len + 1

let entries t = Array.to_list (Array.sub t.arr 0 t.len)

let find t ~actor ~label =
  let rec scan i =
    if i >= t.len then None
    else
      let e = t.arr.(i) in
      if e.actor = actor && e.label = label then Some e.time else scan (i + 1)
  in
  scan 0

let find_all t ~label =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    let e = t.arr.(i) in
    if e.label = label then out := (e.time, e.actor) :: !out
  done;
  !out

let before t ~first ~then_ =
  let rec scan seen_first i =
    if i >= t.len then false
    else
      let e = t.arr.(i) in
      if e.label = first && not seen_first then scan true (i + 1)
      else if e.label = then_ then seen_first
      else scan seen_first (i + 1)
  in
  scan false 0

let length t = t.len
let clear t = t.len <- 0

let render t =
  let buf = Buffer.create 256 in
  for i = 0 to t.len - 1 do
    let e = t.arr.(i) in
    Buffer.add_string buf (Printf.sprintf "t=%8.2f  [%-12s] %s\n" e.time e.actor e.label)
  done;
  Buffer.contents buf
