type entry = { time : float; actor : string; label : string }

(* Append-order parallel arrays: [record] is amortized O(1) and allocates
   nothing (times are stored unboxed), and every query below is a single
   linear scan. A label recorded with [~gid] is kept as the gid and its
   suffix and rendered as ["g<gid>:<suffix>"] only when a query reads it. *)
type t = {
  engine : Engine.t;
  mutable times : float array;
  mutable actors : string array;
  mutable gids : int array; (* -1: the label is stored whole *)
  mutable labels : string array;
  mutable len : int;
}

let create engine =
  {
    engine;
    times = Array.make 64 0.0;
    actors = Array.make 64 "";
    gids = Array.make 64 (-1);
    labels = Array.make 64 "";
    len = 0;
  }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push t ~actor ~gid label =
  if t.len = Array.length t.times then begin
    t.times <- grow t.times 0.0;
    t.actors <- grow t.actors "";
    t.gids <- grow t.gids (-1);
    t.labels <- grow t.labels ""
  end;
  let i = t.len in
  t.times.(i) <- Engine.now t.engine;
  t.actors.(i) <- actor;
  t.gids.(i) <- gid;
  t.labels.(i) <- label;
  t.len <- i + 1

let record t ~actor label = push t ~actor ~gid:(-1) label

let record_gid t ~actor ~gid label =
  if gid < 0 then invalid_arg "Trace.record_gid: negative gid";
  push t ~actor ~gid label

let label_at t i =
  let gid = t.gids.(i) in
  if gid < 0 then t.labels.(i) else "g" ^ string_of_int gid ^ ":" ^ t.labels.(i)

let entry_at t i = { time = t.times.(i); actor = t.actors.(i); label = label_at t i }

let entries t = List.init t.len (entry_at t)

let find t ~actor ~label =
  let rec scan i =
    if i >= t.len then None
    else if t.actors.(i) = actor && label_at t i = label then Some t.times.(i)
    else scan (i + 1)
  in
  scan 0

let find_all t ~label =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    if label_at t i = label then out := (t.times.(i), t.actors.(i)) :: !out
  done;
  !out

let before t ~first ~then_ =
  let rec scan seen_first i =
    if i >= t.len then false
    else
      let l = label_at t i in
      if l = first && not seen_first then scan true (i + 1)
      else if l = then_ then seen_first
      else scan seen_first (i + 1)
  in
  scan false 0

let length t = t.len
let clear t = t.len <- 0

let render t =
  let buf = Buffer.create 256 in
  for i = 0 to t.len - 1 do
    Buffer.add_string buf
      (Printf.sprintf "t=%8.2f  [%-12s] %s\n" t.times.(i) t.actors.(i) (label_at t i))
  done;
  Buffer.contents buf
