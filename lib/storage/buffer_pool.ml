type frame = {
  pid : Disk.page_id;
  page : Page.t;
  mutable dirty : bool;
  mutable pins : int;
  mutable last_used : int; (* logical clock for LRU *)
}

type t = {
  disk : Disk.t;
  capacity : int;
  frames : (Disk.page_id, frame) Hashtbl.t;
  mutable wal_hook : lsn:int64 -> unit;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity disk =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  {
    disk;
    capacity;
    frames = Hashtbl.create (2 * capacity);
    wal_hook = (fun ~lsn:_ -> ());
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let set_wal_hook t f = t.wal_hook <- f

let write_back t frame =
  if frame.dirty then begin
    t.wal_hook ~lsn:(Page.lsn frame.page);
    Disk.write t.disk frame.pid frame.page;
    frame.dirty <- false
  end

let evict_one t =
  let victim =
    Hashtbl.fold
      (fun _ frame best ->
        if frame.pins > 0 then best
        else
          match best with
          | None -> Some frame
          | Some b -> if frame.last_used < b.last_used then Some frame else best)
      t.frames None
  in
  match victim with
  | None -> failwith "Buffer_pool: all frames pinned"
  | Some frame ->
    write_back t frame;
    Hashtbl.remove t.frames frame.pid;
    t.evictions <- t.evictions + 1;
    frame.page

(* [Hashtbl.find] rather than [find_opt]: a hit allocates nothing. *)
let fetch t pid =
  match Hashtbl.find t.frames pid with
  | frame ->
    t.hits <- t.hits + 1;
    frame
  | exception Not_found ->
    t.misses <- t.misses + 1;
    (* A full pool reads into the evicted frame's page: no page is
       allocated once the pool has filled. *)
    let page =
      if Hashtbl.length t.frames < t.capacity then Disk.read t.disk pid
      else begin
        let page = evict_one t in
        Disk.read_into t.disk pid page;
        page
      end
    in
    let frame = { pid; page; dirty = false; pins = 0; last_used = 0 } in
    Hashtbl.replace t.frames pid frame;
    frame

let touch t frame =
  t.tick <- t.tick + 1;
  frame.last_used <- t.tick

(* Unpin via an explicit exception match, not [Fun.protect]: the finaliser
   pattern is not effect-safe (a fiber suspending inside [f] would leave the
   pin held if the continuation were dropped), and [Finally_raised] would
   mask the original exception. [f] either returns or raises; the pin is
   balanced — and the frame marked dirty, its content may have been touched —
   on both paths. *)
let with_page t pid ~write f =
  let frame = fetch t pid in
  frame.pins <- frame.pins + 1;
  touch t frame;
  match f frame.page with
  | v ->
    frame.pins <- frame.pins - 1;
    if write then frame.dirty <- true;
    v
  | exception e ->
    frame.pins <- frame.pins - 1;
    if write then frame.dirty <- true;
    raise e

(* The same accounting as a [with_page] whose [f] returns at once; nothing
   can evict the frame before the caller's next call into the pool, so no
   pin is needed. *)
let access t pid ~write =
  let frame = fetch t pid in
  touch t frame;
  if write then frame.dirty <- true;
  frame.page

let flush_page t pid =
  match Hashtbl.find_opt t.frames pid with
  | Some frame -> write_back t frame
  | None -> ()

let flush_all t = Hashtbl.iter (fun _ frame -> write_back t frame) t.frames

let drop_all t = Hashtbl.reset t.frames

let dirty_pages t =
  Hashtbl.fold (fun pid frame acc -> if frame.dirty then pid :: acc else acc) t.frames []
  |> List.sort compare

(* Outstanding pins across every frame. Steady-state invariant: zero — every
   pin is scoped to a [with_page] call, so a nonzero count between
   operations is a leak. *)
let pin_count t = Hashtbl.fold (fun _ frame acc -> acc + frame.pins) t.frames 0

let capacity t = t.capacity
let hit_count t = t.hits
let miss_count t = t.misses
let eviction_count t = t.evictions
