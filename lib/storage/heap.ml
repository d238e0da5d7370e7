type rid = { page : Disk.page_id; slot : int }

let pp_rid fmt rid = Format.fprintf fmt "(%d,%d)" rid.page rid.slot
let rid_equal a b = a.page = b.page && a.slot = b.slot

(* The heap's pages are [first .. Disk.page_count disk - 1]. Each has a
   volatile record, indexed by page id. [room] is [Page.free_space] as last
   computed, valid while the page LSN still equals [room_lsn]: every logged
   mutation raises the page LSN, so an unchanged LSN means an unchanged page
   and a page already known to be too full is rejected without rescanning
   its slot directory. [reserved] counts the bytes of pending deletes. *)
type info = { mutable room_lsn : int; mutable room : int; mutable reserved : int }

type t = { disk : Disk.t; pool : Buffer_pool.t; first : Disk.page_id; mutable info : info array }

let fresh_info _ = { room_lsn = -1; room = 0; reserved = 0 }

let create disk pool = { disk; pool; first = Disk.page_count disk; info = [||] }
let recover disk pool = { disk; pool; first = 0; info = [||] }

let info t pid =
  let n = Array.length t.info in
  if pid >= n then
    t.info <- Array.append t.info (Array.init (max (pid + 1 - n) (n + 16)) fresh_info);
  t.info.(pid)

let reserve t pid bytes =
  let i = info t pid in
  i.reserved <- i.reserved + bytes

let release t pid bytes =
  let i = info t pid in
  i.reserved <- i.reserved - bytes

(* Stamps a page that a heap mutation changed. The LSN passed in may be
   stale (the page LSN only ever rises), so the page's cached room is
   dropped outright. *)
let logged t pid page lsn ok =
  if ok then begin
    Page.stamp page (Int64.to_int lsn);
    (info t pid).room_lsn <- -1
  end;
  ok

(* One probe: the slot the payload took on page [pid], or [-1]. Bytes that
   pending deletes freed are not room: their rollback needs them back. *)
let try_page t pid payload lsn =
  let page = Buffer_pool.access t.pool pid ~write:true in
  let i = info t pid in
  let page_lsn = Page.lsn_int page in
  if i.room_lsn <> page_lsn then begin
    i.room <- Page.free_space page;
    i.room_lsn <- page_lsn
  end;
  if i.room - i.reserved < Bytes.length payload then -1
  else
    match Page.insert page ~payload with
    | Some slot ->
      Page.stamp page lsn;
      i.room_lsn <- -1;
      slot
    | None -> -1

(* Try the most recently allocated page first, then the older ones, then
   allocate. *)
let rec scan t payload lsn pid =
  if pid < t.first then begin
    let pid = Disk.allocate t.disk in
    match try_page t pid payload lsn with
    | -1 -> failwith "Heap.insert: record does not fit an empty page"
    | slot -> { page = pid; slot }
  end
  else
    match try_page t pid payload lsn with
    | -1 -> scan t payload lsn (pid - 1)
    | slot -> { page = pid; slot }

let insert t ~lsn ~key ~value =
  scan t (Record.encode ~key ~value) (Int64.to_int lsn) (Disk.page_count t.disk - 1)

let insert_at t ~lsn rid ~key ~value =
  let payload = Record.encode ~key ~value in
  let page = Buffer_pool.access t.pool rid.page ~write:true in
  logged t rid.page page lsn (Page.insert_at page ~slot:rid.slot ~payload)

let read t rid =
  let page = Buffer_pool.access t.pool rid.page ~write:false in
  Option.map Record.decode (Page.read page ~slot:rid.slot)

let value t rid = Record.value_at (Buffer_pool.access t.pool rid.page ~write:false) ~slot:rid.slot

let update t ~lsn rid ~value =
  let page = Buffer_pool.access t.pool rid.page ~write:true in
  logged t rid.page page lsn (Record.set_value_at page ~slot:rid.slot value)

let delete t ~lsn rid =
  let page = Buffer_pool.access t.pool rid.page ~write:true in
  logged t rid.page page lsn (Page.delete page ~slot:rid.slot)

let page_ids t = List.init (Disk.page_count t.disk - t.first) (fun i -> t.first + i)

let iter t f =
  List.iter
    (fun pid ->
      Buffer_pool.with_page t.pool pid ~write:false (fun page ->
          List.iter
            (fun (slot, payload) ->
              let key, value = Record.decode payload in
              f { page = pid; slot } key value)
            (Page.live page)))
    (page_ids t)

let count t =
  let n = ref 0 in
  iter t (fun _ _ _ -> incr n);
  !n
