(* Reference heap file: the insert path from before pages cached their free
   space and deletes could reserve theirs, kept verbatim as an executable
   specification. It keeps its pages in a list, newest first, and probes
   each one through a fresh closure that lets [Page.insert] rescan the slot
   directory. The placement property in test_storage drives it and
   [Icdb_storage.Heap] through the same operations and demands the same rid
   for every insert. Not used by the engine. *)

module Disk = Icdb_storage.Disk
module Buffer_pool = Icdb_storage.Buffer_pool
module Page = Icdb_storage.Page
module Record = Icdb_storage.Record

type rid = Icdb_storage.Heap.rid = { page : Disk.page_id; slot : int }

type t = {
  disk : Disk.t;
  pool : Buffer_pool.t;
  mutable pages : Disk.page_id list; (* newest first *)
}

let create disk pool = { disk; pool; pages = [] }

let stamp page lsn = if Int64.compare lsn (Page.lsn page) > 0 then Page.set_lsn page lsn

let insert t ~lsn ~key ~value =
  let payload = Record.encode ~key ~value in
  let try_page pid =
    Buffer_pool.with_page t.pool pid ~write:true (fun page ->
        match Page.insert page ~payload with
        | Some slot ->
          stamp page lsn;
          Some { page = pid; slot }
        | None -> None)
  in
  (* Try the most recently used page first, then the rest, then allocate. *)
  let rec scan = function
    | [] ->
      let pid = Disk.allocate t.disk in
      t.pages <- pid :: t.pages;
      (match try_page pid with
      | Some rid -> rid
      | None -> failwith "Heap.insert: record does not fit an empty page")
    | pid :: rest -> (
      match try_page pid with
      | Some rid -> rid
      | None -> scan rest)
  in
  scan t.pages

let insert_at t ~lsn rid ~key ~value =
  let payload = Record.encode ~key ~value in
  Buffer_pool.with_page t.pool rid.page ~write:true (fun page ->
      let ok = Page.insert_at page ~slot:rid.slot ~payload in
      if ok then stamp page lsn;
      ok)

let read t rid =
  Buffer_pool.with_page t.pool rid.page ~write:false (fun page ->
      Option.map Record.decode (Page.read page ~slot:rid.slot))

let update t ~lsn rid ~value =
  Buffer_pool.with_page t.pool rid.page ~write:true (fun page ->
      match Page.read page ~slot:rid.slot with
      | None -> false
      | Some payload ->
        let key, _ = Record.decode payload in
        let ok = Page.update page ~slot:rid.slot ~payload:(Record.encode ~key ~value) in
        if ok then stamp page lsn;
        ok)

let delete t ~lsn rid =
  Buffer_pool.with_page t.pool rid.page ~write:true (fun page ->
      let ok = Page.delete page ~slot:rid.slot in
      if ok then stamp page lsn;
      ok)
