(* Tests for Icdb_storage: slotted pages, record codec, disk, buffer pool,
   heap files. *)

module Page = Icdb_storage.Page
module Disk = Icdb_storage.Disk
module Bp = Icdb_storage.Buffer_pool
module Record = Icdb_storage.Record
module Heap = Icdb_storage.Heap

let payload s = Bytes.of_string s

let bytes_testable =
  Alcotest.testable (fun fmt b -> Format.fprintf fmt "%S" (Bytes.to_string b)) Bytes.equal

(* --- Page --- *)

let test_page_insert_read () =
  let p = Page.create () in
  let s0 = Option.get (Page.insert p ~payload:(payload "hello")) in
  let s1 = Option.get (Page.insert p ~payload:(payload "world!")) in
  Alcotest.(check bool) "distinct slots" true (s0 <> s1);
  Alcotest.(check (option bytes_testable)) "read s0" (Some (payload "hello"))
    (Page.read p ~slot:s0);
  Alcotest.(check (option bytes_testable)) "read s1" (Some (payload "world!"))
    (Page.read p ~slot:s1)

let test_page_read_invalid () =
  let p = Page.create () in
  Alcotest.(check (option bytes_testable)) "out of range" None (Page.read p ~slot:3);
  Alcotest.(check (option bytes_testable)) "negative" None (Page.read p ~slot:(-1))

let test_page_delete_no_reuse () =
  let p = Page.create () in
  let s0 = Option.get (Page.insert p ~payload:(payload "aaa")) in
  let _s1 = Option.get (Page.insert p ~payload:(payload "bbb")) in
  Alcotest.(check bool) "delete live" true (Page.delete p ~slot:s0);
  Alcotest.(check bool) "delete dead" false (Page.delete p ~slot:s0);
  Alcotest.(check (option bytes_testable)) "dead reads None" None (Page.read p ~slot:s0);
  (* A dead slot is never reused by a fresh insert (it may still be the
     target of somebody's rollback); the directory grows instead. *)
  let s2 = Option.get (Page.insert p ~payload:(payload "ccc")) in
  Alcotest.(check bool) "fresh slot" true (s2 <> s0);
  Alcotest.(check int) "directory grew" 3 (Page.slot_count p);
  (* Only an explicit insert_at (rollback/redo) may revive it. *)
  Alcotest.(check bool) "insert_at revives" true
    (Page.insert_at p ~slot:s0 ~payload:(payload "zzz"))

let test_page_update_same_size () =
  let p = Page.create () in
  let s = Option.get (Page.insert p ~payload:(payload "12345")) in
  Alcotest.(check bool) "update ok" true (Page.update p ~slot:s ~payload:(payload "54321"));
  Alcotest.(check (option bytes_testable)) "new value" (Some (payload "54321"))
    (Page.read p ~slot:s)

let test_page_update_resize () =
  let p = Page.create () in
  let s = Option.get (Page.insert p ~payload:(payload "short")) in
  let other = Option.get (Page.insert p ~payload:(payload "other")) in
  Alcotest.(check bool) "grow" true
    (Page.update p ~slot:s ~payload:(payload "a much longer payload"));
  Alcotest.(check (option bytes_testable)) "grown value"
    (Some (payload "a much longer payload"))
    (Page.read p ~slot:s);
  Alcotest.(check (option bytes_testable)) "neighbour untouched" (Some (payload "other"))
    (Page.read p ~slot:other)

let test_page_update_dead () =
  let p = Page.create () in
  Alcotest.(check bool) "update dead slot" false (Page.update p ~slot:0 ~payload:(payload "x"))

let test_page_fill_until_full () =
  let p = Page.create () in
  let n = ref 0 in
  let body = String.make 100 'x' in
  (try
     while true do
       match Page.insert p ~payload:(payload body) with
       | Some _ -> incr n
       | None -> raise Exit
     done
   with Exit -> ());
  (* 4096 bytes, 12 header, 104 per record (100 payload + 4 dir entry). *)
  Alcotest.(check bool) "fits roughly 39 records" true (!n >= 38 && !n <= 40);
  Alcotest.(check bool) "page reports little space" true (Page.free_space p < 104)

let test_page_compaction_recovers_space () =
  let p = Page.create () in
  let slots = ref [] in
  let body = String.make 100 'x' in
  (try
     while true do
       match Page.insert p ~payload:(payload body) with
       | Some s -> slots := s :: !slots
       | None -> raise Exit
     done
   with Exit -> ());
  (* Delete every other record: space is fragmented 100-byte holes. *)
  List.iteri (fun i s -> if i mod 2 = 0 then ignore (Page.delete p ~slot:s)) !slots;
  (* A 150-byte record only fits after compaction. *)
  let s = Page.insert p ~payload:(payload (String.make 150 'y')) in
  Alcotest.(check bool) "insert after compaction" true (Option.is_some s);
  Alcotest.(check (option bytes_testable)) "compacted read intact"
    (Some (payload (String.make 150 'y')))
    (Page.read p ~slot:(Option.get s))

let test_page_insert_at () =
  let p = Page.create () in
  Alcotest.(check bool) "place at slot 3" true (Page.insert_at p ~slot:3 ~payload:(payload "x"));
  Alcotest.(check int) "directory grew" 4 (Page.slot_count p);
  Alcotest.(check bool) "live slot refused" false
    (Page.insert_at p ~slot:3 ~payload:(payload "y"));
  Alcotest.(check bool) "intermediate slot dead" true (Page.read p ~slot:1 = None);
  Alcotest.(check bool) "fill intermediate" true (Page.insert_at p ~slot:1 ~payload:(payload "z"));
  Alcotest.(check (option bytes_testable)) "read back" (Some (payload "z")) (Page.read p ~slot:1)

(* Allocation is flat in the directory size: reading slots allocates no
   pair per slot, so an insert into a page with 1,000 directory entries
   allocates exactly what one into a page with 150 does. *)
let test_page_insert_alloc_flat () =
  let with_dead_slots n =
    let p = Page.create () in
    let x = payload "x" in
    for _ = 1 to n do
      ignore (Page.delete p ~slot:(Option.get (Page.insert p ~payload:x)))
    done;
    p
  in
  let small = with_dead_slots 150 and large = with_dead_slots 1000 in
  let row = payload "0123456789" in
  let words p =
    let w0 = Gc.minor_words () in
    let slot = Page.insert p ~payload:row in
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check bool) "inserted" true (Option.is_some slot);
    w
  in
  let w_small = words small and w_large = words large in
  Alcotest.(check (float 0.0)) "same words at 150 and 1,000 slots" w_small w_large

let test_page_lsn () =
  let p = Page.create () in
  Alcotest.(check int64) "fresh lsn" 0L (Page.lsn p);
  Page.set_lsn p 42L;
  Alcotest.(check int64) "set lsn" 42L (Page.lsn p);
  let q = Page.copy p in
  Page.set_lsn p 50L;
  Alcotest.(check int64) "copy isolated" 42L (Page.lsn q)

let test_page_live () =
  let p = Page.create () in
  let s0 = Option.get (Page.insert p ~payload:(payload "a")) in
  let s1 = Option.get (Page.insert p ~payload:(payload "b")) in
  ignore (Page.delete p ~slot:s0);
  Alcotest.(check (list (pair int bytes_testable))) "only live" [ (s1, payload "b") ]
    (Page.live p)

(* --- Record --- *)

let test_record_roundtrip () =
  let b = Record.encode ~key:"account-17" ~value:12345 in
  Alcotest.(check (pair string int)) "roundtrip" ("account-17", 12345) (Record.decode b);
  let b = Record.encode ~key:"k" ~value:(-99) in
  Alcotest.(check (pair string int)) "negative value" ("k", -99) (Record.decode b)

let test_record_invalid () =
  Alcotest.check_raises "empty key" (Invalid_argument "Record: key must be 1..255 bytes")
    (fun () -> ignore (Record.encode ~key:"" ~value:0));
  Alcotest.check_raises "long key" (Invalid_argument "Record: key must be 1..255 bytes")
    (fun () -> ignore (Record.encode ~key:(String.make 256 'k') ~value:0))

let prop_record_roundtrip =
  QCheck2.Test.make ~name:"record encode/decode roundtrip" ~count:500
    QCheck2.Gen.(pair (string_size ~gen:printable (int_range 1 255)) int)
    (fun (key, value) -> Record.decode (Record.encode ~key ~value) = (key, value))

(* --- Disk --- *)

let test_disk_copy_semantics () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let p = Page.create () in
  ignore (Page.insert p ~payload:(payload "v1"));
  Disk.write d pid p;
  (* Mutating the in-memory page must not change the stable image. *)
  ignore (Page.update p ~slot:0 ~payload:(payload "v2"));
  let stable = Disk.read d pid in
  Alcotest.(check (option bytes_testable)) "stable kept v1" (Some (payload "v1"))
    (Page.read stable ~slot:0)

let test_disk_bounds () =
  let d = Disk.create () in
  Alcotest.check_raises "read unallocated" (Invalid_argument "Disk: unallocated page id")
    (fun () -> ignore (Disk.read d 0))

let test_disk_counters () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  ignore (Disk.read d pid);
  Disk.write d pid (Page.create ());
  Alcotest.(check int) "reads" 1 (Disk.read_count d);
  Alcotest.(check int) "writes" 1 (Disk.write_count d);
  Disk.reset_counters d;
  Alcotest.(check int) "reset" 0 (Disk.read_count d + Disk.write_count d)

(* --- Buffer pool --- *)

let test_pool_caches () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let pool = Bp.create ~capacity:4 d in
  Bp.with_page pool pid ~write:false (fun _ -> ());
  Bp.with_page pool pid ~write:false (fun _ -> ());
  Alcotest.(check int) "one miss" 1 (Bp.miss_count pool);
  Alcotest.(check int) "one hit" 1 (Bp.hit_count pool)

exception Boom

(* Regression: an exception out of [f] used to leave the frame pinned (and
   undirtied), so the page could never be evicted again. *)
let test_pool_pin_balance_on_exception () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let pool = Bp.create ~capacity:4 d in
  Alcotest.check_raises "exception propagates" Boom (fun () ->
      Bp.with_page pool pid ~write:true (fun _ -> raise Boom));
  Alcotest.(check int) "no pin leaked" 0 (Bp.pin_count pool);
  (* The page must still be evictable: touching [capacity] other pages from
     a full pool only works if the first frame's pin was released. *)
  let others = List.init 4 (fun _ -> Disk.allocate d) in
  List.iter (fun p -> Bp.with_page pool p ~write:false (fun _ -> ())) others;
  Alcotest.(check int) "balanced after traffic" 0 (Bp.pin_count pool)

let test_pool_eviction_writes_dirty () =
  let d = Disk.create () in
  let pids = List.init 5 (fun _ -> Disk.allocate d) in
  let pool = Bp.create ~capacity:2 d in
  (match pids with
  | p0 :: _ ->
    Bp.with_page pool p0 ~write:true (fun page ->
        ignore (Page.insert page ~payload:(payload "dirty")))
  | [] -> assert false);
  (* Touch the rest to force eviction of p0. *)
  List.iteri (fun i pid -> if i > 0 then Bp.with_page pool pid ~write:false (fun _ -> ())) pids;
  Alcotest.(check bool) "evictions happened" true (Bp.eviction_count pool > 0);
  let stable = Disk.read d (List.hd pids) in
  Alcotest.(check (option bytes_testable)) "dirty page reached disk" (Some (payload "dirty"))
    (Page.read stable ~slot:0)

let test_pool_wal_hook_fires_before_write () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let pool = Bp.create ~capacity:1 d in
  let calls = ref [] in
  Bp.set_wal_hook pool (fun ~lsn -> calls := lsn :: !calls);
  Bp.with_page pool pid ~write:true (fun page ->
      ignore (Page.insert page ~payload:(payload "x"));
      Page.set_lsn page 7L);
  Bp.flush_page pool pid;
  Alcotest.(check (list int64)) "hook saw the page lsn" [ 7L ] !calls;
  (* Flushing a clean page again must not re-invoke the hook. *)
  Bp.flush_page pool pid;
  Alcotest.(check int) "no duplicate hook" 1 (List.length !calls)

let test_pool_drop_all_discards () =
  let d = Disk.create () in
  let pid = Disk.allocate d in
  let pool = Bp.create ~capacity:2 d in
  Bp.with_page pool pid ~write:true (fun page ->
      ignore (Page.insert page ~payload:(payload "volatile")));
  Bp.drop_all pool;
  let stable = Disk.read d pid in
  Alcotest.(check (option bytes_testable)) "write lost on crash" None (Page.read stable ~slot:0)

let test_pool_dirty_pages () =
  let d = Disk.create () in
  let p0 = Disk.allocate d and p1 = Disk.allocate d in
  let pool = Bp.create ~capacity:4 d in
  Bp.with_page pool p0 ~write:true (fun _ -> ());
  Bp.with_page pool p1 ~write:false (fun _ -> ());
  Alcotest.(check (list int)) "only written page dirty" [ p0 ] (Bp.dirty_pages pool);
  Bp.flush_all pool;
  Alcotest.(check (list int)) "clean after flush" [] (Bp.dirty_pages pool)

let test_pool_all_pinned () =
  let d = Disk.create () in
  let p0 = Disk.allocate d and p1 = Disk.allocate d in
  let pool = Bp.create ~capacity:1 d in
  Alcotest.check_raises "cannot evict pinned" (Failure "Buffer_pool: all frames pinned")
    (fun () ->
      Bp.with_page pool p0 ~write:false (fun _ ->
          Bp.with_page pool p1 ~write:false (fun _ -> ())))

(* --- Heap --- *)

let test_heap_insert_read_update_delete () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  let rid = Heap.insert h ~lsn:1L ~key:"a" ~value:10 in
  Alcotest.(check (option (pair string int))) "read" (Some ("a", 10)) (Heap.read h rid);
  Alcotest.(check bool) "update" true (Heap.update h ~lsn:2L rid ~value:20);
  Alcotest.(check (option (pair string int))) "updated" (Some ("a", 20)) (Heap.read h rid);
  Alcotest.(check bool) "delete" true (Heap.delete h ~lsn:3L rid);
  Alcotest.(check (option (pair string int))) "gone" None (Heap.read h rid);
  Alcotest.(check bool) "double delete" false (Heap.delete h ~lsn:4L rid)

let test_heap_colocation_and_growth () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  let r0 = Heap.insert h ~lsn:1L ~key:"x" ~value:1 in
  let r1 = Heap.insert h ~lsn:2L ~key:"y" ~value:2 in
  Alcotest.(check int) "consecutive inserts share a page" r0.Heap.page r1.Heap.page;
  (* Insert enough records to spill onto more pages. *)
  for i = 0 to 400 do
    ignore (Heap.insert h ~lsn:(Int64.of_int (i + 3)) ~key:(Printf.sprintf "k%03d" i) ~value:i)
  done;
  Alcotest.(check bool) "multiple pages" true (List.length (Heap.page_ids h) > 1);
  Alcotest.(check int) "count" 403 (Heap.count h)

let test_heap_insert_at_restores_rid () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  let rid = Heap.insert h ~lsn:1L ~key:"a" ~value:1 in
  ignore (Heap.delete h ~lsn:2L rid);
  Alcotest.(check bool) "restore" true (Heap.insert_at h ~lsn:3L rid ~key:"a" ~value:1);
  Alcotest.(check (option (pair string int))) "restored" (Some ("a", 1)) (Heap.read h rid);
  Alcotest.(check bool) "live slot refused" false
    (Heap.insert_at h ~lsn:4L rid ~key:"a" ~value:2)

let test_heap_recover_scans_disk () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  for i = 0 to 99 do
    ignore (Heap.insert h ~lsn:(Int64.of_int (i + 1)) ~key:(Printf.sprintf "k%d" i) ~value:i)
  done;
  Bp.flush_all pool;
  (* Fresh pool + recovered heap sees the same records. *)
  let pool2 = Bp.create ~capacity:8 d in
  let h2 = Heap.recover d pool2 in
  Alcotest.(check int) "recovered count" 100 (Heap.count h2);
  let found = ref 0 in
  Heap.iter h2 (fun _ key value ->
      if key = Printf.sprintf "k%d" value then incr found);
  Alcotest.(check int) "keys consistent" 100 !found

let test_heap_iter_order_stable () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:8 d in
  let h = Heap.create d pool in
  ignore (Heap.insert h ~lsn:1L ~key:"a" ~value:1);
  ignore (Heap.insert h ~lsn:2L ~key:"b" ~value:2);
  let keys = ref [] in
  Heap.iter h (fun _ key _ -> keys := key :: !keys);
  Alcotest.(check (list string)) "iteration order" [ "a"; "b" ] (List.rev !keys)

(* Model-based property: random heap mutations agree with a Map model, and
   the heap recovered from a cold disk (after flushing) agrees too. *)
module StrMap = Map.Make (String)

let prop_heap_model =
  QCheck2.Test.make ~name:"heap agrees with a Map model (and across recover)" ~count:60
    QCheck2.Gen.(list_size (int_range 1 150) (triple (int_range 0 2) (int_range 0 40) int))
    (fun ops ->
      let d = Disk.create () in
      let pool = Bp.create ~capacity:4 d in
      let h = Heap.create d pool in
      let model = ref StrMap.empty in
      let rids = Hashtbl.create 16 in
      let lsn = ref 0L in
      let next_lsn () =
        lsn := Int64.add !lsn 1L;
        !lsn
      in
      List.iter
        (fun (op, ki, v) ->
          let key = Printf.sprintf "k%02d" ki in
          match op with
          | 0 ->
            if not (StrMap.mem key !model) then begin
              let rid = Heap.insert h ~lsn:(next_lsn ()) ~key ~value:v in
              Hashtbl.replace rids key rid;
              model := StrMap.add key v !model
            end
          | 1 -> (
            match Hashtbl.find_opt rids key with
            | Some rid when StrMap.mem key !model ->
              ignore (Heap.update h ~lsn:(next_lsn ()) rid ~value:v);
              model := StrMap.add key v !model
            | _ -> ())
          | _ -> (
            match Hashtbl.find_opt rids key with
            | Some rid when StrMap.mem key !model ->
              ignore (Heap.delete h ~lsn:(next_lsn ()) rid);
              model := StrMap.remove key !model
            | _ -> ()))
        ops;
      let agree heap =
        let found = ref StrMap.empty in
        Heap.iter heap (fun _ key value -> found := StrMap.add key value !found);
        StrMap.equal ( = ) !found !model
      in
      let live_ok = agree h in
      (* Cold restart: flush, fresh pool, recover. *)
      Bp.flush_all pool;
      let pool2 = Bp.create ~capacity:4 d in
      let h2 = Heap.recover d pool2 in
      live_ok && agree h2)

(* Placement property: [Heap] and the reference heap it replaced ([Heap_ref],
   which rescans every probed page's directory) go through the same random
   inserts, deletes, raw page deletes that bypass the heap the way redo and
   undo do (raising the page LSN), restores and updates. Every insert must
   land on the same rid, every restore must agree, and the buffer pools
   must count the same hits, misses and evictions: the free-space cache
   skips directory scans, not page accesses. *)
let prop_heap_placement_matches_reference =
  QCheck2.Test.make ~name:"heap places every record where the reference heap does" ~count:80
    QCheck2.Gen.(
      list_size (int_range 50 700)
        (triple
           (frequency [ (6, return `Insert); (2, return `Delete); (1, return `Raw_delete);
                        (2, return `Restore); (1, return `Update) ])
           (int_range 0 1_000_000) (int_range 1 60)))
    (fun ops ->
      let d = Disk.create () and d_ref = Disk.create () in
      let pool = Bp.create ~capacity:3 d and pool_ref = Bp.create ~capacity:3 d_ref in
      let h = Heap.create d pool and h_ref = Heap_ref.create d_ref pool_ref in
      let live = ref [||] and dead = ref [||] in
      let push r x = r := Array.append !r [| x |] in
      let take r i =
        let a = !r in
        let i = i mod Array.length a in
        r := Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1));
        a.(i)
      in
      let lsn = ref 0 in
      let next_lsn () =
        incr lsn;
        Int64.of_int !lsn
      in
      let ok = ref true in
      let raw_delete pool (rid : Heap.rid) lsn =
        Bp.with_page pool rid.page ~write:true (fun page ->
            if Page.delete page ~slot:rid.slot then Page.stamp page (Int64.to_int lsn))
      in
      List.iter
        (fun (op, n, klen) ->
          match op with
          | `Insert ->
            let key = String.make klen 'k' ^ string_of_int n in
            let lsn = next_lsn () in
            let rid = Heap.insert h ~lsn ~key ~value:n in
            let rid_ref = Heap_ref.insert h_ref ~lsn ~key ~value:n in
            if not (Heap.rid_equal rid rid_ref) then ok := false;
            push live (rid, key, n)
          | (`Delete | `Raw_delete) when Array.length !live > 0 ->
            let ((rid, _, _) as r) = take live n in
            let lsn = next_lsn () in
            if op = `Delete then begin
              ignore (Heap.delete h ~lsn rid);
              ignore (Heap_ref.delete h_ref ~lsn rid)
            end
            else begin
              raw_delete pool rid lsn;
              raw_delete pool_ref rid lsn
            end;
            push dead r
          | `Restore when Array.length !dead > 0 ->
            let ((rid, key, value) as r) = take dead n in
            let lsn = next_lsn () in
            let restored = Heap.insert_at h ~lsn rid ~key ~value in
            if restored <> Heap_ref.insert_at h_ref ~lsn rid ~key ~value then ok := false;
            if restored then push live r else push dead r
          | `Update when Array.length !live > 0 ->
            let rid, _, _ = !live.(n mod Array.length !live) in
            let lsn = next_lsn () in
            if Heap.update h ~lsn rid ~value:(-n) <> Heap_ref.update h_ref ~lsn rid ~value:(-n)
            then ok := false
          | `Delete | `Raw_delete | `Restore | `Update -> ())
        ops;
      Array.iter
        (fun (rid, _, _) -> if Heap.read h rid <> Heap_ref.read h_ref rid then ok := false)
        !live;
      !ok
      && Bp.hit_count pool = Bp.hit_count pool_ref
      && Bp.miss_count pool = Bp.miss_count pool_ref
      && Bp.eviction_count pool = Bp.eviction_count pool_ref)

(* Reserved bytes are not room: an insert that would need them goes to
   another page, and fits again once they are released. *)
let test_heap_reserved_bytes_are_not_room () =
  let d = Disk.create () in
  let pool = Bp.create ~capacity:4 d in
  let h = Heap.create d pool in
  (* 5-byte keys: 214 rows fill a page, leaving 14 free bytes. *)
  let rids =
    List.init 214 (fun i ->
        Heap.insert h ~lsn:(Int64.of_int (i + 1)) ~key:(Printf.sprintf "k%04d" i) ~value:i)
  in
  Alcotest.(check bool) "one page" true (List.for_all (fun (r : Heap.rid) -> r.page = 0) rids);
  let size = Record.encoded_size ~key:"k0000" in
  (* Reserved, then released: the freed bytes are room again. *)
  ignore (Heap.delete h ~lsn:1000L (List.nth rids 0));
  Heap.reserve h 0 size;
  Heap.release h 0 size;
  let back = Heap.insert h ~lsn:1001L ~key:"n0000" ~value:0 in
  Alcotest.(check int) "released bytes are room" 0 back.page;
  (* Reserved until the rollback: the insert goes to a fresh page and the
     rollback finds its bytes. *)
  let victim = List.nth rids 1 in
  ignore (Heap.delete h ~lsn:1002L victim);
  Heap.reserve h 0 size;
  let elsewhere = Heap.insert h ~lsn:1003L ~key:"n0001" ~value:0 in
  Alcotest.(check int) "insert skips the reserved bytes" 1 elsewhere.page;
  Alcotest.(check bool) "rollback restores the rid" true
    (Heap.insert_at h ~lsn:1004L victim ~key:"k0001" ~value:1)

(* A tiny 2-frame pool under a scattered access pattern must still persist
   every write once flushed. *)
let test_pool_thrashing_durability () =
  let d = Disk.create () in
  let pids = List.init 12 (fun _ -> Disk.allocate d) in
  let pool = Bp.create ~capacity:2 d in
  List.iteri
    (fun i pid ->
      Bp.with_page pool pid ~write:true (fun page ->
          ignore (Page.insert page ~payload:(payload (Printf.sprintf "v%d" i)))))
    pids;
  Bp.flush_all pool;
  List.iteri
    (fun i pid ->
      let stable = Disk.read d pid in
      Alcotest.(check (option bytes_testable))
        (Printf.sprintf "page %d durable" pid)
        (Some (payload (Printf.sprintf "v%d" i)))
        (Page.read stable ~slot:0))
    pids;
  Alcotest.(check bool) "evictions happened" true (Bp.eviction_count pool >= 10)

let () =
  Alcotest.run "storage"
    [
      ( "page",
        [
          Alcotest.test_case "insert/read" `Quick test_page_insert_read;
          Alcotest.test_case "read invalid" `Quick test_page_read_invalid;
          Alcotest.test_case "delete never reuses slots" `Quick test_page_delete_no_reuse;
          Alcotest.test_case "update same size" `Quick test_page_update_same_size;
          Alcotest.test_case "update resize" `Quick test_page_update_resize;
          Alcotest.test_case "update dead" `Quick test_page_update_dead;
          Alcotest.test_case "fill until full" `Quick test_page_fill_until_full;
          Alcotest.test_case "compaction" `Quick test_page_compaction_recovers_space;
          Alcotest.test_case "insert_at" `Quick test_page_insert_at;
          Alcotest.test_case "insert allocation flat in directory size" `Quick
            test_page_insert_alloc_flat;
          Alcotest.test_case "lsn" `Quick test_page_lsn;
          Alcotest.test_case "live listing" `Quick test_page_live;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "invalid keys" `Quick test_record_invalid;
          QCheck_alcotest.to_alcotest prop_record_roundtrip;
        ] );
      ( "disk",
        [
          Alcotest.test_case "copy semantics" `Quick test_disk_copy_semantics;
          Alcotest.test_case "bounds" `Quick test_disk_bounds;
          Alcotest.test_case "counters" `Quick test_disk_counters;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "caches" `Quick test_pool_caches;
          Alcotest.test_case "pin balance on exception" `Quick
            test_pool_pin_balance_on_exception;
          Alcotest.test_case "eviction writes dirty" `Quick test_pool_eviction_writes_dirty;
          Alcotest.test_case "wal hook" `Quick test_pool_wal_hook_fires_before_write;
          Alcotest.test_case "drop_all discards" `Quick test_pool_drop_all_discards;
          Alcotest.test_case "dirty pages" `Quick test_pool_dirty_pages;
          Alcotest.test_case "all pinned" `Quick test_pool_all_pinned;
        ] );
      ( "heap",
        [
          Alcotest.test_case "crud" `Quick test_heap_insert_read_update_delete;
          Alcotest.test_case "colocation and growth" `Quick test_heap_colocation_and_growth;
          Alcotest.test_case "insert_at restores rid" `Quick test_heap_insert_at_restores_rid;
          Alcotest.test_case "recover" `Quick test_heap_recover_scans_disk;
          Alcotest.test_case "iter order" `Quick test_heap_iter_order_stable;
          QCheck_alcotest.to_alcotest prop_heap_model;
          QCheck_alcotest.to_alcotest prop_heap_placement_matches_reference;
          Alcotest.test_case "reserved bytes are not room" `Quick
            test_heap_reserved_bytes_are_not_room;
        ] );
      ( "stress",
        [ Alcotest.test_case "pool thrashing durability" `Quick test_pool_thrashing_durability ]
      );
    ]
