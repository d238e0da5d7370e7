(* Tests for Icdb_sim: event engine, fibers, ivars, mailboxes, traces. *)

module Engine = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace

(* --- Engine --- *)

let test_engine_time_order () =
  let eng = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule eng ~delay:5.0 (fun () -> seen := 5 :: !seen));
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> seen := 1 :: !seen));
  ignore (Engine.schedule eng ~delay:3.0 (fun () -> seen := 3 :: !seen));
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !seen);
  Alcotest.(check (float 1e-9)) "clock at last event" 5.0 (Engine.now eng)

let test_engine_fifo_same_time () =
  let eng = Engine.create () in
  let seen = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~delay:2.0 (fun () -> seen := i :: !seen))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO among equal times" [ 1; 2; 3; 4; 5 ] (List.rev !seen)

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule eng ~delay:1.0 (fun () ->
         times := Engine.now eng :: !times;
         ignore (Engine.schedule eng ~delay:2.0 (fun () -> times := Engine.now eng :: !times))));
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "relative delays" [ 1.0; 3.0 ] (List.rev !times)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule eng ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel eng id;
  Alcotest.(check int) "pending drops" 0 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_engine_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule eng ~delay:(-1.0) (fun () -> ())))

let test_engine_run_until () =
  let eng = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> seen := 1 :: !seen));
  ignore (Engine.schedule eng ~delay:10.0 (fun () -> seen := 10 :: !seen));
  Engine.run_until eng 5.0;
  Alcotest.(check (list int)) "only due events" [ 1 ] (List.rev !seen);
  Alcotest.(check (float 1e-9)) "clock advanced to horizon" 5.0 (Engine.now eng);
  Alcotest.(check int) "late event still pending" 1 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check (list int)) "late event eventually fires" [ 1; 10 ] (List.rev !seen)

let test_engine_step () =
  let eng = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> incr count));
  ignore (Engine.schedule eng ~delay:2.0 (fun () -> incr count));
  Alcotest.(check bool) "step fires one" true (Engine.step eng);
  Alcotest.(check int) "one fired" 1 !count;
  Alcotest.(check bool) "second step" true (Engine.step eng);
  Alcotest.(check bool) "exhausted" false (Engine.step eng)

(* --- Calendar queue vs reference heap --- *)

module Engine_ref = Icdb_sim.Engine_ref
module Rng = Icdb_util.Rng

(* Random interleavings of push / pop / cancel / clock-advance, replayed
   against both the calendar engine (threshold 64, so toy-sized runs still
   activate it) and the pre-calendar binary heap kept as Engine_ref. Delays
   are multiples of 0.5 so same-time ties are frequent and float arithmetic
   is exact; every fired event records (time, push serial), and the two
   execution logs must match exactly. *)
type qop = QPush of int | QPop | QCancel of int | QAdvance of int

let prop_calendar_equals_heap =
  QCheck2.Test.make ~name:"calendar queue = reference heap pop order" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency
           [
             (5, map (fun d -> QPush d) (int_range 0 40));
             (2, return QPop);
             (1, map (fun i -> QCancel i) (int_range 0 1000));
             (1, map (fun h -> QAdvance h) (int_range 0 60));
           ]))
    (fun ops ->
      let e = Engine.create ~threshold:64 () in
      let r = Engine_ref.create () in
      let seen_e = ref [] and seen_r = ref [] in
      let ids_e = ref [] and ids_r = ref [] in
      let n_ids = ref 0 in
      let pushes = ref 0 in
      List.iter
        (fun op ->
          match op with
          | QPush d ->
            let delay = float_of_int d *. 0.5 in
            let k = !pushes in
            incr pushes;
            ids_e :=
              Engine.schedule e ~delay (fun () -> seen_e := (Engine.now e, k) :: !seen_e)
              :: !ids_e;
            ids_r :=
              Engine_ref.schedule r ~delay (fun () ->
                  seen_r := (Engine_ref.now r, k) :: !seen_r)
              :: !ids_r;
            incr n_ids
          | QPop ->
            ignore (Engine.step e);
            ignore (Engine_ref.step r)
          | QCancel i ->
            if !n_ids > 0 then begin
              let j = i mod !n_ids in
              Engine.cancel e (List.nth !ids_e j);
              Engine_ref.cancel r (List.nth !ids_r j)
            end
          | QAdvance h ->
            let horizon = Engine.now e +. (float_of_int h *. 0.5) in
            Engine.run_until e horizon;
            Engine_ref.run_until r horizon)
        ops;
      Engine.run e;
      Engine_ref.run r;
      !seen_e = !seen_r
      && Engine.pending e = Engine_ref.pending r
      && Engine.stored e = 0)

(* Deep calendar exercise: tens of thousands of pending events with skewed
   delays, well past the activation threshold, must drain in exact
   nondecreasing (time, seq) order with nothing lost. *)
let test_engine_calendar_scale () =
  let eng = Engine.create ~threshold:64 () in
  let rng = Rng.create 7L in
  let n = 20_000 in
  let fired = ref 0 in
  let last = ref (-1.0) in
  let monotone = ref true in
  for _ = 1 to n do
    let delay = Rng.exponential rng ~mean:50.0 in
    ignore
      (Engine.schedule eng ~delay (fun () ->
           let t = Engine.now eng in
           if t < !last then monotone := false;
           last := t;
           incr fired))
  done;
  Alcotest.(check bool) "calendar activated" true (Engine.calendar_active eng);
  Alcotest.(check int) "all pending" n (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "all fired" n !fired;
  Alcotest.(check bool) "time order preserved" true !monotone;
  Alcotest.(check int) "drained" 0 (Engine.pending eng);
  Alcotest.(check int) "no carcasses retained" 0 (Engine.stored eng)

(* Cancelling nearly everything must compact the store instead of dragging
   dead events along until they surface at the root. *)
let test_engine_cancel_compaction () =
  let eng = Engine.create ~threshold:64 () in
  let rng = Rng.create 11L in
  let n = 10_000 in
  let ids = Array.make n None in
  let fired = ref 0 in
  for i = 0 to n - 1 do
    let delay = Rng.exponential rng ~mean:20.0 in
    ids.(i) <- Some (Engine.schedule eng ~delay (fun () -> incr fired))
  done;
  for i = 0 to n - 1 do
    if i mod 100 <> 0 then Engine.cancel eng (Option.get ids.(i))
  done;
  let live = Engine.pending eng in
  Alcotest.(check int) "live after cancels" 100 live;
  Alcotest.(check bool)
    (Printf.sprintf "compacted (stored %d <= 2*live + 64)" (Engine.stored eng))
    true
    (Engine.stored eng <= (2 * live) + 64);
  Engine.run eng;
  Alcotest.(check int) "survivors fired" 100 !fired;
  Alcotest.(check int) "stored drained" 0 (Engine.stored eng)

let test_engine_resize_hook () =
  let eng = Engine.create ~threshold:64 () in
  let rng = Rng.create 3L in
  let calls = ref 0 in
  let last_buckets = ref 0 in
  let last_events = ref 0 in
  Engine.set_resize_hook eng (fun ~buckets ~width ~events ->
      incr calls;
      last_buckets := buckets;
      last_events := events;
      Alcotest.(check bool) "positive width" true (width > 0.0));
  for _ = 1 to 1_000 do
    ignore (Engine.schedule eng ~delay:(Rng.exponential rng ~mean:100.0) (fun () -> ()))
  done;
  Alcotest.(check bool) "hook called on activation" true (!calls >= 1);
  Alcotest.(check bool) "buckets reported" true (!last_buckets > 0);
  Alcotest.(check bool) "events reported" true (!last_events > 0);
  Engine.run eng;
  Alcotest.(check bool) "calendar off after drain" false (Engine.calendar_active eng)

(* --- Fibers --- *)

let test_fiber_sleep_interleaving () =
  let eng = Engine.create () in
  let order = ref [] in
  Fiber.spawn eng (fun () ->
      order := "a0" :: !order;
      Fiber.sleep eng 3.0;
      order := "a1" :: !order);
  Fiber.spawn eng (fun () ->
      order := "b0" :: !order;
      Fiber.sleep eng 1.0;
      order := "b1" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "interleaving" [ "a0"; "b0"; "b1"; "a1" ] (List.rev !order)

let test_fiber_yield () =
  let eng = Engine.create () in
  let order = ref [] in
  Fiber.spawn eng (fun () ->
      order := 1 :: !order;
      Fiber.yield eng;
      order := 3 :: !order);
  Fiber.spawn eng (fun () -> order := 2 :: !order);
  Engine.run eng;
  Alcotest.(check (list int)) "yield lets others run" [ 1; 2; 3 ] (List.rev !order)

let test_fiber_on_error () =
  let eng = Engine.create () in
  let caught = ref "" in
  Fiber.spawn eng
    ~on_error:(fun e -> caught := Printexc.to_string e)
    (fun () -> failwith "boom");
  Engine.run eng;
  Alcotest.(check bool) "error handler ran" true (!caught <> "")

let test_fiber_error_after_suspension () =
  let eng = Engine.create () in
  let caught = ref false in
  Fiber.spawn eng
    ~on_error:(fun _ -> caught := true)
    (fun () ->
      Fiber.sleep eng 1.0;
      failwith "late boom");
  Engine.run eng;
  Alcotest.(check bool) "handler catches post-suspend raise" true !caught

let test_fiber_await_resume_once () =
  let eng = Engine.create () in
  let stash = ref None in
  let resumed = ref 0 in
  Fiber.spawn eng (fun () ->
      let v = Fiber.await (fun resume -> stash := Some resume) in
      resumed := v);
  ignore
    (Engine.schedule eng ~delay:1.0 (fun () ->
         let resume = Option.get !stash in
         resume (Ok 7);
         resume (Ok 99) (* must be ignored *)));
  Engine.run eng;
  Alcotest.(check int) "first resume wins" 7 !resumed

let test_fiber_await_error () =
  let eng = Engine.create () in
  let result = ref "no" in
  Fiber.spawn eng (fun () ->
      match Fiber.await (fun resume -> resume (Error Exit)) with
      | () -> result := "returned"
      | exception Exit -> result := "raised");
  Engine.run eng;
  Alcotest.(check string) "error resumes as exception" "raised" !result

(* --- Ivar --- *)

let test_ivar_fill_then_read () =
  let eng = Engine.create () in
  let iv = Fiber.Ivar.create eng in
  Fiber.Ivar.fill iv 42;
  let got = ref 0 in
  Fiber.spawn eng (fun () -> got := Fiber.Ivar.read iv);
  Engine.run eng;
  Alcotest.(check int) "read filled" 42 !got

let test_ivar_read_blocks_until_fill () =
  let eng = Engine.create () in
  let iv = Fiber.Ivar.create eng in
  let got = ref [] in
  Fiber.spawn eng (fun () ->
      let v = Fiber.Ivar.read iv in
      got := ("r1", v) :: !got);
  Fiber.spawn eng (fun () ->
      let v = Fiber.Ivar.read iv in
      got := ("r2", v) :: !got);
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 5.0;
      Fiber.Ivar.fill iv 9);
  Engine.run eng;
  Alcotest.(check int) "both woken" 2 (List.length !got);
  List.iter (fun (_, v) -> Alcotest.(check int) "value" 9 v) !got

let test_ivar_double_fill () =
  let eng = Engine.create () in
  let iv = Fiber.Ivar.create eng in
  Fiber.Ivar.fill iv 1;
  Alcotest.check_raises "double fill" (Invalid_argument "Fiber.Ivar.fill: already filled")
    (fun () -> Fiber.Ivar.fill iv 2);
  Alcotest.(check bool) "is_filled" true (Fiber.Ivar.is_filled iv);
  Alcotest.(check (option int)) "peek" (Some 1) (Fiber.Ivar.peek iv)

(* --- Mailbox --- *)

let test_mailbox_send_recv () =
  let eng = Engine.create () in
  let mb = Fiber.Mailbox.create eng in
  let got = ref [] in
  Fiber.spawn eng (fun () ->
      got := Fiber.Mailbox.recv mb :: !got;
      got := Fiber.Mailbox.recv mb :: !got);
  Fiber.spawn eng (fun () ->
      Fiber.Mailbox.send mb "x";
      Fiber.sleep eng 1.0;
      Fiber.Mailbox.send mb "y");
  Engine.run eng;
  Alcotest.(check (list string)) "fifo delivery" [ "x"; "y" ] (List.rev !got)

let test_mailbox_buffered () =
  let eng = Engine.create () in
  let mb = Fiber.Mailbox.create eng in
  Fiber.Mailbox.send mb 1;
  Fiber.Mailbox.send mb 2;
  Alcotest.(check int) "length" 2 (Fiber.Mailbox.length mb);
  Alcotest.(check (option int)) "try_recv" (Some 1) (Fiber.Mailbox.try_recv mb);
  Alcotest.(check (option int)) "try_recv again" (Some 2) (Fiber.Mailbox.try_recv mb);
  Alcotest.(check (option int)) "empty" None (Fiber.Mailbox.try_recv mb)

let test_mailbox_recv_timeout_expires () =
  let eng = Engine.create () in
  let mb : int Fiber.Mailbox.t = Fiber.Mailbox.create eng in
  let got = ref (Some 0) in
  Fiber.spawn eng (fun () -> got := Fiber.Mailbox.recv_timeout mb 5.0);
  Engine.run eng;
  Alcotest.(check (option int)) "timed out" None !got;
  Alcotest.(check (float 1e-9)) "waited full timeout" 5.0 (Engine.now eng)

let test_mailbox_recv_timeout_delivers () =
  let eng = Engine.create () in
  let mb = Fiber.Mailbox.create eng in
  let got = ref None in
  Fiber.spawn eng (fun () -> got := Fiber.Mailbox.recv_timeout mb 5.0);
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Fiber.Mailbox.send mb 3));
  Engine.run eng;
  Alcotest.(check (option int)) "delivered" (Some 3) !got

let test_mailbox_message_not_lost_after_timeout () =
  let eng = Engine.create () in
  let mb = Fiber.Mailbox.create eng in
  let first = ref (Some 0) and second = ref None in
  Fiber.spawn eng (fun () ->
      first := Fiber.Mailbox.recv_timeout mb 2.0;
      (* message arrives after our timeout; a later recv must still get it *)
      Fiber.sleep eng 10.0;
      second := Fiber.Mailbox.recv_timeout mb 1.0);
  ignore (Engine.schedule eng ~delay:5.0 (fun () -> Fiber.Mailbox.send mb 8));
  Engine.run eng;
  Alcotest.(check (option int)) "first timed out" None !first;
  Alcotest.(check (option int)) "second received buffered msg" (Some 8) !second

(* --- Trace --- *)

let test_trace_basic () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  Fiber.spawn eng (fun () ->
      Trace.record tr ~actor:"a" "start";
      Fiber.sleep eng 2.0;
      Trace.record tr ~actor:"a" "done");
  Engine.run eng;
  Alcotest.(check int) "two entries" 2 (Trace.length tr);
  Alcotest.(check (option (float 1e-9))) "find start" (Some 0.0)
    (Trace.find tr ~actor:"a" ~label:"start");
  Alcotest.(check (option (float 1e-9))) "find done" (Some 2.0)
    (Trace.find tr ~actor:"a" ~label:"done");
  Alcotest.(check bool) "ordering" true (Trace.before tr ~first:"start" ~then_:"done");
  Alcotest.(check bool) "no reverse ordering" false (Trace.before tr ~first:"done" ~then_:"start")

let test_trace_find_all_and_clear () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  Trace.record tr ~actor:"x" "m";
  Trace.record tr ~actor:"y" "m";
  Alcotest.(check int) "find_all" 2 (List.length (Trace.find_all tr ~label:"m"));
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.length tr)

(* --- Re-armed events, wake order, the lean [all] --- *)

let test_engine_rearm () =
  let eng = Engine.create () in
  let log = ref [] in
  let ev = ref Engine.no_event in
  let fired = ref 0 in
  ev :=
    Engine.schedule eng ~delay:1.0 (fun () ->
        incr fired;
        log := Printf.sprintf "ev%d@%g" !fired (Engine.now eng) :: !log;
        (* a same-time event scheduled first must still fire first *)
        if !fired = 1 then begin
          ignore (Engine.schedule eng ~delay:0.0 (fun () -> log := "other" :: !log));
          Engine.rearm eng !ev ~delay:0.0
        end
        else if !fired = 2 then Engine.rearm eng !ev ~delay:2.5);
  Engine.run eng;
  Alcotest.(check (list string)) "re-armed events take the next seq"
    [ "ev1@1"; "other"; "ev2@1"; "ev3@3.5" ] (List.rev !log);
  Alcotest.(check int) "executed" 4 (Engine.executed eng);
  Alcotest.check_raises "no_event" (Invalid_argument "Engine.rearm: no_event") (fun () ->
      Engine.rearm eng Engine.no_event ~delay:0.0)

let test_ivar_fifo_wake () =
  let eng = Engine.create () in
  let iv = Fiber.Ivar.create eng in
  let woke = ref [] in
  List.iter
    (fun name ->
      Fiber.spawn eng (fun () ->
          ignore (Fiber.Ivar.read iv);
          woke := name :: !woke))
    [ "r1"; "r2"; "r3"; "r4" ];
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 2.0;
      Fiber.Ivar.fill iv ());
  Engine.run eng;
  Alcotest.(check (list string)) "readers wake oldest first" [ "r1"; "r2"; "r3"; "r4" ]
    (List.rev !woke)

(* [Fiber.all] as it was built before the join record: one Ivar per thunk,
   read in input order. *)
let all_ref eng thunks =
  let cells =
    List.map
      (fun thunk ->
        let iv = Fiber.Ivar.create eng in
        Fiber.spawn eng (fun () ->
            Fiber.Ivar.fill iv (match thunk () with v -> Ok v | exception e -> Error e));
        iv)
      thunks
  in
  let results = List.map Fiber.Ivar.read cells in
  List.map (function Ok v -> v | Error e -> raise e) results

(* Same thunks (random sleeps, some raising) under [all] and [all_ref]: the
   engine must run the same events at the same times, and the callers must
   see the same results. *)
let prop_all_matches_ivar_reference =
  QCheck2.Test.make ~name:"Fiber.all = Ivar-per-thunk schedule" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 3)
        (list_size (int_range 0 5) (pair (list_size (int_range 0 3) (int_range 0 3)) bool)))
    (fun rounds ->
      let run all =
        let eng = Engine.create () in
        let log = ref [] in
        Engine.set_observer eng (fun () -> log := Printf.sprintf "@%g" (Engine.now eng) :: !log);
        Fiber.spawn eng (fun () ->
            List.iteri
              (fun r thunks ->
                let result =
                  match
                    all eng
                      (List.mapi
                         (fun i (sleeps, raises) () ->
                           List.iter (fun d -> Fiber.sleep eng (float_of_int d)) sleeps;
                           log := Printf.sprintf "r%d.%d done" r i :: !log;
                           if raises then failwith (string_of_int i);
                           i)
                         thunks)
                  with
                  | l -> String.concat "," (List.map string_of_int l)
                  | exception Failure m -> "raised " ^ m
                in
                log := Printf.sprintf "r%d -> %s" r result :: !log)
              rounds);
        Engine.run eng;
        (List.rev !log, Engine.executed eng)
      in
      run Fiber.all = run all_ref)

(* --- Trace against the reference trace --- *)

(* Random streams of plain and gid-scoped labels, recorded into [Trace] and
   into the reference trace (which gets the rendered label); every query
   must answer the same. *)
let prop_trace_matches_reference =
  let labels = [| "running"; "ready"; "g3:ready"; "committed"; "aborted (x)" |] in
  let actors = [| "central"; "s0"; "s1" |] in
  QCheck2.Test.make ~name:"Trace = reference trace" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (quad (int_range 0 2) (int_range (-1) 12) (int_range 0 4) (int_range 0 2)))
    (fun stream ->
      let eng = Engine.create () in
      let t = Trace.create eng and r = Trace_ref.create eng in
      List.iter
        (fun (a, gid, l, dt) ->
          ignore (Engine.schedule eng ~delay:(float_of_int dt) (fun () ->
              let actor = actors.(a) and label = labels.(l) in
              if gid < 0 then begin
                Trace.record t ~actor label;
                Trace_ref.record r ~actor label
              end
              else begin
                Trace.record_gid t ~actor ~gid label;
                Trace_ref.record r ~actor ("g" ^ string_of_int gid ^ ":" ^ label)
              end)))
        stream;
      Engine.run eng;
      let queries =
        "g3:ready" :: "g3:g3:ready" :: "ready" :: "g10:committed" :: "g1:running" :: "g" :: ""
        :: Array.to_list labels
      in
      let same_entries =
        List.map (fun (e : Trace.entry) -> (e.time, e.actor, e.label)) (Trace.entries t)
        = List.map (fun (e : Trace_ref.entry) -> (e.time, e.actor, e.label)) (Trace_ref.entries r)
      in
      same_entries
      && Trace.render t = Trace_ref.render r
      && Trace.length t = Trace_ref.length r
      && List.for_all
           (fun label ->
             Trace.find_all t ~label = Trace_ref.find_all r ~label
             && Array.for_all
                  (fun actor -> Trace.find t ~actor ~label = Trace_ref.find r ~actor ~label)
                  actors
             && List.for_all
                  (fun then_ ->
                    Trace.before t ~first:label ~then_ = Trace_ref.before r ~first:label ~then_)
                  queries)
           queries)

(* --- Allocation budgets (OCaml 5.1, no flambda) --- *)

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_budget what per budget =
  if per > budget then Alcotest.failf "%s: %.2f words, budget %.1f" what per budget

(* A sleep is two events, its timer and the resumption hop, on the
   fiber's own re-armed event: 11 words per sleep — the effect, the
   continuation, the timer state and the moved clock. *)
let test_sleep_alloc_budget () =
  let n = 10_000 in
  let eng = Engine.create () in
  Fiber.spawn eng (fun () ->
      for _ = 1 to n do
        Fiber.sleep eng 1.0
      done);
  ignore (Engine.step eng);
  let ex0 = Engine.executed eng in
  let w = words (fun () -> Engine.run eng) in
  let events = Engine.executed eng - ex0 in
  Alcotest.(check int) "two events per sleep" (2 * n) events;
  check_budget "Fiber.sleep per event" (w /. float_of_int events) 8.0

(* [all] of two trivial thunks: two fiber starts and one hop for the
   caller, 136 words per call. *)
let test_all_alloc_budget () =
  let calls = 2_000 in
  let eng = Engine.create () in
  Fiber.spawn eng (fun () ->
      for _ = 1 to calls do
        ignore (Fiber.all eng [ (fun () -> 1); (fun () -> 2) ])
      done);
  ignore (Engine.step eng);
  let ex0 = Engine.executed eng in
  let w = words (fun () -> Engine.run eng) in
  let events = Engine.executed eng - ex0 in
  Alcotest.(check int) "three events per call" (3 * calls) events;
  check_budget "Fiber.all per event" (w /. float_of_int events) 50.0

(* A step allocates only the new clock value, and not even that when the
   clock does not move. *)
let test_step_alloc_budget () =
  let n = 10_000 in
  let eng = Engine.create () in
  let f () = () in
  for i = 1 to n do
    ignore (Engine.schedule eng ~delay:(float_of_int (i / 2)) f)
  done;
  let w = words (fun () -> for _ = 1 to n do ignore (Engine.step eng) done) in
  check_budget "Engine.step per event" (w /. float_of_int n) 1.5

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "step" `Quick test_engine_step;
        ] );
      ( "calendar",
        [
          QCheck_alcotest.to_alcotest prop_calendar_equals_heap;
          Alcotest.test_case "rearm" `Quick test_engine_rearm;
          Alcotest.test_case "20k-event drain order" `Quick test_engine_calendar_scale;
          Alcotest.test_case "cancel compaction" `Quick test_engine_cancel_compaction;
          Alcotest.test_case "resize hook" `Quick test_engine_resize_hook;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "sleep interleaving" `Quick test_fiber_sleep_interleaving;
          Alcotest.test_case "yield" `Quick test_fiber_yield;
          Alcotest.test_case "on_error" `Quick test_fiber_on_error;
          Alcotest.test_case "error after suspension" `Quick test_fiber_error_after_suspension;
          Alcotest.test_case "resume once" `Quick test_fiber_await_resume_once;
          Alcotest.test_case "await error" `Quick test_fiber_await_error;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks until fill" `Quick test_ivar_read_blocks_until_fill;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "readers wake in FIFO order" `Quick test_ivar_fifo_wake;
          QCheck_alcotest.to_alcotest prop_all_matches_ivar_reference;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "send/recv" `Quick test_mailbox_send_recv;
          Alcotest.test_case "buffered" `Quick test_mailbox_buffered;
          Alcotest.test_case "timeout expires" `Quick test_mailbox_recv_timeout_expires;
          Alcotest.test_case "timeout delivers" `Quick test_mailbox_recv_timeout_delivers;
          Alcotest.test_case "no message loss after timeout" `Quick
            test_mailbox_message_not_lost_after_timeout;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basic" `Quick test_trace_basic;
          Alcotest.test_case "find_all and clear" `Quick test_trace_find_all_and_clear;
          QCheck_alcotest.to_alcotest prop_trace_matches_reference;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "Fiber.sleep budget" `Quick test_sleep_alloc_budget;
          Alcotest.test_case "Fiber.all budget" `Quick test_all_alloc_budget;
          Alcotest.test_case "Engine.step budget" `Quick test_step_alloc_budget;
        ] );
    ]
