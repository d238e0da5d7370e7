(* Tests for Icdb_lock: mode lattice and the blocking lock table. *)

module Engine = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Mode = Icdb_lock.Mode
module Lock = Icdb_lock.Lock_table

let outcome_testable =
  Alcotest.testable
    (fun fmt -> function
      | Lock.Granted -> Format.pp_print_string fmt "granted"
      | Lock.Timeout -> Format.pp_print_string fmt "timeout"
      | Lock.Deadlock -> Format.pp_print_string fmt "deadlock")
    ( = )

(* --- Mode --- *)

let test_mode_compat_matrix () =
  let open Mode in
  Alcotest.(check bool) "S-S" true (compatible Shared Shared);
  Alcotest.(check bool) "S-X" false (compatible Shared Exclusive);
  Alcotest.(check bool) "X-S" false (compatible Exclusive Shared);
  Alcotest.(check bool) "X-X" false (compatible Exclusive Exclusive);
  Alcotest.(check bool) "I-I" true (compatible Increment Increment);
  Alcotest.(check bool) "I-S" false (compatible Increment Shared);
  Alcotest.(check bool) "S-I" false (compatible Shared Increment);
  Alcotest.(check bool) "I-X" false (compatible Increment Exclusive)

let test_mode_combine () =
  let open Mode in
  Alcotest.(check bool) "S+S=S" true (combine Shared Shared = Shared);
  Alcotest.(check bool) "I+I=I" true (combine Increment Increment = Increment);
  Alcotest.(check bool) "S+X=X" true (combine Shared Exclusive = Exclusive);
  Alcotest.(check bool) "S+I=X" true (combine Shared Increment = Exclusive);
  Alcotest.(check bool) "covers: X covers S" true (covers ~held:Exclusive ~want:Shared);
  Alcotest.(check bool) "covers: S not I" false (covers ~held:Shared ~want:Increment)

(* --- Lock table helpers --- *)

let make_table eng =
  Lock.create eng
    ~syms:(Icdb_util.Symbol.create ())
    ~compatible:Mode.compatible ~combine:Mode.combine

let run_engine f =
  let eng = Engine.create () in
  let r = f eng in
  Engine.run eng;
  r

(* --- Grant semantics --- *)

let test_shared_locks_coexist () =
  run_engine (fun eng ->
      let t = make_table eng in
      let done_count = ref 0 in
      for owner = 1 to 3 do
        Fiber.spawn eng (fun () ->
            match Lock.acquire t ~owner ~obj:(Lock.intern t "k") ~mode:Mode.Shared () with
            | Lock.Granted -> incr done_count
            | _ -> Alcotest.fail "shared should grant")
      done;
      ignore
        (Engine.schedule eng ~delay:1.0 (fun () ->
             Alcotest.(check int) "all granted" 3 !done_count;
             Alcotest.(check int) "three holders" 3 (List.length (Lock.holders t ~obj:(Lock.intern t "k"))))))

let test_exclusive_blocks_until_release () =
  run_engine (fun eng ->
      let t = make_table eng in
      let order = ref [] in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          order := "t1-granted" :: !order;
          Fiber.sleep eng 10.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k");
          order := "t1-released" :: !order);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          match Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive () with
          | Lock.Granted -> order := "t2-granted" :: !order
          | _ -> Alcotest.fail "should eventually grant");
      ignore
        (Engine.schedule eng ~delay:20.0 (fun () ->
             Alcotest.(check (list string)) "waiter granted after release"
               [ "t1-granted"; "t1-released"; "t2-granted" ]
               (List.rev !order))))

let test_fifo_fairness () =
  run_engine (fun eng ->
      let t = make_table eng in
      let order = ref [] in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 5.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k"));
      for owner = 2 to 4 do
        Fiber.spawn eng (fun () ->
            (* Stagger arrival so queue order is 2,3,4. *)
            Fiber.sleep eng (float_of_int owner *. 0.1);
            ignore (Lock.acquire t ~owner ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
            order := owner :: !order;
            Fiber.sleep eng 1.0;
            Lock.release t ~owner ~obj:(Lock.intern t "k"))
      done;
      ignore
        (Engine.schedule eng ~delay:30.0 (fun () ->
             Alcotest.(check (list int)) "FIFO" [ 2; 3; 4 ] (List.rev !order))))

let test_shared_must_wait_behind_queued_exclusive () =
  (* No starvation: a new S request queues behind a waiting X. *)
  run_engine (fun eng ->
      let t = make_table eng in
      let order = ref [] in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          Fiber.sleep eng 5.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k"));
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          order := "x" :: !order;
          Fiber.sleep eng 1.0;
          Lock.release t ~owner:2 ~obj:(Lock.intern t "k"));
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 2.0;
          (* S would be compatible with holder 1, but X is queued first. *)
          ignore (Lock.acquire t ~owner:3 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          order := "s" :: !order);
      ignore
        (Engine.schedule eng ~delay:30.0 (fun () ->
             Alcotest.(check (list string)) "X before late S" [ "x"; "s" ] (List.rev !order))))

let test_increment_locks_coexist () =
  run_engine (fun eng ->
      let t = make_table eng in
      let granted = ref 0 in
      for owner = 1 to 4 do
        Fiber.spawn eng (fun () ->
            match Lock.acquire t ~owner ~obj:(Lock.intern t "ctr") ~mode:Mode.Increment () with
            | Lock.Granted -> incr granted
            | _ -> Alcotest.fail "increment locks must coexist")
      done;
      ignore
        (Engine.schedule eng ~delay:1.0 (fun () ->
             Alcotest.(check int) "all four granted concurrently" 4 !granted)))

let test_reentrant_and_upgrade () =
  run_engine (fun eng ->
      let t = make_table eng in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          (* Re-entrant shared: immediate. *)
          Alcotest.check outcome_testable "reentrant S" Lock.Granted
            (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          (* Upgrade to X with no other holder: immediate. *)
          Alcotest.check outcome_testable "upgrade to X" Lock.Granted
            (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Alcotest.(check (list (pair int (Alcotest.testable Mode.pp ( = )))))
            "holds X" [ (1, Mode.Exclusive) ] (Lock.holders t ~obj:(Lock.intern t "k"))))

let test_upgrade_waits_for_other_reader () =
  run_engine (fun eng ->
      let t = make_table eng in
      let upgraded_at = ref 0.0 in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          Fiber.sleep eng 5.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k"));
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Shared ());
          Fiber.sleep eng 1.0;
          (match Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive () with
          | Lock.Granted -> upgraded_at := Engine.now eng
          | _ -> Alcotest.fail "upgrade should grant eventually"));
      ignore
        (Engine.schedule eng ~delay:30.0 (fun () ->
             Alcotest.(check (float 1e-9)) "upgrade granted at release" 5.0 !upgraded_at)))

let test_try_acquire () =
  run_engine (fun eng ->
      let t = make_table eng in
      Alcotest.(check bool) "free grant" true
        (Lock.try_acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive);
      Alcotest.(check bool) "conflicting refused" false
        (Lock.try_acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Shared);
      Alcotest.(check bool) "reentrant ok" true
        (Lock.try_acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Shared))

(* --- Deadlock / timeout --- *)

let test_deadlock_detected () =
  run_engine (fun eng ->
      let t = make_table eng in
      let outcomes = ref [] in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "a") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 1.0;
          let o = Lock.acquire t ~owner:1 ~obj:(Lock.intern t "b") ~mode:Mode.Exclusive () in
          outcomes := (1, o) :: !outcomes;
          if o = Lock.Deadlock then Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "b") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 2.0;
          let o = Lock.acquire t ~owner:2 ~obj:(Lock.intern t "a") ~mode:Mode.Exclusive () in
          outcomes := (2, o) :: !outcomes);
      ignore
        (Engine.schedule eng ~delay:60.0 (fun () ->
             (* Owner 2's request closes the cycle and is denied; owner 1 is
                then granted after 2... actually owner 2 is the victim. *)
             let o2 = List.assoc 2 !outcomes in
             Alcotest.check outcome_testable "requester is victim" Lock.Deadlock o2;
             Alcotest.(check int) "one deadlock counted" 1 (Lock.deadlock_count t))))

let test_timeout () =
  run_engine (fun eng ->
      let t = make_table eng in
      let result = ref Lock.Granted in
      let finished_at = ref 0.0 in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 100.0;
          Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          result := Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ~timeout:5.0 ();
          finished_at := Engine.now eng);
      ignore
        (Engine.schedule eng ~delay:200.0 (fun () ->
             Alcotest.check outcome_testable "timed out" Lock.Timeout !result;
             Alcotest.(check (float 1e-9)) "after 5 units" 6.0 !finished_at;
             Alcotest.(check int) "timeout counted" 1 (Lock.timeout_count t))))

let test_timed_out_waiter_does_not_hold () =
  run_engine (fun eng ->
      let t = make_table eng in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 10.0;
          Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ~timeout:2.0 ()));
      ignore
        (Engine.schedule eng ~delay:50.0 (fun () ->
             Alcotest.(check (list (pair int (Alcotest.testable Mode.pp ( = )))))
               "no stale holder" [] (Lock.holders t ~obj:(Lock.intern t "k")))))

(* --- release_all / reset --- *)

let test_release_all () =
  run_engine (fun eng ->
      let t = make_table eng in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "a") ~mode:Mode.Exclusive ());
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "b") ~mode:Mode.Shared ());
          Alcotest.(check int) "holds two" 2 (List.length (Lock.held t ~owner:1));
          Lock.release_all t ~owner:1;
          Alcotest.(check int) "holds none" 0 (List.length (Lock.held t ~owner:1))))

let test_release_all_cancels_wait () =
  run_engine (fun eng ->
      let t = make_table eng in
      let revoked = ref false in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 50.0;
          Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          match Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive () with
          | _ -> Alcotest.fail "should have been revoked"
          | exception Lock.Lock_revoked -> revoked := true);
      (* A third party aborts owner 2 while it waits. *)
      ignore (Engine.schedule eng ~delay:5.0 (fun () -> Lock.release_all t ~owner:2));
      ignore
        (Engine.schedule eng ~delay:100.0 (fun () ->
             Alcotest.(check bool) "wait revoked" true !revoked)))

let test_reset_wakes_everyone () =
  run_engine (fun eng ->
      let t = make_table eng in
      let revoked = ref 0 in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 50.0);
      for owner = 2 to 4 do
        Fiber.spawn eng (fun () ->
            Fiber.sleep eng 1.0;
            match Lock.acquire t ~owner ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive () with
            | _ -> ()
            | exception Lock.Lock_revoked -> incr revoked)
      done;
      ignore (Engine.schedule eng ~delay:5.0 (fun () -> Lock.reset t));
      ignore
        (Engine.schedule eng ~delay:100.0 (fun () ->
             Alcotest.(check int) "all waiters revoked" 3 !revoked;
             Alcotest.(check int) "table empty" 0 (List.length (Lock.holders t ~obj:(Lock.intern t "k"))))))

(* --- metrics --- *)

let test_hold_time_hook () =
  run_engine (fun eng ->
      let t = make_table eng in
      let durations = ref [] in
      Lock.set_hold_time_hook t (fun ~obj:_ ~duration -> durations := duration :: !durations);
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 7.0;
          Lock.release t ~owner:1 ~obj:(Lock.intern t "k"));
      ignore
        (Engine.schedule eng ~delay:20.0 (fun () ->
             Alcotest.(check (list (float 1e-9))) "held for 7" [ 7.0 ] !durations)))

let test_counters () =
  run_engine (fun eng ->
      let t = make_table eng in
      Fiber.spawn eng (fun () ->
          ignore (Lock.acquire t ~owner:1 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ());
          Fiber.sleep eng 2.0;
          Lock.release_all t ~owner:1);
      Fiber.spawn eng (fun () ->
          Fiber.sleep eng 1.0;
          ignore (Lock.acquire t ~owner:2 ~obj:(Lock.intern t "k") ~mode:Mode.Exclusive ()));
      ignore
        (Engine.schedule eng ~delay:20.0 (fun () ->
             Alcotest.(check int) "two acquisitions" 2 (Lock.acquisition_count t);
             Alcotest.(check int) "one wait" 1 (Lock.wait_count t);
             Alcotest.(check int) "none blocked now" 0 (Lock.blocked_count t))))

(* Property: whatever sequence of try_acquire / release / release_all is
   applied, the granted holders on every object stay pairwise compatible
   (different owners) — the fundamental lock-table invariant. *)
let prop_holders_pairwise_compatible =
  QCheck2.Test.make ~name:"holders stay pairwise compatible" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (tup4 (int_range 0 2) (int_range 1 5) (int_range 0 3) (int_range 0 2)))
    (fun ops ->
      let eng = Engine.create () in
      let t = make_table eng in
      let mode_of = function
        | 0 -> Mode.Shared
        | 1 -> Mode.Exclusive
        | _ -> Mode.Increment
      in
      let ok = ref true in
      List.iter
        (fun (op, owner, obj_i, mode_i) ->
          let obj = Lock.intern t (Printf.sprintf "o%d" obj_i) in
          (match op with
          | 0 -> ignore (Lock.try_acquire t ~owner ~obj ~mode:(mode_of mode_i))
          | 1 -> Lock.release t ~owner ~obj
          | _ -> Lock.release_all t ~owner);
          for oi = 0 to 3 do
            let holders = Lock.holders t ~obj:(Lock.intern t (Printf.sprintf "o%d" oi)) in
            List.iter
              (fun (o1, m1) ->
                List.iter
                  (fun (o2, m2) ->
                    if o1 < o2 && not (Mode.compatible m1 m2) then ok := false)
                  holders)
              holders
          done)
        ops;
      !ok)

(* Equivalence with the pre-interning string-keyed table: a reference model
   keyed directly by object *names* replays the same try_acquire / release /
   release_all sequence and must agree with the symbol-keyed table on every
   outcome and every holder set. This pins down that interning changed the
   representation only, not the grant semantics. *)
module StrMap = Map.Make (String)

let prop_interned_matches_string_model =
  QCheck2.Test.make ~name:"interned table matches string-keyed model" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (tup4 (int_range 0 2) (int_range 1 5) (int_range 0 4) (int_range 0 2)))
    (fun ops ->
      let eng = Engine.create () in
      let t = make_table eng in
      let model = ref StrMap.empty in
      let mode_of = function
        | 0 -> Mode.Shared
        | 1 -> Mode.Exclusive
        | _ -> Mode.Increment
      in
      let model_holders name = try StrMap.find name !model with Not_found -> [] in
      (* Seed grant rule: reentrant requests combine with the held mode and
         are checked only against *other* holders. No fiber ever blocks in
         this sequence, so the no-active-waiters side condition is vacuous. *)
      let model_try_acquire ~owner ~name ~mode =
        let holders = model_holders name in
        let held = List.assoc_opt owner holders in
        let want = match held with Some hm -> Mode.combine hm mode | None -> mode in
        let ok =
          List.for_all (fun (o, hm) -> o = owner || Mode.compatible hm want) holders
        in
        if ok then begin
          let holders' =
            match held with
            | Some _ ->
              List.map (fun (o, hm) -> if o = owner then (o, want) else (o, hm)) holders
            | None -> (owner, mode) :: holders
          in
          model := StrMap.add name holders' !model
        end;
        ok
      in
      let model_release ~owner ~name =
        model :=
          StrMap.add name (List.filter (fun (o, _) -> o <> owner) (model_holders name)) !model
      in
      let ok = ref true in
      List.iter
        (fun (op, owner, obj_i, mode_i) ->
          let name = Printf.sprintf "o%d" obj_i in
          (match op with
          | 0 ->
            let mode = mode_of mode_i in
            let got = Lock.try_acquire t ~owner ~obj:(Lock.intern t name) ~mode in
            let want = model_try_acquire ~owner ~name ~mode in
            if got <> want then ok := false
          | 1 ->
            Lock.release t ~owner ~obj:(Lock.intern t name);
            model_release ~owner ~name
          | _ ->
            Lock.release_all t ~owner;
            StrMap.iter (fun name _ -> model_release ~owner ~name) !model);
          for oi = 0 to 5 do
            let name = Printf.sprintf "o%d" oi in
            let got = Lock.holders t ~obj:(Lock.intern t name) in
            let want = List.sort compare (model_holders name) in
            if got <> want then ok := false
          done)
        ops;
      !ok)

(* --- Order oracle: the pooled table against the reference table --- *)

module Symbol = Icdb_util.Symbol

(* What both implementations share, so one functor runs either. *)
module type LOCK = sig
  type 'mode t
  type outcome = Granted | Timeout | Deadlock

  exception Lock_revoked

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

  val create :
    Engine.t ->
    syms:Symbol.table ->
    compatible:('mode -> 'mode -> bool) ->
    combine:('mode -> 'mode -> 'mode) ->
    'mode t

  val acquire :
    'mode t -> owner:int -> obj:Symbol.t -> mode:'mode -> ?timeout:float -> unit -> outcome

  val try_acquire : 'mode t -> owner:int -> obj:Symbol.t -> mode:'mode -> bool
  val release : 'mode t -> owner:int -> obj:Symbol.t -> unit
  val release_all : 'mode t -> owner:int -> unit
  val reset : 'mode t -> unit
  val held : 'mode t -> owner:int -> (string * 'mode) list
  val holders : 'mode t -> obj:Symbol.t -> (int * 'mode) list
  val set_hold_time_hook : 'mode t -> (obj:Symbol.t -> duration:float -> unit) -> unit
  val set_observer : 'mode t -> (observer_event -> unit) -> unit
  val held_count : 'mode t -> int
  val blocked_count : 'mode t -> int
end

type op =
  | Acq of int * int * bool (* object, mode, with a timeout *)
  | Try of int * int
  | Rel of int
  | Rel_all
  | Bulk of int * int (* first object, count: shared try_acquires *)
  | Nap of int

let n_objects = 48
let mode_of = function 0 -> Mode.Shared | 1 -> Mode.Increment | _ -> Mode.Exclusive

(* Each owner runs its script as a fiber; a crash fiber may reset the table
   mid-run. Everything either table reports goes into one log: observer
   events, hold-time hook calls, outcomes, held sets. *)
module Drive (L : LOCK) = struct
  let run (scripts, crash_at) =
    let eng = Engine.create () in
    let syms = Symbol.create () in
    let objs = Array.init n_objects (fun i -> Symbol.intern syms (Printf.sprintf "acct-%03d" i)) in
    let t = L.create eng ~syms ~compatible:Mode.compatible ~combine:Mode.combine in
    let log = ref [] in
    let say fmt = Printf.ksprintf (fun s -> log := Printf.sprintf "@%g %s" (Engine.now eng) s :: !log) fmt in
    let name o = Symbol.name syms o in
    L.set_observer t (function
      | L.Wait_started { owner; obj } -> say "wait %d %s" owner (name obj)
      | L.Wait_ended { owner; obj; outcome; waited } ->
        say "end %d %s %s %g" owner (name obj)
          (match outcome with
          | `Granted -> "granted"
          | `Timeout -> "timeout"
          | `Deadlock -> "deadlock"
          | `Cancelled -> "cancelled")
          waited
      | L.Acquired { owner; obj } -> say "acq %d %s" owner (name obj)
      | L.Released { owner; obj; held } -> say "rel %d %s %g" owner (name obj) held);
    L.set_hold_time_hook t (fun ~obj ~duration -> say "hold %s %g" (name obj) duration);
    let show_held owner =
      String.concat " "
        (List.map (fun (n, m) -> n ^ "=" ^ Mode.to_string m) (L.held t ~owner))
    in
    List.iteri
      (fun i script ->
        let owner = i + 1 in
        Fiber.spawn eng (fun () ->
            (try
               List.iter
                 (function
                   | Acq (o, m, timed) ->
                     let timeout = if timed then Some 3.0 else None in
                     (match L.acquire t ~owner ~obj:objs.(o) ~mode:(mode_of m) ?timeout () with
                     | L.Granted -> say "%d got %d" owner o
                     | L.Timeout -> say "%d timeout %d" owner o
                     | L.Deadlock -> say "%d deadlock %d" owner o);
                     Fiber.sleep eng 1.0
                   | Try (o, m) ->
                     say "%d try %d %b" owner o
                       (L.try_acquire t ~owner ~obj:objs.(o) ~mode:(mode_of m))
                   | Rel o -> L.release t ~owner ~obj:objs.(o)
                   | Rel_all -> L.release_all t ~owner
                   | Bulk (first, n) ->
                     for k = 0 to n - 1 do
                       let o = (first + k) mod n_objects in
                       ignore (L.try_acquire t ~owner ~obj:objs.(o) ~mode:Mode.Shared)
                     done
                   | Nap d -> Fiber.sleep eng (float_of_int d))
                 script
             with L.Lock_revoked -> say "%d revoked" owner);
            say "%d holds [%s]" owner (show_held owner);
            L.release_all t ~owner))
      scripts;
    (match crash_at with
    | Some d ->
      ignore
        (Engine.schedule eng ~delay:(float_of_int d) (fun () ->
             say "reset";
             L.reset t))
    | None -> ());
    Engine.run eng;
    say "end held=%d blocked=%d" (L.held_count t) (L.blocked_count t);
    Array.iter
      (fun o ->
        match L.holders t ~obj:o with
        | [] -> ()
        | hs -> say "left %s %d" (name o) (List.length hs))
      objs;
    List.rev !log
end

module Pooled = Drive (Lock)
module Reference = Drive (Lock_table_ref)

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map3 (fun o m timed -> Acq (o, m, timed)) (int_range 0 7) (int_range 0 2) bool);
        (2, map2 (fun o m -> Try (o, m)) (int_range 0 (n_objects - 1)) (int_range 0 2));
        (2, map (fun o -> Rel o) (int_range 0 7));
        (1, return Rel_all);
        (1, map2 (fun first n -> Bulk (first, n)) (int_range 0 (n_objects - 1)) (int_range 20 45));
        (2, map (fun d -> Nap d) (int_range 0 4));
      ])

(* Release order is the string-keyed owner tables' iteration order, and it
   decides which waiter wakes first; the pooled table must reproduce the
   reference's event stream exactly, bucket doublings (owners holding more
   than 32 objects, via [Bulk]) and crashes included. *)
let prop_pooled_matches_reference =
  QCheck2.Test.make ~name:"pooled table = reference table event stream" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6) (list_size (int_range 0 14) gen_op))
        (opt (int_range 0 30)))
    (fun case -> Pooled.run case = Reference.run case)

(* --- Allocation budget --- *)

(* Acquire plus [release_all], per lock: the observer events ([Acquired],
   [Released] and its hold time), the owner's table bindings and its spare
   list cell — 17.75 words; entries and owner tables come from the table's
   pools, and [release_all] builds no closure. *)
let test_lock_alloc_budget () =
  let eng = Engine.create () in
  let t = make_table eng in
  let objs = Array.init 64 (fun i -> Lock.intern t (Printf.sprintf "acct-%03d" i)) in
  let round owner =
    for i = 0 to 3 do
      ignore
        (Lock.acquire t ~owner ~obj:objs.(((owner * 7) + (i * 13)) land 63) ~mode:Mode.Exclusive ())
    done;
    Lock.release_all t ~owner
  in
  for owner = 1 to 100 do
    round owner
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for owner = 101 to 100 + n do
    round owner
  done;
  let per_lock = (Gc.minor_words () -. w0) /. float_of_int (4 * n) in
  if per_lock > 20.0 then Alcotest.failf "lock: %.1f words per lock, budget 20" per_lock;
  Alcotest.(check int) "nothing left held" 0 (Lock.held_count t)

let () =
  Alcotest.run "lock"
    [
      ( "mode",
        [
          Alcotest.test_case "compatibility matrix" `Quick test_mode_compat_matrix;
          Alcotest.test_case "combine/covers" `Quick test_mode_combine;
        ] );
      ( "grant",
        [
          Alcotest.test_case "shared coexist" `Quick test_shared_locks_coexist;
          Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks_until_release;
          Alcotest.test_case "fifo" `Quick test_fifo_fairness;
          Alcotest.test_case "no reader starvation of writers" `Quick
            test_shared_must_wait_behind_queued_exclusive;
          Alcotest.test_case "increment coexist" `Quick test_increment_locks_coexist;
          Alcotest.test_case "reentrant and upgrade" `Quick test_reentrant_and_upgrade;
          Alcotest.test_case "upgrade waits" `Quick test_upgrade_waits_for_other_reader;
          Alcotest.test_case "try_acquire" `Quick test_try_acquire;
        ] );
      ( "failures",
        [
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "timed-out waiter absent" `Quick test_timed_out_waiter_does_not_hold;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "release_all" `Quick test_release_all;
          Alcotest.test_case "release_all cancels wait" `Quick test_release_all_cancels_wait;
          Alcotest.test_case "reset wakes everyone" `Quick test_reset_wakes_everyone;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "hold time hook" `Quick test_hold_time_hook;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_holders_pairwise_compatible;
          QCheck_alcotest.to_alcotest prop_interned_matches_string_model;
          QCheck_alcotest.to_alcotest prop_pooled_matches_reference;
          Alcotest.test_case "allocation budget" `Quick test_lock_alloc_budget;
        ] );
    ]
