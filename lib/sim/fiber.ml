open Effect.Deep

type 'a resumer = ('a, exn) result -> unit

type _ Effect.t +=
  | Suspend : ('a resumer -> unit) -> 'a Effect.t
  | Sleep : Engine.t * float -> unit Effect.t

exception Timed_out

(* A fiber owns one engine event. It is the start event, then every
   sleep's timer and every resumption hop: a fiber is either running or
   suspended once, so at most one of them is ever pending, and the event
   is re-armed ({!Engine.rearm}) instead of a new one being allocated.
   [next] says what the event does when it fires. Each re-arm takes the
   next sequence number, exactly where a freshly scheduled event would, so
   the schedule is the one a new event per step gives. *)
type next =
  | Idle
  | Start
  | Timer of { k : (unit, unit) continuation; mutable due : bool }
      (** sleeping: when the timer fires, [due] is set and the event is
          re-armed at delay 0 as the resumption hop *)
  | Resume : ('a, unit) continuation * ('a, exn) result -> next

type fiber = {
  engine : Engine.t;
  body : unit -> unit;
  on_error : (exn -> unit) option;
  mutable next : next;
  mutable ev : Engine.event_id;
  (* Suspension count: a resumer handed out at suspension [n] acts only
     while [epoch = n], so a late resumer (a lock grant racing a timeout)
     is a no-op instead of a double resumption. *)
  mutable epoch : int;
  mutable delay : float; (* the pending sleep's duration, read by [sleep_h] *)
  mutable sleep_h : ((unit, unit) continuation -> unit) option;
      (* the sleep handler, made on the fiber's first sleep and reused *)
}

let await register = Effect.perform (Suspend register)

let wake fib = Engine.rearm fib.engine fib.ev ~delay:0.0

let suspend fib k register =
  let epoch = fib.epoch in
  register (fun r ->
      if fib.epoch = epoch then begin
        fib.epoch <- epoch + 1;
        fib.next <- Resume (k, r);
        wake fib
      end)

let retc () = ()

let sleep_handler fib =
  match fib.sleep_h with
  | Some _ as h -> h
  | None ->
    let h =
      Some
        (fun k ->
          fib.next <- Timer { k; due = false };
          Engine.rearm fib.engine fib.ev ~delay:fib.delay)
    in
    fib.sleep_h <- h;
    h

let handler fib =
  {
    retc;
    exnc = (match fib.on_error with Some h -> h | None -> raise);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep (engine, d) when engine == fib.engine ->
          fib.delay <- d;
          sleep_handler fib
        | Sleep (engine, d) ->
          (* another engine's clock: a timer there, the hop here *)
          Some
            (fun k ->
              suspend fib k (fun resume ->
                  ignore (Engine.schedule engine ~delay:d (fun () -> resume (Ok ())))))
        | Suspend register -> Some (fun k -> suspend fib k register)
        | _ -> None);
  }

let fire fib =
  match fib.next with
  | Timer t when not t.due ->
    t.due <- true;
    wake fib
  | Timer { k; _ } ->
    fib.next <- Idle;
    continue k ()
  | Resume (k, r) -> (
    fib.next <- Idle;
    match r with Ok v -> continue k v | Error e -> discontinue k e)
  | Start ->
    fib.next <- Idle;
    match_with fib.body () (handler fib)
  | Idle -> ()

let spawn ?on_error engine f =
  let fib =
    {
      engine;
      body = f;
      on_error;
      next = Start;
      ev = Engine.no_event;
      epoch = 0;
      delay = 0.0;
      sleep_h = None;
    }
  in
  fib.ev <- Engine.schedule engine ~delay:0.0 (fun () -> fire fib)

let sleep engine d = Effect.perform (Sleep (engine, d))

let yield engine = sleep engine 0.0

module Ivar = struct
  (* Readers are kept newest first and woken oldest first. *)
  type 'a state = Empty of 'a resumer list | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create _engine = { state = Empty [] }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Fiber.Ivar.fill: already filled"
    | Empty readers ->
      t.state <- Full v;
      let r = Ok v in
      let rec wake_all = function
        | [] -> ()
        | resume :: older ->
          wake_all older;
          resume r
      in
      wake_all readers

  let read t =
    match t.state with
    | Full v -> v
    | Empty readers -> await (fun resume -> t.state <- Empty (resume :: readers))

  let is_filled t = match t.state with Full _ -> true | Empty _ -> false
  let peek t = match t.state with Full v -> Some v | Empty _ -> None
end

module Mailbox = struct
  type 'a waiter = { mutable active : bool; resume : 'a resumer }

  type 'a t = { engine : Engine.t; items : 'a Queue.t; waiters : 'a waiter Queue.t }

  let create engine = { engine; items = Queue.create (); waiters = Queue.create () }

  (* Pop waiters until one is still waiting; timed-out entries are skipped. *)
  let rec next_active_waiter t =
    match Queue.take_opt t.waiters with
    | None -> None
    | Some w -> if w.active then Some w else next_active_waiter t

  let send t v =
    match next_active_waiter t with
    | Some w ->
      w.active <- false;
      w.resume (Ok v)
    | None -> Queue.add v t.items

  let try_recv t = Queue.take_opt t.items

  let recv t =
    match try_recv t with
    | Some v -> v
    | None ->
      await (fun resume -> Queue.add { active = true; resume } t.waiters)

  let recv_timeout t d =
    match try_recv t with
    | Some v -> Some v
    | None -> (
      match
        await (fun resume ->
            let w = { active = true; resume } in
            Queue.add w t.waiters;
            ignore
              (Engine.schedule t.engine ~delay:d (fun () ->
                   if w.active then begin
                     w.active <- false;
                     resume (Error Timed_out)
                   end)))
      with
      | v -> Some v
      | exception Timed_out -> None)

  let length t = Queue.length t.items
end

(* One join record per call. The caller waits on the lowest unfinished
   slot and is woken, through the usual resumption hop, by the thunk that
   finishes it: the events of reading one Ivar per thunk in input order. *)
type 'a join = {
  results : ('a, exn) result array;
  mutable waiting : int; (* slot the caller is suspended on, or -1 *)
  mutable wake : unit resumer;
}

exception Unfinished

let unfinished = Error Unfinished

let all engine thunks =
  let j =
    { results = Array.make (List.length thunks) unfinished; waiting = -1; wake = ignore }
  in
  List.iteri
    (fun i thunk ->
      spawn engine (fun () ->
          j.results.(i) <- (match thunk () with v -> Ok v | exception e -> Error e);
          if j.waiting = i then begin
            j.waiting <- -1;
            j.wake (Ok ())
          end))
    thunks;
  let n = Array.length j.results in
  for i = 0 to n - 1 do
    if j.results.(i) == unfinished then
      await (fun resume ->
          j.waiting <- i;
          j.wake <- resume)
  done;
  let rec collect i =
    if i = n then []
    else match j.results.(i) with Ok v -> v :: collect (i + 1) | Error e -> raise e
  in
  collect 0
