module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Rng = Icdb_util.Rng

type observer_event =
  | Msg_sent of { label : string }
  | Msg_received of { label : string }
  | Msg_dropped of { label : string }

exception Unreachable of string

(* Per-label state, made on the label's first message: its count and the
   three observer events, which carry nothing but the label and so are
   built once and shared by every message. *)
type label = {
  mutable n : int;
  on_sent : observer_event;
  on_received : observer_event;
  on_dropped : observer_event;
}

type t = {
  engine : Sim.t;
  mutable latency : float;
  mutable loss : float;
  mutable dup : float;
  mutable max_retries : int option;
  rng : Rng.t;
  retry_timeout : float;
  labels : (string, label) Hashtbl.t;
  (* Receiver-side dedup state orphaned by a sender that exhausted its retry
     budget: the receiver keeps the memoized reply for the abandoned request
     id (a late copy could still arrive) until the owning global transaction
     closes its journal entry and {!evict_gid} reclaims it. gid -> label,
     multi-binding. *)
  orphans : (int, string) Hashtbl.t;
  mutable total : int;
  mutable dropped : int;
  mutable observer : observer_event -> unit;
}

let create engine ~latency ?(loss = 0.0) ?(loss_seed = 7L) ?retry_timeout
    ?max_retries () =
  if latency < 0.0 then invalid_arg "Link.create: negative latency";
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Link.create: loss must be in [0,1)";
  (match max_retries with
  | Some n when n < 0 -> invalid_arg "Link.create: negative max_retries"
  | Some _ | None -> ());
  {
    engine;
    latency;
    loss;
    dup = 0.0;
    max_retries;
    rng = Rng.create loss_seed;
    retry_timeout =
      (match retry_timeout with Some r -> r | None -> (6.0 *. latency) +. 1.0);
    labels = Hashtbl.create 16;
    orphans = Hashtbl.create 4;
    total = 0;
    dropped = 0;
    observer = (fun _ -> ());
  }

(* After the first message with a given label the hot path is a
   [Hashtbl.find] (no option allocation) and an in-place increment — no
   per-message allocation. *)
let label_of t name =
  match Hashtbl.find t.labels name with
  | l -> l
  | exception Not_found ->
    let l =
      {
        n = 0;
        on_sent = Msg_sent { label = name };
        on_received = Msg_received { label = name };
        on_dropped = Msg_dropped { label = name };
      }
    in
    Hashtbl.add t.labels name l;
    l

let count_label t l =
  t.total <- t.total + 1;
  l.n <- l.n + 1;
  t.observer l.on_sent

(* A logical message riding inside a batch envelope: visible in the
   per-label counts and to observers, but not a wire message of its own
   (the envelope already paid for the wire). *)
let count_piggyback t ~label =
  let l = label_of t label in
  l.n <- l.n + 1;
  t.observer l.on_sent

let lost t l =
  t.loss > 0.0
  &&
  let drop = Rng.bernoulli t.rng t.loss in
  if drop then begin
    t.dropped <- t.dropped + 1;
    t.observer l.on_dropped
  end;
  drop

(* Fault injection: a duplicated delivery is an extra copy of a message that
   already got through — counted on the wire and delivered, but deduplicated
   by the receiver (no second handler run, no extra latency charge: the copy
   travels alongside the original). The guard keeps the rng untouched when
   duplication is off, so default runs are byte-identical. *)
let maybe_duplicate t l =
  if t.dup > 0.0 && Rng.bernoulli t.rng t.dup then begin
    count_label t l;
    t.observer l.on_received
  end

(* [retry ~gid ~delivered label n] either waits out the retransmission timer
   or — with the retry budget exhausted — gives the exchange up. A receiver
   that did see a request copy keeps its memoized reply; record the orphan so
   journal-close can evict it. *)
let check_budget t ?gid ~delivered label n =
  match t.max_retries with
  | Some cap when n > cap ->
    (match gid with
    | Some g when delivered -> Hashtbl.add t.orphans g label
    | Some _ | None -> ());
    raise (Unreachable label)
  | Some _ | None -> ()

(* At-least-once request/reply with receiver-side dedup: the handler runs on
   the first request copy that arrives; later copies replay the memoized
   reply. Every copy pays a latency and is counted. *)
let rpc ?gid t ~label f =
  let req = label_of t label in
  let executed = ref None in
  let delivered = ref false in
  let rec attempt n =
    count_label t req;
    if lost t req then begin
      (* request copy dropped: wait out the retransmission timer *)
      check_budget t ?gid ~delivered:!delivered label n;
      Fiber.sleep t.engine t.retry_timeout;
      attempt (n + 1)
    end
    else begin
      Fiber.sleep t.engine t.latency;
      t.observer req.on_received;
      delivered := true;
      maybe_duplicate t req;
      let reply_label, value =
        match !executed with
        | Some reply -> reply
        | None ->
          let reply = f () in
          executed := Some reply;
          reply
      in
      let rep = label_of t reply_label in
      count_label t rep;
      if lost t rep then begin
        (* reply copy dropped *)
        check_budget t ?gid ~delivered:!delivered label n;
        Fiber.sleep t.engine t.retry_timeout;
        attempt (n + 1)
      end
      else begin
        Fiber.sleep t.engine t.latency;
        t.observer rep.on_received;
        maybe_duplicate t rep;
        value
      end
    end
  in
  attempt 1

(* One-way datagram, retransmitted blindly until a copy gets through; the
   effect runs once (on the first delivered copy). An exhausted retry budget
   leaves no receiver state behind (nothing was ever delivered), so no
   orphan is recorded. *)
let send ?gid t ~label f =
  ignore gid;
  let l = label_of t label in
  let rec attempt n =
    count_label t l;
    if lost t l then begin
      check_budget t ~delivered:false label n;
      Fiber.sleep t.engine t.retry_timeout;
      attempt (n + 1)
    end
    else begin
      Fiber.sleep t.engine t.latency;
      t.observer l.on_received;
      maybe_duplicate t l;
      f ()
    end
  in
  attempt 1

let message_count t = t.total

let messages_by_label t =
  Hashtbl.fold
    (fun name l acc -> if l.n = 0 then acc else (name, l.n) :: acc)
    t.labels []
  |> List.sort compare

let dropped_count t = t.dropped

let reset_counters t =
  (* Zero the counts in place (rather than [Hashtbl.reset]) so labels
     cached by in-flight senders keep counting into the same cells. *)
  Hashtbl.iter (fun _ l -> l.n <- 0) t.labels;
  t.total <- 0;
  t.dropped <- 0

let latency t = t.latency

let set_latency t l =
  if l < 0.0 then invalid_arg "Link.set_latency: negative latency";
  t.latency <- l

let set_loss t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Link.set_loss: loss must be in [0,1)";
  t.loss <- p

let set_duplication t p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg "Link.set_duplication: probability must be in [0,1)";
  t.dup <- p

let set_max_retries t n =
  (match n with
  | Some n when n < 0 -> invalid_arg "Link.set_max_retries: negative cap"
  | Some _ | None -> ());
  t.max_retries <- n

let orphan_count t = Hashtbl.length t.orphans

let evict_gid t ~gid =
  while Hashtbl.mem t.orphans gid do
    Hashtbl.remove t.orphans gid
  done

let set_observer t f = t.observer <- f
