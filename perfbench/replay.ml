(* Single-layer kernels, run outside any simulation: the sim engine under a
   hold model, a captured lock stream replayed through fresh lock tables,
   and the local engine's preload. Each reports host time and minor words
   per operation. *)

module Sim = Icdb_sim.Engine
module Lock = Icdb_lock.Lock_table
module Symbol = Icdb_util.Symbol
module Rng = Icdb_util.Rng
module Db = Icdb_localdb.Engine
module Site = Icdb_net.Site
module Federation = Icdb_core.Federation
module Runner = Icdb_workload.Runner

type cost = { ns_per_op : float; words_per_op : float }

(* Repeat [f (prepare ())] until it has been timed for 0.2 CPU seconds
   and at least three times, after one untimed warm-up; [prepare] and the
   full collection before each repetition are never timed. [f] performs
   [ops] operations. *)
let measure ~ops ~prepare f =
  f (prepare ());
  let rec go reps time words =
    if reps >= 3 && time >= 0.2 then
      let n = float_of_int (reps * max 1 ops) in
      { ns_per_op = time /. n *. 1e9; words_per_op = words /. n }
    else begin
      let st = prepare () in
      Gc.full_major ();
      let w0 = Gc.minor_words () and t0 = Sys.time () in
      f st;
      let t = Sys.time () -. t0 and w = Gc.minor_words () -. w0 in
      go (reps + 1) (time +. t) (words +. w)
    end
  in
  go 0 0.0 0.0

(* Hold model: [depth] pending events; each fired event schedules one
   successor at a pseudo-random delay, so the queue stays at [depth]. *)
let engine_hold ~depth =
  let depth = max 1 depth and ops = 200_000 in
  let delays =
    let rng = Rng.create 7L in
    Array.init 4096 (fun _ -> Rng.exponential rng ~mean:(float_of_int depth))
  in
  let prepare () =
    let engine = Sim.create () in
    let i = ref 0 in
    let rec fire () =
      incr i;
      ignore (Sim.schedule engine ~delay:delays.(!i land 4095) fire)
    in
    for _ = 1 to depth do
      fire ()
    done;
    engine
  in
  measure ~ops ~prepare (fun engine ->
      for _ = 1 to ops do
        ignore (Sim.step engine)
      done)

(* A lock stream captured from every lock table of a federation through the
   tables' public observers: grants and releases in execution order, with
   object names resolved at capture time. The queue depth of the sim
   engine is sampled at each grant. *)
type capture = {
  mutable n : int;
  mutable table : int array;
  mutable release : bool array;
  mutable owner : int array;
  mutable obj : string array;
  mutable tables : int;
  mutable depths : int list;
}

let capture_limit = 1 lsl 18

let new_capture () =
  { n = 0; table = [||]; release = [||]; owner = [||]; obj = [||]; tables = 0; depths = [] }

let push c ~table ~release ~owner ~obj =
  if c.n < capture_limit then begin
    if c.n = Array.length c.table then begin
      let grow a x = Array.append a (Array.make (max 1024 (Array.length a)) x) in
      c.table <- grow c.table 0;
      c.release <- grow c.release false;
      c.owner <- grow c.owner 0;
      c.obj <- grow c.obj ""
    end;
    c.table.(c.n) <- table;
    c.release.(c.n) <- release;
    c.owner.(c.n) <- owner;
    c.obj.(c.n) <- obj;
    c.n <- c.n + 1
  end

(* [attach c engine fed] replaces every lock observer of [fed] with the
   capture. Meant for a separate run: the federation's own lock metrics
   stop filling. *)
let attach c engine (fed : Federation.t) =
  let observer syms =
    let table = c.tables in
    c.tables <- c.tables + 1;
    function
    | Lock.Acquired { owner; obj } ->
      if c.n < capture_limit then c.depths <- Sim.pending engine :: c.depths;
      push c ~table ~release:false ~owner ~obj:(Symbol.name syms obj)
    | Lock.Released { owner; obj; _ } ->
      push c ~table ~release:true ~owner ~obj:(Symbol.name syms obj)
    | Lock.Wait_started _ | Lock.Wait_ended _ -> ()
  in
  List.iter
    (fun (_, site) ->
      let db = Site.db site in
      Db.set_lock_observer db (observer (Db.symbols db)))
    fed.sites;
  Lock.set_observer fed.global_cc (observer fed.syms);
  Lock.set_observer fed.l1_locks (observer fed.syms);
  Array.iter
    (fun (sh : Federation.shard) ->
      Lock.set_observer sh.sh_cc (observer fed.syms);
      Lock.set_observer sh.sh_l1 (observer fed.syms))
    fed.shards

let median_depth c =
  match List.sort compare c.depths with
  | [] -> 1
  | l -> List.nth l (List.length l / 2)

let acquisitions c =
  let k = ref 0 in
  for i = 0 to c.n - 1 do
    if not c.release.(i) then incr k
  done;
  !k

(* Replay through fresh tables whose modes are all compatible: the stream
   already carries the real grant order, so no request ever waits and no
   fiber is needed. Interning into the fresh tables is untimed set-up. *)
let lock_replay c =
  let prepare () =
    let engine = Sim.create () in
    let tables =
      Array.init c.tables (fun _ ->
          Lock.create engine ~syms:(Symbol.create ()) ~compatible:(fun () () -> true)
            ~combine:(fun () () -> ()))
    in
    (tables, Array.init c.n (fun i -> Lock.intern tables.(c.table.(i)) c.obj.(i)))
  in
  measure ~ops:c.n ~prepare (fun (tables, objs) ->
      for i = 0 to c.n - 1 do
        let t = tables.(c.table.(i)) and owner = c.owner.(i) and obj = objs.(i) in
        if c.release.(i) then Lock.release t ~owner ~obj
        else ignore (Lock.try_acquire t ~owner ~obj ~mode:())
      done)

(* [Localdb.Engine.load] of one site's accounts into fresh engines, sized
   like the runner's sites; one operation is one account. Small sites are
   loaded into several engines per repetition, so that a repetition is
   long beside the full collection that precedes it. *)
let load (cfg : Runner.config) =
  let rows =
    List.init cfg.accounts_per_site (fun i -> (Printf.sprintf "acct-%03d" i, cfg.initial_balance))
  in
  let engines = max 1 (16_384 / max 1 cfg.accounts_per_site) in
  let prepare () =
    List.init engines (fun _ ->
        Db.create (Sim.create ())
          {
            (Db.default_config ~site_name:"load") with
            buffer_capacity = max 64 (cfg.accounts_per_site / 4);
          })
  in
  measure ~ops:(engines * cfg.accounts_per_site) ~prepare (List.iter (fun db -> Db.load db rows))
