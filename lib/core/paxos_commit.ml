module Fiber = Icdb_sim.Fiber
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span

(* Paxos Commit (Gray & Lamport) over the federation's decision logs: the
   per-transaction commit/abort record — the one thing 2PC forces at a
   single coordinator — becomes a consensus instance replicated across
   2F+1 acceptor sites. Every coordinator gets an {!Acceptor_group}; it is
   the initial leader of its gids' instances and owns ballot 0, so the
   fault-free fast path is a single accept round (no prepare) run from
   [Federation.journal_decide]; a crashed leader is replaced by a new one
   that runs the classic prepare/accept rounds at a higher ballot and
   completes the transaction from whatever the acceptor quorum remembers
   ({!Central_recovery.takeover}). *)

module Acceptor = Acceptor_group.Acceptor

type t = { fed : Federation.t; acceptors : int; stats : Acceptor_group.stats }

let group fed ~gid = (Federation.coordinator fed ~gid).sh_group

let replicate t ~gid ~commit =
  Acceptor_group.replicate (Option.get (group t.fed ~gid)) ~gid ~commit

let read_decision t ~gid =
  Acceptor_group.read_decision (Option.get (group t.fed ~gid)) ~gid

(* New-leader election for one in-doubt transaction, triggered by a fault
   injector right after it simulated the coordinator's crash. After a
   failover delay (detection + election), the new leader runs phase 1 at a
   higher ballot over the quorum, re-proposes whatever value the quorum
   remembers (abort when it remembers nothing — presumed abort), makes it
   durable with an accept round, and completes the transaction via
   {!Central_recovery.takeover} — all without waiting for the crashed
   coordinator to restart. A transaction whose entry has left its
   coordinator's journal has finished: there is nothing to fail over. *)
let failover (fed : Federation.t) ~gid =
  let c = Federation.coordinator fed ~gid in
  match c.sh_group with
  | None -> ()
  | Some g ->
    Acceptor_group.count_failover g;
    Fiber.spawn fed.engine (fun () ->
        Fiber.sleep fed.engine (Acceptor_group.failover_delay g);
        if Hashtbl.mem c.sh_journal gid then begin
          let promised, ballot = Acceptor_group.prepare_round g ~gid in
          if promised && Hashtbl.mem c.sh_journal gid then begin
            (* ballot rule: a value the quorum accepted must be re-proposed;
               a silent quorum leaves the choice free and the new leader
               presumes abort — unless the old leader's stable log already
               decided (it is readable here: the site hosting it survives) *)
            let value =
              match Acceptor_group.read_decision g ~gid with
              | Some v -> v
              | None -> Option.value ~default:false (Federation.decision fed ~gid)
            in
            Acceptor_group.accept_round g ~gid ~ballot ~value;
            if Tracer.enabled fed.tracer then
              Tracer.instant fed.tracer
                ~actor:(Federation.gid_actor fed ~gid)
                (Span.Mark "paxos-failover");
            ignore (Central_recovery.takeover fed ~gid)
          end
        end)

(* Acceptor objects are shared between groups (one per site), so each is
   counted once. *)
let acceptor_forces t =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun sum (c : Federation.coordinator) ->
      match c.sh_group with
      | None -> sum
      | Some g ->
        Array.fold_left
          (fun sum acc ->
            let n = Acceptor.name acc in
            if Hashtbl.mem seen n then sum
            else begin
              Hashtbl.add seen n ();
              sum + Acceptor.forces acc
            end)
          sum (Acceptor_group.members g))
    0
    (Federation.coordinators t.fed)

let rounds t = Acceptor_group.rounds t.stats
let failovers t = Acceptor_group.failovers t.stats
let group_size t = t.acceptors

let install ?(failover_delay = 25.0) (fed : Federation.t) ~acceptors =
  if acceptors < 1 || acceptors mod 2 = 0 then
    invalid_arg "Paxos_commit.install: acceptors must be odd (2F+1)";
  if acceptors > List.length fed.sites then
    invalid_arg "Paxos_commit.install: more acceptors than sites";
  (* One acceptor object per site, shared between groups: a gid's instance
     lives in exactly one group, so sharing only merges the force counts. *)
  let by_site = Hashtbl.create 16 in
  let acceptor_at name =
    match Hashtbl.find_opt by_site name with
    | Some a -> a
    | None ->
      let a = Acceptor.create (Federation.site fed name) in
      Hashtbl.add by_site name a;
      a
  in
  (* Deterministic groups, recomputable with no shared state: a
     coordinator's group is the first min(2F+1, |members|) of its member
     sites — at central the federation's first 2F+1 sites (the central
     system co-located with acceptor 0), at a shard its coordinator first. *)
  let stats = Acceptor_group.stats fed.registry in
  List.iter
    (fun (c : Federation.coordinator) ->
      let members = List.filteri (fun i _ -> i < acceptors) c.sh_sites in
      c.sh_group <-
        Some
          (Acceptor_group.create ~stats ~failover_delay
             (Array.of_list (List.map acceptor_at members))))
    (Federation.coordinators fed);
  { fed; acceptors; stats }
