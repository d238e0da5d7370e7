module Fiber = Icdb_sim.Fiber
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Registry = Icdb_obs.Registry

(* The replicated half of Paxos Commit (Gray & Lamport): one coordinator's
   decision log as a consensus instance per gid over 2F+1 acceptor sites.
   Acceptor state is per-site stable storage: it survives site crashes
   exactly like the WAL and decision log do, but a down acceptor answers
   nothing until its restart. Needs only sites, links and fibers, so it
   sits below [Federation], whose coordinators own their group. *)

module Acceptor = struct
  (* One consensus instance (= one gid) at one acceptor. [promised] is the
     highest ballot this acceptor will still vote in; [accepted] the last
     (ballot, value) it voted for. Both are forced before they are ever
     acknowledged, which is what [forces] counts. *)
  type instance = {
    mutable promised : int;
    mutable accepted : (int * bool) option;
  }

  type t = {
    site : Site.t;
    instances : (int, instance) Hashtbl.t;
    mutable forces : int;
  }

  let create site = { site; instances = Hashtbl.create 64; forces = 0 }
  let name t = Site.name t.site
  let forces t = t.forces

  let instance t ~gid =
    match Hashtbl.find_opt t.instances gid with
    | Some i -> i
    | None ->
      let i = { promised = -1; accepted = None } in
      Hashtbl.add t.instances gid i;
      i

  let accepted t ~gid =
    match Hashtbl.find_opt t.instances gid with
    | Some i -> i.accepted
    | None -> None

  (* Phase 2a/2b: vote for (ballot, value) unless a higher ballot was
     promised. A vote is forced to stable storage before the ack. *)
  let receive_accept t ~gid ~ballot ~value =
    let i = instance t ~gid in
    if ballot >= i.promised then begin
      i.promised <- ballot;
      i.accepted <- Some (ballot, value);
      t.forces <- t.forces + 1;
      true
    end
    else false

  (* Phase 1a/1b: promise [ballot] (forced) and report the last accepted
     vote, or reject if an equal-or-higher ballot was already promised. *)
  type promise = Rejected | Promised of (int * bool) option

  let receive_prepare t ~gid ~ballot =
    let i = instance t ~gid in
    if ballot > i.promised then begin
      i.promised <- ballot;
      t.forces <- t.forces + 1;
      Promised i.accepted
    end
    else Rejected
end

type stats = {
  mutable rounds : int;  (* accept rounds driven (ballot 0 and recovery) *)
  mutable failovers : int;
  rounds_c : Registry.counter;
  forces_c : Registry.counter;
  failovers_c : Registry.counter;
}

(* The leader is co-located with the coordinator (the paper's co-location
   optimization: the leader's own vote costs no message), but for symmetry
   and simpler accounting every member — leader included — is reached
   through its site link. *)
type t = {
  members : Acceptor.t array;
  failover_delay : float;
  ballots : (int, int) Hashtbl.t;  (* gid -> highest ballot issued here *)
  stats : stats;
}

let stats registry =
  {
    rounds = 0;
    failovers = 0;
    rounds_c = Registry.counter registry "icdb_paxos_rounds_total";
    forces_c = Registry.counter registry "icdb_paxos_acceptor_forces_total";
    failovers_c = Registry.counter registry "icdb_paxos_failovers_total";
  }

let create ~stats ~failover_delay members =
  { members; failover_delay; ballots = Hashtbl.create 16; stats }

let rounds s = s.rounds
let failovers s = s.failovers
let members t = t.members
let failover_delay t = t.failover_delay
let quorum t = (Array.length t.members / 2) + 1

(* Run [call] against every member in its own fiber; resume the caller once
   [quorum] members voted yes, or — so the wait always ends — once every
   member has answered. Late acks land on a single-use resumer and are
   no-ops; a fiber blocked on a crashed acceptor's [Site.await_up] finishes
   after the site restarts and keeps the engine drainable. *)
let quorum_round t ~call =
  let n = Array.length t.members in
  let need = quorum t in
  Fiber.await (fun resume ->
      let acked = ref 0 and responded = ref 0 in
      Array.iter
        (fun acc ->
          Fiber.spawn
            (Site.engine acc.Acceptor.site)
            (fun () ->
              let ok = try call acc with Link.Unreachable _ -> false in
              if ok then incr acked;
              incr responded;
              if !acked >= need then resume (Ok true)
              else if !responded = n then resume (Ok (!acked >= need))))
        t.members)

let accept_round t ~gid ~ballot ~value =
  t.stats.rounds <- t.stats.rounds + 1;
  Registry.inc t.stats.rounds_c;
  ignore
    (quorum_round t ~call:(fun acc ->
         Link.rpc ~gid (Site.link acc.site) ~label:"paxos-accept" (fun () ->
             Site.await_up acc.site;
             let ok = Acceptor.receive_accept acc ~gid ~ballot ~value in
             if ok then Registry.inc t.stats.forces_c;
             ("paxos-accepted", ok))))

let replicate t ~gid ~commit = accept_round t ~gid ~ballot:0 ~value:commit

(* What the quorum remembers about a gid: the highest-ballot accepted value,
   if any acceptor voted. A stable-storage read — recovery reading the
   replicated log — so it costs no messages. *)
let read_decision t ~gid =
  let best = ref None in
  Array.iter
    (fun acc ->
      match Acceptor.accepted acc ~gid with
      | Some (b, v) -> (
        match !best with
        | Some (b', _) when b' >= b -> ()
        | _ -> best := Some (b, v))
      | None -> ())
    t.members;
  Option.map snd !best

let count_failover t =
  t.stats.failovers <- t.stats.failovers + 1;
  Registry.inc t.stats.failovers_c

(* Phase 1 at a fresh ballot: whether a quorum promised it, and the ballot
   to run phase 2 at. *)
let prepare_round t ~gid =
  let ballot = 1 + Option.value ~default:0 (Hashtbl.find_opt t.ballots gid) in
  Hashtbl.replace t.ballots gid ballot;
  let promised =
    quorum_round t ~call:(fun acc ->
        Link.rpc ~gid (Site.link acc.site) ~label:"paxos-prepare" (fun () ->
            Site.await_up acc.site;
            match Acceptor.receive_prepare acc ~gid ~ballot with
            | Acceptor.Promised _ ->
              Registry.inc t.stats.forces_c;
              ("paxos-promise", true)
            | Acceptor.Rejected -> ("paxos-promise", false)))
  in
  (promised, ballot)
