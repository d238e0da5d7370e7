(* The benchmark's own tests: its probes, lock capture and tracer must not
   perturb what they measure, and its pooled quantiles must agree with the
   pooled samples. *)

open Perfbench
module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer

(* Reduced sizes: a few hundred transactions per config. *)
let scale = function "bank-hot" -> 50 | "bank-rw-coord" -> 10 | _ -> 250

(* Every report field is deterministic (virtual time and counts), so the
   whole report must match a run without the benchmark's hooks. *)
let hooks_do_not_perturb name () =
  let w = Workloads.make ~scale:(scale name) ~seed:3 name in
  List.iter
    (fun (c : Runner.config) ->
      let plain = Runner.run c in
      let check what (r : Runner.report) =
        let label = Protocol.name c.protocol ^ ": " ^ what in
        Alcotest.(check int) (label ^ " committed") plain.committed r.committed;
        Alcotest.(check int) (label ^ " messages") plain.messages r.messages;
        Alcotest.(check bool) (label ^ " whole report") true (compare plain r = 0)
      in
      check "probed" (Probe.observe ~probe_audit:true c).report;
      check "lock capture"
        (Probe.observe ~on_setup:(Replay.attach (Replay.new_capture ())) c).report;
      let tracer = Tracer.create ~enabled:true ~limit:4096 ~clock:(fun () -> 0.0) () in
      check "traced" (Probe.observe ~registry:(Registry.create ()) ~tracer c).report)
    w.configs

let pooled_quantiles () =
  let rng = Random.State.make [| 7 |] in
  let registry = Registry.create () in
  let samples =
    List.init 3 (fun i ->
        let h = Registry.histogram registry ~labels:[ ("part", string_of_int i) ] "x" in
        let xs = List.init 500 (fun _ -> 1.0 +. Random.State.float rng (100.0 *. float_of_int (i + 1))) in
        List.iter (Registry.observe h) xs;
        xs)
  in
  let hs = Pooled.named registry "x" in
  let all = Array.of_list (List.sort compare (List.concat samples)) in
  let n = Array.length all in
  Alcotest.(check int) "count" n (Pooled.count hs);
  List.iter
    (fun q ->
      let exact = all.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) in
      let got = Pooled.quantile hs q in
      if Float.abs (got -. exact) > exact /. 16.0 then
        Alcotest.failf "q%.2f: pooled %g, exact %g" q got exact)
    [ 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Pooled.quantile [] 0.5)

let () =
  Alcotest.run "perfbench"
    [
      ( "non-perturbation",
        List.map
          (fun name -> Alcotest.test_case name `Quick (hooks_do_not_perturb name))
          Workloads.names );
      ("pooled", [ Alcotest.test_case "quantiles" `Quick pooled_quantiles ]);
    ]
