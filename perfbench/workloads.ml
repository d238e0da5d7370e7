(* The benchmark's workloads: closed loops of simulated clients (worker
   fibers) driving [Runner.run]. One pass of a workload runs its configs in
   turn; every config receives only the seed and its own settings. *)

module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol

type t = {
  name : string;
  configs : Runner.config list;
  increments : bool;  (** money is conserved, so the money gate applies *)
}

let names = [ "bank-hot"; "bank-rw-coord"; "bank-million" ]

(* [scale] divides transaction and account counts (the tests run at
   reduced size); 1 is the benchmark's size. *)
let make ?(scale = 1) ~seed name =
  let base =
    { Runner.default with seed = Int64.of_int seed; zipf_theta = 0.8; concurrency = 8 }
  in
  let every_protocol c = List.map (fun p -> { c with Runner.protocol = p }) Protocol.all in
  let configs, increments =
    match name with
    | "bank-hot" ->
      ( every_protocol
          {
            base with
            n_sites = 4;
            accounts_per_site = 32;
            p_intended_abort = 0.1;
            p_spontaneous = 0.05;
            n_txns = 15_000 / scale;
          },
        true )
    | "bank-rw-coord" ->
      ( every_protocol
          {
            base with
            n_sites = 8;
            accounts_per_site = 32;
            use_increments = false;
            read_fraction = 0.5;
            p_intended_abort = 0.1;
            shards = 2;
            cross_shard_fraction = 0.2;
            acceptors = 3;
            msg_batch_window = Some 3.0;
            central_gc_window = Some 3.0;
            n_txns = 2_500 / scale;
          },
        false )
    | "bank-million" ->
      ( [
          {
            base with
            protocol = Protocol.Before_mlt;
            n_sites = 16;
            accounts_per_site = 62_500 / scale;
            concurrency = 16;
            p_intended_abort = 0.1;
            n_txns = 10_000 / scale;
          };
        ],
        true )
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  { name; configs; increments }

let accounts (c : Runner.config) = c.n_sites * c.accounts_per_site
