(* Fixed-size Domain worker pool for embarrassingly parallel task lists.

   Workers pull task indices from a shared counter and write results into a
   per-task slot, so the caller observes results in task order no matter how
   the domains interleave — parallel output is deterministic whenever the
   tasks themselves are. Uses only stdlib Domain/Mutex primitives. *)

type 'a slot = Pending | Done of 'a | Failed of exn

let run (type a) ~jobs (tasks : (unit -> a) list) : a list =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if n = 0 then []
  else if jobs <= 1 then Array.to_list (Array.map (fun f -> f ()) tasks)
  else begin
    let results : a slot array = Array.make n Pending in
    let mutex = Mutex.create () in
    let next = ref 0 in
    let take () =
      Mutex.lock mutex;
      let i = !next in
      next := i + 1;
      Mutex.unlock mutex;
      i
    in
    let worker () =
      let rec loop () =
        let i = take () in
        if i < n then begin
          (results.(i) <- (try Done (tasks.(i) ()) with e -> Failed e));
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    (* Every task ran to a verdict; re-raise the lowest-indexed failure so
       exception propagation is deterministic too. *)
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Failed e -> raise e
           | Pending -> assert false)
         results)
  end
