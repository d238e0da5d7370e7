(** Fixed-size [Domain] worker pool for embarrassingly parallel task lists.

    The experiment sweep is a list of independent, deterministically seeded
    simulations; this pool farms such a list out to OCaml 5 domains while
    keeping the result order — and therefore any concatenated report —
    byte-identical to a sequential run.

    Core budget: each task is one whole simulation on one domain (a
    simulation is never split across domains), so [jobs] is the entire
    budget; pick it close to the physical core count. *)

(** [run ~jobs tasks] executes every task and returns the results in task
    order. [jobs <= 1] runs inline on the calling domain; otherwise
    [min jobs (List.length tasks)] domains are spawned for the duration of
    the call. Exceptions raised by tasks are captured; after all tasks have
    finished, the exception of the lowest-indexed failed task is re-raised,
    so failure behaviour is deterministic as well. *)
val run : jobs:int -> (unit -> 'a) list -> 'a list
