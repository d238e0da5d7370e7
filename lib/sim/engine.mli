(** Deterministic discrete-event simulation core.

    The engine owns a virtual clock and a priority queue of events. Events
    scheduled for the same instant fire in scheduling order (FIFO), which —
    together with the explicit {!Icdb_util.Rng} streams — makes every run of
    the federation bit-for-bit reproducible.

    The queue is a hybrid calendar queue: below an activation threshold it
    is a plain binary min-heap (the exact fallback — seed-scale runs never
    leave it); past the threshold the far future spills into day-width
    buckets auto-tuned from the observed inter-event gap, keeping
    enqueue/dequeue O(1) amortized at millions of pending events. Both
    regimes pop in the same strict ([time], [seq]) total order, so the
    switch is invisible to the simulation — see {!Engine_ref} for the
    reference heap the equivalence tests compare against.

    Time is a dimensionless [float]; the experiments interpret one unit as
    "one millisecond" but nothing depends on that. *)

type t

(** Handle to a scheduled event, usable with {!cancel}. *)
type event_id

(** A handle that names no event: cancelling it is a no-op and it cannot
    be re-armed. A placeholder for a handle not yet scheduled. *)
val no_event : event_id

(** A fresh engine at time [0.]. [threshold] (default 16384, clamped to at
    least 64) is the pending-event count at which the calendar activates;
    tests use a small value to exercise the calendar paths at toy scale. *)
val create : ?threshold:int -> unit -> t

(** Current virtual time. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at time [now t +. delay]. [delay] must be
    non-negative; [Invalid_argument] otherwise. Returns a cancellation
    handle. *)
val schedule : t -> delay:float -> (unit -> unit) -> event_id

(** [rearm t id ~delay] schedules an event that has already fired again,
    at [now t +. delay], with the next sequence number — exactly as a fresh
    {!schedule} of the same callback would, but reusing the record. The
    event must not be pending. [Invalid_argument] on a negative delay. *)
val rearm : t -> event_id -> delay:float -> unit

(** [cancel t id] prevents a pending event from firing. Cancelling an event
    that already fired (or was cancelled) is a no-op. Cancelled events are
    compacted out of the queue once they outnumber live ones. *)
val cancel : t -> event_id -> unit

(** [step t] fires the single earliest pending event; [false] if none. *)
val step : t -> bool

(** [run t] fires events until the queue is empty. Exceptions escaping an
    event callback abort the run and propagate. *)
val run : t -> unit

(** [run_until t horizon] fires events with time [<= horizon], then advances
    the clock to [horizon]. Later events stay queued. *)
val run_until : t -> float -> unit

(** Number of pending (non-cancelled) events. *)
val pending : t -> int

(** Number of events physically retained, cancelled ones included. Always
    [>= pending]; the fault campaign asserts both reach zero after a
    drain. *)
val stored : t -> int

(** Events executed since creation. *)
val executed : t -> int

(** Whether the calendar regime is currently active (diagnostics/tests). *)
val calendar_active : t -> bool

(** [set_observer t f] installs a hook called once per executed event, just
    before its callback runs (the clock already shows the event's time).
    The observability layer counts scheduler activity through it. Default:
    no-op; installing replaces the previous hook. *)
val set_observer : t -> (unit -> unit) -> unit

(** [set_resize_hook t f] installs a hook called on every calendar rebuild
    with the new bucket count, day width and the number of live events
    redistributed. Never called while the engine stays below the activation
    threshold. Default: no-op; installing replaces the previous hook. *)
val set_resize_hook : t -> (buckets:int -> width:float -> events:int -> unit) -> unit
