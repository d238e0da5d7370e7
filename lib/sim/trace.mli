(** Timestamped event traces.

    Protocol runs record one entry per interesting transition (message sent,
    state entered, commit point reached). The figure-reproduction benches
    (F2-F7) print these traces, and tests assert ordering properties on them
    — e.g. "the global decision lies strictly between every site's ready
    point and its commit point" for Figure 3. *)

type entry = { time : float; actor : string; label : string }

type t

val create : Engine.t -> t

(** [record t ~actor label] appends an entry stamped with the current virtual
    time. *)
val record : t -> actor:string -> string -> unit

(** [record_gid t ~actor ~gid label] records the label ["g<gid>:<label>"]
    without building it: queries render it when they read the entry. *)
val record_gid : t -> actor:string -> gid:int -> string -> unit

(** Entries in recording order. *)
val entries : t -> entry list

(** [find t ~actor ~label] is the time of the first matching entry. *)
val find : t -> actor:string -> label:string -> float option

(** [find_all t ~label] is every [(time, actor)] whose label matches. *)
val find_all : t -> label:string -> (float * string) list

(** [before t ~first ~then_] checks that the first entry labelled [first]
    precedes the first entry labelled [then_]; [false] when either is
    missing. Actor is ignored. *)
val before : t -> first:string -> then_:string -> bool

val length : t -> int
val clear : t -> unit

(** Multi-line rendering ["t=12.00 [actor] label"], for demos and benches. *)
val render : t -> string
