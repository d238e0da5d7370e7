(** Heap file: keyed integer records across slotted pages.

    The heap owns every page of its disk. An insert tries the newest page
    first, then the older ones, so consecutive inserts co-locate on a page,
    which is exactly the situation of the paper's Figure 8 ("x is stored on
    the same page p as y"). Each page's free space is cached against its
    page LSN, so a page already known to be too full is passed over without
    rescanning its slot directory; the buffer-pool accounting of the probe
    is unchanged.

    Space freed by a delete whose transaction is still open can be
    {!reserve}d: inserts leave it alone, so the delete's rollback can always
    put the record back at its rid.

    All mutators take the LSN of the log record describing them and stamp it
    into the page, enabling idempotent physical redo. The heap itself is
    volatile metadata: after a crash, rebuild it with {!recover} over the
    same disk and buffer pool. *)

type t

(** Stable record identifier. *)
type rid = { page : Disk.page_id; slot : int }

val pp_rid : Format.formatter -> rid -> unit
val rid_equal : rid -> rid -> bool

val create : Disk.t -> Buffer_pool.t -> t

(** [recover disk pool] rebuilds heap metadata by scanning every allocated
    page of [disk]; stable record contents are untouched. *)
val recover : Disk.t -> Buffer_pool.t -> t

(** [insert t ~lsn ~key ~value] places a record, allocating a fresh page when
    none of the known pages fits, and returns its rid. A page fits when its
    free space minus its {!reserve}d bytes holds the record. *)
val insert : t -> lsn:int64 -> key:string -> value:int -> rid

(** [insert_at t ~lsn rid ~key ~value] re-creates a record at a specific rid
    (redo of an insert / undo of a delete). [false] if the slot is live. *)
val insert_at : t -> lsn:int64 -> rid -> key:string -> value:int -> bool

(** [read t rid] is [Some (key, value)] for a live record. *)
val read : t -> rid -> (string * int) option

(** [value t rid] is the value of a live record, read in place: no decode,
    no allocation. Raises [Not_found] for a dead rid. *)
val value : t -> rid -> int

(** [update t ~lsn rid ~value] overwrites the record's value in place.
    [false] if the rid is dead. *)
val update : t -> lsn:int64 -> rid -> value:int -> bool

(** [delete t ~lsn rid] tombstones the record. [false] if already dead. *)
val delete : t -> lsn:int64 -> rid -> bool

(** [reserve t page bytes] withholds [bytes] of [page]'s free space from
    {!insert}; [release] gives them back. The local engine reserves the
    bytes of every delete until the deleting transaction ends. The counts
    are volatile, like the rest of the heap's metadata: {!recover} starts
    from none. *)
val reserve : t -> Disk.page_id -> int -> unit

val release : t -> Disk.page_id -> int -> unit

(** [iter t f] applies [f rid key value] to every live record. *)
val iter : t -> (rid -> string -> int -> unit) -> unit

(** Live record count (scans). *)
val count : t -> int

(** Pages currently owned by the heap. *)
val page_ids : t -> Disk.page_id list
