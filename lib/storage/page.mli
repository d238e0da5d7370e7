(** Slotted pages.

    Each local database stores its records in fixed-size slotted pages: a
    header carrying the page LSN (for idempotent redo), a slot directory
    growing upward, and record payloads growing downward from the end of the
    page. Dead slots are tombstoned so record ids (page, slot) stay stable —
    restart recovery re-inserts into the very same slot.

    Layout (big-endian):
    {v
      0..7    page LSN
      8..9    slot count
      10..11  offset of the lowest payload byte (free space ends there)
      12..    slot directory, 4 bytes per slot: payload offset, payload length
              (offset = 0 marks a dead slot)
    v} *)

type t

(** Page capacity in bytes. *)
val size : int

(** A fresh, empty page with LSN 0. *)
val create : unit -> t

(** Deep copy (the disk stores copies so that buffer-pool mutations do not
    leak into "stable storage"). *)
val copy : t -> t

(** [blit ~src ~dst] overwrites [dst] with the bytes of [src]. *)
val blit : src:t -> dst:t -> unit

val lsn : t -> int64
val set_lsn : t -> int64 -> unit

(** The page LSN as an [int], read without boxing. *)
val lsn_int : t -> int

(** [stamp t lsn] raises the page LSN to [lsn]; no-op when it is already at
    or above [lsn]. *)
val stamp : t -> int -> unit

(** [insert t ~payload] places a record in a {e fresh} slot (compacting
    fragmented payload space if needed) and returns it; [None] when the
    page cannot fit the payload. Dead slots are never reused: a tombstoned
    slot may still be the target of a rollback's or restart-redo's
    {!insert_at}, so it stays reserved (ghost-record rule; the 4-byte
    directory entry is the price). Raises [Invalid_argument] on an empty or
    oversized payload. *)
val insert : t -> payload:bytes -> int option

(** [insert_at t ~slot ~payload] places a record in a specific (currently
    dead or beyond-directory) slot; used by redo/undo to restore a record at
    its original rid. [false] if the slot is live or space is insufficient. *)
val insert_at : t -> slot:int -> payload:bytes -> bool

(** [read t ~slot] is the payload, or [None] for dead/out-of-range slots. *)
val read : t -> slot:int -> bytes option

(** In-place payload access. None of these allocate or copy the payload.

    [payload_length t ~slot] is the length of a live slot's payload, [0] for
    a dead or out-of-range slot (live payloads are never empty). *)
val payload_length : t -> slot:int -> int

(** [get_int t ~slot ~pos] reads the big-endian 8-byte integer at byte [pos]
    of a live slot's payload; [set_int] overwrites it. The caller checks
    liveness and bounds (see {!payload_length}). *)
val get_int : t -> slot:int -> pos:int -> int

val set_int : t -> slot:int -> pos:int -> int -> unit

(** [update t ~slot ~payload] overwrites a live record. Same-size payloads
    are updated in place; size changes relocate within the page. [false] if
    the slot is dead or space is insufficient. *)
val update : t -> slot:int -> payload:bytes -> bool

(** [delete t ~slot] tombstones a live slot; [false] if already dead or out
    of range. *)
val delete : t -> slot:int -> bool

(** Contiguous free bytes available for one more insert (accounting for the
    4-byte directory entry a fresh slot needs); compaction is considered,
    i.e. this reports usable — not necessarily contiguous — space. *)
val free_space : t -> int

(** Number of directory entries (live and dead). *)
val slot_count : t -> int

(** Live [(slot, payload)] pairs in slot order. *)
val live : t -> (int * bytes) list
