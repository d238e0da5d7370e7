(** Record payload encoding.

    The local databases store keyed integer records (account balances,
    counters, booking rows). A payload is [key length (2 bytes, big-endian);
    key bytes; value (8 bytes, big-endian)]. *)

(** [encode ~key ~value]. Raises [Invalid_argument] if the key is empty or
    longer than 255 bytes. *)
val encode : key:string -> value:int -> bytes

(** [decode payload] is [(key, value)]. Raises [Invalid_argument] on a
    malformed payload. *)
val decode : bytes -> string * int

(** Payload size for a given key (values are fixed-width). *)
val encoded_size : key:string -> int

(** [value_at page ~slot] is the value of the record in a live slot, read
    in place: no copy, no decode, no allocation. Raises [Not_found] for a
    dead slot. *)
val value_at : Page.t -> slot:int -> int

(** [set_value_at page ~slot v] overwrites the value of the record in a
    live slot in place — the same bytes as re-encoding it with [v]; [false]
    for a dead slot. *)
val set_value_at : Page.t -> slot:int -> int -> bool
