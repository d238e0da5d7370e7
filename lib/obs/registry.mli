(** Metrics registry: named, labelled counters and latency histograms.

    The single recording path for every numeric observation in the testbed:
    {!Icdb_core.Metrics} re-homes its per-run counters here, the protocol
    phases record their latencies here, and the link / lock-table / WAL
    hooks feed message, wait and force counts. Exporters ({!Export}) turn a
    {!snapshot} into JSON or Prometheus text.

    Metric handles are get-or-create: [counter t ~labels name] returns the
    existing handle when the (name, sorted labels) pair is already
    registered. Handles are cheap to cache and O(1) to update, so hot paths
    (one observation per message or lock wait) stay off the allocator. All
    listings are sorted, so snapshots of deterministic runs are
    byte-identical regardless of domain count.

    Histograms are bounded-memory, HDR-style: observations land in
    log-spaced buckets (one octave per binary exponent, 32 linear
    sub-buckets each, lazily allocated), so memory is O(occupied buckets)
    regardless of observation count. Count, sum, mean, min and max are
    exact; {!hist_percentile} returns the upper bound of the bucket holding
    the target rank clamped into [min, max] — within 1/32 (≤ 6.25%)
    relative error of the true order statistic, and exact whenever all
    observations share one bucket (in particular for a single
    observation). *)

type t

(** Identity of a metric: name plus sorted [(label, value)] pairs. *)
type key = { name : string; labels : (string * string) list }

type counter
type histogram

val create : unit -> t

(** Get or create. Raises [Invalid_argument] when the name is already
    registered as the other metric type. *)
val counter : t -> ?labels:(string * string) list -> string -> counter

val histogram : t -> ?labels:(string * string) list -> string -> histogram
val inc : ?by:int -> counter -> unit
val count : counter -> int

(** Allocates nothing. *)
val observe : histogram -> float -> unit

(** [bucket_index x] is the bucket a positive observation [x] lands in, as
    [octave * 32 + sub_bucket]: the bucket [Float.frexp x] names for finite
    [x], the top bucket for +∞. Exposed for tests. *)
val bucket_index : float -> int

val hist_count : histogram -> int

(** Mean over all observations; [0.] when empty. *)
val hist_mean : histogram -> float

(** Bucketed percentile (see the module comment); [0.] when empty,
    exact max for [p >= 100]. *)
val hist_percentile : histogram -> float -> float
val clear_counter : counter -> unit
val clear_histogram : histogram -> unit

(** Point-in-time summary of one histogram. *)
type hsnap = {
  h_count : int;
  h_sum : float;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_max : float;
}

val hist_snapshot : histogram -> hsnap

(** Full registry dump, both sections sorted by (name, labels). *)
type snapshot = {
  counters : (key * int) list;
  histograms : (key * hsnap) list;
}

val snapshot : t -> snapshot

(** Every histogram registered under [name], any label set, sorted. *)
val histograms_named : t -> string -> (key * histogram) list

(** [label key l] is the value of label [l], if present. *)
val label : key -> string -> string option
