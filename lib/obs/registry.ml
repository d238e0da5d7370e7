type key = { name : string; labels : (string * string) list }

type counter = { mutable v : int }

(* Bounded-memory HDR-style histogram: observations land in log-spaced
   buckets — one octave per binary exponent, [sub_buckets] linear
   sub-divisions inside each octave, so the bucket width is at most
   1/sub_buckets of the value (≤ 6.25% relative quantile error). Count,
   sum, min and max are tracked exactly and incrementally; only the bucket
   counts are stored, so memory is O(occupied octaves), independent of the
   observation count — the property that lets the million-account runs keep
   full metrics. Octave count arrays are allocated lazily: a histogram that
   only ever sees values in two octaves holds two 32-slot int arrays. *)

let sub_buckets = 32
let e_lo = -32 (* smallest tracked exponent: values below 2^-33 share a bucket *)
let e_hi = 63 (* largest: values ≥ 2^63 share the top bucket *)
let n_octaves = e_hi - e_lo + 1

type histogram = {
  mutable h_n : int;
  (* sum, min and max, unboxed: a float array stores its elements flat, so
     updating them allocates nothing *)
  h_stats : float array;
  mutable h_nonpos : int; (* observations ≤ 0 (or NaN): kept out of the log buckets *)
  octaves : int array option array; (* n_octaves slots, sub_buckets counts each *)
}

let sum = 0
and lo = 1
and hi = 2

type metric = Counter of counter | Histogram of histogram

type t = { tbl : (key, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let key ?(labels = []) name = { name; labels = List.sort compare labels }

let counter t ?labels name =
  let k = key ?labels name in
  match Hashtbl.find_opt t.tbl k with
  | Some (Counter c) -> c
  | Some (Histogram _) ->
    invalid_arg (Printf.sprintf "Registry.counter: %S is a histogram" name)
  | None ->
    let c = { v = 0 } in
    Hashtbl.replace t.tbl k (Counter c);
    c

let fresh_histogram () =
  {
    h_n = 0;
    h_stats = [| 0.0; infinity; neg_infinity |];
    h_nonpos = 0;
    octaves = Array.make n_octaves None;
  }

let histogram t ?labels name =
  let k = key ?labels name in
  match Hashtbl.find_opt t.tbl k with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
    invalid_arg (Printf.sprintf "Registry.histogram: %S is a counter" name)
  | None ->
    let h = fresh_histogram () in
    Hashtbl.replace t.tbl k (Histogram h);
    h

let inc ?(by = 1) c = c.v <- c.v + by
let count c = c.v

(* Bucket of a positive [x], as [octave * sub_buckets + sub], read off the
   IEEE bits: for a normal [x] = 1.f × 2^(b-1023), [frexp] would give the
   exponent [b - 1022] and a mantissa in [0.5, 1) whose linear sub-bucket is
   the top 5 bits of [f]. Subnormals fall below [e_lo]; +∞ (b = 2047)
   lands in the top bucket with everything past [e_hi]. *)
let bucket_index x =
  let bits = Int64.bits_of_float x in
  let e = (Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff) - 1022 in
  if e < e_lo then 0
  else if e > e_hi then (n_octaves * sub_buckets) - 1
  else ((e - e_lo) * sub_buckets) + ((Int64.to_int bits lsr 47) land (sub_buckets - 1))

let observe h x =
  h.h_n <- h.h_n + 1;
  let st = h.h_stats in
  st.(sum) <- st.(sum) +. x;
  if x < st.(lo) then st.(lo) <- x;
  if x > st.(hi) then st.(hi) <- x;
  if x > 0.0 then begin
    let b = bucket_index x in
    let oct = b / sub_buckets in
    let counts =
      match h.octaves.(oct) with
      | Some c -> c
      | None ->
        let c = Array.make sub_buckets 0 in
        h.octaves.(oct) <- Some c;
        c
    in
    let sub = b land (sub_buckets - 1) in
    counts.(sub) <- counts.(sub) + 1
  end
  else h.h_nonpos <- h.h_nonpos + 1 (* ≤ 0 and NaN observations *)

let hist_count h = h.h_n
let hist_mean h = if h.h_n = 0 then 0.0 else h.h_stats.(sum) /. float_of_int h.h_n

(* Upper bound of bucket (oct, sub): (0.5 + (sub+1)/64) · 2^e; the top
   bucket also holds everything past 2^63, +∞ included, so it is
   unbounded. *)
let bucket_upper oct sub =
  if oct = n_octaves - 1 && sub = sub_buckets - 1 then infinity
  else
    Float.ldexp
      (0.5 +. (float_of_int (sub + 1) /. float_of_int (2 * sub_buckets)))
      (oct + e_lo)

(* Percentile = upper bound of the bucket holding the target rank, clamped
   into [min, max]. A single-bucket histogram (and in particular a single
   observation) therefore reports exact quantiles; in general the answer is
   within one bucket (≤ 1/sub_buckets relative) of the true order
   statistic. *)
let hist_percentile h p =
  if h.h_n = 0 then 0.0
  else if p >= 100.0 then h.h_stats.(hi)
  else begin
    let target =
      let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.h_n)) in
      if r < 1 then 1 else if r > h.h_n then h.h_n else r
    in
    let h_min = h.h_stats.(lo) and h_max = h.h_stats.(hi) in
    if target <= h.h_nonpos then (if h_min < 0.0 then h_min else 0.0)
    else begin
      let cum = ref h.h_nonpos in
      let result = ref h_max in
      (try
         for oct = 0 to n_octaves - 1 do
           match h.octaves.(oct) with
           | None -> ()
           | Some counts ->
             for sub = 0 to sub_buckets - 1 do
               if counts.(sub) > 0 then begin
                 cum := !cum + counts.(sub);
                 if !cum >= target then begin
                   result := bucket_upper oct sub;
                   raise Exit
                 end
               end
             done
         done
       with Exit -> ());
      let r = !result in
      let r = if r > h_max then h_max else r in
      if r < h_min then h_min else r
    end
  end

let clear_counter c = c.v <- 0

let clear_histogram h =
  h.h_n <- 0;
  h.h_stats.(sum) <- 0.0;
  h.h_stats.(lo) <- infinity;
  h.h_stats.(hi) <- neg_infinity;
  h.h_nonpos <- 0;
  Array.fill h.octaves 0 n_octaves None

type hsnap = {
  h_count : int;
  h_sum : float;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_max : float;
}

let hist_snapshot h =
  if h.h_n = 0 then
    { h_count = 0; h_sum = 0.0; h_mean = 0.0; h_p50 = 0.0; h_p95 = 0.0; h_max = 0.0 }
  else
    {
      h_count = h.h_n;
      h_sum = h.h_stats.(sum);
      h_mean = hist_mean h;
      h_p50 = hist_percentile h 50.0;
      h_p95 = hist_percentile h 95.0;
      h_max = h.h_stats.(hi);
    }

type snapshot = {
  counters : (key * int) list;
  histograms : (key * hsnap) list;
}

let snapshot t =
  let counters = ref [] and histograms = ref [] in
  Hashtbl.iter
    (fun k m ->
      match m with
      | Counter c -> counters := (k, c.v) :: !counters
      | Histogram h -> histograms := (k, hist_snapshot h) :: !histograms)
    t.tbl;
  {
    counters = List.sort compare !counters;
    histograms = List.sort (fun (a, _) (b, _) -> compare a b) !histograms;
  }

(* Histograms matching [name] (any labels), sorted by labels. *)
let histograms_named t name =
  Hashtbl.fold
    (fun k m acc ->
      match m with
      | Histogram h when k.name = name -> (k, h) :: acc
      | _ -> acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let label k name = List.assoc_opt name k.labels
