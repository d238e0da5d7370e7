(* Quantiles pooled over several registry histograms.

   A registry histogram only answers percentile queries, and each answer is
   the upper bound of a bucket on one global log-spaced grid (clamped into
   the histogram's exact min and max). Walking the ranks of each histogram
   recovers its distinct answer values with the number of observations each
   stands for; merging those steps gives the pooled order statistics
   exactly as the bucketed representation knows them. *)

module Registry = Icdb_obs.Registry

(* [(value, observations)] steps of one histogram, in increasing value. *)
let steps h =
  let n = Registry.hist_count h in
  (* rank r of n: the percentile whose ceiling target is exactly r *)
  let at r = Registry.hist_percentile h (100.0 *. (float_of_int r -. 0.5) /. float_of_int n) in
  let rec go r acc =
    if r > n then List.rev acc
    else begin
      let v = at r in
      let lo = ref r and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if at mid <= v then lo := mid else hi := mid - 1
      done;
      go (!lo + 1) ((v, !lo - r + 1) :: acc)
    end
  in
  go 1 []

let count hs = List.fold_left (fun acc h -> acc + Registry.hist_count h) 0 hs

(* [quantile hs q] for [q] in [0, 1]; 0 when every histogram is empty. *)
let quantile hs q =
  let total = count hs in
  if total = 0 then 0.0
  else begin
    let target = max 1 (min total (int_of_float (Float.ceil (q *. float_of_int total)))) in
    let pts = List.sort compare (List.concat_map steps hs) in
    let rec walk cum = function
      | [] -> 0.0
      | (v, c) :: rest -> if cum + c >= target then v else walk (cum + c) rest
    in
    walk 0 pts
  end

let mean hs =
  let total = count hs in
  if total = 0 then 0.0
  else
    List.fold_left
      (fun acc h -> acc +. (Registry.hist_mean h *. float_of_int (Registry.hist_count h)))
      0.0 hs
    /. float_of_int total

(* Every histogram of [name] in [registry] whose labels satisfy [keep]. *)
let named ?(keep = fun _ -> true) registry name =
  List.filter_map
    (fun (key, h) -> if keep key then Some h else None)
    (Registry.histograms_named registry name)
