type op =
  | Read of string
  | Write of string * int
  | Increment of string * int
  | Delete of string

type t = op list

let pp_op fmt = function
  | Read k -> Format.fprintf fmt "read(%s)" k
  | Write (k, v) -> Format.fprintf fmt "write(%s,%d)" k v
  | Increment (k, d) -> Format.fprintf fmt "incr(%s,%+d)" k d
  | Delete k -> Format.fprintf fmt "delete(%s)" k

let pp fmt p =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp_op)
    p

let to_string p = Format.asprintf "%a" pp p

let run db txn p =
  let rec go = function
    | [] -> Ok ()
    | op :: rest -> (
      let result =
        match op with
        | Read k -> Result.map (fun _ -> ()) (Engine.read db txn k)
        | Write (k, v) -> Engine.write db txn ~key:k ~value:v
        | Increment (k, d) -> Engine.increment db txn ~key:k ~delta:d
        | Delete k -> Engine.delete db txn k
      in
      match result with Ok () -> go rest | Error _ as e -> e)
  in
  go p

let key_of = function Read k | Write (k, _) | Increment (k, _) | Delete k -> k

let keys p = List.sort_uniq compare (List.map key_of p)

let intent_rank = function `Read -> 0 | `Increment -> 1 | `Write -> 2

(* Per key, the strongest intent; programs are a handful of operations, so
   an association list beats a hash table. *)
let intents p =
  let rec note key intent = function
    | [] -> [ (key, intent) ]
    | ((k, old) as x) :: rest ->
      if not (String.equal k key) then x :: note key intent rest
      else if intent_rank old >= intent_rank intent then x :: rest
      else (key, intent) :: rest
  in
  List.fold_left
    (fun acc op ->
      let intent =
        match op with
        | Read _ -> `Read
        | Increment _ -> `Increment
        | Write _ | Delete _ -> `Write
      in
      note (key_of op) intent acc)
    [] p
  |> List.sort compare

let inverse_of_accesses accesses =
  List.fold_left
    (fun acc access ->
      match access with
      | Engine.Read _ -> acc
      | Engine.Incremented { key; delta } -> Increment (key, -delta) :: acc
      | Engine.Wrote { key; before = Some b; after = _ } -> Write (key, b) :: acc
      | Engine.Wrote { key; before = None; after = Some _ } -> Delete key :: acc
      | Engine.Wrote { before = None; after = None; _ } -> acc)
    [] accesses

let is_read_only p = List.for_all (function Read _ -> true | _ -> false) p
