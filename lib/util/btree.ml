(* Nodes are fixed-capacity arrays with slack, edited in place: an insert or
   a remove shifts the tail of one node's arrays, and only a split (or a new
   root) allocates. A node may hold one key over [order] for the moment
   before it splits. Separator convention: a separator equals the smallest
   key of its right subtree, so lookups go right on equality.

   Slots past a node's count hold nothing that was removed: keys are blanked
   to [""], and value and child slots hold only elements still in use in
   the node (refilled with its first one whenever an element leaves), so
   the slack never keeps a dropped binding or subtree alive. An empty leaf
   has no value array at all ([[||]]); the first insert allocates it. *)

let order = 16 (* maximum keys per node between operations *)
let min_keys = order / 2
let cap = order + 1

type 'a node = Leaf of 'a leaf | Internal of 'a internal

and 'a leaf = {
  mutable nkeys : int;
  lkeys : string array; (* [cap] slots *)
  mutable lvals : 'a array; (* [cap] slots, or [[||]] while empty *)
  mutable next : 'a leaf option;
}

and 'a internal = {
  mutable nseps : int; (* children in use: [nseps + 1] *)
  seps : string array; (* [cap] slots *)
  children : 'a node array; (* [cap + 1] slots *)
}

type 'a t = { mutable root : 'a node; mutable count : int }

let new_leaf () = { nkeys = 0; lkeys = Array.make cap ""; lvals = [||]; next = None }
let create () = { root = Leaf (new_leaf ()); count = 0 }

(* --- search --- *)

(* First position in [keys.(0 .. n-1)] whose key is >= [key]. *)
let lower_bound keys n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Number of separators <= key = index of the child to descend into. *)
let child_index n key =
  let lo = ref 0 and hi = ref n.nseps in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare n.seps.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Position of [key] in leaf [l], or [-1]. *)
let leaf_find l key =
  let i = lower_bound l.lkeys l.nkeys key in
  if i < l.nkeys && String.equal l.lkeys.(i) key then i else -1

(* --- in-place node edits --- *)

let leaf_insert_at l i key v =
  if Array.length l.lvals = 0 then l.lvals <- Array.make cap v;
  let tail = l.nkeys - i in
  Array.blit l.lkeys i l.lkeys (i + 1) tail;
  Array.blit l.lvals i l.lvals (i + 1) tail;
  l.lkeys.(i) <- key;
  l.lvals.(i) <- v;
  l.nkeys <- l.nkeys + 1

(* Blanks leaf slots [from .. cap-1]; [nkeys] is already the new count. *)
let leaf_clear l from =
  Array.fill l.lkeys from (cap - from) "";
  if l.nkeys = 0 then l.lvals <- [||] else Array.fill l.lvals from (cap - from) l.lvals.(0)

let leaf_remove_at l i =
  let tail = l.nkeys - i - 1 in
  Array.blit l.lkeys (i + 1) l.lkeys i tail;
  Array.blit l.lvals (i + 1) l.lvals i tail;
  l.nkeys <- l.nkeys - 1;
  leaf_clear l l.nkeys

(* Appends [src]'s bindings to [dst]. *)
let leaf_append dst src =
  if src.nkeys > 0 then begin
    if Array.length dst.lvals = 0 then dst.lvals <- Array.make cap src.lvals.(0);
    Array.blit src.lkeys 0 dst.lkeys dst.nkeys src.nkeys;
    Array.blit src.lvals 0 dst.lvals dst.nkeys src.nkeys;
    dst.nkeys <- dst.nkeys + src.nkeys
  end

(* Inserts separator [sep] at [i] and its right child at [i + 1]. *)
let internal_insert_at n i sep right =
  Array.blit n.seps i n.seps (i + 1) (n.nseps - i);
  Array.blit n.children (i + 1) n.children (i + 2) (n.nseps - i);
  n.seps.(i) <- sep;
  n.children.(i + 1) <- right;
  n.nseps <- n.nseps + 1

(* Blanks separator slots [from ..] and the child slots after the last
   child in use. *)
let internal_clear n from =
  Array.fill n.seps from (cap - from) "";
  Array.fill n.children (n.nseps + 1) (cap - n.nseps) n.children.(0)

(* Removes separator [s] and child [c] (adjacent: [c = s] or [c = s + 1]). *)
let internal_remove_at n ~sep:s ~child:c =
  Array.blit n.seps (s + 1) n.seps s (n.nseps - s - 1);
  Array.blit n.children (c + 1) n.children c (n.nseps - c);
  n.nseps <- n.nseps - 1;
  internal_clear n n.nseps

(* Appends separator [sep], then [src]'s separators and children, to [dst]. *)
let internal_append dst sep src =
  dst.seps.(dst.nseps) <- sep;
  Array.blit src.seps 0 dst.seps (dst.nseps + 1) src.nseps;
  Array.blit src.children 0 dst.children (dst.nseps + 1) (src.nseps + 1);
  dst.nseps <- dst.nseps + 1 + src.nseps

(* --- find --- *)

let rec find_node node key =
  match node with
  | Leaf l -> ( match leaf_find l key with -1 -> None | i -> Some l.lvals.(i))
  | Internal n -> find_node n.children.(child_index n key) key

let find t key = find_node t.root key
let mem t key = Option.is_some (find t key)

(* --- insert --- *)

type 'a split = No_split | Split of string * 'a node

let split_leaf l =
  let half = l.nkeys / 2 in
  let moved = l.nkeys - half in
  let right =
    { nkeys = moved; lkeys = Array.make cap ""; lvals = Array.make cap l.lvals.(half); next = l.next }
  in
  Array.blit l.lkeys half right.lkeys 0 moved;
  Array.blit l.lvals half right.lvals 0 moved;
  l.nkeys <- half;
  leaf_clear l half;
  l.next <- Some right;
  Split (right.lkeys.(0), Leaf right)

let split_internal n =
  let mid = n.nseps / 2 in
  let up = n.seps.(mid) in
  let moved = n.nseps - mid - 1 in
  let right =
    { nseps = moved; seps = Array.make cap ""; children = Array.make (cap + 1) n.children.(mid + 1) }
  in
  Array.blit n.seps (mid + 1) right.seps 0 moved;
  Array.blit n.children (mid + 1) right.children 0 (moved + 1);
  n.nseps <- mid;
  internal_clear n mid;
  Split (up, Internal right)

let rec insert_node t node key v =
  match node with
  | Leaf l ->
    let i = lower_bound l.lkeys l.nkeys key in
    if i < l.nkeys && String.equal l.lkeys.(i) key then begin
      (* The replaced value may also sit in the slack: refill it. *)
      l.lvals.(i) <- v;
      leaf_clear l l.nkeys;
      No_split
    end
    else begin
      leaf_insert_at l i key v;
      t.count <- t.count + 1;
      if l.nkeys > order then split_leaf l else No_split
    end
  | Internal n -> (
    let i = child_index n key in
    match insert_node t n.children.(i) key v with
    | No_split -> No_split
    | Split (sep, right) ->
      internal_insert_at n i sep right;
      if n.nseps > order then split_internal n else No_split)

let insert t key v =
  match insert_node t t.root key v with
  | No_split -> ()
  | Split (sep, right) ->
    let seps = Array.make cap "" and children = Array.make (cap + 1) t.root in
    seps.(0) <- sep;
    children.(1) <- right;
    t.root <- Internal { nseps = 1; seps; children }

(* --- remove --- *)

let keys_in = function Leaf l -> l.nkeys | Internal n -> n.nseps
let underfull node = keys_in node < min_keys
let spare node = keys_in node > min_keys

(* Rebalance parent's child [i], which is underfull: borrow from a sibling
   when it has spare keys, merge otherwise. *)
let rebalance parent i =
  let has_left = i > 0 and has_right = i < parent.nseps in
  match parent.children.(i) with
  | Leaf l ->
    let leaf j = match parent.children.(j) with Leaf s -> s | Internal _ -> assert false in
    if has_left && spare parent.children.(i - 1) then begin
      let left = leaf (i - 1) in
      let last = left.nkeys - 1 in
      leaf_insert_at l 0 left.lkeys.(last) left.lvals.(last);
      leaf_remove_at left last;
      parent.seps.(i - 1) <- l.lkeys.(0)
    end
    else if has_right && spare parent.children.(i + 1) then begin
      let right = leaf (i + 1) in
      leaf_insert_at l l.nkeys right.lkeys.(0) right.lvals.(0);
      leaf_remove_at right 0;
      parent.seps.(i) <- right.lkeys.(0)
    end
    else if has_left then begin
      let left = leaf (i - 1) in
      leaf_append left l;
      left.next <- l.next;
      internal_remove_at parent ~sep:(i - 1) ~child:i
    end
    else begin
      let right = leaf (i + 1) in
      leaf_append l right;
      l.next <- right.next;
      internal_remove_at parent ~sep:i ~child:(i + 1)
    end
  | Internal c ->
    let internal j = match parent.children.(j) with Internal s -> s | Leaf _ -> assert false in
    if has_left && spare parent.children.(i - 1) then begin
      let left = internal (i - 1) in
      let n = left.nseps in
      (* Shift [c] right by one, then give slot 0 the left's last child. *)
      internal_insert_at c 0 parent.seps.(i - 1) c.children.(0);
      c.children.(0) <- left.children.(n);
      parent.seps.(i - 1) <- left.seps.(n - 1);
      left.nseps <- n - 1;
      internal_clear left (n - 1)
    end
    else if has_right && spare parent.children.(i + 1) then begin
      let right = internal (i + 1) in
      c.seps.(c.nseps) <- parent.seps.(i);
      c.children.(c.nseps + 1) <- right.children.(0);
      c.nseps <- c.nseps + 1;
      parent.seps.(i) <- right.seps.(0);
      internal_remove_at right ~sep:0 ~child:0
    end
    else if has_left then begin
      internal_append (internal (i - 1)) parent.seps.(i - 1) c;
      internal_remove_at parent ~sep:(i - 1) ~child:i
    end
    else begin
      internal_append c parent.seps.(i) (internal (i + 1));
      internal_remove_at parent ~sep:i ~child:(i + 1)
    end

let rec remove_node node key =
  match node with
  | Leaf l -> (
    match leaf_find l key with
    | -1 -> false
    | i ->
      leaf_remove_at l i;
      true)
  | Internal n ->
    let i = child_index n key in
    let removed = remove_node n.children.(i) key in
    if removed && underfull n.children.(i) then rebalance n i;
    removed

let remove t key =
  let removed = remove_node t.root key in
  if removed then begin
    t.count <- t.count - 1;
    match t.root with
    | Internal n when n.nseps = 0 -> t.root <- n.children.(0)
    | Internal _ | Leaf _ -> ()
  end;
  removed

(* --- traversal --- *)

let rec leftmost = function
  | Leaf l -> l
  | Internal n -> leftmost n.children.(0)

let iter t f =
  let rec walk = function
    | None -> ()
    | Some l ->
      for i = 0 to l.nkeys - 1 do
        f l.lkeys.(i) l.lvals.(i)
      done;
      walk l.next
  in
  walk (Some (leftmost t.root))

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun key v -> acc := f !acc key v);
  !acc

let range t ~lo ~hi f =
  let start =
    match lo with
    | None -> leftmost t.root
    | Some key ->
      let rec descend = function
        | Leaf l -> l
        | Internal n -> descend n.children.(child_index n key)
      in
      descend t.root
  in
  let above_lo key = match lo with None -> true | Some b -> key >= b in
  let below_hi key = match hi with None -> true | Some b -> key <= b in
  let exception Done in
  let rec walk = function
    | None -> ()
    | Some l ->
      for i = 0 to l.nkeys - 1 do
        let key = l.lkeys.(i) in
        if not (below_hi key) then raise Done else if above_lo key then f key l.lvals.(i)
      done;
      walk l.next
  in
  try walk (Some start) with Done -> ()

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc key v -> (key, v) :: acc))
let keys t = List.rev (fold t ~init:[] ~f:(fun acc key _ -> key :: acc))

let size t = t.count
let is_empty t = t.count = 0

let min_binding t =
  let rec first = function
    | None -> None
    | Some l -> if l.nkeys > 0 then Some (l.lkeys.(0), l.lvals.(0)) else first l.next
  in
  first (Some (leftmost t.root))

let max_binding t =
  let rec rightmost = function
    | Leaf l -> if l.nkeys = 0 then None else Some (l.lkeys.(l.nkeys - 1), l.lvals.(l.nkeys - 1))
    | Internal n -> rightmost n.children.(n.nseps)
  in
  rightmost t.root

let height t =
  let rec depth = function Leaf _ -> 1 | Internal n -> 1 + depth n.children.(0) in
  depth t.root

(* --- invariants --- *)

let invariant_check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let check_sorted keys n where =
    for i = 1 to n - 1 do
      if keys.(i - 1) >= keys.(i) then fail "%s: keys out of order at %d" where i
    done
  in
  (* Slack slots hold blank keys, and only values and children that are
     still in use in the same node. *)
  let in_use arr n x =
    let rec go j = j < n && (arr.(j) == x || go (j + 1)) in
    go 0
  in
  let check_slack keys n where =
    if Array.length keys <> cap then fail "%s: capacity %d, expected %d" where (Array.length keys) cap;
    if n > order then fail "%s: %d keys over order %d" where n order;
    for i = n to cap - 1 do
      if keys.(i) <> "" then fail "%s: slack key slot %d not blank" where i
    done
  in
  let leaf_depth = ref (-1) in
  let counted = ref 0 in
  (* Bounds are exclusive lo / exclusive hi; separators tighten them. *)
  let rec walk node ~lo ~hi ~depth ~is_root =
    let in_bounds k =
      (match lo with None -> true | Some b -> k >= b)
      && match hi with None -> true | Some b -> k < b
    in
    match node with
    | Leaf l ->
      check_slack l.lkeys l.nkeys "leaf";
      check_sorted l.lkeys l.nkeys "leaf";
      if l.nkeys = 0 then begin
        if Array.length l.lvals <> 0 then fail "leaf: empty leaf keeps a value array"
      end
      else begin
        if Array.length l.lvals <> cap then fail "leaf: value capacity %d" (Array.length l.lvals);
        for i = l.nkeys to cap - 1 do
          if not (in_use l.lvals l.nkeys l.lvals.(i)) then
            fail "leaf: slack value slot %d holds a removed value" i
        done
      end;
      for i = 0 to l.nkeys - 1 do
        if not (in_bounds l.lkeys.(i)) then fail "leaf key %s out of bounds" l.lkeys.(i)
      done;
      if (not is_root) && l.nkeys < min_keys then fail "leaf underfull";
      if !leaf_depth = -1 then leaf_depth := depth
      else if !leaf_depth <> depth then fail "unbalanced leaves";
      counted := !counted + l.nkeys
    | Internal n ->
      check_slack n.seps n.nseps "internal";
      check_sorted n.seps n.nseps "internal";
      if Array.length n.children <> cap + 1 then fail "internal: child capacity";
      for i = n.nseps + 1 to cap do
        if not (in_use n.children (n.nseps + 1) n.children.(i)) then
          fail "internal: slack child slot %d holds a removed subtree" i
      done;
      if (not is_root) && n.nseps < min_keys then fail "internal underfull";
      if is_root && n.nseps < 1 then fail "internal root empty";
      for i = 0 to n.nseps - 1 do
        if not (in_bounds n.seps.(i)) then fail "separator %s out of bounds" n.seps.(i)
      done;
      for i = 0 to n.nseps do
        let lo' = if i = 0 then lo else Some n.seps.(i - 1) in
        let hi' = if i = n.nseps then hi else Some n.seps.(i) in
        walk n.children.(i) ~lo:lo' ~hi:hi' ~depth:(depth + 1) ~is_root:false
      done
  in
  walk t.root ~lo:None ~hi:None ~depth:0 ~is_root:true;
  if !counted <> t.count then fail "size mismatch: counted %d, recorded %d" !counted t.count;
  (* The leaf chain must enumerate exactly the in-order keys. *)
  let chain = ref [] in
  let rec follow = function
    | None -> ()
    | Some l ->
      for i = 0 to l.nkeys - 1 do
        chain := l.lkeys.(i) :: !chain
      done;
      follow l.next
  in
  follow (Some (leftmost t.root));
  let chain = List.rev !chain in
  if List.length chain <> t.count then fail "leaf chain misses keys";
  ignore
    (List.fold_left
       (fun prev k ->
         (match prev with Some p when p >= k -> fail "leaf chain out of order" | _ -> ());
         Some k)
       None chain)
