module Program = Icdb_localdb.Program

type t = {
  name : string;
  site : string;
  target : string;
  clazz : Conflict.clazz;
  program : Program.t;
  inverse : Program.t;
  l1_obj : string; (* site ^ "/" ^ target, built once at construction *)
}

let make ~name ~site ~target ~clazz ~program ~inverse =
  { name; site; target; clazz; program; inverse; l1_obj = site ^ "/" ^ target }

let l1_object t = t.l1_obj

(* Names are built with plain concatenation, not [Printf.sprintf]: a
   workload makes one action per operation, and the format machinery
   allocates many times the result string. *)
let call f args = f ^ "(" ^ String.concat "," args ^ ")"

let pp fmt t = Format.fprintf fmt "%s@%s[%s:%s]" t.name t.site t.target t.clazz

let increment ~site ~key delta =
  make
    ~name:(call "incr" [ key; (if delta >= 0 then "+" else "") ^ string_of_int delta ])
    ~site ~target:key ~clazz:"increment"
    ~program:[ Program.Increment (key, delta) ]
    ~inverse:[ Program.Increment (key, -delta) ]

let deposit ~site ~account amount =
  make
    ~name:(call "deposit" [ account; string_of_int amount ])
    ~site ~target:account ~clazz:"deposit"
    ~program:[ Program.Increment (account, amount) ]
    ~inverse:[ Program.Increment (account, -amount) ]

let withdraw ~site ~account amount =
  make
    ~name:(call "withdraw" [ account; string_of_int amount ])
    ~site ~target:account ~clazz:"withdraw"
    ~program:[ Program.Increment (account, -amount) ]
    ~inverse:[ Program.Increment (account, amount) ]

let read_balance ~site ~account =
  make
    ~name:(call "read-balance" [ account ])
    ~site ~target:account ~clazz:"read-balance"
    ~program:[ Program.Read account ]
    ~inverse:[]

let write ~site ~key ~before ~after =
  let inverse =
    match before with
    | Some b -> [ Program.Write (key, b) ]
    | None -> [ Program.Delete key ]
  in
  make
    ~name:(call "write" [ key; string_of_int after ])
    ~site ~target:key ~clazz:"write"
    ~program:[ Program.Write (key, after) ]
    ~inverse
