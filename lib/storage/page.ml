type t = bytes

let size = 4096
let header_bytes = 12
let dir_entry_bytes = 4

let lsn t = Bytes.get_int64_be t 0
let set_lsn t v = Bytes.set_int64_be t 0 v
let lsn_int t = Int64.to_int (Bytes.get_int64_be t 0)
let stamp t lsn = if lsn > lsn_int t then Bytes.set_int64_be t 0 (Int64.of_int lsn)

let slot_count t = Bytes.get_uint16_be t 8
let set_slot_count t n = Bytes.set_uint16_be t 8 n

(* Lowest byte occupied by payload data; free space is
   [dir_end, data_floor). *)
let data_floor t = Bytes.get_uint16_be t 10
let set_data_floor t v = Bytes.set_uint16_be t 10 v

let create () =
  let t = Bytes.make size '\000' in
  set_data_floor t size;
  t

let copy t = Bytes.copy t
let blit ~src ~dst = Bytes.blit src 0 dst 0 size

let dir_offset slot = header_bytes + (slot * dir_entry_bytes)
let dir_end t = dir_offset (slot_count t)

(* Directory accessors return one field each, so that no hot loop
   allocates a pair per slot. *)
let slot_off t slot = Bytes.get_uint16_be t (dir_offset slot)
let slot_len t slot = Bytes.get_uint16_be t (dir_offset slot + 2)

let set_slot_entry t slot ~off ~len =
  Bytes.set_uint16_be t (dir_offset slot) off;
  Bytes.set_uint16_be t (dir_offset slot + 2) len

let is_live t slot = slot >= 0 && slot < slot_count t && slot_off t slot <> 0

let read t ~slot =
  if not (is_live t slot) then None else Some (Bytes.sub t (slot_off t slot) (slot_len t slot))

let payload_length t ~slot = if is_live t slot then slot_len t slot else 0

let get_int t ~slot ~pos = Int64.to_int (Bytes.get_int64_be t (slot_off t slot + pos))
let set_int t ~slot ~pos v = Bytes.set_int64_be t (slot_off t slot + pos) (Int64.of_int v)

let live_payload_bytes t =
  let acc = ref 0 in
  for s = 0 to slot_count t - 1 do
    if slot_off t s <> 0 then acc := !acc + slot_len t s
  done;
  !acc

(* Compaction stages the live payloads in a per-domain scratch page, so it
   allocates nothing once a domain has compacted one page. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create size)

(* Rewrites all live payloads against the end of the page in slot order,
   eliminating the holes left by deletes and relocating updates. Slot
   numbers are stable. *)
let compact t =
  let staged = Domain.DLS.get scratch in
  Bytes.blit t 0 staged 0 size;
  let floor = ref size in
  for s = 0 to slot_count t - 1 do
    let off = slot_off staged s in
    if off <> 0 then begin
      let len = slot_len staged s in
      floor := !floor - len;
      Bytes.blit staged off t !floor len;
      set_slot_entry t s ~off:!floor ~len
    end
  done;
  set_data_floor t !floor

let free_space t = size - dir_end t - dir_entry_bytes - live_payload_bytes t

let contiguous_free t = data_floor t - dir_end t

(* Places a payload in [want_slot] (revival by rollback/redo; [-1] for a
   fresh directory slot). Returns the slot, or [-1] if even compaction cannot
   make room. *)
let place t ~payload ~want_slot =
  let len = Bytes.length payload in
  if len = 0 || len > size - header_bytes - dir_entry_bytes then
    invalid_arg "Page.insert: bad payload size";
  (* Fresh inserts never reuse a dead slot: a tombstoned slot may still be
     the target of some transaction's rollback or of restart redo
     ([insert_at]), so it stays reserved forever (ghost-record rule). *)
  let count = slot_count t in
  let slot = if want_slot < 0 then count else want_slot in
  let needs_dir_entry = slot >= count in
  let dir_growth = if needs_dir_entry then dir_entry_bytes * (slot + 1 - count) else 0 in
  let usable = size - dir_end t - dir_growth - live_payload_bytes t in
  if usable < len then -1
  else begin
    if contiguous_free t - dir_growth < len then compact t;
    if needs_dir_entry then begin
      (* Zero any intermediate new slots so they read as dead. *)
      for s = count to slot do
        set_slot_entry t s ~off:0 ~len:0
      done;
      set_slot_count t (slot + 1)
    end;
    let floor = data_floor t - len in
    Bytes.blit payload 0 t floor len;
    set_slot_entry t slot ~off:floor ~len;
    set_data_floor t floor;
    slot
  end

let insert t ~payload =
  match place t ~payload ~want_slot:(-1) with -1 -> None | slot -> Some slot

let insert_at t ~slot ~payload =
  if slot < 0 then invalid_arg "Page.insert_at: negative slot";
  (not (is_live t slot)) && place t ~payload ~want_slot:slot >= 0

let delete t ~slot =
  if not (is_live t slot) then false
  else begin
    set_slot_entry t slot ~off:0 ~len:0;
    true
  end

let update t ~slot ~payload =
  if not (is_live t slot) then false
  else begin
    let off = slot_off t slot and len = slot_len t slot in
    if Bytes.length payload = len then begin
      Bytes.blit payload 0 t off len;
      true
    end
    else begin
      (* Relocate within the page; roll back the tombstone on failure. *)
      set_slot_entry t slot ~off:0 ~len:0;
      place t ~payload ~want_slot:slot >= 0
      ||
      (set_slot_entry t slot ~off ~len;
       false)
    end
  end

let live t =
  let acc = ref [] in
  for s = slot_count t - 1 downto 0 do
    match read t ~slot:s with Some payload -> acc := (s, payload) :: !acc | None -> ()
  done;
  !acc
