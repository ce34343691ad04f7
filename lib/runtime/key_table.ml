(* Linear probing over a power-of-two slot count, at most half full.
   Slot [i] keeps its client at [keys.(2i)], its seq at [keys.(2i+1)], its
   code in byte [i] of [codes] and, once any value has been set, its value
   at [vals.(i)]; code 0 marks an empty slot, so the keys themselves need
   no reserved value. Removal shifts the rest of the probe cluster back
   (no tombstones), so every key stays reachable from its home slot
   without a gap. *)

type t = {
  mutable keys : int array;
  mutable codes : Bytes.t;
  mutable vals : float array; (* [||] until the first [set_value] *)
  mutable count : int;
}

let initial_slots = 64

let create () =
  {
    keys = Array.make (2 * initial_slots) 0;
    codes = Bytes.make initial_slots '\000';
    vals = [||];
    count = 0;
  }

(* splitmix64's finaliser, truncated to OCaml's 63-bit ints, over a
   combination of both fields *)
let hash ~client ~seq =
  let h = (client * 0x1F3D5B79A3C1) + seq in
  let h = (h lxor (h lsr 31)) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 29)) * 0x14D049BB133111EB in
  h lxor (h lsr 32)

(* The slot holding the key, or the empty slot where it would go. *)
let slot t ~client ~seq =
  let mask = Bytes.length t.codes - 1 in
  let i = ref (hash ~client ~seq land mask) in
  while
    Bytes.unsafe_get t.codes !i <> '\000'
    && not
         (Array.unsafe_get t.keys (2 * !i) = client
         && Array.unsafe_get t.keys ((2 * !i) + 1) = seq)
  do
    i := (!i + 1) land mask
  done;
  !i

let code_at t i = Char.code (Bytes.unsafe_get t.codes i)
let find t ~client ~seq = code_at t (slot t ~client ~seq)

let set t i ~client ~seq code =
  Array.unsafe_set t.keys (2 * i) client;
  Array.unsafe_set t.keys ((2 * i) + 1) seq;
  Bytes.unsafe_set t.codes i code

let grow t =
  let keys = t.keys and codes = t.codes and vals = t.vals in
  let slots = 2 * Bytes.length codes in
  t.keys <- Array.make (2 * slots) 0;
  t.codes <- Bytes.make slots '\000';
  if Array.length vals > 0 then t.vals <- Array.make slots 0.;
  for i = 0 to Bytes.length codes - 1 do
    let code = Bytes.unsafe_get codes i in
    if code <> '\000' then begin
      let client = keys.(2 * i) and seq = keys.((2 * i) + 1) in
      let j = slot t ~client ~seq in
      set t j ~client ~seq code;
      if Array.length vals > 0 then t.vals.(j) <- vals.(i)
    end
  done

let check_code fn code =
  if code < 1 || code > 255 then
    invalid_arg ("Key_table." ^ fn ^ ": code must be in 1..255")

(* Add the key with [code] at [i], the empty slot [slot] found for it,
   growing first if the table would pass half full; a new key's value
   starts at 0. Returns the slot the key ends up in. *)
let add_at t i ~client ~seq code =
  let i =
    if 2 * (t.count + 1) <= Bytes.length t.codes then i
    else begin
      grow t;
      slot t ~client ~seq
    end
  in
  set t i ~client ~seq (Char.unsafe_chr code);
  if Array.length t.vals > 0 then Array.unsafe_set t.vals i 0.;
  t.count <- t.count + 1;
  i

let exchange_checked t ~client ~seq code =
  let i = slot t ~client ~seq in
  let old = code_at t i in
  if old <> 0 then Bytes.unsafe_set t.codes i (Char.unsafe_chr code)
  else ignore (add_at t i ~client ~seq code);
  old

let exchange t ~client ~seq code =
  check_code "exchange" code;
  exchange_checked t ~client ~seq code

let replace t ~client ~seq code =
  check_code "replace" code;
  ignore (exchange_checked t ~client ~seq code)

let value t ~client ~seq =
  let i = slot t ~client ~seq in
  if Bytes.unsafe_get t.codes i = '\000' then Float.nan
  else if Array.length t.vals = 0 then 0.
  else Array.unsafe_get t.vals i

(* The key's slot in a table with a value column, adding the key with
   code 1 if absent. *)
let value_slot t ~client ~seq =
  if Array.length t.vals = 0 then t.vals <- Array.make (Bytes.length t.codes) 0.;
  let i = slot t ~client ~seq in
  if Bytes.unsafe_get t.codes i <> '\000' then i else add_at t i ~client ~seq 1

let set_value t ~client ~seq v =
  Array.unsafe_set t.vals (value_slot t ~client ~seq) v

let counter t ~client ~seq =
  let i = slot t ~client ~seq in
  if Bytes.unsafe_get t.codes i = '\000' || Array.length t.vals = 0 then 0
  else int_of_float (Array.unsafe_get t.vals i)

(* Empty slot [i], then walk the rest of its probe cluster: an entry whose
   probe from its home slot passes the hole moves back into it, and the
   hole moves to where that entry was. The walk ends at an empty slot. *)
let remove t ~client ~seq =
  let i = slot t ~client ~seq in
  if Bytes.unsafe_get t.codes i <> '\000' then begin
    let mask = Bytes.length t.codes - 1 in
    let has_vals = Array.length t.vals > 0 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while Bytes.unsafe_get t.codes !j <> '\000' do
      let client = Array.unsafe_get t.keys (2 * !j)
      and seq = Array.unsafe_get t.keys ((2 * !j) + 1) in
      let home = hash ~client ~seq land mask in
      if (!j - !hole) land mask <= (!j - home) land mask then begin
        set t !hole ~client ~seq (Bytes.unsafe_get t.codes !j);
        if has_vals then Array.unsafe_set t.vals !hole (Array.unsafe_get t.vals !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Bytes.unsafe_set t.codes !hole '\000';
    t.count <- t.count - 1
  end

let add_counter t ~client ~seq d =
  let n = counter t ~client ~seq + d in
  if n = 0 then remove t ~client ~seq
  else Array.unsafe_set t.vals (value_slot t ~client ~seq) (float_of_int n)

let length t = t.count
