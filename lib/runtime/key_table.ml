(* Linear probing over a power-of-two slot count, at most half full.
   Slot [i] keeps its client at [keys.(2i)], its seq at [keys.(2i+1)] and
   its code in byte [i] of [codes]; code 0 marks an empty slot, so the
   keys themselves need no reserved value. *)

type t = {
  mutable keys : int array;
  mutable codes : Bytes.t;
  mutable count : int;
}

let initial_slots = 64

let create () =
  {
    keys = Array.make (2 * initial_slots) 0;
    codes = Bytes.make initial_slots '\000';
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

let find t ~client ~seq = Char.code (Bytes.unsafe_get t.codes (slot t ~client ~seq))

let set t i ~client ~seq code =
  Array.unsafe_set t.keys (2 * i) client;
  Array.unsafe_set t.keys ((2 * i) + 1) seq;
  Bytes.unsafe_set t.codes i code

let grow t =
  let keys = t.keys and codes = t.codes in
  let slots = 2 * Bytes.length codes in
  t.keys <- Array.make (2 * slots) 0;
  t.codes <- Bytes.make slots '\000';
  for i = 0 to Bytes.length codes - 1 do
    let code = Bytes.unsafe_get codes i in
    if code <> '\000' then begin
      let client = keys.(2 * i) and seq = keys.((2 * i) + 1) in
      set t (slot t ~client ~seq) ~client ~seq code
    end
  done

let replace t ~client ~seq code =
  if code < 1 || code > 255 then
    invalid_arg "Key_table.replace: code must be in 1..255";
  let i = slot t ~client ~seq in
  if Bytes.unsafe_get t.codes i <> '\000' then
    Bytes.unsafe_set t.codes i (Char.unsafe_chr code)
  else begin
    let i =
      if 2 * (t.count + 1) <= Bytes.length t.codes then i
      else begin
        grow t;
        slot t ~client ~seq
      end
    in
    set t i ~client ~seq (Char.unsafe_chr code);
    t.count <- t.count + 1
  end

let length t = t.count
