(* An implicit binary min-heap over three parallel flat arrays: entry [i]
   is ([times.(i)], [seqs.(i)], [values.(i)]) and its children sit at
   [2i+1] and [2i+2]. Keys are the (time, seq) pairs, compared
   lexicographically; seqs are unique among live entries, so the order is
   total and pop order is exactly the (time, seq) order, whatever the
   spread of pending times.

   Times live unboxed in a [float array] and seqs in an [int array], so a
   sift moves words between arrays and allocates nothing. Slots at
   [size] and beyond hold [dummy] and are never read: a pop overwrites
   the slot it vacates, so the heap keeps no popped value alive. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable peak : int;
}

let initial_capacity = 16

(* Filler for unused [values] slots. It is only ever stored, never read
   back as an ['a]: every read is at an index below [size]. *)
let dummy () : 'a = Obj.magic 0

let create () =
  {
    times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    values = Array.make initial_capacity (dummy ());
    size = 0;
    next_seq = 0;
    peak = 0;
  }

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0. and seqs = Array.make cap 0 in
  let values = Array.make cap (dummy ()) in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

let move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.values dst (Array.unsafe_get t.values src)

(* Does entry [a] sort strictly before entry [b]? Indices, not keys, so
   no float crosses a call boundary boxed. *)
let before t a b =
  let ta = Array.unsafe_get t.times a and tb = Array.unsafe_get t.times b in
  ta < tb || (ta = tb && Array.unsafe_get t.seqs a < Array.unsafe_get t.seqs b)

let push_at t ~time ~seq value =
  if t.size = Array.length t.times then grow t;
  (* sift the hole up from the new last slot, then fill it *)
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = Array.unsafe_get t.times parent in
    if tp < time || (tp = time && Array.unsafe_get t.seqs parent < seq) then
      continue := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  Array.unsafe_set t.times !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.values !i value;
  t.size <- t.size + 1;
  if t.size > t.peak then t.peak <- t.size

let push_keyed t ~time value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_at t ~time ~seq value;
  seq

let push t ~time value = ignore (push_keyed t ~time value : int)

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and value = t.values.(0) in
    let last = t.size - 1 in
    t.size <- last;
    (* sift the hole down from the root, then fill it with the old last
       entry; that entry stays put in slot [last] until the fill, since
       every move lands at a smaller index *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c = if r < last && before t r l then r else l in
        if before t c last then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    if !i <> last then move t ~src:last ~dst:!i;
    t.values.(last) <- dummy ();
    Some (time, value)
  end

let peek_time t = if t.size = 0 then None else Some t.times.(0)
let length t = t.size
let is_empty t = t.size = 0
let max_length t = t.peak
