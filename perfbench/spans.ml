(* Spans recorded around calls into the program, kept in flat growable
   arrays so recording allocates nothing per span, and folded into
   per-layer totals only after the measured loop has ended. *)

type t = {
  mutable len : int;
  mutable layer : int array;
  mutable parent : int array; (* index of the enclosing span, -1 at the root *)
  mutable t0 : int array; (* ns *)
  mutable t1 : int array; (* ns *)
  mutable words : float array; (* minor words allocated inside the span *)
}

(* Initial room; [grow] doubles it. *)
let capacity = 1 lsl 16

let create () =
  {
    len = 0;
    layer = Array.make capacity 0;
    parent = Array.make capacity 0;
    t0 = Array.make capacity 0;
    t1 = Array.make capacity 0;
    words = Array.make capacity 0.;
  }

let grow t =
  let cap = 2 * Array.length t.layer in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.layer <- extend t.layer 0;
  t.parent <- extend t.parent 0;
  t.t0 <- extend t.t0 0;
  t.t1 <- extend t.t1 0;
  t.words <- extend t.words 0.

(* [words] holds the minor-word counter at open until [close] turns it
   into the delta. *)
let open_ t ~layer ~parent ~t0 ~w0 =
  if t.len = Array.length t.layer then grow t;
  let i = t.len in
  t.len <- i + 1;
  Array.unsafe_set t.layer i layer;
  Array.unsafe_set t.parent i parent;
  Array.unsafe_set t.t0 i t0;
  Array.unsafe_set t.t1 i t0;
  Array.unsafe_set t.words i w0;
  i

let close t i ~t1 ~w1 =
  Array.unsafe_set t.t1 i t1;
  Array.unsafe_set t.words i (w1 -. Array.unsafe_get t.words i)

let add t ~layer ~parent ~t0 ~t1 ~words =
  let i = open_ t ~layer ~parent ~t0 ~w0:0. in
  close t i ~t1 ~w1:words;
  i

(* A span's self time is its duration minus the part of its interval
   that its children cover. Children are clipped to the parent and their
   overlaps counted once: processing children in start order, each one
   only adds what lies beyond the furthest end seen so far. *)
let self_ns t =
  let n = t.len in
  let order = Array.init n Fun.id in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if t.t0.(i) < t.t0.(i - 1) then sorted := false
  done;
  if not !sorted then
    Array.stable_sort (fun a b -> Int.compare t.t0.(a) t.t0.(b)) order;
  let covered = Array.make n 0 in
  let reach = Array.make n min_int in
  Array.iter
    (fun i ->
      let p = t.parent.(i) in
      if p >= 0 then begin
        let s = Int.max (Int.max t.t0.(i) t.t0.(p)) reach.(p) in
        let e = Int.min t.t1.(i) t.t1.(p) in
        if e > s then covered.(p) <- covered.(p) + (e - s);
        if e > reach.(p) then reach.(p) <- e
      end)
    order;
  Array.init n (fun i -> t.t1.(i) - t.t0.(i) - covered.(i))

(* Spans whose interval is not inside their parent's. [self_ns] clips
   such a child to its parent, which would hide an enter/leave mismatch,
   so the traced run checks that this is zero. *)
let escaped t =
  let k = ref 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 && (t.t0.(i) < t.t0.(p) || t.t1.(i) > t.t1.(p)) then incr k
  done;
  !k

(* Per-layer totals: span count, self ns and self minor words (a span's
   words minus its children's). *)
type layer_total = { count : int; self_ns : int; self_words : float }

let by_layer t ~layers =
  let self = self_ns t in
  let child_words = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child_words.(p) <- child_words.(p) +. t.words.(i)
  done;
  let count = Array.make layers 0
  and ns = Array.make layers 0
  and words = Array.make layers 0. in
  for i = 0 to t.len - 1 do
    let l = t.layer.(i) in
    count.(l) <- count.(l) + 1;
    ns.(l) <- ns.(l) + self.(i);
    words.(l) <- words.(l) +. (t.words.(i) -. child_words.(i))
  done;
  Array.init layers (fun l ->
      { count = count.(l); self_ns = ns.(l); self_words = words.(l) })

(* Binary dump, one 40-byte little-endian record per span: layer, parent,
   t0 ns, t1 ns (int64 each) and the minor words (IEEE double). *)
let write t path =
  let oc = open_out_bin path in
  output_string oc "perfbench-spans/1\n";
  let b = Buffer.create 40 in
  for i = 0 to t.len - 1 do
    Buffer.clear b;
    Buffer.add_int64_le b (Int64.of_int t.layer.(i));
    Buffer.add_int64_le b (Int64.of_int t.parent.(i));
    Buffer.add_int64_le b (Int64.of_int t.t0.(i));
    Buffer.add_int64_le b (Int64.of_int t.t1.(i));
    Buffer.add_int64_le b (Int64.bits_of_float t.words.(i));
    Buffer.output_buffer oc b
  done;
  close_out oc
