(* A host-speed index, read next to the measured repetitions so that host
   times can be reported at a fixed reference speed.

   Other tenants of a shared host slow identical work by up to 1.7x, in
   phases lasting seconds to minutes, so raw loop walls of the same code
   spread by 0.13-0.29 of their median over ten runs. The index times two
   fixed kernels that use only the standard library and so do not change
   with the program: a small discrete-event loop (a binary heap of
   records, a Hashtbl, short-lived lists), which is memory- and
   allocation-bound and slows more than the simulator does, and an
   arithmetic loop, which slows less. Their geometric mean tracks the
   simulator's loop; README.md gives the measurements. *)

type ev = { time : float; key : int; payload : int list }

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

let des () =
  let heap = Array.make (1 lsl 14) { time = 0.; key = 0; payload = [] } in
  let len = ref 0 in
  let push e =
    let i = ref !len in
    incr len;
    while !i > 0 && heap.((!i - 1) / 2).time > e.time do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr len;
    let last = heap.(!len) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !len then sifting := false
      else
        let c = if l + 1 < !len && heap.(l + 1).time < heap.(l).time then l + 1 else l in
        if heap.(c).time < last.time then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
    done;
    heap.(!i) <- last;
    top
  in
  let pending = Hashtbl.create 4096 in
  let x = ref 777 in
  let next () =
    x := lcg !x;
    !x
  in
  for k = 0 to 8000 do
    push { time = float_of_int (next () land 0xffff); key = k; payload = [ k ] }
  done;
  let acc = ref 0 in
  for _ = 1 to 100_000 do
    let e = pop () in
    let r = next () in
    (match Hashtbl.find_opt pending (e.key land 0xffff) with
    | Some l -> acc := !acc + List.length l
    | None -> ());
    Hashtbl.replace pending (r land 0xffff)
      (List.filteri (fun i _ -> i < 4) (e.key :: e.payload));
    push { time = e.time +. float_of_int (r land 0xfff); key = r; payload = [ r; e.key ] }
  done;
  !acc

let arith () =
  let x = ref 1.0 and acc = ref 0 in
  for i = 1 to 20_000_000 do
    x := (!x *. 1.0000001) +. 1e-9;
    acc := !acc lxor (i * 2654435761)
  done;
  !acc + int_of_float !x

let time f =
  let t0 = Probe.now () in
  ignore (Sys.opaque_identity (f ()));
  Probe.seconds (Probe.now () - t0)

(* Seconds; a full major collection first, so the kernels do not pay for
   the heap the last repetition left behind. *)
let index () =
  Gc.full_major ();
  sqrt (time des *. time arith)

(* The index of the host the benchmark was tuned on, in a typical phase;
   host times are reported as if measured at this index. *)
let reference = 0.075
