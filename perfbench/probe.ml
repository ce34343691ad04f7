(* Outside-in probes: a monotonic clock, one global span recorder, and a
   wrapper functor that times every protocol callback (and the mempool
   closures the protocol is created with). Nothing here is linked into
   the program's own libraries; the wrapper is used only in traced runs,
   so an untraced run executes exactly the unwrapped protocol. *)

module C = Marlin_core.Consensus_intf
module Sim = Marlin_sim.Sim

(* CLOCK_MONOTONIC in ns; the stub ships with bechamel's monotonic_clock
   library. Declared here unboxed and noalloc so a read allocates
   nothing. *)
external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (now_ns ())
let seconds ns = float_of_int ns *. 1e-9

(* Span layers, named after the lib/ modules whose calls they time; the
   numbers are the layer field of the span dump (see README.md). *)
let step = 0 (* one Sim.step: netsim, cluster dispatch and arrivals *)
let core_start = 1
let core_message = 2
let core_payload = 3
let core_timeout = 4
let core_force = 5
let mempool_take = 6 (* the get_batch closure: Mempool.take + Batch.of_list *)
let mempool_pending = 7 (* the has_pending closure *)
let layers = 8

let is_core l = l >= core_start && l <= core_force

type recorder = {
  spans : Spans.t;
  stack : int array; (* open span indices, innermost last *)
  mutable depth : int;
  mutable view_changes : int;
  mutable batches : int; (* non-empty batches handed to the protocol *)
  mutable batch_ops : int;
}

let fresh () =
  {
    spans = Spans.create ();
    stack = Array.make 64 (-1);
    depth = 0;
    view_changes = 0;
    batches = 0;
    batch_ops = 0;
  }

let current = ref (fresh ())
let reset () = current := fresh ()

let enter layer =
  let r = !current in
  let parent = if r.depth = 0 then -1 else r.stack.(r.depth - 1) in
  let i =
    Spans.open_ r.spans ~layer ~parent ~t0:(now ()) ~w0:(Gc.minor_words ())
  in
  r.stack.(r.depth) <- i;
  r.depth <- r.depth + 1

let leave () =
  let r = !current in
  r.depth <- r.depth - 1;
  Spans.close r.spans r.stack.(r.depth) ~t1:(now ()) ~w1:(Gc.minor_words ())

module Wrap (P : C.PROTOCOL) : C.PROTOCOL with type t = P.t = struct
  include P

  let create (cfg : C.config) =
    let get_batch () =
      enter mempool_take;
      let b = cfg.C.get_batch () in
      leave ();
      let k = Marlin_types.Batch.length b in
      if k > 0 then begin
        let r = !current in
        r.batches <- r.batches + 1;
        r.batch_ops <- r.batch_ops + k
      end;
      b
    in
    let has_pending () =
      enter mempool_pending;
      let p = cfg.C.has_pending () in
      leave ();
      p
    in
    P.create { cfg with C.get_batch; has_pending }

  let timed layer f t =
    enter layer;
    let actions = f t in
    leave ();
    actions

  (* a timeout or forced rotation that moves the replica's view *)
  let view_moving layer f t =
    let before = P.current_view t in
    let actions = timed layer f t in
    if P.current_view t > before then
      !current.view_changes <- !current.view_changes + 1;
    actions

  let on_start t = timed core_start P.on_start t

  let on_message t m =
    enter core_message;
    let actions = P.on_message t m in
    leave ();
    actions

  let on_new_payload t = timed core_payload P.on_new_payload t
  let on_view_timeout t = view_moving core_timeout P.on_view_timeout t
  let force_view_change t = view_moving core_force P.force_view_change t
end

(* -- GC pauses, read from OCaml 5's runtime_events ring -- *)

(* Pause time is the union of the minor-collection and major-slice
   phases: nesting is tracked so a slice run inside a minor collection
   is not counted twice. *)
module Gc_pause = struct
  type acc = { mutable depth : int; mutable since : int64; mutable total : int64 }

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    acc : acc;
  }

  let pausing = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let started = ref false

  let create () =
    if not !started then begin
      Runtime_events.start ();
      started := true
    end;
    let acc = { depth = 0; since = 0L; total = 0L } in
    let ts_ns = Runtime_events.Timestamp.to_int64 in
    let runtime_begin _ ts phase =
      if pausing phase then begin
        if acc.depth = 0 then acc.since <- ts_ns ts;
        acc.depth <- acc.depth + 1
      end
    in
    let runtime_end _ ts phase =
      if pausing phase && acc.depth > 0 then begin
        acc.depth <- acc.depth - 1;
        if acc.depth = 0 then
          acc.total <- Int64.add acc.total (Int64.sub (ts_ns ts) acc.since)
      end
    in
    let t =
      {
        cursor = Runtime_events.create_cursor None;
        callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ();
        acc;
      }
    in
    (* drain whatever the ring already holds *)
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    acc.total <- 0L;
    t

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  let finish t =
    poll t;
    Runtime_events.free_cursor t.cursor;
    Int64.to_float t.acc.total *. 1e-9
end

(* -- the measured loops -- *)

(* Both loops run until the sentinel event at the end of the window has
   fired. The untraced loop only counts steps. The traced one records one
   root span per step, contiguous with the next (each boundary is read
   once), so the step spans tile the loop's wall time exactly; it notes
   the loop's wall clock at the first step that reaches each of [marks]
   (ascending sim times), so the run can be split into segments of
   simulated time, and reads GC pauses as it goes. *)

type loop = {
  events : int;
  wall_ns : int;
  mark_ns : int array;
      (** traced loop only: loop wall clock when sim time reached each mark *)
  pause_s : float;  (** traced loop only *)
}

let run_untraced sim ~stop =
  let events = ref 0 in
  let start = now () in
  while (not !stop) && Sim.step sim do
    incr events
  done;
  { events = !events; wall_ns = now () - start; mark_ns = [||]; pause_s = 0. }

let run_traced sim ~stop ~marks =
  let r = !current in
  let pause = Gc_pause.create () in
  let nmarks = Array.length marks in
  let mark_ns = Array.make nmarks (-1) in
  let next_mark = ref 0 in
  let events = ref 0 in
  let start = now () in
  let t = ref start and w = ref (Gc.minor_words ()) in
  let continue = ref true in
  while !continue && not !stop do
    let i = Spans.open_ r.spans ~layer:step ~parent:(-1) ~t0:!t ~w0:!w in
    r.stack.(0) <- i;
    r.depth <- 1;
    let more = Sim.step sim in
    let t1 = now () and w1 = Gc.minor_words () in
    Spans.close r.spans i ~t1 ~w1;
    r.depth <- 0;
    t := t1;
    w := w1;
    if more then begin
      incr events;
      if !next_mark < nmarks && Sim.now sim >= marks.(!next_mark) then begin
        mark_ns.(!next_mark) <- t1 - start;
        incr next_mark
      end;
      if !events land 4095 = 0 then Gc_pause.poll pause
    end
    else continue := false
  done;
  let wall_ns = !t - start in
  let pause_s = Gc_pause.finish pause in
  { events = !events; wall_ns; mark_ns; pause_s }
