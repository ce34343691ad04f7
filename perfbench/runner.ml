(* One protocol run of a workload: set-up, the measured loop driven with
   Sim.step, and everything read back from the cluster's public
   interface afterwards. The same code runs untraced (the registry's
   protocol as is) and traced (wrapped by Probe.Wrap, with the span
   recorder, the on_send capture and GC deltas); the simulated part of
   the two results must be identical bit for bit. *)

module C = Marlin_core.Consensus_intf
module Cluster = Marlin_runtime.Cluster
module Registry = Marlin_runtime.Registry
module Sim = Marlin_sim.Sim
module Netsim = Marlin_sim.Netsim
module Message = Marlin_types.Message
module Operation = Marlin_types.Operation
module Block = Marlin_types.Block
module Sha256 = Marlin_crypto.Sha256
module Stats = Marlin_analysis.Stats

(* What the simulation produced: deterministic for a given seed. *)
type sim_result = {
  generated : int;  (** window counters, from open_loop_stats *)
  sent : int;
  shed : int;
  rejected : int;
  completed : int;
  completed_total : int;  (** committed since time zero *)
  inflight : int;  (** at the end of the run *)
  inflight_tail : float;
      (** median in-flight count over the window's last two sim-seconds *)
  arrivals : int;  (** generated since time zero, warm-up included *)
  unaccounted : int;
      (** ops the accounting identities lose: generated = sent + shed and
          sent = completed + rejected + in flight, over the whole run *)
  goodput : float;  (** op/s over the window *)
  lat_p50 : float;  (** s *)
  lat_p99 : float;
  fail_frac : float;
  gaps : float list;  (** longest commit gap of each slot, s *)
  agreement : bool;
  net : Netsim.stats;
  events : int;
  peak_pending : int;
  peak_occupancy : int;
  blocks : int;  (** committed at the furthest replica *)
  head_digest : string;  (** over every replica's committed head *)
}

(* Every field, floats in hex: equal strings mean equal bits. *)
let fingerprint r =
  Printf.sprintf
    "gen=%d sent=%d shed=%d rej=%d done=%d all=%d infl=%d tail=%h arr=%d lost=%d gp=%h p50=%h \
     p99=%h ff=%h gaps=[%s] agree=%b msgs=%d bytes=%d auths=%d ev=%d \
     pend=%d occ=%d blocks=%d head=%s"
    r.generated r.sent r.shed r.rejected r.completed r.completed_total r.inflight r.inflight_tail r.arrivals
    r.unaccounted r.goodput r.lat_p50 r.lat_p99 r.fail_frac
    (String.concat ";" (List.map (Printf.sprintf "%h") r.gaps))
    r.agreement r.net.Netsim.messages r.net.Netsim.bytes
    r.net.Netsim.authenticators r.events r.peak_pending r.peak_occupancy
    r.blocks r.head_digest

let median = function
  | [] -> invalid_arg "Runner.median: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* -- the traced run's bounded capture of the message stream -- *)

type capture = {
  mutable seen : int;
  msgs : Message.t option array;  (** reservoir over every send *)
  mutable votes_seen : int;
  votes : Message.t option array;  (** reservoir over Vote sends *)
  ops : Operation.t option array;  (** the first ops sources send in the window *)
  mutable n_ops : int;
  rng : Random.State.t;  (** fixed: the capture never sees the seed *)
}

let capture () =
  {
    seen = 0;
    msgs = Array.make 2048 None;
    votes_seen = 0;
    votes = Array.make 512 None;
    ops = Array.make 20_000 None;
    n_ops = 0;
    rng = Random.State.make [| 0x5eed |];
  }

(* Algorithm R *)
let reservoir rng slots seen m =
  let k = Array.length slots in
  if seen < k then slots.(seen) <- Some m
  else
    let j = Random.State.int rng (seen + 1) in
    if j < k then slots.(j) <- Some m

let sampled slots = Array.to_list slots |> List.filter_map Fun.id

let capture_hook cap ~sim ~n ~window_start ~src ~dst:_ ~size:_ (m : Message.t) =
  reservoir cap.rng cap.msgs cap.seen m;
  cap.seen <- cap.seen + 1;
  match m.Message.payload with
  | Message.Vote _ ->
      reservoir cap.rng cap.votes cap.votes_seen m;
      cap.votes_seen <- cap.votes_seen + 1
  | Message.Client_op op
    when src >= n && cap.n_ops < Array.length cap.ops
         && Sim.now sim >= window_start ->
      cap.ops.(cap.n_ops) <- Some op;
      cap.n_ops <- cap.n_ops + 1
  | _ -> ()

(* -- traced-only measurements -- *)

type trace = {
  layers : Spans.layer_total array;
  escaped : int;  (** spans not inside their parent's interval *)
  view_changes : int;
  batches : int;
  batch_ops : int;
  minor_words : float;
  major_words : float;
  major_collections : int;
  captured : capture;
  sig_bytes : int;
}

type run = {
  label : string;  (** "marlin" or "hotstuff" in metric names *)
  result : sim_result;
  setup_ns : int;  (** median over the set-ups *)
  loop : Probe.loop;
      (** a traced loop marks every {!Workloads.segment} of sim time *)
  trace : trace option;
}

let loop_s r = Probe.seconds r.loop.Probe.wall_ns

(* Traced loop wall time between two sim instants on the segment grid. *)
let wall_between_ns r a b =
  let at x =
    let i = int_of_float (Float.round (x /. Workloads.segment)) - 1 in
    if i < 0 then 0 else r.loop.Probe.mark_ns.(i)
  in
  at b - at a

(* The longest gap between consecutive commits at the replicas other
   than [excluded], inside the slot starting at [start]: the first gap
   runs from [start] itself, the last may end past the slot. Commit
   instants come from the cluster's public first_commit_after. *)
let longest_gap ~next_commit ~replicas ~excluded ~start ~stop ~horizon =
  let next t =
    List.fold_left
      (fun acc r ->
        if r = excluded then acc
        else
          match next_commit r t with
          | Some c -> Float.min acc c
          | None -> acc)
      infinity replicas
  in
  let rec go t best =
    if t >= stop then best
    else
      let c = Float.min (next t) horizon in
      let best = Float.max best (c -. t) in
      if c >= horizon then best else go c best
  in
  go start 0.

(* What the scheduled scenario events observe during a run. *)
type observed = {
  mutable at_reset : Cluster.open_stats option;  (** totals when the window opened *)
  crashed : int array;  (** replica crashed at each slot's start, -1 if none *)
  mutable tail : int list;  (** in-flight counts near the end, newest first *)
  stop : bool ref;  (** set by the sentinel at the end of the window *)
}

(* In flight "at the end" is sampled every 0.1 sim-s over the window's
   last two seconds and the median kept: the instantaneous count jumps by
   a whole batch at every commit, so a single reading depends on where
   the run stops in the commit cycle. *)
let tail_samples = 20

(* Set-up is timed this many times per run and the median kept. *)
let setups = 11

let run ?(traced = false) ?spans_out (w : Workloads.t) ~seed
    (label, registry_name) =
  let base = Registry.find_exn registry_name in
  let proto : C.protocol =
    if traced then
      let module P = (val base) in
      (module Probe.Wrap (P))
    else base
  in
  let module P = (val proto) in
  let module Cl = Cluster.Make (P) in
  let until = Workloads.until w in
  let slots = Workloads.slot_starts w in
  (* Set-up: params, the scenario (window reset, leader churn, the
     sentinel that ends the loop) and Cluster.create, up to the first
     event. Repeated, and the last cluster is the one run. *)
  let setup () =
    let t0 = Probe.now () in
    let params = Workloads.params w ~seed in
    let c = Cl.create params in
    let sim = Cl.sim c in
    let o =
      {
        at_reset = None;
        crashed = Array.make (List.length slots) (-1);
        tail = [];
        stop = ref false;
      }
    in
    Sim.schedule_at sim ~time:w.Workloads.warmup (fun () ->
        o.at_reset <- Some (Cl.open_loop_stats c);
        Cl.open_loop_reset_window c);
    if w.Workloads.churn then
      List.iteri
        (fun k at ->
          Sim.schedule_at sim ~time:at (fun () ->
              (* the replica that currently leads: the leader of the
                 highest view any replica has reached *)
              let view = ref 0 in
              for r = 0 to w.Workloads.n - 1 do
                view := Int.max !view (P.current_view (Cl.protocol c r))
              done;
              let leader = !view mod w.Workloads.n in
              o.crashed.(k) <- leader;
              Cl.crash c ~at leader;
              Cl.recover c ~at:(at +. Workloads.down_for) leader))
        slots;
    for k = 1 to tail_samples do
      Sim.schedule_at sim
        ~time:(until -. (0.1 *. float_of_int (tail_samples - k)))
        (fun () -> o.tail <- (Cl.open_loop_stats c).Cluster.inflight :: o.tail)
    done;
    Sim.schedule_at sim ~time:until (fun () -> o.stop := true);
    Cl.run c ~until:neg_infinity (* schedules time-zero events, runs none *);
    (c, o, Probe.now () - t0)
  in
  let rec setup_n k acc =
    let ((_, _, ns) as s) = setup () in
    if k <= 1 then (s, ns :: acc) else setup_n (k - 1) (ns :: acc)
  in
  Gc.compact ();
  let (c, o, _), setup_times = setup_n setups [] in
  let stop = o.stop in
  let setup_ns =
    int_of_float (median (List.map float_of_int setup_times))
  in
  let sim = Cl.sim c in
  let net = Cl.net c in
  let params = Cl.params c in
  let loop, trace_parts =
    if not traced then (Probe.run_untraced sim ~stop, None)
    else begin
      Probe.reset ();
      let cap = capture () in
      Netsim.on_send net
        (Some
           (capture_hook cap ~sim ~n:params.Cluster.n
              ~window_start:w.Workloads.warmup));
      let g0 = Gc.quick_stat () in
      let loop = Probe.run_traced sim ~stop ~marks:(Workloads.marks w) in
      let g1 = Gc.quick_stat () in
      Netsim.on_send net None;
      (loop, Some (g0, g1, cap))
    end
  in
  let events = loop.Probe.events in
  let s = Cl.open_loop_stats c in
  let b =
    match o.at_reset with
    | Some b -> b
    | None -> failwith "Runner.run: the window never opened"
  in
  let replicas = List.init params.Cluster.n Fun.id in
  let unaccounted =
    let tot f = f b + f s in
    abs
      (tot (fun x -> x.Cluster.generated)
      - tot (fun x -> x.Cluster.sent)
      - tot (fun x -> x.Cluster.shed))
    + abs
        (tot (fun x -> x.Cluster.sent)
        - tot (fun x -> x.Cluster.completed)
        - tot (fun x -> x.Cluster.rejected)
        - s.Cluster.inflight)
  in
  let gaps =
    List.mapi
      (fun k start ->
        longest_gap
          ~next_commit:(fun r t -> Cl.first_commit_after c ~replica:r t)
          ~replicas ~excluded:o.crashed.(k) ~start
          ~stop:(start +. Workloads.crash_every)
          ~horizon:until)
      slots
  in
  let head_digest =
    List.map
      (fun r -> Sha256.to_raw (Block.digest (P.committed_head (Cl.protocol c r))))
      replicas
    |> String.concat "" |> Sha256.string |> Sha256.to_hex
  in
  let inflight_tail = median (List.map float_of_int o.tail) in
  let result =
    {
      generated = s.Cluster.generated;
      sent = s.Cluster.sent;
      shed = s.Cluster.shed;
      rejected = s.Cluster.rejected;
      completed = s.Cluster.completed;
      completed_total = b.Cluster.completed + s.Cluster.completed;
      inflight = s.Cluster.inflight;
      inflight_tail;
      arrivals = b.Cluster.generated + s.Cluster.generated;
      unaccounted;
      goodput = float_of_int s.Cluster.completed /. w.Workloads.window;
      lat_p50 = s.Cluster.latency.Stats.p50;
      lat_p99 = s.Cluster.latency.Stats.p99;
      fail_frac =
        (float_of_int (s.Cluster.shed + s.Cluster.rejected) +. inflight_tail)
        /. float_of_int (Int.max 1 s.Cluster.generated);
      gaps;
      agreement = Cl.check_agreement c;
      net = Netsim.stats net;
      events;
      peak_pending = Sim.peak_pending sim;
      peak_occupancy = s.Cluster.peak_occupancy;
      blocks =
        List.fold_left
          (fun acc r -> Int.max acc (P.committed_count (Cl.protocol c r)))
          0 replicas;
      head_digest;
    }
  in
  let trace =
    Option.map
      (fun ((g0 : Gc.stat), (g1 : Gc.stat), cap) ->
        let r = !Probe.current in
        (match spans_out with
        | Some path -> Spans.write r.Probe.spans path
        | None -> ());
        {
          layers = Spans.by_layer r.Probe.spans ~layers:Probe.layers;
          escaped = Spans.escaped r.Probe.spans;
          view_changes = r.Probe.view_changes;
          batches = r.Probe.batches;
          batch_ops = r.Probe.batch_ops;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          captured = cap;
          sig_bytes =
            Marlin_crypto.Cost_model.combined_size params.Cluster.cost_model
              ~n:params.Cluster.n
              ~shares:(params.Cluster.n - params.Cluster.f);
        })
      trace_parts
  in
  Probe.reset ();
  { label; result; setup_ns; loop; trace }
