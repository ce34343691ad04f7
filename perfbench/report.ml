(* Metric names, units and values: the end-to-end set from the untraced
   repetitions, the per-layer set from untraced and traced runs plus the
   replays, and the result line. *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let maxi f xs = List.fold_left (fun acc x -> Int.max acc (f x)) 0 xs
let fi = float_of_int
let secs = Probe.seconds

(* -- end to end, from the untraced repetitions (one run per protocol
   each); simulated figures come from the first, being identical in all -- *)

let end_to_end (reps : Runner.run list list) ~peak_heap_words ~host_index =
  (* each figure summed over a repetition's protocol runs, then the
     median over repetitions; host times at the reference host speed *)
  let per_rep f = Runner.median (List.map (fun runs -> sum f runs) reps) in
  let at_reference t = t *. Calib.reference /. host_index in
  let first = match reps with r :: _ -> r | [] -> invalid_arg "no repetitions" in
  [
    m "wall_s" "s" (at_reference (per_rep Runner.loop_s));
    m "setup_s" "s" (at_reference (per_rep (fun r -> secs r.Runner.setup_ns)));
    m "peak_heap_mb" "MB"
      (fi peak_heap_words *. fi (Sys.word_size / 8) /. 1048576.);
  ]
  @ List.concat_map
      (fun (r : Runner.run) ->
        let s = r.Runner.result in
        let p = r.Runner.label in
        [
          m ("goodput_ops." ^ p) "op/s" s.Runner.goodput;
          m ("lat_p50_ms." ^ p) "ms" (s.Runner.lat_p50 *. 1e3);
          m ("lat_p99_ms." ^ p) "ms" (s.Runner.lat_p99 *. 1e3);
          m ("fail_frac." ^ p) "ratio" s.Runner.fail_frac;
          m ("recovery_ms." ^ p) "ms" (Runner.median s.Runner.gaps *. 1e3);
          m ("recovery_max_ms." ^ p) "ms"
            (List.fold_left Float.max 0. s.Runner.gaps *. 1e3);
        ])
      first

(* -- per layer, from one untraced and two traced runs per protocol -- *)

type replayed = {
  crypto : Replay.crypto;
  wire_size_ns : float;
  encode_ns : float;
  queue_ns : float;  (** mean over the protocol runs *)
  add_ns : float;  (** mean over the protocol runs *)
  sample_ns : float;
}

let trace_of (r : Runner.run) =
  match r.Runner.trace with
  | Some t -> t
  | None -> invalid_arg "Report: untraced run where a traced one is needed"

let layer_total (r : Runner.run) keep f =
  let t = trace_of r in
  let acc = ref 0. in
  Array.iteri (fun l total -> if keep l then acc := !acc +. f total) t.Runner.layers;
  !acc

let core_layer = Probe.is_core
let mempool_layer l = l = Probe.mempool_take || l = Probe.mempool_pending
let step_layer l = l = Probe.step
let self_s (t : Spans.layer_total) = secs t.Spans.self_ns

let per_layer ~untraced ~traced ~traced_again ~replayed (w : Workloads.t) =
  let window = w.Workloads.window in
  let res f = List.map (fun (r : Runner.run) -> f r.Runner.result) traced in
  let tr f = List.map (fun r -> f (trace_of r)) traced in
  let sumf l = List.fold_left ( +. ) 0. l and sumn l = List.fold_left ( + ) 0 l in
  let untraced_s = sum Runner.loop_s untraced in
  (* the traced runs were made before and after the untraced one *)
  let traced_s = (sum Runner.loop_s traced +. sum Runner.loop_s traced_again) /. 2. in
  let events = sumn (res (fun s -> s.Runner.events)) in
  let blocks = fi (sumn (res (fun s -> s.Runner.blocks))) in
  let net f = fi (sumn (res (fun s -> f s.Runner.net))) in
  let core_calls = sum (fun r -> layer_total r core_layer (fun t -> fi t.Spans.count)) traced in
  let q = window /. 4. in
  let warmup = Workloads.until w -. window in
  let wall_per_sim_s a =
    sum (fun r -> secs (Runner.wall_between_ns r a (a +. q))) traced /. q
  in
  let c = replayed.crypto in
  [
    m "sim.events" "count" (fi events);
    m "sim.events_per_s" "1/s" (fi events /. untraced_s);
    m "sim.peak_pending" "count" (fi (maxi (fun r -> r.Runner.result.Runner.peak_pending) traced));
    m "sim.queue_ns_per_op" "ns" replayed.queue_ns;
    m "sim.loop_self_s" "s" (sum (fun r -> layer_total r step_layer self_s) traced);
    m "sim.wall_per_sim_s.first" "s/sim_s" (wall_per_sim_s warmup);
    m "sim.wall_per_sim_s.last" "s/sim_s" (wall_per_sim_s (Workloads.until w -. q));
    m "netsim.messages_per_commit" "count" (net (fun n -> n.Marlin_sim.Netsim.messages) /. blocks);
    m "netsim.auths_per_commit" "count" (net (fun n -> n.Marlin_sim.Netsim.authenticators) /. blocks);
    m "netsim.bytes_per_op" "B"
      (net (fun n -> n.Marlin_sim.Netsim.bytes)
      /. fi (sumn (res (fun s -> s.Runner.completed_total))));
    m "core.calls" "count" core_calls;
    m "core.self_s" "s" (sum (fun r -> layer_total r core_layer self_s) traced);
    m "core.words_per_call" "words"
      (sum (fun r -> layer_total r core_layer (fun t -> t.Spans.self_words)) traced
      /. core_calls);
    m "core.blocks_committed" "count" blocks;
    m "core.view_changes" "count" (fi (sumn (tr (fun t -> t.Runner.view_changes))));
    m "crypto.sign_ns" "ns" c.Replay.sign_ns;
    m "crypto.verify_ns" "ns" c.Replay.verify_ns;
    m "crypto.combine_ns" "ns" c.Replay.combine_ns;
    m "crypto.sha256_ns_per_kib" "ns/KiB" c.Replay.sha256_ns_per_kib;
    (* an estimate: every authenticator sent verified once at verify_ns *)
    m "crypto.est_share" "ratio"
      (net (fun n -> n.Marlin_sim.Netsim.authenticators) *. c.Replay.verify_ns *. 1e-9
      /. untraced_s);
    m "types.wire_size_ns" "ns" replayed.wire_size_ns;
    m "types.encode_ns" "ns" replayed.encode_ns;
    m "mempool.take_self_s" "s" (sum (fun r -> layer_total r mempool_layer self_s) traced);
    m "mempool.ops_per_batch" "count"
      (fi (sumn (tr (fun t -> t.Runner.batch_ops)))
      /. fi (Int.max 1 (sumn (tr (fun t -> t.Runner.batches)))));
    m "mempool.add_ns" "ns" replayed.add_ns;
    m "mempool.peak_occupancy" "count" (fi (maxi (fun r -> r.Runner.result.Runner.peak_occupancy) traced));
    m "mempool.shed" "count" (fi (sumn (res (fun s -> s.Runner.shed))));
    m "mempool.rejected" "count" (fi (sumn (res (fun s -> s.Runner.rejected))));
    m "workload.arrivals" "count" (fi (sumn (res (fun s -> s.Runner.arrivals))));
    m "workload.sample_ns" "ns" replayed.sample_ns;
    m "gc.minor_words" "words" (sumf (tr (fun t -> t.Runner.minor_words)));
    m "gc.major_words" "words" (sumf (tr (fun t -> t.Runner.major_words)));
    m "gc.major_collections" "count" (fi (sumn (tr (fun t -> t.Runner.major_collections))));
    m "gc.pause_s" "s" (sum (fun r -> r.Runner.loop.Probe.pause_s) traced);
    m "trace.overhead_frac" "ratio" ((traced_s /. untraced_s) -. 1.);
  ]

(* -- output -- *)

let valid_name name =
  String.length name > 0
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let json_line ~correct ~attempted ~failed metrics =
  let metric { name; unit_; value } =
    (* a non-finite value fails the finiteness check; keep the line JSON *)
    let v = if Float.is_finite value then Printf.sprintf "%.17g" value else "null" in
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name v unit_
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
