(* The two kinds of run the command makes, with their correctness
   checks: untraced repetitions for the end-to-end metrics, and traced
   runs around an untraced one, plus replays, for the per-layer ones. *)

type outcome = {
  metrics : Report.metric list;
  checks : (string * bool) list;  (** every check, named *)
  attempted : int;  (** simulated operations offered *)
  failed : int;  (** operations the accounting identities lose *)
  notes : string list;  (** human-readable context printed with the metrics *)
}

let run_checks (runs : Runner.run list) =
  List.concat_map
    (fun (r : Runner.run) ->
      let s = r.Runner.result in
      [
        (r.Runner.label ^ ": agreement", s.Runner.agreement);
        (r.Runner.label ^ ": open-loop accounting identities", s.Runner.unaccounted = 0);
        (r.Runner.label ^ ": ops committed", s.Runner.completed > 0);
      ])
    runs

let attempted runs = Report.sumi (fun (r : Runner.run) -> r.Runner.result.Runner.arrivals) runs
let failed runs = Report.sumi (fun (r : Runner.run) -> r.Runner.result.Runner.unaccounted) runs

let latency_notes runs =
  List.map
    (fun (r : Runner.run) ->
      let s = r.Runner.result in
      Printf.sprintf
        "%s: %d ops completed in the window, latency percentiles from a \
         uniform sample of up to 8192 of them; %d commit-gap slots"
        r.Runner.label s.Runner.completed
        (List.length s.Runner.gaps))
    runs

let finite_check metrics =
  ("every metric finite", List.for_all (fun mt -> Float.is_finite mt.Report.value) metrics)

let repetition w ~seed = List.map (Runner.run w ~seed) w.Workloads.protocols

let min_repetitions = 2

(* Whole repetitions while the next one still fits in [seconds], and at
   least [min_repetitions]. The simulation is deterministic, so every
   repetition must reproduce the first one's simulated results. The heap
   high-water mark is read after the first repetition: later ones start
   from a heap the earlier ones grew, and how many run depends on the
   host's speed. The host-speed index is read before the first repetition
   and after each one. *)
let end_to_end w ~seed ~seconds =
  let start = Probe.now () in
  let readings = ref [ Calib.index () ] in
  let first = repetition w ~seed in
  readings := Calib.index () :: !readings;
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let rec go reps took =
    if
      List.length reps >= min_repetitions
      && Probe.seconds (Probe.now () - start + took) > seconds
    then List.rev reps
    else
      let t0 = Probe.now () in
      let rep = repetition w ~seed in
      readings := Calib.index () :: !readings;
      go (rep :: reps) (Probe.now () - t0)
  in
  let reps = go [ first ] (Probe.now () - start) in
  let fingerprints rep =
    List.map (fun (r : Runner.run) -> Runner.fingerprint r.Runner.result) rep
  in
  let host_index = Runner.median !readings in
  let metrics = Report.end_to_end reps ~peak_heap_words ~host_index in
  {
    metrics;
    checks =
      run_checks first
      @ [
          ( Printf.sprintf "%d or more repetitions reproduce the simulation"
              min_repetitions,
            List.length reps >= min_repetitions
            && List.for_all
                 (fun rep -> List.equal String.equal (fingerprints rep) (fingerprints first))
                 reps );
          finite_check metrics;
        ];
    attempted = attempted first;
    failed = failed first;
    notes =
      Printf.sprintf "host index %.4f s (reference %.4f s), readings %s"
        host_index Calib.reference
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !readings))
      :: Printf.sprintf "%d repetition(s) of %s; loop walls %s s" (List.length reps)
        (String.concat " + " (List.map snd w.Workloads.protocols))
        (String.concat " "
           (List.map
              (fun rep ->
                String.concat "+"
                  (List.map (fun r -> Printf.sprintf "%.3f" (Runner.loop_s r)) rep))
              reps))
      :: latency_notes first;
  }

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let replay w (traced : Runner.run list) =
  let traces = List.map Report.trace_of traced in
  let msgs = List.concat_map (fun t -> Runner.sampled t.Runner.captured.Runner.msgs) traces in
  let votes = List.concat_map (fun t -> Runner.sampled t.Runner.captured.Runner.votes) traces in
  let params = Workloads.params w ~seed:0 in
  let n = params.Marlin_runtime.Cluster.n in
  let quorum = n - params.Marlin_runtime.Cluster.f in
  let sig_bytes = (List.hd traces).Runner.sig_bytes in
  let crypto = Replay.crypto ~n ~quorum ~votes ~msgs in
  let wire_size_ns, encode_ns = Replay.types ~sig_bytes ~msgs in
  let per_run f = mean (List.map f traced) in
  let queue_ns =
    per_run (fun r ->
        let s = r.Runner.result in
        Replay.queue ~peak:s.Runner.peak_pending
          ~events_per_sim_s:(float_of_int s.Runner.events /. Workloads.until w))
  in
  let add_ns =
    per_run (fun r ->
        let t = Report.trace_of r in
        Replay.mempool_add ~config:params.Marlin_runtime.Cluster.mempool
          ~batch_max:params.Marlin_runtime.Cluster.batch_max
          ~peak:r.Runner.result.Runner.peak_occupancy
          ~ops:(Runner.sampled t.Runner.captured.Runner.ops))
  in
  let sample_ns = Replay.sample ~rate:w.Workloads.rate ~sources:4 in
  { Report.crypto; wire_size_ns; encode_ns; queue_ns; add_ns; sample_ns }

let metric metrics name =
  (List.find (fun mt -> String.equal mt.Report.name name) metrics).Report.value

(* The order is warm-up, traced, untraced, traced again. The warm-up is
   discarded, so no measured run starts from a cold heap; a run also
   tends to be a little faster than the one before it, so the overhead
   compares the untraced run with the mean of the two traced runs around
   it. Every other traced figure comes from the first traced run, and
   only its spans are written out. *)
let per_layer ?out_dir w ~seed =
  let warm_up = repetition w ~seed in
  let traced_repetition ~dump =
    List.map
      (fun ((label, _) as p) ->
        let spans_out =
          if not dump then None
          else
            Option.map
              (fun dir ->
                Filename.concat dir
                  (Printf.sprintf "spans-%s-%s.bin" w.Workloads.name label))
              out_dir
        in
        Runner.run ~traced:true ?spans_out w ~seed p)
      w.Workloads.protocols
  in
  let traced = traced_repetition ~dump:true in
  let untraced = repetition w ~seed in
  let traced_again = traced_repetition ~dump:false in
  let replayed = replay w traced in
  let metrics = Report.per_layer ~untraced ~traced ~traced_again ~replayed w in
  let loop_s = Report.sum Runner.loop_s traced in
  let parts =
    metric metrics "core.self_s"
    +. metric metrics "mempool.take_self_s"
    +. metric metrics "sim.loop_self_s"
  in
  let reproduces (runs : Runner.run list) =
    List.for_all2
      (fun (a : Runner.run) (b : Runner.run) ->
        String.equal
          (Runner.fingerprint a.Runner.result)
          (Runner.fingerprint b.Runner.result))
      untraced runs
  in
  let all_traced = traced @ traced_again in
  {
    metrics;
    checks =
      run_checks untraced @ run_checks traced
      @ [
          ( "traced runs reproduce the untraced simulation bit for bit",
            reproduces traced && reproduces traced_again );
          ( "every child span lies inside its parent",
            List.for_all (fun r -> (Report.trace_of r).Runner.escaped = 0) all_traced );
          ("captured votes verify under replay", replayed.Report.crypto.Replay.votes_verified);
          ( "core + mempool.take + sim.loop self time = traced loop wall within 1%",
            Float.abs (parts -. loop_s) <= 0.01 *. loop_s );
          finite_check metrics;
        ];
    attempted = attempted untraced;
    failed = failed untraced;
    notes =
      Printf.sprintf
        "loop walls: warm-up %.3f s, traced %.3f s, untraced %.3f s, traced again %.3f s"
        (Report.sum Runner.loop_s warm_up)
        loop_s
        (Report.sum Runner.loop_s untraced)
        (Report.sum Runner.loop_s traced_again)
      :: Printf.sprintf "layer self time %.4f s of traced loop %.4f s" parts loop_s
      :: latency_notes untraced;
  }
