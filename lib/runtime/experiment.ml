module C = Marlin_core.Consensus_intf
module Stats = Marlin_analysis.Stats
module Netsim = Marlin_sim.Netsim
module Sim = Marlin_sim.Sim
module Workload = Marlin_workload.Workload
module Faults = Marlin_faults
module Scenario = Marlin_faults.Scenario
module Obs = Marlin_obs

module Result = struct
  type t = {
    scenario : string;
    workload : string;
    clients : int;
    executed : int;
    throughput : float;
    committed : int;
    latency : Stats.summary;
    agreement : bool;
    offered : float;
    goodput : float;
    generated : int;
    sent : int;
    shed : int;
    rejected : int;
    drop_rate : float;
    peak_occupancy : int;
    recovered : bool;
    recovery_latency : float;
    recovery_messages : int;
    recovery_bytes : int;
    recovery_authenticators : int;
    vc_latency : float;
    unhappy : bool;
    vc_messages : int;
    vc_bytes : int;
    vc_authenticators : int;
  }

  let zero =
    {
      scenario = "";
      workload = "";
      clients = 0;
      executed = 0;
      throughput = 0.;
      committed = 0;
      latency = Stats.summarize [];
      agreement = true;
      offered = 0.;
      goodput = 0.;
      generated = 0;
      sent = 0;
      shed = 0;
      rejected = 0;
      drop_rate = 0.;
      peak_occupancy = 0;
      recovered = false;
      recovery_latency = -1.;
      recovery_messages = 0;
      recovery_bytes = 0;
      recovery_authenticators = 0;
      vc_latency = -1.;
      unhappy = false;
      vc_messages = 0;
      vc_bytes = 0;
      vc_authenticators = 0;
    }

  (* -- JSON: one field-list renderer behind every projection -- *)

  (* Every projection is an [obj] of [fld_*] combinators: field names and
     formats live in exactly one list per projection, so adding one (or a
     field) cannot drift from the others' conventions. *)
  let obj fields = "{" ^ String.concat "," fields ^ "}"
  let fld_int key v = Printf.sprintf {|"%s":%d|} key v
  let fld_float key ~dp v = Printf.sprintf {|"%s":%.*f|} key dp v
  let fld_bool key v = Printf.sprintf {|"%s":%b|} key v
  let fld_str key v = Printf.sprintf {|"%s":"%s"|} key v
  let fld_raw key v = Printf.sprintf {|"%s":%s|} key v

  let summary_json (s : Stats.summary) =
    obj
      [
        fld_int "count" s.Stats.count;
        fld_float "mean" ~dp:6 s.Stats.mean;
        fld_float "p50" ~dp:6 s.Stats.p50;
        fld_float "p95" ~dp:6 s.Stats.p95;
        fld_float "p99" ~dp:6 s.Stats.p99;
        fld_float "p999" ~dp:6 s.Stats.p999;
        fld_float "min" ~dp:6 s.Stats.min;
        fld_float "max" ~dp:6 s.Stats.max;
      ]

  let throughput_to_json r =
    obj
      [
        fld_int "clients" r.clients;
        fld_float "throughput" ~dp:2 r.throughput;
        fld_raw "latency" (summary_json r.latency);
        fld_bool "agreement" r.agreement;
        fld_int "executed" r.executed;
      ]

  let view_change_to_json r =
    obj
      [
        fld_float "vc_latency" ~dp:6 r.vc_latency;
        fld_bool "unhappy" r.unhappy;
        fld_int "vc_bytes" r.vc_bytes;
        fld_int "vc_authenticators" r.vc_authenticators;
        fld_int "vc_messages" r.vc_messages;
      ]

  (* the record's vc_* keys are the recovery window's traffic *)
  let fault_to_json r =
    obj
      [
        fld_str "scenario" r.scenario;
        fld_bool "recovered" r.recovered;
        fld_float "recovery_latency" ~dp:6 r.recovery_latency;
        fld_int "vc_messages" r.recovery_messages;
        fld_int "vc_bytes" r.recovery_bytes;
        fld_int "vc_authenticators" r.recovery_authenticators;
        fld_int "committed" r.committed;
        fld_bool "agreement" r.agreement;
        fld_raw "latency" (summary_json r.latency);
      ]

  let open_loop_to_json r =
    obj
      [
        fld_str "workload" r.workload;
        fld_float "offered" ~dp:2 r.offered;
        fld_float "goodput" ~dp:2 r.goodput;
        fld_int "generated" r.generated;
        fld_int "sent" r.sent;
        fld_int "shed" r.shed;
        fld_int "rejected" r.rejected;
        fld_float "drop_rate" ~dp:6 r.drop_rate;
        fld_int "peak_occupancy" r.peak_occupancy;
        fld_raw "latency" (summary_json r.latency);
        fld_bool "agreement" r.agreement;
      ]
end

(* Meter consensus traffic with timestamps: installs [net]'s send hook and
   returns [window], which sums (bytes, authenticators, messages) sent in
   [start, stop] once the run is over. *)
let consensus_meter net sim =
  let events = ref [] in
  Netsim.on_send net
    (Some
       (fun ~src:_ ~dst:_ ~size m ->
         if Obs.Metrics.is_consensus_message m then
           events :=
             (Sim.now sim, size, Marlin_types.Message.authenticators m)
             :: !events));
  fun ~start ~stop ->
    List.fold_left
      (fun (b, a, m) (time, size, auths) ->
        if time >= start && time <= stop then (b + size, a + auths, m + 1)
        else (b, a, m))
      (0, 0, 0) !events

let run (module P : C.PROTOCOL) ~params ~warmup (sc : Scenario.t) =
  (* Byzantine behaviours are switched on by inserting into this table at
     the scripted instant; the wrapper consults it on every callback. *)
  let plan : (int, Faults.Byzantine.behaviour) Hashtbl.t = Hashtbl.create 4 in
  let proto : C.protocol =
    if Scenario.has_byzantine sc then
      Faults.Byzantine.wrap
        ~plan:(Faults.Byzantine.plan_of_table plan)
        (module P)
    else (module P)
  in
  let module W = (val proto) in
  let module Cl = Cluster.Make (W) in
  let t = Cl.create params in
  let traffic = consensus_meter (Cl.net t) (Cl.sim t) in
  Cl.apply_scenario t sc ~on_byzantine:(fun id b -> Hashtbl.replace plan id b);
  let workload = params.Cluster.workload in
  let open_loop = Workload.is_open workload in
  if open_loop then
    Sim.schedule_at (Cl.sim t) ~time:warmup (fun () ->
        Cl.open_loop_reset_window t);
  let run_for = sc.Scenario.run_for in
  Cl.run t ~until:run_for;
  (* fold the trace's critical-path segments into the windows the live
     feeds filled, so each window also carries segment seconds *)
  Option.iter
    (fun obs ->
      Option.iter
        (fun ts ->
          Obs.Timeseries.bin_segments ts
            (Obs.Span.reconstruct (Obs.Run.trace_events obs)))
        (Obs.Run.timeseries obs))
    params.Cluster.obs;
  (* the probe: the highest-id replica that is neither dead at the end nor
     Byzantine (low ids answer clients) *)
  let dead = Scenario.crashed_at_end sc in
  let byz = List.map fst (Scenario.byzantine sc) in
  let rec probe id =
    if id > 0 && (List.mem id dead || List.mem id byz) then probe (id - 1)
    else id
  in
  let probe = probe (params.Cluster.n - 1) in
  let duration = run_for -. warmup in
  let executed =
    Cl.committed_ops_in t ~replica:probe ~since:warmup ~until:run_for
  in
  let per_second count = float_of_int count /. duration in
  (* recovery: from [settle_at] to the probe's first commit afterwards, and
     the consensus traffic from the first fault to that commit *)
  let settle = sc.Scenario.settle_at in
  let recovery_commit = Cl.first_commit_after t ~replica:probe settle in
  let recovery_bytes, recovery_auths, recovery_msgs =
    traffic
      ~start:(Scenario.first_fault_at sc)
      ~stop:(Option.value recovery_commit ~default:run_for)
  in
  (* view change: from the first timeout escalation to replica 1's first
     commit afterwards *)
  let vc_start = Option.value (Cl.view_change_start t) ~default:settle in
  let vc_commit = Cl.first_commit_after t ~replica:1 vc_start in
  let vc_bytes, vc_auths, vc_msgs =
    traffic ~start:vc_start ~stop:(Option.value vc_commit ~default:run_for)
  in
  let r =
    {
      Result.zero with
      scenario = sc.Scenario.name;
      workload = Workload.label workload;
      clients = Workload.closed_clients workload;
      executed;
      throughput = per_second executed;
      committed = Cl.total_executed t ~replica:probe;
      agreement = Cl.check_agreement t;
      recovered = Option.is_some recovery_commit;
      recovery_latency =
        (match recovery_commit with Some c -> c -. settle | None -> -1.);
      recovery_messages = recovery_msgs;
      recovery_bytes;
      recovery_authenticators = recovery_auths;
      vc_latency =
        (match vc_commit with Some c -> c -. vc_start | None -> -1.);
      unhappy = Cl.pre_prepare_seen t;
      vc_messages = vc_msgs;
      vc_bytes;
      vc_authenticators = vc_auths;
    }
  in
  if open_loop then
    let s = Cl.open_loop_stats t in
    {
      r with
      offered = Option.value (Workload.offered_rate workload) ~default:0.;
      goodput = per_second s.Cluster.completed;
      generated = s.Cluster.generated;
      sent = s.Cluster.sent;
      shed = s.Cluster.shed;
      rejected = s.Cluster.rejected;
      drop_rate =
        (if s.Cluster.generated = 0 then 0.
         else
           float_of_int (s.Cluster.shed + s.Cluster.rejected)
           /. float_of_int s.Cluster.generated);
      peak_occupancy = s.Cluster.peak_occupancy;
      latency = s.Cluster.latency;
    }
  else
    {
      r with
      latency =
        Stats.summarize (Cl.latencies_in t ~since:warmup ~until:run_for);
    }

let critical_path ?label obs =
  Obs.Critical_path.analyze ?label (Obs.Span.reconstruct (Obs.Run.trace_events obs))

(* The machine-readable per-protocol record the bench JSON emitter writes:
   throughput, commit latency, message/authenticator cost per block, and —
   when the run was traced — the critical-path phase breakdown. *)
let profile_json ~label ~sim_seconds (r : Result.t) obs =
  let metrics = Obs.Run.metrics obs in
  let total_msgs, total_auths =
    Array.fold_left
      (fun (m, a) reg ->
        let c = Obs.Metrics.consensus_sent reg in
        (m + c.Obs.Metrics.msgs, a + c.Obs.Metrics.auths))
      (0, 0) metrics
  in
  let blocks =
    Array.fold_left
      (fun acc reg -> max acc (Obs.Metrics.blocks_committed reg))
      0 metrics
  in
  let per_block v =
    if blocks = 0 then 0. else float_of_int v /. float_of_int blocks
  in
  let breakdown =
    match Obs.Run.trace_events obs with
    | [] -> "null"
    | _ -> Obs.Critical_path.to_json (critical_path ~label obs)
  in
  Printf.sprintf
    {|{"label":"%s","sim_seconds":%.3f,"throughput":%s,"blocks_committed":%d,"msgs_per_block":%.4f,"auths_per_block":%.4f,"commit_latency":%s,"phase_breakdown":%s}|}
    label sim_seconds
    (Result.throughput_to_json r)
    blocks (per_block total_msgs) (per_block total_auths)
    (Result.summary_json (Obs.Metrics.commit_latency metrics.(0)))
    breakdown

(* The point with the highest [score] among those [within] the cap, tagged
   [`Fallback] (the overall best) when none is. *)
let best_within ~what ~score ~within = function
  | [] -> invalid_arg what
  | first :: _ as points ->
      let best =
        List.fold_left (fun acc r -> if score r > score acc then r else acc) first
      in
      (match List.filter within points with
      | [] -> (best points, `Fallback)
      | ok -> (best ok, `Within_cap))

let peak ?latency_cap results =
  (* every point blew the cap: the best point is saturated, not a
     sustainable peak — the tag forces callers to say so *)
  best_within ~what:"Experiment.peak: no results"
    ~score:(fun (r : Result.t) -> r.Result.throughput)
    ~within:(fun (r : Result.t) ->
      match latency_cap with
      | None -> true
      | Some cap -> r.Result.latency.Stats.mean <= cap)
    results

let knee ?(latency_cap = 1.0) points =
  best_within ~what:"Experiment.knee: no points"
    ~score:(fun (r : Result.t) -> r.Result.goodput)
    ~within:(fun (r : Result.t) -> r.Result.latency.Stats.p99 <= latency_cap)
    points

(* ---------- attribution: why the knee is where it is ---------- *)

type attributed_point = {
  point : Result.t;
  verdict : Obs.Bottleneck.verdict;
  timeseries : Obs.Timeseries.t;
}

type attribution = {
  protocol : string;
  n : int;
  knee_point : Result.t;
  sustainable : bool;
  at_knee : attributed_point;
  past_knee : attributed_point;
}

let what_breaks_first a = a.past_knee.verdict.Obs.Bottleneck.bottleneck

let attribute_knee ?(latency_cap = 1.0) ?(window = 0.25) ?drop_threshold
    proto ~name ~params ~warmup ~duration ~rates =
  let steady = Faults.Catalogue.steady ~run_for:(warmup +. duration) () in
  let at_rate rate =
    {
      params with
      Cluster.workload = Workload.with_rate params.Cluster.workload ~rate;
    }
  in
  (* cheap untraced ladder to locate the knee, then two traced + windowed
     runs: at the knee rate and just past it *)
  let points =
    List.map (fun rate -> run proto ~params:(at_rate rate) ~warmup steady) rates
  in
  let k, cap = knee ~latency_cap points in
  let past_rate =
    match
      List.filter
        (fun r -> r > k.Result.offered +. 1e-9)
        (List.sort_uniq Float.compare rates)
    with
    | r :: _ -> r
    | [] -> k.Result.offered *. 1.5
  in
  let attributed_at rate =
    let obs =
      Obs.Run.create ~trace:true ~windows:window ~n:params.Cluster.n ()
    in
    let r =
      run proto ~params:{ (at_rate rate) with Cluster.obs = Some obs } ~warmup
        steady
    in
    let ts =
      match Obs.Run.timeseries obs with
      | Some ts -> ts
      | None -> assert false (* created with ~windows *)
    in
    let verdict =
      Obs.Bottleneck.classify ?drop_threshold ~latency_cap
        ~drop_rate:r.Result.drop_rate ~shed:r.Result.shed
        ~rejected:r.Result.rejected ~peak_occupancy:r.Result.peak_occupancy
        ~latency_p99:r.Result.latency.Stats.p99 ts
    in
    { point = r; verdict; timeseries = ts }
  in
  {
    protocol = name;
    n = params.Cluster.n;
    knee_point = k;
    sustainable = (match cap with `Within_cap -> true | `Fallback -> false);
    at_knee = attributed_at k.Result.offered;
    past_knee = attributed_at past_rate;
  }

let attributed_point_to_json ?(windows = false) p =
  Result.obj
    ([
       Result.fld_raw "point" (Result.open_loop_to_json p.point);
       Result.fld_raw "verdict" (Obs.Bottleneck.verdict_to_json p.verdict);
     ]
    @
    if windows then
      [
        Result.fld_raw "timeseries"
          (Obs.Timeseries.to_json ~label:"windows" p.timeseries);
      ]
    else [])

let attribution_to_json a =
  Result.obj
    [
      Result.fld_str "protocol" a.protocol;
      Result.fld_int "n" a.n;
      Result.fld_bool "sustainable" a.sustainable;
      Result.fld_str "verdict" (Obs.Bottleneck.name (what_breaks_first a));
      Result.fld_raw "knee" (Result.open_loop_to_json a.knee_point);
      Result.fld_raw "at_knee" (attributed_point_to_json a.at_knee);
      Result.fld_raw "past_knee"
        (attributed_point_to_json ~windows:true a.past_knee);
    ]
