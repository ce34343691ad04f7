(** The experiment behind every figure: one cluster, one fault scenario,
    one measurement window ({!run}), plus the selections over runs
    (peak throughput, the open-loop knee) and the bottleneck attribution
    at the knee. *)

(** The result of one run, with one JSON projection per experiment family
    so every harness (bench targets, tests, ad-hoc scripts) reports it the
    same way. Every field is measured on every run; a projection renders
    only the fields its family reads. *)
module Result : sig
  type t = {
    scenario : string;  (** the scenario's name *)
    workload : string;  (** {!Marlin_workload.Workload.label} of the load *)
    clients : int;  (** closed-loop clients; [0] for an open loop *)
    executed : int;
        (** ops executed at the probe replica in the window
            [[warmup, run_for]] *)
    throughput : float;  (** [executed] per second of the window *)
    committed : int;  (** ops executed at the probe replica over the run *)
    latency : Marlin_analysis.Stats.summary;
        (** client latency in the window, seconds; for an open loop,
            submit to first commit with p999, measured per offered op (no
            coordinated omission) *)
    agreement : bool;  (** did all live replicas agree? *)
    offered : float;  (** mean offered load, ops/s (open loop; else 0) *)
    goodput : float;
        (** unique ops committed per second in the window (open loop) *)
    generated : int;  (** arrivals offered in the window (open loop) *)
    sent : int;  (** put on the wire, not shed (open loop) *)
    shed : int;  (** shed at the source on backpressure (open loop) *)
    rejected : int;
        (** rejected by admission control at the contact (open loop) *)
    drop_rate : float;  (** (shed + rejected) / generated (open loop) *)
    peak_occupancy : int;
        (** max mempool occupancy at any replica in the window (open loop) *)
    recovered : bool;
        (** did the probe replica commit after the scenario's [settle_at]? *)
    recovery_latency : float;
        (** seconds from [settle_at] to the probe's first commit
            afterwards; [-1] when it never recovered *)
    recovery_messages : int;
        (** consensus messages from the first fault to that commit (to the
            end of the run when there is none) *)
    recovery_bytes : int;
    recovery_authenticators : int;
    vc_latency : float;
        (** seconds from the first timeout escalation (the scenario's
            [settle_at] when none happened) to replica 1's first commit
            afterwards; [-1] when the view change never completed *)
    unhappy : bool;
        (** did a PRE-PREPARE cross the network (Marlin's unhappy path)? *)
    vc_messages : int;  (** consensus messages in the view-change window *)
    vc_bytes : int;
    vc_authenticators : int;
  }

  val zero : t
  (** Every count and rate zero, both latencies [-1], the latency summary
      empty, [agreement] true: a base for synthetic results. *)

  val throughput_to_json : t -> string
  (** clients, throughput, latency, agreement, executed *)

  val view_change_to_json : t -> string
  (** vc_latency, unhappy and the view-change traffic *)

  val fault_to_json : t -> string
  (** scenario, recovery, the recovery traffic (under [vc_*] keys),
      committed, agreement, latency *)

  val open_loop_to_json : t -> string
  (** the workload, the offered-load and drop accounting, occupancy,
      latency tail and agreement *)
end

val run :
  Marlin_core.Consensus_intf.protocol -> params:Cluster.params ->
  warmup:float -> Marlin_faults.Scenario.t -> Result.t
(** The one experiment: build the cluster from [params], play the
    scenario's steps against it ([Cluster.apply_scenario]; the protocol is
    wrapped with [Marlin_faults.Byzantine.wrap] when the script has
    Byzantine steps), run it to the scenario's [run_for], and measure.

    The measurement window is [[warmup, run_for]]; an open-loop workload's
    counters are reset at [warmup]. Throughput, recovery and the run's
    totals are read at the probe replica: the highest id that is neither
    crashed at the end nor Byzantine. The view-change fields are read at
    replica 1. When [params.obs] carries a windowed timeseries, the trace's
    critical-path segments are folded into its windows after the run.

    Steady runs pass {!Marlin_faults.Catalogue.steady}; fault scenarios
    pass [~warmup:0.], so [latency] covers the whole run. *)

val critical_path :
  ?label:string -> Marlin_obs.Run.t -> Marlin_obs.Critical_path.t
(** Span reconstruction + critical-path attribution over the run's trace
    (empty analysis when the run was not traced). *)

val profile_json :
  label:string -> sim_seconds:float -> Result.t ->
  Marlin_obs.Run.t -> string
(** The per-protocol record of the machine-readable bench output:
    throughput, commit-latency histogram, consensus messages and
    authenticators per committed block, and — when traced — the
    critical-path phase breakdown ([null] otherwise). *)

val peak :
  ?latency_cap:float ->
  Result.t list ->
  Result.t * [ `Within_cap | `Fallback ]
(** The point with the highest throughput among those whose mean latency is
    within [latency_cap] (default: none). The paper's throughput/latency
    figures plot latency up to 1 s, so its "peak throughput" is the best
    point in that range; pass [~latency_cap:1.0] to match. When no point
    qualifies the overall maximum is returned tagged [`Fallback] — a
    saturated point, which callers must not report as a sustainable peak.
    @raise Invalid_argument on the empty list. *)

val knee :
  ?latency_cap:float ->
  Result.t list ->
  Result.t * [ `Within_cap | `Fallback ]
(** Max sustainable throughput: the highest-goodput point whose p99
    latency is within [latency_cap] (default 1 s). [`Fallback] means every
    point blew the cap — the curve never left saturation, so the returned
    maximum is not sustainable.
    @raise Invalid_argument on the empty list. *)

(* -- bottleneck attribution at the knee -- *)

type attributed_point = {
  point : Result.t;
  verdict : Marlin_obs.Bottleneck.verdict;
  timeseries : Marlin_obs.Timeseries.t;
}

type attribution = {
  protocol : string;  (** the caller's display name for the protocol *)
  n : int;
  knee_point : Result.t;  (** from the cheap untraced ladder *)
  sustainable : bool;  (** was the knee within the latency cap? *)
  at_knee : attributed_point;  (** re-run, traced, at the knee rate *)
  past_knee : attributed_point;  (** re-run just past the knee — what broke *)
}

val what_breaks_first : attribution -> Marlin_obs.Bottleneck.t
(** The past-knee verdict: the resource that binds once the offered load
    exceeds the sustainable rate. *)

val attribute_knee :
  ?latency_cap:float -> ?window:float -> ?drop_threshold:float ->
  Marlin_core.Consensus_intf.protocol -> name:string ->
  params:Cluster.params -> warmup:float -> duration:float ->
  rates:float list -> attribution
(** Run the open-loop ladder (one steady {!run} of [warmup + duration]
    seconds per rate in [rates], [params.workload] re-targeted via
    {!Marlin_workload.Workload.with_rate}; untraced — locating the knee
    must not pay tracing costs), find the {!knee} under [latency_cap]
    (default 1 s), then re-run at the knee rate and at the next ladder
    rate above it (knee × 1.5 when the knee is the top rung) with a fresh
    traced run carrying windows of width [window] (default 0.25 s), and
    {!Marlin_obs.Bottleneck.classify} both points. *)

val attributed_point_to_json : ?windows:bool -> attributed_point -> string
(** [windows] (default false) inlines the full per-window timeseries. *)

val attribution_to_json : attribution -> string
(** The marlin-bench/1 record: protocol, n, sustainability, the headline
    verdict, the knee point, and both attributed points (per-window
    timeseries inlined for the past-knee point). *)
