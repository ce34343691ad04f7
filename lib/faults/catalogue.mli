(** The standard fault-scenario catalogue exercised by [bench faults] and
    [test_faults]: leader crashes at each phase, cascading leader failures,
    crash/recover churn, partitions, pre-GST message loss, and one scenario
    per {!Scenario.behaviour}. *)

val leader_crash : ?f:int -> ?phase:[ `Prepare | `Commit ] -> unit -> Scenario.t
(** Crash the view-0 leader mid-phase. [?f] scales the cluster ([n = 3f + 1])
    so view-change traffic can be compared across sizes. *)

val cascading_leaders : ?f:int -> unit -> Scenario.t

val crash_recover : Scenario.t
val partition_heal : Scenario.t
val pre_gst_churn : Scenario.t
val equivocating_leader : Scenario.t
val silent_leader : Scenario.t
val vote_withholder : Scenario.t
val stale_qc_voter : Scenario.t

val steady : ?crashed:int list -> run_for:float -> unit -> Scenario.t
(** A run of [run_for] seconds with no fault, or with the [crashed]
    replicas down from t = 0 (the rotating-leader runs of Figure 10j). *)

val view_change : unhappy:bool -> base_timeout:float -> Scenario.t
(** Figure 10i's crash-the-leader view change: warm up for 2 s, crash the
    view-0 leader, and run for four [base_timeout]s plus 5 s more. With
    [unhappy], the leader's proposals reach only replica 1 for the 0.3 s
    before its crash. Replica 1 then votes for one more block than
    everyone else, so the last-voted blocks diverge and the next leader's
    snapshot cannot take the happy path. That block's QC never forms and
    the blocks before it keep committing everywhere, so every replica's
    view timer stays aligned. Not in {!all}. *)

val all : Scenario.t list
(** Every catalogue scenario at its default size, catalogue order. *)

val find : string -> Scenario.t option
(** Look a scenario up by name in {!all}. *)
