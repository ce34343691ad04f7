(* The benchmark's workloads. All three are open-loop Poisson arrivals
   over one million client keys from four sources, against replicas with
   an 8000-slot mempool that admits four in-flight operations per client;
   each runs a Marlin variant and the matching HotStuff variant. The
   three stress different layers:

   - steady-n4: n = 4 at 12 000 op/s (about three quarters of the n = 4
     knee), 2000-op batches. Per-operation layers (arrival sampling,
     mempool admission and take, cluster accounting, the event queue) do
     most of the work and per-message layers little; the window is long
     enough for the growing-heap cost to show.
   - wide-n64: n = 64 (f = 21) at 1000 op/s. Per-message layers (vote
     handling, verify/combine, broadcast fan-out, NIC serialisation of n
     copies) do most of the work and the per-operation layers sit idle.
   - churn-n16: the basic (unchained) protocols at n = 16 (f = 5), 2000
     op/s, with the replica that currently leads crashed every 4 sim-s and
     recovered 3 s later: pacemaker timers, VIEW-CHANGE/NEW-VIEW, Marlin's
     PRE-PREPARE and virtual blocks, Fetch catch-up and operations stranded
     at crashed contacts.

   BENCHMARK.json lists wide-n64 and churn-n16 only: steady-n4's host
   time varies across runs on a shared host by more than the regression
   bound (see README.md), so it is kept for runs by hand. *)

module Cluster = Marlin_runtime.Cluster
module Mempool = Marlin_runtime.Mempool
module Workload = Marlin_workload.Workload
module Arrival = Marlin_workload.Arrival

type t = {
  name : string;
  why : string;
  protocols : (string * string) list;
      (** (label in metric names, registry name) *)
  n : int;
  rate : float;  (** offered op/s *)
  warmup : float;  (** sim-s before the measurement window opens *)
  window : float;  (** sim-s measured *)
  churn : bool;
}

(* Leader churn: a crash every [crash_every] sim-s from the window's
   opening, each recovered [down_for] later. Recovery and the fault-free
   commit gaps are both measured over slots of this length. *)
let crash_every = 4.0
let down_for = 3.0

let all =
  [
    {
      name = "steady-n4";
      why =
        "n=4 happy path at 3/4 of the knee: per-op layers (arrivals, mempool, \
         accounting, event queue) dominate";
      protocols = [ ("marlin", "chained-marlin"); ("hotstuff", "chained-hotstuff") ];
      n = 4;
      rate = 12_000.;
      warmup = 1.0;
      window = 10.0;
      churn = false;
    };
    {
      name = "wide-n64";
      why =
        "n=64 at 1k op/s: per-message layers (votes, verify/combine, fan-out, \
         NIC copies) dominate; Marlin's linear authenticators show";
      protocols = [ ("marlin", "chained-marlin"); ("hotstuff", "chained-hotstuff") ];
      n = 64;
      rate = 1_000.;
      warmup = 1.0;
      window = 12.0;
      churn = false;
    };
    {
      name = "churn-n16";
      why =
        "n=16, leader crashed every 4 sim-s: view-change path, pacemaker \
         timers, catch-up and ops stranded at crashed contacts";
      protocols = [ ("marlin", "marlin"); ("hotstuff", "hotstuff") ];
      n = 16;
      rate = 2_000.;
      warmup = 1.0;
      window = 64.0;
      churn = true;
    };
  ]

(* The traced loop notes its wall clock every [segment] sim-s; every workload's
   warm-up and quarter-window boundaries fall on this grid. *)
let segment = 0.5

let until w = w.warmup +. w.window

let marks w =
  Array.init
    (int_of_float (Float.round (until w /. segment)))
    (fun i -> float_of_int (i + 1) *. segment)

let find name = List.find_opt (fun w -> String.equal w.name name) all
let names () = List.map (fun w -> w.name) all

(* Starts of the 4 s slots, from the window's opening, over which commit
   gaps are measured: on churn-n16 each is a leader crash; the last slot
   must end inside the window. *)
let slot_starts w =
  let rec go t acc =
    if t +. crash_every > until w +. 1e-9 then List.rev acc
    else go (t +. crash_every) (t :: acc)
  in
  go w.warmup []

(* The seed is the only input taken from the command line, and it goes to
   the cluster and nowhere else. *)
let params w ~seed =
  let f = (w.n - 1) / 3 in
  let base_timeout = 1.0 +. (float_of_int w.n *. 0.04) in
  {
    Cluster.default_params with
    Cluster.n = w.n;
    f;
    workload =
      Workload.open_loop ~sources:4
        ~arrival:(Arrival.poisson ~rate:w.rate)
        ~key_space:1_000_000 ();
    mempool = Mempool.Config.make ~capacity:8_000 ~per_client_cap:4 ();
    batch_max = 2000;
    base_timeout;
    max_timeout = 8. *. base_timeout;
    seed;
  }
