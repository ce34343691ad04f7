(* Replay microbenchmarks: the traced run's captured inputs (message mix,
   vote payloads, quorum size, op stream, peak occupancies, arrival
   process) fed back through the program's public functions, so the
   per-call costs are those of the workload's own inputs. Each figure is
   the median of five timed rounds. *)

module Message = Marlin_types.Message
module Qc = Marlin_types.Qc
module Batch = Marlin_types.Batch
module Keychain = Marlin_crypto.Keychain
module Threshold = Marlin_crypto.Threshold
module Sha256 = Marlin_crypto.Sha256
module Mempool = Marlin_runtime.Mempool
module Event_queue = Marlin_sim.Event_queue
module Rng = Marlin_sim.Rng
module Arrival = Marlin_workload.Arrival

let rounds = 5
let min_ns = 5_000_000

(* ns per call of [f i], [i] counting from 0; each round runs whole
   chunks of 64 calls until at least [min_ns] has passed. *)
let ns_per_call f =
  let round () =
    let t0 = Probe.now () in
    let calls = ref 0 in
    while Probe.now () - t0 < min_ns do
      for _ = 1 to 64 do
        f !calls;
        incr calls
      done
    done;
    float_of_int (Probe.now () - t0) /. float_of_int !calls
  in
  Runner.median (List.init rounds (fun _ -> round ()))

(* ns per element when each round needs fresh inputs built untimed *)
let ns_per_item ~prepare ~run =
  Runner.median
    (List.init rounds (fun _ ->
         let input = prepare () in
         let t0 = Probe.now () in
         let items = run input in
         float_of_int (Probe.now () - t0) /. float_of_int (Int.max 1 items)))

type vote = { phase : Qc.phase; view : int; block : Qc.block_ref; partial : Threshold.partial }

let votes_of msgs =
  List.filter_map
    (fun (m : Message.t) ->
      match m.Message.payload with
      | Message.Vote { kind; block; partial; _ } ->
          Some { phase = kind; view = m.Message.view; block; partial }
      | _ -> None)
    msgs

type crypto = {
  sign_ns : float;
  verify_ns : float;
  combine_ns : float;
  sha256_ns_per_kib : float;
  votes_verified : bool;  (** every captured vote verifies under replay *)
}

let crypto ~n ~quorum ~votes ~msgs =
  let kc = Keychain.create ~n () in
  let votes = Array.of_list (votes_of votes) in
  let nv = Array.length votes in
  if nv = 0 then failwith "Replay.crypto: no votes captured";
  let payload v = Qc.vote_payload ~phase:v.phase ~view:v.view v.block in
  let payloads = Array.map payload votes in
  let votes_verified =
    Array.for_all
      (fun v -> Qc.verify_vote kc ~phase:v.phase ~view:v.view v.block v.partial)
      votes
  in
  let sign_ns =
    ns_per_call (fun i ->
        ignore (Threshold.sign kc ~signer:(i mod n) payloads.(i mod nv)))
  in
  let verify_ns =
    ns_per_call (fun i ->
        let v = votes.(i mod nv) in
        ignore (Qc.verify_vote kc ~phase:v.phase ~view:v.view v.block v.partial))
  in
  let shares =
    Array.init (Int.min nv 16) (fun j ->
        List.init quorum (fun s -> Threshold.sign kc ~signer:s payloads.(j)))
  in
  let ns_shares = Array.length shares in
  let combine_ns =
    ns_per_call (fun i ->
        let j = i mod ns_shares in
        match Threshold.combine kc ~threshold:quorum payloads.(j) shares.(j) with
        | Ok _ -> ()
        | Error e -> failwith ("Replay.crypto: combine failed: " ^ e))
  in
  let encoded = Array.of_list (List.map Message.encode_string msgs) in
  let ne = Array.length encoded in
  let mean_bytes =
    float_of_int (Array.fold_left (fun a s -> a + String.length s) 0 encoded)
    /. float_of_int ne
  in
  let sha_ns = ns_per_call (fun i -> ignore (Sha256.string encoded.(i mod ne))) in
  { sign_ns; verify_ns; combine_ns; sha256_ns_per_kib = sha_ns /. mean_bytes *. 1024.;
    votes_verified }

(* Sizing is timed on fresh decoded copies: a batch caches its size after
   the first call, and the simulator sizes each message once. *)
let types ~sig_bytes ~msgs =
  let encoded = List.map Message.encode_string msgs in
  let wire_size_ns =
    ns_per_item
      ~prepare:(fun () -> List.map Message.decode_string encoded)
      ~run:(fun copies ->
        List.iter (fun m -> ignore (Message.wire_size ~sig_bytes m)) copies;
        List.length copies)
  in
  let a = Array.of_list msgs in
  let na = Array.length a in
  let encode_ns = ns_per_call (fun i -> ignore (Message.encode_string a.(i mod na))) in
  (wire_size_ns, encode_ns)

(* The captured op stream added to a fresh pool with the workload's
   config; whenever the pool reaches the run's peak occupancy, one batch
   is taken and committed untimed, so the adds see the run's pool sizes. *)
let mempool_add ~config ~batch_max ~peak ~ops =
  let ops = Array.of_list ops in
  if Array.length ops = 0 then failwith "Replay.mempool_add: no ops captured";
  let peak = Int.max 1 peak in
  Runner.median
    (List.init rounds (fun _ ->
         let pool = Mempool.create ~config () in
         let timed = ref 0 in
         let i = ref 0 in
         while !i < Array.length ops do
           let t0 = Probe.now () in
           while !i < Array.length ops && Mempool.occupancy pool < peak do
             ignore (Mempool.add pool ops.(!i));
             incr i
           done;
           timed := !timed + (Probe.now () - t0);
           Mempool.mark_committed pool (Mempool.take pool ~max:batch_max)
         done;
         float_of_int !timed /. float_of_int (Array.length ops)))

(* Push+pop pairs on a queue held at the run's peak occupancy; each
   popped event is re-pushed an exponential delay later, its mean the
   residence time Little's law gives for the run (occupancy over events
   per sim-s). *)
let queue ~peak ~events_per_sim_s =
  let peak = Int.max 1 peak in
  let mean = float_of_int peak /. events_per_sim_s in
  let rng = Rng.create ~seed:0x9e37 in
  let delays = Array.init 4096 (fun _ -> Rng.exponential rng ~mean) in
  let q = Event_queue.create () in
  for i = 0 to peak - 1 do
    Event_queue.push q ~time:delays.(i land 4095) ()
  done;
  ns_per_call (fun i ->
      match Event_queue.pop q with
      | Some (time, ()) -> Event_queue.push q ~time:(time +. delays.(i land 4095)) ()
      | None -> failwith "Replay.queue: empty")

(* Arrival.Sampler.next for one source of the workload's process. *)
let sample ~rate ~sources =
  let s =
    Arrival.Sampler.create
      (Arrival.poisson ~rate:(rate /. float_of_int sources))
      ~rng:(Rng.create ~seed:0x51)
  in
  let now = ref 0. in
  ns_per_call (fun _ -> now := Arrival.Sampler.next s ~now:!now)
