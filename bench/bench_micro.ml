(* Bechamel micro-benchmarks: real CPU costs of the substrate primitives
   (hashing, the simulated signatures, the codec, the event queue). These
   are measurements of THIS implementation; the simulator's protocol-level
   CPU accounting instead uses the calibrated Cost_model figures for real
   ECDSA/BLS, as explained in DESIGN.md. *)

open Bechamel
open Toolkit
module Sha256 = Marlin_crypto.Sha256
module Hmac = Marlin_crypto.Hmac
module Keychain = Marlin_crypto.Keychain
module Threshold = Marlin_crypto.Threshold
open Marlin_types

let kc = Keychain.create ~n:31 ()
let payload_1k = String.make 1024 'p'
let payload_64k = String.make 65536 'q'

let sample_block =
  let qc = Qc.genesis in
  Block.make_normal ~parent:Block.genesis ~view:1
    ~payload:(Batch.of_list (List.init 64 (fun i ->
        Operation.make ~client:1 ~seq:i ~body:(String.make 150 'x'))))
    ~justify:(Block.J_qc qc)

let sample_msg =
  Message.make ~sender:0 ~view:1
    (Message.Propose { block = sample_block; justify = High_qc.genesis })

let encoded_msg = Message.encode_string sample_msg

let partials =
  List.init 21 (fun i -> Threshold.sign kc ~signer:i "digest-to-certify")

let resident_queue =
  let q = Marlin_sim.Event_queue.create () in
  Marlin_sim.Event_queue.push q ~time:60.0 (-1);
  for i = 0 to 3999 do
    Marlin_sim.Event_queue.push q ~time:(float_of_int (i * 7919 mod 50) *. 1e-3) i
  done;
  q

(* A pool that has committed 100k operations (about what each replica
   executes in a perfbench churn-n16 run), and 1000 of them spread over
   its table: committing one again is a single probe into that table. *)
let committed_pool, recommits =
  let m = Marlin_runtime.Mempool.create () in
  let op i = Operation.make ~client:(i mod 997) ~seq:i ~body:"" in
  for i = 0 to 99_999 do
    ignore (Marlin_runtime.Mempool.commit m (op i))
  done;
  (m, Array.init 1000 (fun i -> op (i * 100)))

let vote_tag_key = Hmac.prepare "replica 3 secret"

let vote_payload =
  Qc.vote_payload ~phase:Qc.Prepare ~view:42
    {
      Qc.digest = Block.digest sample_block;
      block_view = 1;
      height = 1;
      pview = 0;
      is_virtual = false;
    }

let tests =
  [
    Test.make ~name:"sha256 1KiB" (Staged.stage (fun () -> Sha256.string payload_1k));
    Test.make ~name:"sha256 64KiB" (Staged.stage (fun () -> Sha256.string payload_64k));
    Test.make ~name:"hmac-sha256 1KiB"
      (Staged.stage (fun () -> Hmac.mac ~key:"k" payload_1k));
    Test.make ~name:"hmac vote tag"
      (Staged.stage (fun () -> Hmac.mac_prepared ~key:vote_tag_key vote_payload));
    Test.make ~name:"sim-sign"
      (Staged.stage (fun () -> Marlin_crypto.Signature.sign kc ~signer:3 "msg"));
    Test.make ~name:"threshold combine (21/31)"
      (Staged.stage (fun () ->
           Threshold.combine kc ~threshold:21 "digest-to-certify" partials));
    Test.make ~name:"block digest (64 ops)"
      (Staged.stage (fun () ->
           (* defeat the cache: rebuild the block *)
           let b =
             Block.make_normal ~parent:Block.genesis ~view:1
               ~payload:sample_block.Block.payload ~justify:sample_block.Block.justify
           in
           Block.digest b));
    Test.make ~name:"message encode (64-op proposal)"
      (Staged.stage (fun () -> Message.encode_string sample_msg));
    Test.make ~name:"message decode"
      (Staged.stage (fun () -> Message.decode_string encoded_msg));
    Test.make ~name:"event queue push+pop x100"
      (Staged.stage (fun () ->
           let q = Marlin_sim.Event_queue.create () in
           for i = 0 to 99 do
             Marlin_sim.Event_queue.push q ~time:(float_of_int (i * 7919 mod 100)) i
           done;
           while not (Marlin_sim.Event_queue.is_empty q) do
             ignore (Marlin_sim.Event_queue.pop q)
           done));
    Test.make ~name:"event queue push+pop x100 (4k held, 1 at +60 s)"
      (Staged.stage (fun () ->
           (* a long run's shape: thousands of entries due within ~50 ms
              and one (crash schedule, end sentinel) 60 s ahead, which
              stays that far ahead when it pops *)
           for i = 0 to 99 do
             match Marlin_sim.Event_queue.pop resident_queue with
             | Some (time, v) ->
                 let delay =
                   if v < 0 then 60.0
                   else float_of_int ((i * 7919) land 63) *. 1e-3
                 in
                 Marlin_sim.Event_queue.push resident_queue ~time:(time +. delay) v
             | None -> ()
           done));
    Test.make ~name:"mempool commit x1000 (100k keys committed)"
      (Staged.stage (fun () ->
           Array.iter
             (fun op -> ignore (Marlin_runtime.Mempool.commit committed_pool op))
             recommits));
  ]

let run () =
  Printf.printf "\n=== Micro-benchmarks (Bechamel; monotonic clock) ===\n%!";
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false
          ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-34s %12.1f ns/op\n%!" name est
          | _ -> Printf.printf "%-34s (no estimate)\n%!" name)
        analyzed)
    tests
