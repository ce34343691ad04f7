(* Tests for the runtime layer: the mempool's dedup/requeue machinery and
   the cluster's measurement plumbing. *)

open Marlin_types
module Mempool = Marlin_runtime.Mempool
module Key_table = Marlin_runtime.Key_table
module Cluster = Marlin_runtime.Cluster
module Experiment = Marlin_runtime.Experiment
module Workload = Marlin_workload.Workload

let op ?(client = 1) seq = Operation.make ~client ~seq ~body:""

let admission =
  Alcotest.testable
    (fun fmt (a : Mempool.admission) ->
      Format.pp_print_string fmt
        (match a with
        | Mempool.Admitted -> "Admitted"
        | Mempool.Duplicate -> "Duplicate"
        | Mempool.Rejected Mempool.Pool_full -> "Rejected Pool_full"
        | Mempool.Rejected Mempool.Per_client_cap -> "Rejected Per_client_cap"))
    ( = )

(* ---------- mempool ---------- *)

let test_mempool_fifo () =
  let m = Mempool.create () in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "pending" 5 (Mempool.pending m);
  let taken = Mempool.take m ~max:3 in
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ]
    (List.map (fun o -> o.Operation.seq) taken);
  Alcotest.(check int) "pending after take" 2 (Mempool.pending m)

let test_mempool_dedup () =
  let m = Mempool.create () in
  Alcotest.check admission "first add" Mempool.Admitted (Mempool.add m (op 1));
  Alcotest.check admission "duplicate rejected" Mempool.Duplicate
    (Mempool.add m (op 1));
  Alcotest.check admission "same seq other client ok" Mempool.Admitted
    (Mempool.add m (op ~client:2 1));
  Alcotest.(check int) "two pending" 2 (Mempool.pending m)

let test_mempool_commit_clears () =
  let m = Mempool.create () in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2; 3 ];
  (* op 2 commits while still queued (another replica proposed it) *)
  Mempool.mark_committed m [ op 2 ];
  Alcotest.(check int) "pending drops" 2 (Mempool.pending m);
  let taken = Mempool.take m ~max:10 in
  Alcotest.(check (list int)) "committed op skipped" [ 1; 3 ]
    (List.map (fun o -> o.Operation.seq) taken);
  Alcotest.check admission "committed op cannot re-enter" Mempool.Duplicate
    (Mempool.add m (op 2));
  Alcotest.(check bool) "is_committed" true (Mempool.is_committed m (op 2));
  Alcotest.(check bool) "taken, not committed" false (Mempool.is_committed m (op 1))

(* The cluster executes an op only if its replica's pool does not hold it
   as committed, and marks it as it passes — so a key committed without
   ever reaching this pool (a block another leader batched) must read as
   committed and must not re-enter. *)
let test_mempool_commit_unseen () =
  let m = Mempool.create () in
  Alcotest.(check bool) "unknown op not committed" false
    (Mempool.is_committed m (op 7));
  Mempool.mark_committed m [ op 7 ];
  Alcotest.(check bool) "committed without add" true
    (Mempool.is_committed m (op 7));
  Alcotest.check admission "cannot enter after commit" Mempool.Duplicate
    (Mempool.add m (op 7));
  Alcotest.(check int) "nothing pending" 0 (Mempool.pending m);
  Alcotest.(check int) "no occupancy" 0 (Mempool.occupancy m)

let test_mempool_requeue_taken () =
  let m = Mempool.create () in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2; 3 ];
  let taken = Mempool.take m ~max:2 in
  Alcotest.(check int) "took two" 2 (List.length taken);
  (* op 1 commits; op 2's block was orphaned by a view change *)
  Mempool.mark_committed m [ op 1 ];
  Mempool.requeue_taken m;
  Alcotest.(check int) "op 2 back + op 3" 2 (Mempool.pending m);
  let again = Mempool.take m ~max:10 in
  Alcotest.(check bool) "orphaned op re-proposable" true
    (List.exists (fun o -> o.Operation.seq = 2) again);
  Alcotest.(check bool) "committed op stays out" true
    (not (List.exists (fun o -> o.Operation.seq = 1) again))

(* Regression for the batch-determinism bug: two replicas holding the
   same operation {e set} must propose byte-identical batches, whatever
   interleaving the network delivered the operations in. *)
let test_mempool_batch_canonical () =
  let ops = List.concat_map (fun c -> List.map (op ~client:c) [ 3; 1; 2 ]) [ 2; 1; 3 ] in
  let a = Mempool.create () and b = Mempool.create () in
  List.iter (fun o -> ignore (Mempool.add a o)) ops;
  List.iter (fun o -> ignore (Mempool.add b o)) (List.rev ops);
  let keys m = List.map Operation.key (Mempool.take m ~max:9) in
  Alcotest.(check (list (pair int int)))
    "insertion order does not leak into the batch" (keys a) (keys b);
  (* and a view change must re-propose in the same canonical order *)
  Mempool.requeue_taken a;
  Mempool.requeue_taken b;
  Alcotest.(check (list (pair int int)))
    "requeue is order-insensitive too" (keys a) (keys b)

let test_mempool_snapshot () =
  let m = Mempool.create () in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2; 3 ];
  ignore (Mempool.take m ~max:1);
  Mempool.mark_committed m [ op 3 ];
  let snap = Mempool.snapshot m in
  Alcotest.(check (list int)) "snapshot = pooled, uncommitted" [ 2 ]
    (List.map (fun o -> o.Operation.seq) snap);
  Alcotest.(check int) "snapshot does not consume" 1 (Mempool.pending m)

(* ---------- bounded pool: admission control ---------- *)

let test_mempool_capacity () =
  let m = Mempool.create ~config:(Mempool.Config.make ~capacity:3 ()) () in
  List.iter
    (fun s ->
      Alcotest.check admission "under capacity" Mempool.Admitted
        (Mempool.add m (op s)))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "backpressure at capacity" true (Mempool.backpressure m);
  Alcotest.check admission "over capacity" (Mempool.Rejected Mempool.Pool_full)
    (Mempool.add m (op 4));
  Alcotest.check admission "full-pool duplicate still reported Duplicate"
    Mempool.Duplicate (Mempool.add m (op 1));
  (* taking does not release occupancy — the ops are still in flight *)
  ignore (Mempool.take m ~max:2);
  Alcotest.(check int) "occupancy counts taken" 3 (Mempool.occupancy m);
  Alcotest.check admission "still full after take"
    (Mempool.Rejected Mempool.Pool_full) (Mempool.add m (op 4));
  (* commit releases occupancy and lifts the backpressure *)
  Mempool.mark_committed m [ op 1 ];
  Alcotest.(check bool) "backpressure released" false (Mempool.backpressure m);
  Alcotest.check admission "capacity freed by commit" Mempool.Admitted
    (Mempool.add m (op 4));
  let s = Mempool.stats m in
  Alcotest.(check int) "admitted" 4 s.Mempool.admitted;
  Alcotest.(check int) "rejected_full" 2 s.Mempool.rejected_full;
  Alcotest.(check int) "duplicates" 1 s.Mempool.duplicates;
  Alcotest.(check int) "peak occupancy" 3 s.Mempool.peak_occupancy

let test_mempool_per_client_cap () =
  let m = Mempool.create ~config:(Mempool.Config.make ~per_client_cap:2 ()) () in
  Alcotest.check admission "c1 first" Mempool.Admitted (Mempool.add m (op 1));
  Alcotest.check admission "c1 second" Mempool.Admitted (Mempool.add m (op 2));
  Alcotest.check admission "c1 capped" (Mempool.Rejected Mempool.Per_client_cap)
    (Mempool.add m (op 3));
  Alcotest.check admission "other client unaffected" Mempool.Admitted
    (Mempool.add m (op ~client:2 1));
  (* committing one of client 1's ops releases one slot *)
  Mempool.mark_committed m [ op 1 ];
  Alcotest.check admission "slot released by commit" Mempool.Admitted
    (Mempool.add m (op 3));
  Alcotest.(check int) "rejected_client_cap" 1
    (Mempool.stats m).Mempool.rejected_client_cap

(* ---------- bounded pool under pressure: qcheck invariants ---------- *)

(* A random interleaving of adds, takes, commits and requeues against a
   tightly bounded pool. Whatever the schedule:
   - occupancy never exceeds capacity, and stats add up,
   - no client ever holds more than [per_client_cap] in-flight ops,
   - committed keys never re-enter,
   - the batch order stays canonical in the face of rejections. *)

type pool_event =
  | E_add of int * int  (* client, seq *)
  | E_take of int
  | E_commit_taken
  | E_requeue

let pool_event_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun c s -> E_add (c, s)) (int_range 1 4) (int_range 1 12));
        (2, map (fun k -> E_take k) (int_range 1 4));
        (1, return E_commit_taken);
        (1, return E_requeue);
      ])

let pool_script_arb =
  QCheck.make
    ~print:(fun evs ->
      String.concat ";"
        (List.map
           (function
             | E_add (c, s) -> Printf.sprintf "add(%d,%d)" c s
             | E_take k -> Printf.sprintf "take(%d)" k
             | E_commit_taken -> "commit"
             | E_requeue -> "requeue")
           evs))
    QCheck.Gen.(list_size (int_range 1 80) pool_event_gen)

let capacity = 5
let per_client_cap = 2

let run_pool_script script =
  let m =
    Mempool.create
      ~config:(Mempool.Config.make ~capacity ~per_client_cap ())
      ()
  in
  let taken = ref [] (* taken, not yet committed or requeued *)
  and committed = ref [] in
  let inflight_per_client () =
    let tbl = Hashtbl.create 8 in
    let count o =
      let c = o.Operation.client in
      Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c))
    in
    List.iter count (Mempool.snapshot m);
    List.iter count !taken;
    Hashtbl.fold (fun _ v acc -> max v acc) tbl 0
  in
  List.iter
    (fun ev ->
      (match ev with
      | E_add (client, seq) ->
          let o = op ~client seq in
          (match Mempool.add m o with
          | Mempool.Admitted ->
              if List.exists (fun k -> Operation.key o = k) !committed then
                QCheck.Test.fail_report "committed key re-admitted"
          | Mempool.Duplicate | Mempool.Rejected _ -> ())
      | E_take k ->
          let batch = Mempool.take m ~max:k in
          (* canonical batch order survives rejections *)
          let keys = List.map Operation.key batch in
          if keys <> List.sort compare keys then
            QCheck.Test.fail_report "batch not in canonical key order";
          taken := batch @ !taken
      | E_commit_taken ->
          Mempool.mark_committed m !taken;
          committed := List.map Operation.key !taken @ !committed;
          taken := []
      | E_requeue ->
          Mempool.requeue_taken m;
          taken := []);
      if Mempool.occupancy m > capacity then
        QCheck.Test.fail_reportf "occupancy %d exceeds capacity %d"
          (Mempool.occupancy m) capacity;
      if inflight_per_client () > per_client_cap then
        QCheck.Test.fail_reportf "a client exceeds per_client_cap %d"
          per_client_cap)
    script;
  let s = Mempool.stats m in
  s.Mempool.peak_occupancy <= capacity
  && s.Mempool.admitted >= List.length !committed

let qcheck_pool_pressure =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"bounded pool invariants under pressure"
       pool_script_arb run_pool_script)

(* ---------- the pool against a reference model ---------- *)

(* The pool as it was before [commit] and compaction: a [Queue] whose
   committed entries wait for [take] to skip them, hash tables for the
   taken ops and per-client counts, and [commit] as [is_committed] then
   [mark_committed [op]]. *)
module Ref_pool = struct
  type status = In_pool | Taken | Committed

  type t = {
    capacity : int;
    per_client_cap : int;
    queue : Operation.t Queue.t;
    seen : (int * int, status) Hashtbl.t;
    taken : (int * int, Operation.t) Hashtbl.t;
    held : (int, int) Hashtbl.t;
    mutable stale : int;
    mutable stats : Mempool.stats;
  }

  let create ~capacity ~per_client_cap =
    {
      capacity;
      per_client_cap;
      queue = Queue.create ();
      seen = Hashtbl.create 64;
      taken = Hashtbl.create 64;
      held = Hashtbl.create 64;
      stale = 0;
      stats =
        {
          Mempool.admitted = 0;
          duplicates = 0;
          rejected_full = 0;
          rejected_client_cap = 0;
          peak_occupancy = 0;
        };
    }

  let status t op = Hashtbl.find_opt t.seen (Operation.key op)
  let occupancy t = Queue.length t.queue - t.stale + Hashtbl.length t.taken
  let pending t = Queue.length t.queue - t.stale
  let held_by t c = Option.value ~default:0 (Hashtbl.find_opt t.held c)

  let decr_held t c =
    match held_by t c - 1 with
    | 0 -> Hashtbl.remove t.held c
    | k -> Hashtbl.replace t.held c k

  let add t (op : Operation.t) =
    let s = t.stats in
    if status t op <> None then begin
      t.stats <- { s with duplicates = s.duplicates + 1 };
      Mempool.Duplicate
    end
    else if occupancy t >= t.capacity then begin
      t.stats <- { s with rejected_full = s.rejected_full + 1 };
      Mempool.Rejected Mempool.Pool_full
    end
    else if held_by t op.client >= t.per_client_cap then begin
      t.stats <- { s with rejected_client_cap = s.rejected_client_cap + 1 };
      Mempool.Rejected Mempool.Per_client_cap
    end
    else begin
      Hashtbl.replace t.seen (Operation.key op) In_pool;
      Queue.push op t.queue;
      Hashtbl.replace t.held op.client (held_by t op.client + 1);
      t.stats <-
        {
          s with
          admitted = s.admitted + 1;
          peak_occupancy = max s.peak_occupancy (occupancy t);
        };
      Mempool.Admitted
    end

  let take t ~max =
    let rec go k acc =
      if k = 0 || Queue.is_empty t.queue then List.rev acc
      else
        let op = Queue.pop t.queue in
        match status t op with
        | Some In_pool ->
            Hashtbl.replace t.seen (Operation.key op) Taken;
            Hashtbl.replace t.taken (Operation.key op) op;
            go (k - 1) (op :: acc)
        | Some Committed ->
            t.stale <- t.stale - 1;
            go k acc
        | Some Taken | None -> go k acc
    in
    List.sort (fun a b -> compare (Operation.key a) (Operation.key b)) (go max [])

  let commit t (op : Operation.t) =
    let fresh = status t op <> Some Committed in
    (match status t op with
    | Some In_pool ->
        t.stale <- t.stale + 1;
        decr_held t op.client
    | Some Taken ->
        decr_held t op.client;
        Hashtbl.remove t.taken (Operation.key op)
    | Some Committed | None -> ());
    Hashtbl.replace t.seen (Operation.key op) Committed;
    fresh

  let requeue_taken t =
    let ops =
      Hashtbl.fold (fun _ op acc -> op :: acc) t.taken []
      |> List.sort (fun a b -> compare (Operation.key a) (Operation.key b))
    in
    Hashtbl.reset t.taken;
    List.iter
      (fun op ->
        Hashtbl.replace t.seen (Operation.key op) In_pool;
        Queue.push op t.queue)
      ops

  let snapshot t =
    Queue.fold
      (fun acc op -> if status t op = Some In_pool then op :: acc else acc)
      [] t.queue
    |> List.rev
end

type model_event =
  | M_add of int * int
  | M_take of int
  | M_commit of int * int  (* any key: pooled, taken, committed or unseen *)
  | M_commit_pooled of int  (* the i-th pooled op, mod the pool's size *)
  | M_commit_taken of int  (* up to k of the ops taken so far *)
  | M_requeue
  | M_snapshot

let model_event_gen =
  QCheck.Gen.(
    let key = pair (int_range 0 5) (int_range 0 40) in
    frequency
      [
        (6, map (fun (c, s) -> M_add (c, s)) key);
        (2, map (fun k -> M_take k) (int_range 1 6));
        (2, map (fun (c, s) -> M_commit (c, s)) key);
        (3, map (fun i -> M_commit_pooled i) (int_bound 1000));
        (1, map (fun k -> M_commit_taken k) (int_range 1 8));
        (1, return M_requeue);
        (1, return M_snapshot);
      ])

let string_of_model_event = function
  | M_add (c, s) -> Printf.sprintf "add(%d,%d)" c s
  | M_take k -> Printf.sprintf "take(%d)" k
  | M_commit (c, s) -> Printf.sprintf "commit(%d,%d)" c s
  | M_commit_pooled i -> Printf.sprintf "commit-pooled(%d)" i
  | M_commit_taken k -> Printf.sprintf "commit-taken(%d)" k
  | M_requeue -> "requeue"
  | M_snapshot -> "snapshot"

(* Every observable answer of the pool equals the reference's, event by
   event: admissions, batches, [commit]'s verdict, snapshots, pending,
   occupancy and stats. Most commits pick a pooled op, so stale entries
   come to outnumber live ones and the queue compacts many times per
   script. *)
let qcheck_pool_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"pool == reference model"
       (QCheck.make
          ~print:(fun (bounded, evs) ->
            Printf.sprintf "bounded=%b %s" bounded
              (String.concat ";" (List.map string_of_model_event evs)))
          QCheck.Gen.(pair bool (list_size (int_range 1 400) model_event_gen)))
       (fun (bounded, script) ->
         let capacity, per_client_cap =
           if bounded then (12, 4) else (max_int, max_int)
         in
         let m =
           Mempool.create
             ~config:(Mempool.Config.make ~capacity ~per_client_cap ())
             ()
         and r = Ref_pool.create ~capacity ~per_client_cap in
         let taken = ref [] in
         let keys ops = List.map Operation.key ops in
         let same_commit o = Mempool.commit m o = Ref_pool.commit r o in
         List.for_all
           (fun ev ->
             let agrees =
               match ev with
               | M_add (client, seq) ->
                   Mempool.add m (op ~client seq)
                   = Ref_pool.add r (op ~client seq)
               | M_take k ->
                   let batch = Mempool.take m ~max:k in
                   taken := !taken @ batch;
                   keys batch = keys (Ref_pool.take r ~max:k)
               | M_commit (client, seq) -> same_commit (op ~client seq)
               | M_commit_pooled i -> (
                   match Ref_pool.snapshot r with
                   | [] -> true
                   | pooled ->
                       same_commit (List.nth pooled (i mod List.length pooled)))
               | M_commit_taken k ->
                   let now = List.filteri (fun i _ -> i < k) !taken in
                   taken := List.filteri (fun i _ -> i >= k) !taken;
                   List.for_all same_commit now
               | M_requeue ->
                   Mempool.requeue_taken m;
                   Ref_pool.requeue_taken r;
                   taken := [];
                   true
               | M_snapshot ->
                   keys (Mempool.snapshot m) = keys (Ref_pool.snapshot r)
             in
             agrees
             && Mempool.pending m = Ref_pool.pending r
             && Mempool.occupancy m = Ref_pool.occupancy r
             && Mempool.stats m = r.Ref_pool.stats)
           script
         && keys (Mempool.snapshot m) = keys (Ref_pool.snapshot r)))

(* Allocation pin: committing an operation whose key the pool already
   holds — pooled, taken or committed — is one probe and a few counter
   updates, and allocates nothing; compaction, which fires more than once
   here, reuses the queue's array. *)
let test_mempool_commit_alloc () =
  let m = Mempool.create ~config:(Mempool.Config.make ~per_client_cap:64 ()) () in
  let ops = Array.init 4096 (fun i -> op ~client:(i mod 97) i) in
  Array.iter (fun o -> ignore (Mempool.add m o)) ops;
  ignore (Mempool.take m ~max:1024);
  let fresh = ref 0 in
  (* what reading the counter itself costs *)
  let overhead =
    let before = Gc.minor_words () in
    Gc.minor_words () -. before
  in
  let before = Gc.minor_words () in
  for _ = 1 to 2 do
    for i = 0 to Array.length ops - 1 do
      if Mempool.commit m ops.(i) then incr fresh
    done
  done;
  let words = Gc.minor_words () -. before -. overhead in
  Alcotest.(check int) "each op executes once" 4096 !fresh;
  Alcotest.(check (float 0.)) "commit allocates nothing" 0. words;
  Alcotest.(check int) "pool drained" 0 (Mempool.occupancy m)

(* ---------- flat key table ---------- *)

(* Keys that share the low 10 bits of their hash: up to 1024 slots they
   start their probes at the same slot, so they pile into one cluster. *)
let colliding_keys =
  let target = Key_table.hash ~client:0 ~seq:0 land 1023 in
  let rec go seq acc k =
    if k = 0 then List.rev acc
    else if Key_table.hash ~client:0 ~seq land 1023 = target then
      go (seq + 1) ((0, seq) :: acc) (k - 1)
    else go (seq + 1) acc k
  in
  Array.of_list (go 0 [] 48)

let key_gen =
  QCheck.Gen.(
    frequency
      [
        (4, pair (int_bound 7) (int_bound 300));
        (2, oneofa colliding_keys);
        ( 1,
          pair
            (oneofl [ max_int; min_int; 0; -1; max_int - 1 ])
            (oneofl [ max_int; min_int; 0; -1; 1 ]) );
        (1, pair int int);
      ])

(* Drive the table and a [Hashtbl] of (code, value) with the same script
   of inserts, removals, value and counter updates and lookups; the
   scripts run long enough to double the table several times, and
   removals inside the colliding cluster exercise the backward shift. *)
let qcheck_key_table_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k c -> `Replace (k, c)) key_gen (int_range 1 255));
          (1, map2 (fun k c -> `Exchange (k, c)) key_gen (int_range 1 255));
          (2, map (fun k -> `Remove k) key_gen);
          (1, map2 (fun k v -> `Set_value (k, float_of_int v)) key_gen int);
          (1, map2 (fun k d -> `Add_counter (k, d)) key_gen (int_range (-2) 2));
          (2, map (fun k -> `Find k) key_gen);
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"key table == Hashtbl"
       (QCheck.make
          ~print:(fun l -> string_of_int (List.length l) ^ " ops")
          QCheck.Gen.(list_size (50 -- 1500) op_gen))
       (fun ops ->
         let t = Key_table.create () and m = Hashtbl.create 64 in
         let model_find k = Option.value ~default:(0, 0.) (Hashtbl.find_opt m k) in
         let agrees (client, seq) =
           let code, v = model_find (client, seq) in
           Key_table.find t ~client ~seq = code
           && Key_table.length t = Hashtbl.length m
           &&
           if code = 0 then Float.is_nan (Key_table.value t ~client ~seq)
           else
             Float.equal (Key_table.value t ~client ~seq) v
             && Key_table.counter t ~client ~seq = int_of_float v
         in
         List.for_all
           (fun op ->
             match op with
             | `Replace (((client, seq) as k), code) ->
                 Key_table.replace t ~client ~seq code;
                 Hashtbl.replace m k (code, snd (model_find k));
                 agrees k
             | `Exchange (((client, seq) as k), code) ->
                 let old = Key_table.exchange t ~client ~seq code in
                 let before, v = model_find k in
                 Hashtbl.replace m k (code, v);
                 old = before && agrees k
             | `Remove ((client, seq) as k) ->
                 Key_table.remove t ~client ~seq;
                 Hashtbl.remove m k;
                 agrees k
             | `Set_value (((client, seq) as k), v) ->
                 Key_table.set_value t ~client ~seq v;
                 let code = match model_find k with 0, _ -> 1 | c, _ -> c in
                 Hashtbl.replace m k (code, v);
                 agrees k
             | `Add_counter (((client, seq) as k), d) ->
                 Key_table.add_counter t ~client ~seq d;
                 let code, v = model_find k in
                 let n = int_of_float v + d in
                 if n = 0 then Hashtbl.remove m k
                 else Hashtbl.replace m k (max code 1, float_of_int n);
                 agrees k
             | `Find k -> agrees k)
           ops
         && Hashtbl.fold (fun k _ ok -> ok && agrees k) m true))

let test_key_table_codes () =
  let t = Key_table.create () in
  Alcotest.(check int) "absent" 0 (Key_table.find t ~client:max_int ~seq:max_int);
  Key_table.replace t ~client:max_int ~seq:max_int 255;
  Alcotest.(check int) "max_int key" 255
    (Key_table.find t ~client:max_int ~seq:max_int);
  Alcotest.(check int) "other field differs" 0
    (Key_table.find t ~client:max_int ~seq:0);
  Alcotest.check_raises "code 0 is reserved"
    (Invalid_argument "Key_table.replace: code must be in 1..255") (fun () ->
      Key_table.replace t ~client:1 ~seq:1 0);
  Alcotest.check_raises "code above a byte"
    (Invalid_argument "Key_table.replace: code must be in 1..255") (fun () ->
      Key_table.replace t ~client:1 ~seq:1 256);
  Alcotest.(check int) "one key" 1 (Key_table.length t)

(* ---------- cluster measurement plumbing ---------- *)

module Cl = Cluster.Make (Marlin_core.Chained_marlin)

let test_cluster_windows () =
  let params = { (Cluster.params_for_f ~workload:(Workload.closed_loop ~clients:16) 1) with Cluster.seed = 5 } in
  let t = Cl.create params in
  Cl.run t ~until:4.0;
  let all = Cl.committed_ops_in t ~replica:0 ~since:0.0 ~until:4.0 in
  let first = Cl.committed_ops_in t ~replica:0 ~since:0.0 ~until:2.0 in
  let second = Cl.committed_ops_in t ~replica:0 ~since:2.0 ~until:4.0 in
  Alcotest.(check bool) "ops committed" true (all > 0);
  Alcotest.(check bool) "windows partition (boundary included once at most)" true
    (abs (all - (first + second)) <= 1);
  Alcotest.(check bool) "latency samples collected" true
    (List.length (Cl.latencies_in t ~since:0.0 ~until:4.0) > 0);
  Alcotest.(check bool) "all latencies positive" true
    (List.for_all (fun l -> l > 0.) (Cl.latencies_in t ~since:0.0 ~until:4.0))

let test_cluster_deterministic () =
  let params = { (Cluster.params_for_f ~workload:(Workload.closed_loop ~clients:32) 1) with Cluster.seed = 123 } in
  let run () =
    let t = Cl.create params in
    Cl.run t ~until:3.0;
    Cl.total_executed t ~replica:2
  in
  Alcotest.(check int) "same seed, same history" (run ()) (run ());
  let other =
    let t = Cl.create { params with Cluster.seed = 124 } in
    Cl.run t ~until:3.0;
    Cl.total_executed t ~replica:2
  in
  (* different seed jitters arrivals; histories almost surely differ *)
  Alcotest.(check bool) "different seed differs" true (other <> run () || other > 0)

let test_cluster_crash_plumbing () =
  let params = { (Cluster.params_for_f ~workload:(Workload.closed_loop ~clients:16) 1) with Cluster.seed = 6 } in
  let t = Cl.create params in
  Cl.crash t ~at:1.0 3;
  Cl.run t ~until:4.0;
  Alcotest.(check bool) "cluster survives one crash" true
    (Cl.total_executed t ~replica:0 > 0);
  Alcotest.(check bool) "agreement among the living" true (Cl.check_agreement t)

(* ---------- commit log ---------- *)

module Commit_log = Marlin_runtime.Commit_log

(* The queries as folds over a newest-first (time, ops) list — the log's
   representation before it became a sorted array. *)
let fold_ops_in log ~since ~until =
  List.fold_left
    (fun acc (time, ops) -> if time >= since && time <= until then acc + ops else acc)
    0 log

let fold_first_after log instant =
  List.fold_left
    (fun acc (time, _) ->
      if time > instant then
        match acc with None -> Some time | Some best -> Some (Float.min best time)
      else acc)
    None log

let qcheck_commit_log =
  let gen =
    QCheck.Gen.(
      pair
        (* steps as (gap, ops): zero gaps make equal times *)
        (list_size (0 -- 300)
           (pair (oneof [ return 0.; float_bound_inclusive 0.5 ]) (int_range 1 50)))
        (list_size (1 -- 20)
           (let instant =
              frequency
                [
                  (4, float_bound_inclusive 100.);
                  (1, oneofl [ 0.; -1.; infinity; neg_infinity; Float.nan ]);
                ]
            in
            pair instant instant)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"commit log queries == list folds"
       (QCheck.make gen)
       (fun (steps, queries) ->
         let log = Commit_log.create () and folded = ref [] and now = ref 0. in
         List.iter
           (fun (gap, ops) ->
             now := !now +. gap;
             Commit_log.append log ~time:!now ~ops;
             folded := (!now, ops) :: !folded)
           steps;
         Commit_log.total log = fold_ops_in !folded ~since:neg_infinity ~until:infinity
         && List.for_all
              (fun (since, until) ->
                let same_first x =
                  Option.equal Float.equal (Commit_log.first_after log x)
                    (fold_first_after !folded x)
                in
                Commit_log.ops_in log ~since ~until = fold_ops_in !folded ~since ~until
                && Commit_log.ops_in log ~since:until ~until:since
                   = fold_ops_in !folded ~since:until ~until:since
                && same_first since && same_first until)
              queries))

let test_commit_log_order () =
  let log = Commit_log.create () in
  Commit_log.append log ~time:1.0 ~ops:3;
  Commit_log.append log ~time:1.0 ~ops:2;
  Alcotest.check_raises "an earlier time is refused"
    (Invalid_argument "Commit_log.append: time before the previous entry")
    (fun () -> Commit_log.append log ~time:0.5 ~ops:1);
  Alcotest.(check int) "total" 5 (Commit_log.total log)

(* A replica's steps each start no earlier than the previous one finished,
   so its log is appended in time order — the binary searches rely on it
   and [append] refuses anything else. Crash, recovery and the view
   changes they cause start steps from timers, relays and catch-up; an
   out-of-order step anywhere in the run would raise here. *)
let test_commit_log_in_time_order_under_churn () =
  let params =
    {
      (Cluster.params_for_f
         ~workload:
           (Workload.open_loop ~arrival:(Marlin_workload.Arrival.poisson ~rate:2000.)
              ~key_space:10_000 ())
         1)
      with
      Cluster.seed = 5;
      base_timeout = 0.3;
    }
  in
  let t = Cl.create params in
  Cl.crash t ~at:1.0 1;
  Cl.recover t ~at:2.0 1;
  Cl.crash t ~at:2.5 2;
  Cl.recover t ~at:3.5 2;
  Cl.run t ~until:5.0;
  for replica = 0 to params.Cluster.n - 1 do
    let total = Cl.total_executed t ~replica in
    Alcotest.(check bool) "executed something" true (total > 0);
    Alcotest.(check int) "the whole log is the total" total
      (Cl.committed_ops_in t ~replica ~since:neg_infinity ~until:infinity)
  done;
  Alcotest.(check bool) "agreement" true (Cl.check_agreement t)

(* ---------- experiment drivers ---------- *)

let test_peak_selection () =
  let mk clients throughput =
    { Experiment.Result.zero with Experiment.Result.clients; throughput }
  in
  let results = [ mk 4 100.; mk 16 400.; mk 64 380. ] in
  let best, cap = Experiment.peak results in
  Alcotest.(check int) "peak picks the max" 16 best.Experiment.Result.clients;
  Alcotest.(check bool) "no cap always qualifies" true (cap = `Within_cap);
  (* an unmeetable cap falls back to the overall max, and says so *)
  let fallback, cap' = Experiment.peak ~latency_cap:(-1.0) results in
  Alcotest.(check int) "fallback is still the max" 16 fallback.Experiment.Result.clients;
  Alcotest.(check bool) "fallback is flagged" true (cap' = `Fallback);
  Alcotest.check_raises "empty peak raises"
    (Invalid_argument "Experiment.peak: no results") (fun () ->
      ignore (Experiment.peak []))

let test_sweep_shape () =
  let marlin : Marlin_core.Consensus_intf.protocol =
    (module Marlin_core.Chained_marlin)
  in
  let results =
    List.map
      (fun clients ->
        Experiment.run marlin
          ~params:
            {
              (Cluster.params_for_f 1) with
              Cluster.seed = 2;
              workload = Workload.closed_loop ~clients;
            }
          ~warmup:0.5
          (Marlin_faults.Catalogue.steady ~run_for:2.0 ()))
      [ 8; 32 ]
  in
  Alcotest.(check (list int)) "client counts preserved" [ 8; 32 ]
    (List.map (fun r -> r.Experiment.Result.clients) results)

let suite =
  [
    ("mempool FIFO", `Quick, test_mempool_fifo);
    ("mempool dedup", `Quick, test_mempool_dedup);
    ("mempool commit clears", `Quick, test_mempool_commit_clears);
    ("mempool commit of an unseen op", `Quick, test_mempool_commit_unseen);
    ("mempool requeues orphaned ops", `Quick, test_mempool_requeue_taken);
    ("mempool batches are canonical", `Quick, test_mempool_batch_canonical);
    ("mempool snapshot", `Quick, test_mempool_snapshot);
    ("mempool capacity bound", `Quick, test_mempool_capacity);
    ("mempool per-client cap", `Quick, test_mempool_per_client_cap);
    qcheck_pool_pressure;
    qcheck_pool_model;
    ("mempool commit allocation pin", `Quick, test_mempool_commit_alloc);
    qcheck_key_table_model;
    ("key table codes and extreme keys", `Quick, test_key_table_codes);
    ("cluster measurement windows", `Quick, test_cluster_windows);
    ("cluster determinism", `Quick, test_cluster_deterministic);
    ("cluster crash plumbing", `Quick, test_cluster_crash_plumbing);
    qcheck_commit_log;
    ("commit log refuses an earlier time", `Quick, test_commit_log_order);
    ( "commit log in time order under churn",
      `Quick,
      test_commit_log_in_time_order_under_churn );
    ("experiment peak selection", `Quick, test_peak_selection);
    ("experiment sweep shape", `Quick, test_sweep_shape);
  ]

let () = Alcotest.run "runtime" [ ("runtime", suite) ]
