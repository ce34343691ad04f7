(* A loopback cluster for protocol-level tests.

   Runs n protocol instances with synchronous FIFO message queues — no
   simulator, no timers (tests fire timeouts explicitly), full control over
   message delivery. Fault injection: crash replicas, filter links, or
   intercept messages. This is how the adversarial schedules of Figure 2
   are reproduced deterministically. *)

open Marlin_types
module C = Marlin_core.Consensus_intf

(* Registry-backed dispatch, so tests pick protocols by name instead of
   spelling out module paths:
     let module P = (val Harness.protocol "marlin") in ... *)
let protocol name = Marlin_runtime.Registry.find_exn name

module Make (P : C.PROTOCOL) = struct
  type node = {
    id : int;
    proto : P.t;
    inbox : (int * Message.t) Queue.t; (* (src, message) *)
    pending_ops : Operation.t Queue.t;
    taken_ops : Operation.t list ref; (* batched, not yet committed *)
    committed_keys : (int * int, unit) Hashtbl.t;
    mutable crashed : bool;
    mutable last_timer : float;
  }

  type t = {
    nodes : node array;
    keychain : Marlin_crypto.Keychain.t;
    mutable transform : src:int -> dst:int -> Message.t -> Message.t option;
        (* None drops the message; Some replaces it (Byzantine forgery). *)
    mutable trace : (int * int * Message.t) list; (* (src, dst, m), newest first *)
  }

  let batch_max = 16

  let create ?(n = 4) ?(f = 1) () =
    let keychain = Marlin_crypto.Keychain.create ~n () in
    let cluster =
      {
        nodes = [||];
        keychain;
        transform = (fun ~src:_ ~dst:_ m -> Some m);
        trace = [];
      }
    in
    let make_node id =
      let pending_ops = Queue.create () in
      let taken_ops = ref [] in
      let cfg =
        C.Config.make ~id ~n ~f ~keychain
          ~get_batch:(fun () ->
            let rec take k acc =
              if k = 0 || Queue.is_empty pending_ops then List.rev acc
              else take (k - 1) (Queue.pop pending_ops :: acc)
            in
            let batch = take batch_max [] in
            taken_ops := !taken_ops @ batch;
            Batch.of_list batch)
          ~has_pending:(fun () -> not (Queue.is_empty pending_ops))
          ~base_timeout:1.0 ~max_timeout:60.0 ()
      in
      {
        id;
        proto = P.create cfg;
        inbox = Queue.create ();
        pending_ops;
        taken_ops;
        committed_keys = Hashtbl.create 64;
        crashed = false;
        last_timer = 0.;
      }
    in
    { cluster with nodes = Array.init n make_node }

  let node t id = t.nodes.(id)
  let proto t id = t.nodes.(id).proto
  let keychain t = t.keychain
  let crash t id = t.nodes.(id).crashed <- true

  let set_filter t filter =
    t.transform <- (fun ~src ~dst m -> if filter ~src ~dst m then Some m else None)

  let set_transform t transform = t.transform <- transform
  let clear_filter t = t.transform <- (fun ~src:_ ~dst:_ m -> Some m)

  let enqueue t ~src ~dst m =
    if (not t.nodes.(src).crashed) && not t.nodes.(dst).crashed then
      match t.transform ~src ~dst m with
      | None -> ()
      | Some m ->
          t.trace <- (src, dst, m) :: t.trace;
          Queue.push (src, m) t.nodes.(dst).inbox

  (* Deliver a hand-crafted message, bypassing transforms (adversary). *)
  let inject t ~src ~dst m =
    if not t.nodes.(dst).crashed then Queue.push (src, m) t.nodes.(dst).inbox

  let apply_actions t id actions =
    List.iter
      (fun action ->
        match action with
        | C.Send { dst; msg } -> enqueue t ~src:id ~dst msg
        | C.Broadcast msg ->
            Array.iter
              (fun node -> if node.id <> id then enqueue t ~src:id ~dst:node.id msg)
              t.nodes
        | C.Commit blocks ->
            (* Committed operations leave this replica's mempool (the
               runtime's dedup; without it has_pending never clears). *)
            let committed_keys =
              List.concat_map
                (fun b ->
                  List.map Operation.key (Batch.to_list b.Block.payload))
                blocks
            in
            let node = t.nodes.(id) in
            List.iter (fun k -> Hashtbl.replace node.committed_keys k ()) committed_keys;
            node.taken_ops :=
              List.filter
                (fun op -> not (List.mem (Operation.key op) committed_keys))
                !(node.taken_ops);
            let keep = Queue.create () in
            Queue.iter
              (fun op ->
                if not (List.mem (Operation.key op) committed_keys) then
                  Queue.push op keep)
              node.pending_ops;
            Queue.clear node.pending_ops;
            Queue.transfer keep node.pending_ops
        | C.Timer { duration; cause = _ } -> t.nodes.(id).last_timer <- duration)
      actions

  (* Like the runtime's mempool, operations batched into blocks that a
     view change orphans must be re-proposable: when a node's view
     advances, its taken-but-uncommitted operations return to the pool. *)
  let invoke t (node : node) f =
    let view_before = P.current_view node.proto in
    let actions = f node.proto in
    if P.current_view node.proto > view_before then begin
      List.iter
        (fun op ->
          if not (Hashtbl.mem node.committed_keys (Operation.key op)) then
            Queue.push op node.pending_ops)
        !(node.taken_ops);
      node.taken_ops := []
    end;
    apply_actions t node.id actions

  (* Deliver queued messages round-robin until every inbox is empty. *)
  let run t =
    let continue = ref true in
    let guard = ref 0 in
    while !continue do
      continue := false;
      incr guard;
      if !guard > 1_000_000 then failwith "harness: message storm";
      Array.iter
        (fun node ->
          if (not node.crashed) && not (Queue.is_empty node.inbox) then begin
            continue := true;
            let _src, m = Queue.pop node.inbox in
            invoke t node (fun p -> P.on_message p m)
          end)
        t.nodes
    done

  let start t =
    Array.iter
      (fun node -> if not node.crashed then invoke t node P.on_start)
      t.nodes;
    run t

  (* Push an operation into every replica's mempool (clients broadcast),
     then poke the protocols. *)
  let submit t op =
    Array.iter (fun node -> Queue.push op t.nodes.(node.id).pending_ops) t.nodes;
    Array.iter
      (fun node -> if not node.crashed then invoke t node P.on_new_payload)
      t.nodes;
    run t

  let submit_ops t ~client ~count =
    for seq = 1 to count do
      submit t (Operation.make ~client ~seq ~body:(Printf.sprintf "op-%d-%d" client seq))
    done

  let timeout t id =
    let node = t.nodes.(id) in
    if not node.crashed then begin
      invoke t node P.on_view_timeout;
      run t
    end

  let timeout_all t =
    Array.iter
      (fun node -> if not node.crashed then invoke t node P.on_view_timeout)
      t.nodes;
    run t

  (* ---------- invariant checks ---------- *)

  (* No two correct replicas commit conflicting blocks: all committed
     chains are prefixes of the longest one. *)
  let check_safety t =
    let heads =
      Array.to_list t.nodes
      |> List.filter (fun node -> not node.crashed)
      |> List.map (fun node -> (node, P.committed_head node.proto))
    in
    let _, longest =
      List.fold_left
        (fun ((_, best) as acc) ((_, h) as cur) ->
          if h.Block.height > best.Block.height then cur else acc)
        (List.hd heads) heads
    in
    let reference =
      (* the store of the node holding the longest chain *)
      let holder =
        List.find (fun (_, h) -> Block.equal h longest) heads |> fst
      in
      P.block_store holder.proto
    in
    List.for_all
      (fun (_, head) ->
        Block_store.extends reference ~descendant:longest
          ~ancestor:(Block.digest head))
      heads

  (* The operations a replica has *executed*, chain order. An operation can
     legitimately appear in two blocks (re-proposed after a view change
     while the original block survived); execution deduplicates by
     (client, seq), as any state machine replica must. *)
  let committed_ops t id =
    let node = t.nodes.(id) in
    let store = P.block_store node.proto in
    let rec collect b acc =
      let acc = Batch.to_list b.Block.payload @ acc in
      match Block_store.parent store b with
      | Some p -> collect p acc
      | None -> acc
    in
    let seen = Hashtbl.create 64 in
    List.filter
      (fun op ->
        let key = Operation.key op in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      (collect (P.committed_head node.proto) [])

  let min_committed t =
    Array.to_list t.nodes
    |> List.filter (fun node -> not node.crashed)
    |> List.map (fun node -> P.committed_count node.proto)
    |> List.fold_left min max_int

  let max_committed t =
    Array.to_list t.nodes
    |> List.map (fun node -> P.committed_count node.proto)
    |> List.fold_left max 0
end
