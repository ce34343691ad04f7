open Marlin_types

module Config = struct
  type t = { capacity : int; per_client_cap : int }

  let unbounded = { capacity = max_int; per_client_cap = max_int }

  let make ?(capacity = max_int) ?(per_client_cap = max_int) () =
    if capacity < 1 then
      invalid_arg "Mempool.Config.make: capacity must be >= 1";
    if per_client_cap < 1 then
      invalid_arg "Mempool.Config.make: per_client_cap must be >= 1";
    { capacity; per_client_cap }

  let capacity t = t.capacity
  let per_client_cap t = t.per_client_cap
end

type reject_reason = Pool_full | Per_client_cap
type admission = Admitted | Duplicate | Rejected of reject_reason

type stats = {
  admitted : int;
  duplicates : int;
  rejected_full : int;
  rejected_client_cap : int;
  peak_occupancy : int;
}

type status = Unseen | In_pool | Taken | Committed

(* [seen] stores a status as a {!Key_table} code; 0 is [Unseen]. *)
let code = function Unseen -> 0 | In_pool -> 1 | Taken -> 2 | Committed -> 3

let status_of_code = function
  | 1 -> In_pool
  | 2 -> Taken
  | 3 -> Committed
  | _ -> Unseen

type t = {
  config : Config.t;
  queue : Operation.t Queue.t;
  seen : Key_table.t; (* every key ever admitted or committed *)
  taken : (int * int, Operation.t) Hashtbl.t; (* taken, not yet committed *)
  held : (int, int) Hashtbl.t; (* in-flight (In_pool + Taken) ops per client *)
  mutable stale : int; (* committed ops still sitting in [queue] *)
  mutable s_admitted : int;
  mutable s_duplicates : int;
  mutable s_rejected_full : int;
  mutable s_rejected_client_cap : int;
  mutable s_peak_occupancy : int;
}

let create ?(config = Config.unbounded) () =
  {
    config;
    queue = Queue.create ();
    seen = Key_table.create ();
    taken = Hashtbl.create 64;
    held = Hashtbl.create 64;
    stale = 0;
    s_admitted = 0;
    s_duplicates = 0;
    s_rejected_full = 0;
    s_rejected_client_cap = 0;
    s_peak_occupancy = 0;
  }

let config t = t.config

let status t (op : Operation.t) =
  status_of_code
    (Key_table.find t.seen ~client:op.Operation.client ~seq:op.Operation.seq)

let set_status t (op : Operation.t) s =
  Key_table.replace t.seen ~client:op.Operation.client ~seq:op.Operation.seq
    (code s)

(* In-flight operations this pool is responsible for: queued and not yet
   committed, plus taken into a block and not yet committed. *)
let occupancy t = Queue.length t.queue - t.stale + Hashtbl.length t.taken

let backpressure t = occupancy t >= t.config.Config.capacity

let held_by t client =
  match Hashtbl.find_opt t.held client with Some k -> k | None -> 0

let incr_held t client = Hashtbl.replace t.held client (held_by t client + 1)

let decr_held t client =
  match held_by t client - 1 with
  | 0 -> Hashtbl.remove t.held client (* keep [held] bounded by in-flight *)
  | k -> Hashtbl.replace t.held client k

let add t op =
  let known =
    match status t op with In_pool | Taken | Committed -> true | Unseen -> false
  in
  if known then begin
    t.s_duplicates <- t.s_duplicates + 1;
    Duplicate
  end
  else if occupancy t >= t.config.Config.capacity then begin
    t.s_rejected_full <- t.s_rejected_full + 1;
    Rejected Pool_full
  end
  else if held_by t op.Operation.client >= t.config.Config.per_client_cap
  then begin
    t.s_rejected_client_cap <- t.s_rejected_client_cap + 1;
    Rejected Per_client_cap
  end
  else begin
    set_status t op In_pool;
    Queue.push op t.queue;
    incr_held t op.Operation.client;
    t.s_admitted <- t.s_admitted + 1;
    t.s_peak_occupancy <- Int.max t.s_peak_occupancy (occupancy t);
    Admitted
  end

let stats t =
  {
    admitted = t.s_admitted;
    duplicates = t.s_duplicates;
    rejected_full = t.s_rejected_full;
    rejected_client_cap = t.s_rejected_client_cap;
    peak_occupancy = t.s_peak_occupancy;
  }

(* Batches must be canonical: proposals feed block digests, so any
   replica-local ordering artifact (arrival interleaving, hashtable
   iteration) would make otherwise-identical runs diverge. *)
let sort_by_key ops =
  List.sort
    (fun (a : Operation.t) (b : Operation.t) ->
      match Int.compare a.client b.client with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
    ops

let take t ~max =
  let rec go k acc =
    if k = 0 || Queue.is_empty t.queue then List.rev acc
    else
      let op = Queue.pop t.queue in
      match status t op with
      | In_pool ->
          set_status t op Taken;
          Hashtbl.replace t.taken (Operation.key op) op;
          go (k - 1) (op :: acc)
      | Committed ->
          t.stale <- t.stale - 1;
          go k acc
      | Taken | Unseen -> go k acc
  in
  sort_by_key (go max [])

let mark_committed t ops =
  List.iter
    (fun op ->
      (match status t op with
      | In_pool ->
          t.stale <- t.stale + 1;
          decr_held t op.Operation.client
      | Taken ->
          decr_held t op.Operation.client;
          Hashtbl.remove t.taken (Operation.key op)
      | Committed | Unseen -> ());
      set_status t op Committed)
    ops

let pending t = Queue.length t.queue - t.stale

let is_committed t op =
  match status t op with
  | Committed -> true
  | In_pool | Taken | Unseen -> false

let requeue_taken t =
  (* the fold's order is a hashtable artifact; sort so the re-queued ops
     re-enter in canonical key order on every replica. Requeued ops were
     already admitted, so neither capacity nor per-client caps re-apply:
     occupancy is unchanged by In_pool <-> Taken moves. *)
  let ops =
    Hashtbl.fold (fun _ op acc -> op :: acc) t.taken [] |> sort_by_key
  in
  Hashtbl.reset t.taken;
  List.iter
    (fun op ->
      set_status t op In_pool;
      Queue.push op t.queue)
    ops

let snapshot t =
  Queue.fold
    (fun acc op ->
      match status t op with
      | In_pool -> op :: acc
      | Taken | Committed | Unseen -> acc)
    [] t.queue
  |> List.rev
