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

(* A FIFO of operations in [buf.(head) .. buf.(tail - 1)]. Entries whose
   status has moved on stay put until [compact] drops them, so the pool
   never searches the FIFO when an operation commits. *)
type fifo = {
  mutable buf : Operation.t array;
  mutable head : int;
  mutable tail : int;
}

let vacant = Operation.make ~client:0 ~seq:0 ~body:""
let fifo () = { buf = Array.make 64 vacant; head = 0; tail = 0 }
let fifo_length q = q.tail - q.head

let push q op =
  if q.tail = Array.length q.buf then begin
    (* slide the entries to the front, doubling first if that would
       leave the array more than half full *)
    let len = fifo_length q in
    let buf =
      if 2 * len <= Array.length q.buf then q.buf
      else Array.make (2 * Array.length q.buf) vacant
    in
    Array.blit q.buf q.head buf 0 len;
    Array.fill buf len (Array.length q.buf - len) vacant;
    q.buf <- buf;
    q.head <- 0;
    q.tail <- len
  end;
  Array.unsafe_set q.buf q.tail op;
  q.tail <- q.tail + 1

let pop q =
  let op = q.buf.(q.head) in
  q.buf.(q.head) <- vacant;
  q.head <- q.head + 1;
  if q.head = q.tail then begin
    q.head <- 0;
    q.tail <- 0
  end;
  op

let clear q =
  Array.fill q.buf q.head (fifo_length q) vacant;
  q.head <- 0;
  q.tail <- 0

type t = {
  config : Config.t;
  queue : fifo; (* admitted ops, FIFO; the committed ones are [stale] *)
  seen : Key_table.t; (* every key ever admitted or committed *)
  taken : fifo; (* ops taken into batches; [taken_live] are still Taken *)
  held : Key_table.t; (* in-flight (In_pool + Taken) ops per client, seq 0 *)
  mutable stale : int; (* committed ops still sitting in [queue] *)
  mutable taken_live : int;
  mutable s_admitted : int;
  mutable s_duplicates : int;
  mutable s_rejected_full : int;
  mutable s_rejected_client_cap : int;
  mutable s_peak_occupancy : int;
}

let create ?(config = Config.unbounded) () =
  {
    config;
    queue = fifo ();
    seen = Key_table.create ();
    taken = fifo ();
    held = Key_table.create ();
    stale = 0;
    taken_live = 0;
    s_admitted = 0;
    s_duplicates = 0;
    s_rejected_full = 0;
    s_rejected_client_cap = 0;
    s_peak_occupancy = 0;
  }

let config t = t.config

let code_of t (op : Operation.t) =
  Key_table.find t.seen ~client:op.Operation.client ~seq:op.Operation.seq

let status t op = status_of_code (code_of t op)

let set_status t (op : Operation.t) s =
  Key_table.replace t.seen ~client:op.Operation.client ~seq:op.Operation.seq
    (code s)

(* Keep only the FIFO's entries whose status is still [keep], in order. *)
let compact t q keep =
  let w = ref q.head in
  for i = q.head to q.tail - 1 do
    let op = Array.unsafe_get q.buf i in
    if code_of t op = keep then begin
      Array.unsafe_set q.buf !w op;
      incr w
    end
  done;
  Array.fill q.buf !w (q.tail - !w) vacant;
  q.tail <- !w

(* In-flight operations this pool is responsible for: queued and not yet
   committed, plus taken into a block and not yet committed. *)
let occupancy t = fifo_length t.queue - t.stale + t.taken_live

let backpressure t = occupancy t >= t.config.Config.capacity
let held_by t client = Key_table.counter t.held ~client ~seq:0

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
    push t.queue op;
    Key_table.add_counter t.held ~client:op.Operation.client ~seq:0 1;
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
    if k = 0 || fifo_length t.queue = 0 then List.rev acc
    else
      let op = pop t.queue in
      match status t op with
      | In_pool ->
          set_status t op Taken;
          push t.taken op;
          t.taken_live <- t.taken_live + 1;
          go (k - 1) (op :: acc)
      | Committed ->
          t.stale <- t.stale - 1;
          go k acc
      | Taken | Unseen -> go k acc
  in
  sort_by_key (go max [])

let commit t (op : Operation.t) =
  let client = op.Operation.client in
  match
    status_of_code
      (Key_table.exchange t.seen ~client ~seq:op.Operation.seq (code Committed))
  with
  | Unseen -> true
  | In_pool ->
      Key_table.add_counter t.held ~client ~seq:0 (-1);
      t.stale <- t.stale + 1;
      if 2 * t.stale > fifo_length t.queue then begin
        compact t t.queue (code In_pool);
        t.stale <- 0
      end;
      true
  | Taken ->
      Key_table.add_counter t.held ~client ~seq:0 (-1);
      t.taken_live <- t.taken_live - 1;
      if 2 * t.taken_live < fifo_length t.taken then
        compact t t.taken (code Taken);
      true
  | Committed -> false

let mark_committed t ops = List.iter (fun op -> ignore (commit t op)) ops
let pending t = fifo_length t.queue - t.stale

let is_committed t op =
  match status t op with
  | Committed -> true
  | In_pool | Taken | Unseen -> false

(* The FIFO's entries whose status code is still [keep], in order. *)
let live t q keep =
  let acc = ref [] in
  for i = q.tail - 1 downto q.head do
    let op = q.buf.(i) in
    if code_of t op = keep then acc := op :: !acc
  done;
  !acc

let requeue_taken t =
  (* sort so the re-queued ops re-enter in canonical key order on every
     replica. Requeued ops were already admitted, so neither capacity nor
     per-client caps re-apply: occupancy is unchanged by
     In_pool <-> Taken moves. *)
  let ops = sort_by_key (live t t.taken (code Taken)) in
  clear t.taken;
  t.taken_live <- 0;
  List.iter
    (fun op ->
      set_status t op In_pool;
      push t.queue op)
    ops

let snapshot t = live t t.queue (code In_pool)
