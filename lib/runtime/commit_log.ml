(* Entry [i] is [times.(i)] with [totals.(i)] ops executed up to and
   including it; both arrays double as they fill. *)
type t = {
  mutable times : float array;
  mutable totals : int array;
  mutable len : int;
}

let create () = { times = Array.make 16 0.; totals = Array.make 16 0; len = 0 }
let total t = if t.len = 0 then 0 else t.totals.(t.len - 1)

let append t ~time ~ops =
  if t.len > 0 && not (time >= t.times.(t.len - 1)) then
    invalid_arg "Commit_log.append: time before the previous entry";
  if t.len = Array.length t.times then begin
    let times = Array.make (2 * t.len) 0. and totals = Array.make (2 * t.len) 0 in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.totals 0 totals 0 t.len;
    t.times <- times;
    t.totals <- totals
  end;
  let total = total t + ops in
  t.times.(t.len) <- time;
  t.totals.(t.len) <- total;
  t.len <- t.len + 1

(* The first entry whose time satisfies [past], a predicate that holds
   from some entry on; [t.len] when none does. *)
let first t past =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if past t.times.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let first_after t instant =
  let i = first t (fun time -> time > instant) in
  if i < t.len then Some t.times.(i) else None

let ops_in t ~since ~until =
  let lo = first t (fun time -> time >= since)
  and hi = first t (fun time -> not (time <= until)) in
  let upto i = if i = 0 then 0 else t.totals.(i - 1) in
  if hi <= lo then 0 else upto hi - upto lo
