let block_size = 64

(* A prepared key: the SHA-256 states left after absorbing the xor-padded
   inner and outer key blocks, built on the key's first tag. A tag starts
   from copies of them, so the two pad-block compressions (half of a
   short message's four) are paid once per key instead of once per tag —
   the same key tags every vote, partial and QC in a run. Building them
   on first use keeps [prepare], and so setting up a keychain, free of
   compressions. *)
type key = { inner : Sha256.Ctx.ctx Lazy.t; outer : Sha256.Ctx.ctx Lazy.t }

let prepare raw =
  let raw =
    if String.length raw > block_size then Sha256.to_raw (Sha256.string raw)
    else raw
  in
  let absorb c =
    let ctx = Sha256.Ctx.create () in
    Sha256.Ctx.feed_string ctx
      (String.init block_size (fun i ->
           let k = if i < String.length raw then Char.code raw.[i] else 0 in
           Char.chr (k lxor c)));
    ctx
  in
  { inner = lazy (absorb 0x36); outer = lazy (absorb 0x5c) }

let mac_prepared ~key msg =
  let inner = Sha256.Ctx.copy (Lazy.force key.inner) in
  Sha256.Ctx.feed_string inner msg;
  let inner_digest = Sha256.Ctx.finalize inner in
  let outer = Sha256.Ctx.copy (Lazy.force key.outer) in
  Sha256.Ctx.feed_string outer (Sha256.to_raw inner_digest);
  Sha256.Ctx.finalize outer

let mac ~key msg = mac_prepared ~key:(prepare key) msg
