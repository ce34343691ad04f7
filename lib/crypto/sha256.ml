(* SHA-256 per FIPS 180-4. The compression function operates on Int32 words;
   message scheduling and padding follow the specification directly. *)

type t = string (* 32 raw bytes *)

let digest_size = 32

let k =
  [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
     0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
     0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
     0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
     0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
     0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
     0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
     0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
     0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
     0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
     0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
     0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
     0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

module Ctx = struct
  type ctx = {
    h : int32 array; (* 8 working hash values *)
    buf : Bytes.t; (* 64-byte block buffer *)
    mutable buf_len : int; (* bytes currently in [buf] *)
    mutable total : int64; (* total message bytes fed *)
    w : int32 array; (* 64-entry message schedule, reused *)
  }

  let create () =
    {
      h =
        [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
           0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |];
      buf = Bytes.create 64;
      buf_len = 0;
      total = 0L;
      w = Array.make 64 0l;
    }

  let copy ctx =
    {
      h = Array.copy ctx.h;
      buf = Bytes.copy ctx.buf;
      buf_len = ctx.buf_len;
      total = ctx.total;
      w = Array.make 64 0l;
    }

  let ( &&& ) = Int32.logand
  let ( ^^^ ) = Int32.logxor
  let ( ||| ) = Int32.logor
  let ( +% ) = Int32.add
  let lnot32 = Int32.lognot

  let rotr x n =
    Int32.shift_right_logical x n ||| Int32.shift_left x (32 - n)

  let shr = Int32.shift_right_logical

  (* Process one 64-byte block starting at [off] in [b]. *)
  let compress ctx b off =
    let w = ctx.w in
    for i = 0 to 15 do
      let j = off + (i * 4) in
      let byte n = Int32.of_int (Char.code (Bytes.get b (j + n))) in
      w.(i) <-
        Int32.shift_left (byte 0) 24
        ||| Int32.shift_left (byte 1) 16
        ||| Int32.shift_left (byte 2) 8
        ||| byte 3
    done;
    for i = 16 to 63 do
      let s0 =
        rotr w.(i - 15) 7 ^^^ rotr w.(i - 15) 18 ^^^ shr w.(i - 15) 3
      in
      let s1 =
        rotr w.(i - 2) 17 ^^^ rotr w.(i - 2) 19 ^^^ shr w.(i - 2) 10
      in
      w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
    done;
    let h = ctx.h in
    let a = ref h.(0)
    and bb = ref h.(1)
    and c = ref h.(2)
    and d = ref h.(3)
    and e = ref h.(4)
    and f = ref h.(5)
    and g = ref h.(6)
    and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 ^^^ rotr !e 11 ^^^ rotr !e 25 in
      let ch = (!e &&& !f) ^^^ (lnot32 !e &&& !g) in
      let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
      let s0 = rotr !a 2 ^^^ rotr !a 13 ^^^ rotr !a 22 in
      let maj = (!a &&& !bb) ^^^ (!a &&& !c) ^^^ (!bb &&& !c) in
      let temp2 = s0 +% maj in
      hh := !g;
      g := !f;
      f := !e;
      e := !d +% temp1;
      d := !c;
      c := !bb;
      bb := !a;
      a := temp1 +% temp2
    done;
    h.(0) <- h.(0) +% !a;
    h.(1) <- h.(1) +% !bb;
    h.(2) <- h.(2) +% !c;
    h.(3) <- h.(3) +% !d;
    h.(4) <- h.(4) +% !e;
    h.(5) <- h.(5) +% !f;
    h.(6) <- h.(6) +% !g;
    h.(7) <- h.(7) +% !hh

  let feed_sub ctx (src : bytes) pos len =
    ctx.total <- Int64.add ctx.total (Int64.of_int len);
    let pos = ref pos and len = ref len in
    (* Fill a partially filled buffer first. *)
    if ctx.buf_len > 0 then begin
      let need = 64 - ctx.buf_len in
      let take = min need !len in
      Bytes.blit src !pos ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := !pos + take;
      len := !len - take;
      if ctx.buf_len = 64 then begin
        compress ctx ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    (* Whole blocks straight from the source. *)
    while !len >= 64 do
      compress ctx src !pos;
      pos := !pos + 64;
      len := !len - 64
    done;
    if !len > 0 then begin
      Bytes.blit src !pos ctx.buf 0 !len;
      ctx.buf_len <- !len
    end

  let feed_bytes ctx b = feed_sub ctx b 0 (Bytes.length b)

  let feed_string ctx s =
    feed_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)

  let finalize ctx =
    let bit_len = Int64.mul ctx.total 8L in
    (* Padding: 0x80, zeros, then 64-bit big-endian length. *)
    let pad_len =
      let rem = (ctx.buf_len + 1 + 8) mod 64 in
      if rem = 0 then 1 + 8 else 1 + 8 + (64 - rem)
    in
    let pad = Bytes.make pad_len '\000' in
    Bytes.set pad 0 '\x80';
    for i = 0 to 7 do
      Bytes.set pad
        (pad_len - 1 - i)
        (Char.chr
           (Int64.to_int (Int64.logand (Int64.shift_right_logical bit_len (8 * i)) 0xFFL)))
    done;
    feed_sub ctx pad 0 pad_len;
    assert (ctx.buf_len = 0);
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      let v = ctx.h.(i) in
      let byte n =
        Char.chr (Int32.to_int (Int32.logand (shr v (24 - (8 * n))) 0xFFl))
      in
      for n = 0 to 3 do
        Bytes.set out ((i * 4) + n) (byte n)
      done
    done;
    Bytes.unsafe_to_string out
end

let string s =
  let ctx = Ctx.create () in
  Ctx.feed_string ctx s;
  Ctx.finalize ctx

let bytes b =
  let ctx = Ctx.create () in
  Ctx.feed_bytes ctx b;
  Ctx.finalize ctx

let to_raw d = d

let of_raw s =
  if String.length s <> 32 then invalid_arg "Sha256.of_raw: need 32 bytes";
  s

let hex_chars = "0123456789abcdef"

let to_hex d =
  let out = Bytes.create 64 in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set out (2 * i) hex_chars.[v lsr 4];
      Bytes.set out ((2 * i) + 1) hex_chars.[v land 0xF])
    d;
  Bytes.unsafe_to_string out

let of_hex s =
  if String.length s <> 64 then invalid_arg "Sha256.of_hex: need 64 chars";
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Sha256.of_hex: bad character"
  in
  String.init 32 (fun i ->
      Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))

let equal = String.equal
let compare = String.compare
(* lint: allow poly-compare — a digest is a flat string; this {e is} the keyed hash *)
let hash d = Hashtbl.hash d
let pp fmt d = Format.pp_print_string fmt (String.sub (to_hex d) 0 8)
let pp_full fmt d = Format.pp_print_string fmt (to_hex d)
