(* Tests for the crypto substrate: SHA-256 against FIPS/NIST vectors, HMAC
   against RFC 4231 vectors, and the simulated signature schemes. *)

open Marlin_crypto

let check_hex msg expected input =
  Alcotest.(check string) msg expected (Sha256.to_hex (Sha256.string input))

(* NIST FIPS 180-4 examples + RFC 6234 test cases. *)
let test_sha256_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" "";
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" "abc";
  check_hex "448"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  check_hex "896"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
     ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (String.make 1_000_000 'a')

(* Feeding the same data in different chunkings must give the same digest. *)
let test_sha256_incremental () =
  let data = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  let whole = Sha256.string data in
  let chunked sizes =
    let ctx = Sha256.Ctx.create () in
    let pos = ref 0 in
    let rec go = function
      | [] ->
          if !pos < String.length data then
            Sha256.Ctx.feed_string ctx
              (String.sub data !pos (String.length data - !pos))
      | s :: rest ->
          let len = min s (String.length data - !pos) in
          Sha256.Ctx.feed_string ctx (String.sub data !pos len);
          pos := !pos + len;
          go rest
    in
    go sizes;
    Sha256.Ctx.finalize ctx
  in
  List.iter
    (fun sizes ->
      Alcotest.(check string)
        "chunked = whole" (Sha256.to_hex whole)
        (Sha256.to_hex (chunked sizes)))
    [ [ 1 ]; [ 63; 1; 64; 65 ]; [ 64; 64 ]; [ 100; 28; 5000 ]; [ 9999; 1 ] ]

let test_sha256_raw_hex_roundtrip () =
  let d = Sha256.string "roundtrip" in
  Alcotest.(check bool) "of_raw . to_raw" true
    (Sha256.equal d (Sha256.of_raw (Sha256.to_raw d)));
  Alcotest.(check bool) "of_hex . to_hex" true
    (Sha256.equal d (Sha256.of_hex (Sha256.to_hex d)));
  Alcotest.check_raises "of_raw wrong length"
    (Invalid_argument "Sha256.of_raw: need 32 bytes") (fun () ->
      ignore (Sha256.of_raw "short"))

(* RFC 4231 test cases 1, 2 and 6 (long key). *)
let test_hmac_vectors () =
  let check msg ~key ~data expected =
    Alcotest.(check string) msg expected (Sha256.to_hex (Hmac.mac ~key data))
  in
  check "rfc4231 case 1"
    ~key:(String.make 20 '\x0b')
    ~data:"Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check "rfc4231 case 2" ~key:"Jefe" ~data:"what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check "rfc4231 case 6 (131-byte key)"
    ~key:(String.make 131 '\xaa')
    ~data:"Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

let test_signature () =
  let kc = Keychain.create ~n:4 () in
  let s = Signature.sign kc ~signer:2 "hello" in
  Alcotest.(check bool) "valid" true (Signature.verify kc "hello" s);
  Alcotest.(check bool) "wrong message" false (Signature.verify kc "hellO" s);
  Alcotest.(check bool) "wrong claimed signer" false
    (Signature.verify kc "hello" { s with signer = 3 });
  Alcotest.(check bool) "out of range signer" false
    (Signature.verify kc "hello" { s with signer = 9 })

let test_keychain_determinism () =
  let kc1 = Keychain.create ~seed:"s" ~n:4 ()
  and kc2 = Keychain.create ~seed:"s" ~n:4 ()
  and kc3 = Keychain.create ~seed:"other" ~n:4 () in
  Alcotest.(check string) "same seed, same key" (Keychain.secret kc1 1)
    (Keychain.secret kc2 1);
  Alcotest.(check bool) "different seed, different key" false
    (String.equal (Keychain.secret kc1 1) (Keychain.secret kc3 1));
  Alcotest.(check bool) "distinct replicas, distinct keys" false
    (String.equal (Keychain.secret kc1 0) (Keychain.secret kc1 1));
  Alcotest.check_raises "n must be positive"
    (Invalid_argument "Keychain.create: n must be positive") (fun () ->
      ignore (Keychain.create ~n:0 ()))

let test_threshold_combine () =
  let kc = Keychain.create ~n:4 () in
  let msg = "block-digest" in
  let share i = Threshold.sign kc ~signer:i msg in
  let partials = [ share 0; share 1; share 3 ] in
  match Threshold.combine kc ~threshold:3 msg partials with
  | Error e -> Alcotest.failf "combine failed: %s" e
  | Ok t ->
      Alcotest.(check (list int)) "signers sorted" [ 0; 1; 3 ] t.signers;
      Alcotest.(check bool) "verifies" true
        (Threshold.verify kc ~threshold:3 msg t);
      Alcotest.(check bool) "wrong msg fails" false
        (Threshold.verify kc ~threshold:3 "other" t);
      Alcotest.(check bool) "higher threshold fails" false
        (Threshold.verify kc ~threshold:4 msg t)

let test_threshold_insufficient () =
  let kc = Keychain.create ~n:4 () in
  let msg = "m" in
  let share i = Threshold.sign kc ~signer:i msg in
  (* Duplicates do not count twice. *)
  (match Threshold.combine kc ~threshold:3 msg [ share 0; share 0; share 1 ] with
  | Ok _ -> Alcotest.fail "combined with duplicate shares"
  | Error _ -> ());
  (* Invalid shares (wrong message) do not count. *)
  let bad = Threshold.sign kc ~signer:2 "other-msg" in
  match Threshold.combine kc ~threshold:3 msg [ share 0; share 1; bad ] with
  | Ok _ -> Alcotest.fail "combined with an invalid share"
  | Error _ -> ()

let test_threshold_forgery_resistance () =
  let kc = Keychain.create ~n:4 () in
  let msg = "m" in
  let share i = Threshold.sign kc ~signer:i msg in
  match Threshold.combine kc ~threshold:3 msg [ share 0; share 1; share 2 ] with
  | Error e -> Alcotest.failf "combine failed: %s" e
  | Ok t ->
      (* Tampering with the signer list invalidates the certificate. *)
      Alcotest.(check bool) "extended signer list rejected" false
        (Threshold.verify kc ~threshold:3 msg { t with signers = [ 0; 1; 2; 3 ] });
      Alcotest.(check bool) "unsorted signer list rejected" false
        (Threshold.verify kc ~threshold:3 msg { t with signers = [ 1; 0; 2 ] })

let test_cost_model () =
  let open Cost_model in
  Alcotest.(check bool) "pairing verify dwarfs ecdsa verify" true
    (verify_cost bls_pairing > 5. *. verify_cost ecdsa_group);
  Alcotest.(check bool) "combine grows with shares" true
    (combine_cost ecdsa_group ~shares:100 > combine_cost ecdsa_group ~shares:3);
  (* ECDSA-group certificates grow linearly; BLS stays near-constant. *)
  let e n = combined_size ecdsa_group ~n ~shares:(2 * n / 3) in
  let b n = combined_size bls_pairing ~n ~shares:(2 * n / 3) in
  Alcotest.(check bool) "ecdsa cert linear in n" true (e 90 > 20 * (b 90 / 10));
  Alcotest.(check bool) "bls cert near-constant" true (b 900 - b 9 < 120);
  Alcotest.(check bool) "hash cost positive & linear" true
    (hash_cost ~bytes:2000 > hash_cost ~bytes:1000
    && hash_cost ~bytes:1000 > 0.)

(* RFC 2104 written out: H((K' xor opad) || H((K' xor ipad) || m)), with
   K' the key (hashed first when longer than a block) zero-padded to 64. *)
let reference_hmac ~key msg =
  let key = if String.length key > 64 then Sha256.to_raw (Sha256.string key) else key in
  let pad c =
    String.init 64 (fun i ->
        Char.chr ((if i < String.length key then Char.code key.[i] else 0) lxor c))
  in
  Sha256.string
    (pad 0x5c ^ Sha256.to_raw (Sha256.string (pad 0x36 ^ msg)))

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:300 ~name:"hmac from prepared midstates = RFC 2104"
      (pair (string_of_size Gen.(0 -- 150)) (string_of_size Gen.(0 -- 200)))
      (fun (key, msg) ->
        let prepared = Hmac.prepare key in
        let tag = Hmac.mac_prepared ~key:prepared msg in
        Sha256.equal tag (Hmac.mac ~key msg)
        && Sha256.equal tag (reference_hmac ~key msg)
        (* the prepared key is reusable: a second tag starts afresh *)
        && Sha256.equal (Hmac.mac_prepared ~key:prepared msg) tag);
    Test.make ~count:200 ~name:"sha256 context copy is independent"
      (triple (string_of_size Gen.(0 -- 150)) (string_of_size Gen.(0 -- 150))
         (string_of_size Gen.(0 -- 150)))
      (fun (prefix, a, b) ->
        let ctx = Sha256.Ctx.create () in
        Sha256.Ctx.feed_string ctx prefix;
        let copy = Sha256.Ctx.copy ctx in
        Sha256.Ctx.feed_string copy b;
        Sha256.Ctx.feed_string ctx a;
        Sha256.equal (Sha256.Ctx.finalize ctx) (Sha256.string (prefix ^ a))
        && Sha256.equal (Sha256.Ctx.finalize copy) (Sha256.string (prefix ^ b)));
    Test.make ~count:200 ~name:"sha256 hex roundtrip"
      (string_of_size Gen.(0 -- 300))
      (fun s ->
        let d = Sha256.string s in
        Sha256.equal d (Sha256.of_hex (Sha256.to_hex d)));
    Test.make ~count:200 ~name:"sha256 injective on samples"
      (pair (string_of_size Gen.(0 -- 64)) (string_of_size Gen.(0 -- 64)))
      (fun (a, b) ->
        String.equal a b || not (Sha256.equal (Sha256.string a) (Sha256.string b)));
    Test.make ~count:100 ~name:"signature verifies for any message"
      (string_of_size Gen.(0 -- 200))
      (fun msg ->
        let kc = Keychain.create ~n:7 () in
        let s = Signature.sign kc ~signer:5 msg in
        Signature.verify kc msg s);
    Test.make ~count:100 ~name:"threshold combine-verify for any quorum"
      (pair (string_of_size Gen.(1 -- 100)) (int_range 0 120))
      (fun (msg, salt) ->
        let n = 7 in
        let kc = Keychain.create ~seed:(string_of_int salt) ~n () in
        let partials =
          List.init 5 (fun i -> Threshold.sign kc ~signer:i msg)
        in
        match Threshold.combine kc ~threshold:5 msg partials with
        | Error _ -> false
        | Ok t -> Threshold.verify kc ~threshold:5 msg t);
  ]

let suite =
  [
    ("sha256 NIST vectors", `Quick, test_sha256_vectors);
    ("sha256 incremental chunking", `Quick, test_sha256_incremental);
    ("sha256 raw/hex roundtrips", `Quick, test_sha256_raw_hex_roundtrip);
    ("hmac RFC 4231 vectors", `Quick, test_hmac_vectors);
    ("signature sign/verify", `Quick, test_signature);
    ("keychain determinism", `Quick, test_keychain_determinism);
    ("threshold combine & verify", `Quick, test_threshold_combine);
    ("threshold insufficient shares", `Quick, test_threshold_insufficient);
    ("threshold forgery resistance", `Quick, test_threshold_forgery_resistance);
    ("cost model sanity", `Quick, test_cost_model);
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases

let () = Alcotest.run "crypto" [ ("crypto", suite) ]
