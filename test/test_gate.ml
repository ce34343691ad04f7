(* Tests for the bench regression gate's comparison (Marlin_obs.Gate):
   hand-built marlin-bench/1 documents against fresh records, one check
   kind at a time, plus the baseline loader's refusals. *)

module Gate = Marlin_obs.Gate

let doc ?(schema = Gate.schema) records =
  Printf.sprintf {|{"schema":"%s","wall_seconds":0.0,"records":[%s]}|} schema
    (String.concat ","
       (List.map
          (fun (target, label, data) ->
            Printf.sprintf {|{"target":"%s","label":"%s","data":%s}|} target
              label data)
          records))

let baseline records =
  let records = List.map (fun (label, data) -> ("t", label, data)) records in
  match Gate.load ~target:"t" (doc records) with
  | Ok b -> b
  | Error e -> Alcotest.fail e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* [r] compared [checked] metrics and reported one violation line per
   entry of [lines], each containing every fragment of its entry *)
let expect name ~checked ~lines (r : Gate.outcome) =
  Alcotest.(check int) (name ^ ": metrics checked") checked r.Gate.checked;
  Alcotest.(check int)
    (name ^ ": violations")
    (List.length lines)
    (List.length r.Gate.violations);
  List.iter2
    (fun line fragments ->
      List.iter
        (fun fragment ->
          if not (contains line fragment) then
            Alcotest.failf "%s: %S does not mention %S" name line fragment)
        fragments)
    r.Gate.violations lines

(* one baseline record against one fresh record, both labelled "a" *)
let diff1 checks ~base ~fresh =
  Gate.diff checks ~baseline:(baseline [ ("a", base) ]) ~fresh:[ ("a", fresh) ]

let test_relative_tolerance () =
  let checks = [ ([ "x" ], Gate.Rel 0.15) ] in
  let base = {|{"x":100.0}|} in
  expect "just inside" ~checked:1 ~lines:[]
    (diff1 checks ~base ~fresh:{|{"x":114.9}|});
  expect "on the bound" ~checked:1 ~lines:[]
    (diff1 checks ~base ~fresh:{|{"x":85.0}|});
  expect "just outside" ~checked:1
    ~lines:[ [ "a "; " x "; "baseline 100"; "fresh 115.1"; "tolerance 15.0%" ] ]
    (diff1 checks ~base ~fresh:{|{"x":115.1}|});
  expect "nested path" ~checked:1
    ~lines:[ [ " p.q "; "tolerance 1.0%" ] ]
    (diff1 [ ([ "p"; "q" ], Gate.Rel 0.01) ] ~base:{|{"p":{"q":2.0}}|}
       ~fresh:{|{"p":{"q":2.1}}|})

let test_zero_baseline_floor () =
  (* a zero baseline scales by 1e-9, not 0: with a 1% bound the fresh
     value may stray 1e-11 (+ 1e-12 slack), no more *)
  let checks = [ ([ "x" ], Gate.Rel 0.01) ] in
  let base = {|{"x":0.0}|} in
  expect "inside the floor" ~checked:1 ~lines:[]
    (diff1 checks ~base ~fresh:{|{"x":5e-12}|});
  expect "outside the floor" ~checked:1 ~lines:[ [ " x "; "tolerance" ] ]
    (diff1 checks ~base ~fresh:{|{"x":1e-10}|})

let test_absolute_shares () =
  let checks = [ ([ "shares"; "cpu" ], Gate.Abs 0.10) ] in
  let run b f =
    diff1 checks
      ~base:(Printf.sprintf {|{"shares":{"cpu":%s}}|} b)
      ~fresh:(Printf.sprintf {|{"shares":{"cpu":%s}}|} f)
  in
  expect "within 10 points" ~checked:1 ~lines:[] (run "0.5" "0.59");
  expect "past 10 points" ~checked:1
    ~lines:[ [ " shares.cpu "; "absolute" ] ]
    (run "0.5" "0.61");
  (* 5x relative, 8 points absolute: passes *)
  expect "absolute, not relative" ~checked:1 ~lines:[] (run "0.02" "0.10")

let test_exact_string () =
  let checks = [ ([ "verdict" ], Gate.Exact) ] in
  let base = {|{"verdict":"nic-queue"}|} in
  expect "equal" ~checked:1 ~lines:[]
    (diff1 checks ~base ~fresh:{|{"verdict":"nic-queue"}|});
  expect "different" ~checked:1
    ~lines:[ [ " verdict "; {|"nic-queue"|}; {|"propagate"|}; "exact" ] ]
    (diff1 checks ~base ~fresh:{|{"verdict":"propagate"}|})

let test_fresh_only_invariant () =
  let checks = [ ([ "err" ], Gate.At_most 1e-9) ] in
  (* checked on the fresh record whatever the baseline holds, and never
     counted as a compared metric *)
  expect "breach, field absent from baseline" ~checked:0
    ~lines:[ [ " err "; "exceeds 1e-09" ] ]
    (diff1 checks ~base:{|{}|} ~fresh:{|{"err":1e-6}|});
  expect "breach, baseline also breached" ~checked:0
    ~lines:[ [ " err "; "exceeds" ] ]
    (diff1 checks ~base:{|{"err":1e-6}|} ~fresh:{|{"err":1e-6}|});
  expect "within" ~checked:0 ~lines:[]
    (diff1 checks ~base:{|{"err":0.0}|} ~fresh:{|{"err":1e-10}|});
  expect "absent from fresh" ~checked:0 ~lines:[]
    (diff1 checks ~base:{|{"err":0.0}|} ~fresh:{|{}|})

let test_missing_and_unchecked_fields () =
  let checks = [ ([ "x" ], Gate.Rel 0.15); ([ "s" ], Gate.Exact) ] in
  expect "fields missing from the fresh record" ~checked:0
    ~lines:
      [ [ " x "; "missing in fresh run" ]; [ " s "; "missing in fresh run" ] ]
    (diff1 checks ~base:{|{"x":1.0,"s":"v"}|} ~fresh:{|{"y":1.0}|});
  expect "fields absent from the baseline are not checked" ~checked:0
    ~lines:[]
    (diff1 checks ~base:{|{"y":1.0}|} ~fresh:{|{"x":1e9,"s":"w"}|})

let test_record_sets () =
  let checks = [ ([ "x" ], Gate.Rel 0.15) ] in
  let base = baseline [ ("a", {|{"x":1.0}|}); ("b", {|{"x":1.0}|}) ] in
  let run fresh =
    let r = Gate.diff checks ~baseline:base ~fresh in
    Alcotest.(check int) "baseline records" 2 r.Gate.records;
    r
  in
  expect "label missing from the fresh run" ~checked:1
    ~lines:[ [ "b "; "missing from the fresh run" ] ]
    (run [ ("a", {|{"x":1.0}|}) ]);
  expect "fresh label the baseline lacks is ungated" ~checked:2
    ~lines:[ [ "c "; "not in the baseline" ] ]
    (run [ ("a", {|{"x":1.0}|}); ("b", {|{"x":1.0}|}); ("c", {|{"x":1.0}|}) ]);
  expect "unparseable, not missing" ~checked:1
    ~lines:[ [ "b "; "not valid JSON" ]; [ "c "; "not valid JSON" ] ]
    (run [ ("a", {|{"x":1.0}|}); ("b", {|{"x":|}); ("c", "nope") ])

let test_load () =
  let is_error name = function
    | Ok _ -> Alcotest.failf "%s: loaded" name
    | Error _ -> ()
  in
  is_error "wrong schema"
    (Gate.load ~target:"t" (doc ~schema:"marlin-bench/0" [ ("t", "a", "{}") ]));
  is_error "no schema" (Gate.load ~target:"t" {|{"records":[]}|});
  is_error "no records for the target"
    (Gate.load ~target:"t" (doc [ ("u", "a", "{}") ]));
  is_error "malformed" (Gate.load ~target:"t" "{");
  match
    Gate.load ~target:"t"
      (doc [ ("t", "a", {|{"x":1}|}); ("u", "b", "{}"); ("t", "c", "{}") ])
  with
  | Ok records ->
      Alcotest.(check (list string)) "target's records, in order" [ "a"; "c" ]
        (List.map fst records)
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "relative tolerance bound" `Quick test_relative_tolerance;
    Alcotest.test_case "zero baseline floor" `Quick test_zero_baseline_floor;
    Alcotest.test_case "absolute shares" `Quick test_absolute_shares;
    Alcotest.test_case "exact strings" `Quick test_exact_string;
    Alcotest.test_case "fresh-only invariant" `Quick test_fresh_only_invariant;
    Alcotest.test_case "missing and unchecked fields" `Quick
      test_missing_and_unchecked_fields;
    Alcotest.test_case "record sets" `Quick test_record_sets;
    Alcotest.test_case "baseline loading" `Quick test_load;
  ]

let () = Alcotest.run "gate" [ ("gate", suite) ]
