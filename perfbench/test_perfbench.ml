(* The benchmark's own tests: the probe wrapper does not perturb the
   simulation, self time is duration minus child coverage, and every
   metric the command prints is declared in BENCHMARK.json. *)

open Perfbench
module Json = Marlin_obs.Json_lite

let tiny ?(churn = false) ?(window = 1.5) name protocols =
  {
    Workloads.name;
    why = "test";
    protocols;
    n = 4;
    rate = 2_000.;
    warmup = 0.5;
    window;
    churn;
  }

let transparent registry_name () =
  let w = tiny "tiny" [ ("p", registry_name) ] in
  let plain = Runner.run w ~seed:3 ("p", registry_name) in
  let traced = Runner.run ~traced:true w ~seed:3 ("p", registry_name) in
  Alcotest.(check bool) "agreement" true plain.Runner.result.Runner.agreement;
  Alcotest.(check bool) "ops committed" true (plain.Runner.result.Runner.completed > 0);
  Alcotest.(check string) "traced = untraced, bit for bit"
    (Runner.fingerprint plain.Runner.result)
    (Runner.fingerprint traced.Runner.result);
  let t = Option.get traced.Runner.trace in
  let core =
    Array.to_list t.Runner.layers
    |> List.filteri (fun l _ -> Probe.is_core l)
    |> List.fold_left (fun acc (x : Spans.layer_total) -> acc + x.Spans.count) 0
  in
  Alcotest.(check bool) "callbacks were timed" true (core > 0)

(* root [0,100] with children [10,30] (holding [12,15]), [20,50]
   overlapping it, and [90,120] running past the root's end; recorded
   out of start order on purpose *)
let self_time () =
  let s = Spans.create () in
  let root = Spans.add s ~layer:0 ~parent:(-1) ~t0:0 ~t1:100 ~words:10. in
  let late = Spans.add s ~layer:1 ~parent:root ~t0:90 ~t1:120 ~words:1. in
  let a = Spans.add s ~layer:1 ~parent:root ~t0:10 ~t1:30 ~words:4. in
  let _ = Spans.add s ~layer:2 ~parent:a ~t0:12 ~t1:15 ~words:1. in
  let b = Spans.add s ~layer:1 ~parent:root ~t0:20 ~t1:50 ~words:2. in
  let self = Spans.self_ns s in
  Alcotest.(check int) "root: 100 - |[10,50] u [90,100]|" 50 self.(root);
  Alcotest.(check int) "child with a grandchild" 17 self.(a);
  Alcotest.(check int) "overlapping sibling keeps its own duration" 30 self.(b);
  Alcotest.(check int) "child past the parent keeps its duration" 30 self.(late);
  let totals = Spans.by_layer s ~layers:3 in
  Alcotest.(check int) "layer 1 self" 77 totals.(1).Spans.self_ns;
  Alcotest.(check int) "layer 1 count" 3 totals.(1).Spans.count;
  Alcotest.(check (float 1e-9)) "root self words" 3. totals.(0).Spans.self_words;
  Alcotest.(check (float 1e-9)) "layer 1 self words" 6. totals.(1).Spans.self_words;
  Alcotest.(check int) "one span escapes its parent" 1 (Spans.escaped s)

(* more spans than the initial capacity: every one survives the growth *)
let growth () =
  let s = Spans.create () in
  let n = Spans.capacity + 3 in
  for i = 0 to n - 1 do
    ignore (Spans.add s ~layer:(i mod 2) ~parent:(-1) ~t0:(2 * i) ~t1:((2 * i) + 1) ~words:1.)
  done;
  let totals = Spans.by_layer s ~layers:2 in
  Alcotest.(check int) "spans kept" n (totals.(0).Spans.count + totals.(1).Spans.count);
  Alcotest.(check int) "self ns" n (totals.(0).Spans.self_ns + totals.(1).Spans.self_ns);
  Alcotest.(check (float 1e-9)) "words" (float_of_int n)
    (totals.(0).Spans.self_words +. totals.(1).Spans.self_words)

let declared section =
  let path = "../BENCHMARK.json" in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json = Json.parse_exn text in
  Option.get (Option.bind (Json.member section json) Json.to_list)
  |> List.map (fun m ->
         ( Option.get (Json.string_at [ "name" ] m),
           Option.get (Json.string_at [ "unit" ] m) ))

let same_names section (o : Suite.outcome) =
  let printed = List.map (fun mt -> (mt.Report.name, mt.Report.unit_)) o.Suite.metrics in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " is a valid name") true (Report.valid_name name))
    printed;
  let sort = List.sort compare in
  Alcotest.(check (list (pair string string)))
    (section ^ ": printed names and units = BENCHMARK.json")
    (sort (declared section)) (sort printed);
  List.iter (fun (name, ok) -> Alcotest.(check bool) name true ok) o.Suite.checks

let names () =
  let protocols = [ ("marlin", "chained-marlin"); ("hotstuff", "chained-hotstuff") ] in
  let w = tiny ~window:4.5 "tiny" protocols in
  same_names "end_to_end" (Suite.end_to_end w ~seed:5 ~seconds:0.);
  same_names "per_layer" (Suite.per_layer w ~seed:5)

let () =
  Alcotest.run "perfbench"
    [
      ( "wrapper",
        List.map
          (fun p -> Alcotest.test_case ("transparent: " ^ p) `Quick (transparent p))
          [ "marlin"; "hotstuff"; "chained-marlin"; "chained-hotstuff" ] );
      ( "spans",
        [
          Alcotest.test_case "self time = duration - child coverage" `Quick self_time;
          Alcotest.test_case "growth past the initial capacity" `Quick growth;
        ] );
      ("names", [ Alcotest.test_case "printed metrics match BENCHMARK.json" `Quick names ]);
    ]
