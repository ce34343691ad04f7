(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
   (spans are written under --out-dir when given). Every metric is
   printed as "name = value unit", then the result as one JSON line. The
   exit code is non-zero when any correctness check fails. *)

open Perfbench

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
    (String.concat "|" (Workloads.names ()));
  exit 2

let () =
  let workload = ref None
  and seed = ref 1
  and seconds = ref 20.
  and trace = ref false
  and out_dir = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Workloads.find v;
        if Option.is_none !workload then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := (match int_of_string_opt v with Some s -> s | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        seconds :=
          (match float_of_string_opt v with
          | Some s when s > 0. -> s
          | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := String.equal v "1";
        parse rest
    | "--out-dir" :: v :: rest ->
        out_dir := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match !workload with Some w -> w | None -> usage () in
  let o =
    if !trace then Suite.per_layer ?out_dir:!out_dir w ~seed:!seed
    else Suite.end_to_end w ~seed:!seed ~seconds:!seconds
  in
  Printf.printf "perfbench %s seed=%d trace=%d\n" w.Workloads.name !seed
    (if !trace then 1 else 0);
  List.iter (Printf.printf "  %s\n") o.Suite.notes;
  List.iter
    (fun mt -> Printf.printf "%-30s = %.6g %s\n" mt.Report.name mt.Report.value mt.Report.unit_)
    o.Suite.metrics;
  List.iter
    (fun (name, ok) -> Printf.printf "check %-4s %s\n" (if ok then "ok" else "FAIL") name)
    o.Suite.checks;
  let correct = List.for_all snd o.Suite.checks && o.Suite.failed = 0 in
  print_endline
    (Report.json_line ~correct ~attempted:o.Suite.attempted ~failed:o.Suite.failed
       o.Suite.metrics);
  exit (if correct then 0 else 1)
