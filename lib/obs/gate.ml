module J = Json_lite

let schema = "marlin-bench/1"
let tolerance = 0.15

type kind = Rel of float | Abs of float | Exact | At_most of float
type check = string list * kind
type outcome = { records : int; checked : int; violations : string list }

let load ~target text =
  match J.parse text with
  | Error e -> Error e
  | Ok doc -> (
      match J.string_at [ "schema" ] doc with
      | None -> Error "not a bench JSON document (no \"schema\" field)"
      | Some s when not (String.equal s schema) ->
          Error (Printf.sprintf "schema %S, this binary speaks %S" s schema)
      | Some _ -> (
          let records =
            Option.value ~default:[]
              (Option.bind (J.member "records" doc) J.to_list)
          in
          let of_target r =
            match
              (J.string_at [ "target" ] r, J.string_at [ "label" ] r, J.member "data" r)
            with
            | Some t, Some label, Some data when String.equal t target ->
                Some (label, data)
            | _ -> None
          in
          match List.filter_map of_target records with
          | [] -> Error (Printf.sprintf "no %s records to compare against" target)
          | l -> Ok l))

let find label l =
  Option.map snd (List.find_opt (fun (l', _) -> String.equal l' label) l)

let diff checks ~baseline ~fresh =
  let fresh = List.map (fun (label, data) -> (label, J.parse data)) fresh in
  let checked = ref 0 in
  let check_field label b f (path, kind) =
    let fail fmt =
      Printf.ksprintf
        (fun what ->
          Some (Printf.sprintf "%-28s %-28s %s" label (String.concat "." path) what))
        fmt
    in
    match kind with
    | At_most bound -> (
        match J.float_at path f with
        | Some v when v > bound -> fail "fresh %.3g exceeds %.3g" v bound
        | _ -> None)
    | Exact -> (
        match (J.string_at path b, J.string_at path f) with
        | None, _ -> None
        | Some _, None -> fail "missing in fresh run"
        | Some bs, Some fs ->
            incr checked;
            if String.equal fs bs then None
            else fail "baseline %S fresh %S (exact)" bs fs)
    | Rel bound | Abs bound -> (
        match (J.float_at path b, J.float_at path f) with
        | None, _ -> None
        | Some _, None -> fail "missing in fresh run"
        | Some bv, Some fv ->
            incr checked;
            let scale, absolute =
              match kind with
              | Abs _ -> (1., " absolute")
              | _ -> (Float.max (Float.abs bv) 1e-9, "")
            in
            if Float.abs (fv -. bv) > (bound *. scale) +. 1e-12 then
              fail "baseline %-12.6g fresh %-12.6g (%+.1f%%, tolerance %.1f%%%s)"
                bv fv
                (100. *. (fv -. bv) /. scale)
                (100. *. bound) absolute
            else None)
  in
  let against_baseline (label, b) =
    match find label fresh with
    | None -> [ Printf.sprintf "%-28s missing from the fresh run" label ]
    | Some (Error e) ->
        [ Printf.sprintf "%-28s fresh record is not valid JSON: %s" label e ]
    | Some (Ok f) -> List.filter_map (check_field label b f) checks
  in
  let fresh_only (label, parsed) =
    match (find label baseline, parsed) with
    | Some _, _ -> None
    | None, Error e ->
        Some (Printf.sprintf "%-28s fresh record is not valid JSON: %s" label e)
    | None, Ok _ ->
        Some
          (Printf.sprintf "%-28s not in the baseline, so ungated (re-bless to gate it)"
             label)
  in
  let violations = List.concat_map against_baseline baseline in
  {
    records = List.length baseline;
    checked = !checked;
    violations = violations @ List.filter_map fresh_only fresh;
  }
