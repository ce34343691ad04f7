(** The bench regression gate's comparison: the records of a fresh run
    against a committed [marlin-bench/1] baseline, one metric at a time.

    Pure: reading the baseline file, running the bench, the wall clock and
    the wall-time budget stay with the caller ([bench/main.ml]), so the
    test suite exercises exactly the comparison the gates run. *)

val schema : string
(** ["marlin-bench/1"]: the envelope every bench [--json] document
    carries, [{"schema":..., "wall_seconds":..., "records":[{"target":...,
    "label":..., "data":{...}}, ...]}]. *)

val tolerance : float
(** The gate tolerance, 0.15: the relative bound for timing metrics
    (throughput, latency, goodput), leaving headroom for intentional
    cost-model tweaks. Structural counts use tighter fixed bounds. *)

type kind =
  | Rel of float
      (** [|fresh - base| <= bound * max |base| 1e-9] (plus 1e-12 of
          float slack) *)
  | Abs of float  (** [|fresh - base| <= bound]: for fractions of 1 *)
  | Exact  (** a string field, equal to the baseline's *)
  | At_most of float
      (** fresh-only invariant: [fresh <= bound] whenever the fresh record
          has the field, whatever the baseline holds. Not counted as a
          compared metric. *)

type check = string list * kind
(** A JSON path into a record's data, and how to check it. A comparing
    check ([Rel], [Abs], [Exact]) applies to a record iff the baseline
    record has the field. *)

type outcome = {
  records : int;  (** baseline records *)
  checked : int;  (** metrics compared (present on both sides) *)
  violations : string list;
      (** one line each, naming the record and the metric: in baseline
          order, then fresh records the baseline lacks (they would land
          ungated) in fresh order. A record whose data is not valid JSON
          is reported as such, not as missing. *)
}

val load : target:string -> string -> ((string * Json_lite.t) list, string) result
(** [load ~target text] parses a baseline document and returns its
    [(label, data)] records for [target], in document order. [Error] on
    malformed JSON, a missing or foreign schema, or no records for
    [target]. *)

val diff :
  check list ->
  baseline:(string * Json_lite.t) list ->
  fresh:(string * string) list ->
  outcome
(** [diff checks ~baseline ~fresh] checks every baseline record against
    the fresh record with the same label ([fresh] data is unparsed JSON,
    as the bench recorded it). *)
