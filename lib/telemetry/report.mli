(** Versioned, machine-readable run reports.

    One schema serves every producer — [axmemo run --metrics],
    [axmemo sweep --metrics], and [bench/main.exe --perf-smoke] — so runs
    are diffable across tools and PRs:

    {v
    {
      "schema_version": 1,
      "generator": "axmemo",
      "runs": [
        { "benchmark": "...", "config": "...",
          "summary": { <flat scalar facts of the run> },
          "metrics": { "counters": {...}, "gauges": {...},
                       "histograms": {...}, "series": {...} },
          <the row's sections, in order> },
        ...
      ],
      "aggregate": { <Registry.merge of all runs' metrics> },
      <optional extra top-level fields from the producer>
    }
    v}

    Runs appear in cell order (the order the caller supplies, which for
    [Runner.run_matrix] is the input order regardless of [--jobs]), and
    every map inside [metrics]/[aggregate] is name-sorted, so a report is
    byte-reproducible for a deterministic simulation. *)

val schema_version : int
(** Bump when a field is renamed, removed, or changes meaning; additions
    are backwards-compatible and do not bump it. *)

type run = {
  benchmark : string;
  config : string;
  summary : (string * Axmemo_util.Json.t) list;  (** flat scalars only *)
  metrics : Registry.snapshot;
  sections : (string * Axmemo_util.Json.t) list;
      (** named report sections, rendered in order after [metrics]: the
          producer decides which exist ([profile] from [Obs.Profile],
          [service], [cluster], [timeline] and [alerts] from the serve and
          cluster layers). [Obs.Diff] flattens each one's scalar leaves
          outside arrays as [<name>.<path>], so every section is
          regression-gated. Additive:
          a row with none is byte-identical to schema v1 before sections
          existed, and no section bumps the version. *)
}

val make : ?extra:(string * Axmemo_util.Json.t) list -> run list -> Axmemo_util.Json.t
(** [make runs] builds the report object; [extra] fields are appended at
    the top level after the standard ones (the bench perf-smoke uses this
    for its wall-clock measurements).
    @raise Invalid_argument when two runs share a [(benchmark, config)]
    key — a duplicate would be unaddressable for any consumer that aligns
    runs (e.g. [axmemo diff]). *)

val write : ?extra:(string * Axmemo_util.Json.t) list -> string -> run list -> unit
(** [write path runs] saves [make runs] to [path], pretty-printed. *)

val to_csv : run list -> string
(** Long-format CSV matrix of every scalar metric: header
    [benchmark,config,metric,value], one row per summary field, counter and
    gauge, plus [<hist>.le_<bound>]/[<hist>.overflow]/[<hist>.total]/
    [<hist>.sum] rows per histogram. Series are omitted (they carry a time
    axis; use the JSON report). Fields are quoted/escaped per RFC 4180. *)

val write_csv : string -> run list -> unit
