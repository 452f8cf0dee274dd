(** Run-report diffing and the regression gate.

    Loads two schema-v1 run reports (see {!Axmemo_telemetry.Report}),
    aligns their runs by [(benchmark, config)], and compares every scalar
    metric: [summary.<key>], [counters.<name>], [gauges.<name>],
    [histograms.<name>.total]/[.sum], and every scalar leaf of each report
    section (every other object member of a run, e.g. [profile],
    [service], [cluster], [timeline], [alerts]) as [<section>.<path>],
    nested objects dot-flattened — so a latency percentile gates as e.g.
    [service.total_latency_cycles.p999] and a profile total as
    [profile.total_cycles]. Series and arrays are skipped; non-numeric
    fields (strings) are compared for equality and reported as a violation
    when they differ.

    The simulator is deterministic, so the default tolerance is {e
    exact}: any numeric drift is a violation unless the tolerance spec
    loosens it. A run present in one report but absent from the other is
    always a violation. *)

type tol = { rel : float; abs : float }
(** A delta passes when [|b - a| <= abs] {b or} [|b - a| / |a| <= rel]
    (with [a = 0]: only [b = 0] passes the relative test). *)

type tolerances
(** Pattern table mapping metric names to {!tol}, with a default. *)

val exact : tolerances
(** The default: every metric must match bit-for-bit. *)

val parse_tolerances : string -> (tolerances, string) result
(** Parses a comma-separated spec of [name=rel] or [name=rel:abs]
    entries, e.g.
    ["default=0.01,counters.mem.*=0.05:2,summary.wall_s=1e9"].
    [name] may contain ['*'] wildcards (any substring); the most specific
    (longest) matching pattern wins, [default=] sets the fallback. *)

val tol_for : tolerances -> string -> tol

type delta = {
  run_key : string;  (** ["<benchmark>/<config>"] *)
  metric : string;  (** flattened name, e.g. ["counters.lut.l1.hit"] *)
  a : float;
  b : float;
  abs_delta : float;  (** [b -. a] *)
  rel_delta : float;  (** [(b -. a) /. a]; [nan] when [a = 0.] and [b <> 0.] *)
  tol : tol;
  violation : bool;
}

type report_diff = {
  deltas : delta list;  (** run order of report A, metric name order *)
  changed : delta list;  (** the subset with a non-zero delta *)
  violations : delta list;  (** the subset outside tolerance *)
  missing_in_b : string list;  (** run keys only report A has *)
  missing_in_a : string list;  (** run keys only report B has *)
}

val diff :
  ?tol:tolerances ->
  Axmemo_util.Json.t ->
  Axmemo_util.Json.t ->
  (report_diff, string) result
(** [diff a b] compares two parsed reports; [Error] only on malformed
    reports (no ["runs"] array, a run without [benchmark]/[config]). *)

val diff_files :
  ?tol:tolerances -> string -> string -> (report_diff, string) result
(** Convenience: {!Axmemo_util.Json.read_file} both paths, then {!diff}. *)

val gate_ok : report_diff -> bool
(** [true] iff there are no violations and no missing runs — the
    [axmemo diff --gate] exit condition. *)

val render : ?show_all:bool -> report_diff -> string
(** Human summary: missing runs, then each violation with both values and
    its tolerance, then a one-line verdict. [?show_all] also lists the
    in-tolerance changes. *)
