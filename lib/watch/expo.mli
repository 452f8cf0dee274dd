(** Exposition surfaces for the live timeline: Prometheus-style text, a
    JSONL window log, and the [axmemo top] table/sparkline renderer. All
    pure rendering — deterministic for a given timeline. *)

val prometheus :
  ?namespace:string -> Timeline.t -> Alert.result list -> string
(** Prometheus text-format exposition ([# HELP]/[# TYPE] plus one sample
    per window, labeled [window="i"]; alert rules as
    [..._alert_fired_total{rule="..."}]). [namespace] defaults to
    ["axmemo"]. *)

val write_prometheus :
  ?namespace:string -> string -> Timeline.t -> Alert.result list -> unit
(** [write_prometheus path tl alerts] writes {!prometheus} to [path]
    (the serve [--expo FILE] artifact). *)

val window_log : Timeline.t -> string
(** One compact JSON object per line per window — the same fields as the
    ["timeline"] report section's [w<i>] objects plus a leading
    ["window"] index. *)

val write_window_log : string -> Timeline.t -> unit
(** The serve [--window-log FILE] artifact. *)

val sparkline : float array -> string
(** Unicode block-element sparkline (▁▂▃▄▅▆▇█), scaled to the array max;
    empty array renders as the empty string. *)

val render_timeline :
  ?alerts:Axmemo_util.Json.t ->
  label:string ->
  Axmemo_util.Json.t ->
  (string, string) result
(** Render one run's ["timeline"] JSON section (and optional ["alerts"]
    section) as a per-window table, sparkline summary, and alert status.
    [Error] names a field it cannot render: every leaf it reads
    must be a finite number, [windows] a count whose [w<i>] members all
    exist, and [alerts] an object. {!Timeline.to_json} and
    {!Alert.to_json} always satisfy this. *)

val top_of_report : Axmemo_util.Json.t -> (string, string) result
(** [axmemo top REPORT.json]: render every run row carrying a timeline;
    [Error] when the report has none, or ["<run label>: <what is wrong>"]
    for the first run whose section {!render_timeline} rejects. *)
