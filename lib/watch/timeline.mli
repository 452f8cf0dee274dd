(** Fixed-width cycle windows over a run's simulated time — the live
    timeline under `axmemo serve --watch`.

    Events (admissions, sheds, queue-depth samples, request completions)
    are bucketed by cycle into windows of the current width. The buffer is
    bounded: when an event lands past the last window, adjacent window
    pairs merge and the width doubles (the Registry's series-decimation
    idiom), so the structure holds at most [cap] windows however long the
    run is. Feeding is deterministic — a pure function of the event stream
    — so serial and [--jobs N] matrices emit byte-identical timelines, and
    window deltas are conserved by construction: every event lands in
    exactly one window, so per-window counters sum {e exactly} to the
    end-of-run aggregates (pinned by a qcheck invariant). *)

type t

type traffic = {
  remote_probes : int;
  inv_sent : int;
      (** point-to-point LUT invalidation messages delivered to other
          nodes — the cluster section's [directory.sent]; always 0 on one
          node, which has no other node to tell *)
  net_messages : int;
  quality_samples : int;
  quality_bad : int;
  monitor_trips : int;
}
(** Cumulative cluster-side totals sampled around one request's execution;
    subtracting the before-sample from the after-sample attributes the
    difference to that request (runs execute requests serially, so the
    attribution is exact and deterministic). *)

val traffic_zero : traffic
val traffic_sub : traffic -> traffic -> traffic
val traffic_add : traffic -> traffic -> traffic

type completion = {
  at : int;  (** finish cycle; the window this completion lands in *)
  node : int;
  total_cycles : int;
  queue_wait_cycles : int;
  slo_ok : bool;
  cold : bool;
  lookups : int;
  hits : int;
  energy_pj : float;
  traffic : traffic;
}

type node_slot = { mutable ns_remote : int; mutable ns_inv : int }

type window = {
  mutable w_admitted : int;
  mutable w_shed : int;
  mutable w_completed : int;
  mutable w_slo_violations : int;
  mutable w_cold : int;
  mutable w_lookups : int;
  mutable w_hits : int;
  mutable w_cold_lookups : int;
  mutable w_cold_hits : int;
  mutable w_energy_pj : float;
  mutable w_max_depth : int;
  mutable w_traffic : traffic;
  w_lat : int array;
  w_nodes : node_slot array;
}

val create : ?cap:int -> window:int -> nodes:int -> unit -> t
(** [create ~window ~nodes ()] starts a timeline with [window]-cycle
    windows over a [nodes]-node cluster. [cap] (default 64, must be even
    and >= 2) bounds the number of windows. Window latencies bucket on the
    serve layer's log bounds, so window-local and end-of-run percentiles
    bucket identically. *)

val admit : t -> at:int -> unit
val shed : t -> at:int -> unit

val depth : t -> at:int -> int -> unit
(** Queue-depth sample; the window keeps the maximum. *)

val complete : t -> completion -> unit

val width : t -> int
(** Effective window width in cycles (>= the requested width after merges). *)

val requested_window : t -> int
val window_count : t -> int
val merges : t -> int
val nth_window : t -> int -> window
val iteri : t -> (int -> window -> unit) -> unit

type totals = {
  total_admitted : int;
  total_shed : int;
  total_completed : int;
  total_slo_violations : int;
  total_cold : int;
  total_lookups : int;
  total_hits : int;
  total_energy_pj : float;
  total_traffic : traffic;
}

val totals : t -> totals
(** Sum of every window — exactly the end-of-run aggregates (the
    conservation law the tests and the watch smoke assert). *)

val percentile : window -> float -> float
(** Window-local latency percentile via
    {!Axmemo_util.Stats.percentile_of_histogram_opt}; an empty window is
    0.0 (documented, never NaN). *)

val violation_rate : window -> float
val shed_rate : window -> float
val quality_bad_rate : window -> float

val window_json : t -> int -> window -> Axmemo_util.Json.t

val to_json : t -> Axmemo_util.Json.t
(** The ["timeline"] report section: header scalars plus one [w<i>] object
    per window, every field a scalar leaf so [Obs.Diff]'s tree flattening
    gates each of them ([timeline.w0.admitted], ...). *)
