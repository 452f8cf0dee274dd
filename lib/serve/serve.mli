(** Open-loop service model over the memoization cluster: seeded arrivals,
    a bounded FIFO admission queue with load shedding, per-request latency
    observability, SLO accounting, and saturation sweeps.

    One run calibrates the mean per-request service time on a throwaway
    1-core node, converts [load] into an arrival rate
    ([load * ncores / mean_service_cycles]), generates the seeded arrival
    stream ({!Arrival}), and drives a fresh {!Axmemo_cluster.Cluster}
    through {!Axmemo_multicore.Schedule.dispatch_open} — LUT and cache
    state stay warm across requests exactly as in a closed stream.
    Latency histograms, SLO rates, the Chrome request timeline and the
    ["service"] report section are purely observational: per-request cycle
    results are bit-identical with or without them.

    Determinism contract: with a fixed root seed, {!run} and {!run_matrix}
    are pure functions of their configuration (the only exception being
    [sim_wall_seconds], which is off the reports by default) — reports are
    byte-identical for any [--jobs] setting, and a [Closed] arrival run
    with a large enough queue reproduces {!Axmemo_cluster.Cluster.run}'s
    per-request results bit for bit. *)

type watch_config = {
  window_cycles : int;
      (** fixed timeline window width in cycles; 0 = auto (makespan / 32,
          min 1) *)
  rules : Axmemo_watch.Alert.rule list;  (** evaluated per closed window *)
}
(** Live-timeline sampling. Purely observational: per-request cycle
    results, the arrival stream and every pre-existing report field are
    identical whether or not watch is on — watch-less runs stay
    byte-identical to their committed baselines. *)

val default_watch : watch_config
(** Auto window width, {!Axmemo_watch.Alert.default_rules}. *)

type config = {
  cluster : Axmemo_multicore.Corun.config;
      (** the per-node shape: cores, LUT sizes, partition policy, mix and
          request count *)
  nodes : int;
      (** cluster nodes, each of shape [cluster]. One node (the default)
          is the co-run; [> 1] adds directory invalidation and the modeled
          interconnect. Every node count is reported the same way: the
          row carries the ["cluster"] section, and registries keep
          {!Axmemo_cluster.Cluster.snapshots}' [n<j>.] names. *)
  arrival : Arrival.kind;
  load : float;
      (** offered load as a fraction of cluster capacity; 1.0 = one mean
          service time of work per core per unit time, across all
          [nodes * ncores] cores *)
  queue_capacity : int;  (** waiting requests beyond the cores *)
  shed : Axmemo_multicore.Schedule.shed_policy;
  slo_cycles : int;
      (** total-latency SLO; 0 = auto ({!slo_auto_factor} x the calibrated
          mean service time) *)
  warm_start : string option;
      (** snapshot file ({!Axmemo_tier.Snapshot}) replayed into the fresh
          cluster before the first request — warm restart. The arrival
          stream's seed ignores this field, so a warm run faces exactly the
          arrivals its cold twin does; the only difference is LUT state. *)
  watch : watch_config option;
      (** live windowed timeline + alert evaluation ([--watch]); [None]
          (the default) skips all sampling *)
}

val slo_auto_factor : float
(** 4.0 — the auto-SLO multiple of the calibrated mean service time. *)

val default : config
(** Poisson arrivals at load 0.8 over {!Axmemo_multicore.Corun.default},
    queue of 16, drop-tail, auto SLO, no warm start. *)

val label : config -> string
(** Appends ["+warm"] when [warm_start] is set; cold labels unchanged. *)

val calibrate : config -> float
(** Mean cold service cycles over the mix's distinct workloads, measured on
    a throwaway fault-free 1-core cluster — the anchor that converts
    [load] into an arrival rate and sets the auto SLO. Always [>= 1]. *)

(** {1 Outcomes} *)

type request_record = {
  rid : int;
  workload : string;
  core : int;
  arrival : int;
  start : int;
  finish : int;
  queue_wait : int;  (** [start - arrival] *)
  service : int;  (** [finish - start] *)
  total : int;  (** [finish - arrival] *)
  cold : bool;  (** first execution of its workload in this run *)
  slo_ok : bool;
  result : Axmemo.Runner.result;
}

type latency = {
  p50 : float;
  p99 : float;
  p999 : float;
  mean : float;
  max : float;
}
(** Percentiles are interpolated from the log-spaced registry histogram
    ({!Axmemo_util.Stats.percentile_of_histogram} — exact to one bucket
    width); [mean] uses the histogram's exact running sum; [max] is exact
    from the raw records. *)

type outcome = {
  cfg : config;
  rate : float;  (** arrivals per cycle; 0 for [Closed] *)
  mean_service_cycles : float;
  slo_cycles : int;  (** resolved (explicit or auto) *)
  requests : request_record list;  (** served, dispatch order *)
  shed : Axmemo_multicore.Schedule.arrival list;  (** shed order *)
  arrived : int;
  served : int;
  shed_count : int;
  shed_rate : float;  (** shed over arrived *)
  slo_violations : int;
  slo_violation_rate : float;  (** violations over served *)
  goodput_rate : float;  (** served-within-SLO over arrived *)
  queue_wait : latency;
  service : latency;
  total : latency;
  makespan_cycles : int;
  throughput_rps : float;  (** served requests per simulated second *)
  offered_rps : float;
  cold_hit_rate : float;
      (** LUT hit rate of first-per-workload requests — the first window a
          warm restart is meant to rescue *)
  warm_hit_rate : float;  (** hit rate of every later request *)
  aggregate_hit_rate : float;
  restored_entries : int;
      (** LUT entries replayed from the [warm_start] snapshot; 0 cold *)
  contention_cycles : int;  (** arbitration stalls, settled post-hoc *)
  shared_accesses : int;
  contended_accesses : int;
  trace_unmatched_ends : int;
      (** {!Axmemo_telemetry.Tracer.unmatched_ends} of the request
          timeline — nonzero means the span bookkeeping went unbalanced;
          surfaced as the [serve.trace.unmatched_ends] counter and in the
          ["service"] section so the diff gate pins it at 0 *)
  cluster_section : Axmemo_util.Json.t;
      (** the ["cluster"] report section ({!Axmemo_cluster.Cluster.section}:
          shard balance, directory traffic, replication, interconnect
          accounting), attached to every report row and regression-gated
          as [cluster.<path>]; byte-identical to the section
          {!Axmemo_cluster.Cluster.run} renders for the same closed
          stream *)
  timeline : Axmemo_watch.Timeline.t option;
      (** the live windowed timeline, present iff [cfg.watch] is; attached
          to the report row as the ["timeline"] section and regression-gated
          as [timeline.<path>] *)
  alerts : Axmemo_watch.Alert.result list;
      (** per-rule alert evaluation over the timeline; empty when watch is
          off; the ["alerts"] report section, gated as [alerts.<path>] *)
  snapshots : (string * Axmemo_telemetry.Registry.snapshot) list;
      (** ["serve"] (lifecycle counters, latency histograms, queue-depth
          series) plus {!Axmemo_cluster.Cluster.snapshots}' registries,
          named [n<j>.core<i>] and [n<j>.cluster] *)
  tracer : Axmemo_telemetry.Tracer.t;
      (** the request timeline: arrivals/sheds as instants on the
          "admission" row (tid 0), each served request as a span on its
          global core's row (tid [core+1], named ["n<j> core <i>"]) *)
  sim_wall_seconds : float;  (** host wall clock; outside the bit-identity
          contract and off the reports unless [~wall:true] *)
}

val run : config -> outcome
(** Simulates one service run.
    @raise Invalid_argument on a non-positive load with open-loop
    arrivals, a negative SLO, a non-positive node count, an
    unreadable/invalid [warm_start] snapshot, or anything
    {!Axmemo_multicore.Corun}, {!Axmemo_cluster.Cluster} or
    {!Axmemo_multicore.Schedule.dispatch_open} rejects. *)

val run_matrix : ?jobs:int -> config list -> outcome list
(** Each configuration as one independent cell fanned over a domain pool;
    results in input order and byte-identical to a serial run. Cells whose
    calibration input is the same (the node with one core and no faults)
    share one {!calibrate}, computed first over the same pool, so a cell's
    [sim_wall_seconds] here does not include calibration, while {!run}'s
    does. *)

(** {1 Saturation} *)

type saturation_point = {
  sat_ncores : int;
  sat_partition : string;
  sat_arrival : string;
  sat_load : float;
      (** highest swept load whose shed rate stayed within the threshold;
          0 when every load shed more *)
  sat_throughput_rps : float;  (** throughput at [sat_load] *)
  peak_throughput_rps : float;  (** best throughput anywhere in the group *)
}

val sweep_loads : float list
(** The default offered-load ramp of [--sweep-load]:
    0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0. *)

val saturation : outcome list -> saturation_point list
(** Groups outcomes by (total cores, partition, arrival kind), in
    first-appearance order, and reports each group's saturation point — the
    highest offered load still served with [shed_rate <= 0.01]. *)

(** {1 Reports} *)

val report_runs : ?wall:bool -> outcome list -> Axmemo_telemetry.Report.run list
(** One report row per outcome: the serve registry concatenated with each
    node's shared-level registry (the [n<j>.cluster] snapshot), whose
    metrics keep their cluster-row names [n<j>.cluster.<metric>] (disjoint
    names re-sorted; series survive, unlike under [Registry.merge],
    decimated to {!Axmemo_cluster.Cluster.default_series_cap}). The
    sections are ["service"] (arrival process, offered load, queue/shed
    accounting, latency percentiles, SLO rates, warm/cold hit rates,
    contention, [trace_unmatched_ends]) and ["cluster"], then
    ["timeline"] and ["alerts"] when watch is on; [Obs.Diff] gates every
    scalar leaf of each.
    [~wall:true] adds [sim_wall_seconds] to the summary — leave it off
    (default) wherever byte-identical reports matter. *)

val report : ?wall:bool -> outcome list -> Axmemo_util.Json.t
(** {!Axmemo_telemetry.Report.make} over {!report_runs}, with the root seed
    and the {!saturation} table as extra top-level fields. *)

val write_report : ?wall:bool -> string -> outcome list -> unit

val write_trace : outcome -> string -> unit
(** Save the outcome's request timeline as Chrome trace-event JSON. *)
