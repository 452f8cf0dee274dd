(** SEU campaign driver: sweep fault site groups × rates × protections over
    workloads and measure the resilience of memoized execution.

    A campaign runs, per benchmark: one exact {!Axmemo.Runner.Baseline} cell
    (the quality reference), one fault-free memoized cell (the performance
    and energy reference), and one faulty memoized cell per (site group,
    rate, protection) combination. All cells fan out together over one
    {!Axmemo_util.Pool}, each running {!Axmemo.Runner.run} with its own
    metrics registry, so a fixed {!config.seed} gives a byte-identical
    campaign no matter [?jobs]: per-cell fault seeds are drawn sequentially
    from the campaign seed {e before} the fan-out, and every cell owns all
    of its mutable state.

    The campaign quantifies, per faulty cell:
    - {b SDC rate}: hits that returned corrupted state, over all hits;
    - {b quality degradation}: output quality loss versus the fault-free
      memoized run (and absolute loss versus the exact baseline);
    - {b detection}: parity/SECDED detections over injected faults, plus
      whether (and after how many lookups) the quality monitor tripped;
    - {b speedup retained}: faulty cycles versus fault-free cycles;
    - {b protection energy overhead}: total pJ versus the fault-free run. *)

module Fault_model = Axmemo_faults.Fault_model
module Protection = Axmemo_faults.Protection

type config = {
  seed : int64;  (** campaign root; every cell's fault stream derives from it *)
  kind : Fault_model.kind;
  basis : Fault_model.basis;
  rates : float list;  (** swept fault rates (see {!Fault_model.basis}) *)
  site_groups : (string * Fault_model.site list) list;
      (** named site sets swept independently, e.g. [("lut", ...)] *)
  protections : Protection.kind list;
  l1_bytes : int;
  l2_bytes : int option;  (** memoized-cell LUT geometry *)
}

val default : unit -> config
(** Transient per-access faults at rates 1e-4/1e-3/1e-2 over two groups —
    ["lut"] (L1 tag/payload/valid/LRU) and ["hash"] (HVR + CRC datapath) —
    under all three protections, on an 8 KB single-level LUT. The seed is
    salted through {!Axmemo_util.Rng.derive_stream} {e at call time}, so a
    global [--seed] installed first re-keys the campaign with the
    datasets. *)

type measurement = {
  benchmark : string;
  site_group : string;
  rate : float;
  protection : Protection.kind;
  label : string;  (** runner config label of the faulty cell *)
  injected : int;
  injected_by_site : (Fault_model.site * int) list;
  sdc_hits : int;
  sdc_rate : float;
  detected : int;  (** parity + SECDED detections *)
  detection_rate : float;  (** detected / injected (0 when nothing injected) *)
  corrected : int;  (** SECDED single-flip corrections *)
  aliases : int;
  lookups : int;
  hits : int;
  quality_loss : float;  (** vs the exact baseline outputs *)
  quality_degradation : float;
      (** [quality_loss] of the faulty outputs measured against the
          fault-free memoized outputs — what the faults alone cost *)
  monitor_tripped : bool;
  trip_lookup : int option;
  crashed : string option;
      (** the simulated program failed mid-run (DUE) — see
          {!Axmemo.Runner.result.crashed}; statistics cover the prefix *)
  speedup_retained : float;  (** fault-free cycles / faulty cycles *)
  energy_overhead : float;  (** faulty total pJ / fault-free total pJ - 1 *)
}

type outcome = {
  config : config;
  measurements : measurement list;
      (** benchmark-major, then site group, rate, protection — the cell
          construction order *)
  runs : Axmemo_telemetry.Report.run list;
      (** every cell (references included) in the same order, ready for
          {!Axmemo_telemetry.Report.write} *)
}

val run :
  ?jobs:int ->
  config ->
  (Axmemo_workloads.Workload.meta
  * (Axmemo_workloads.Workload.variant -> Axmemo_workloads.Workload.instance))
  list ->
  variant:Axmemo_workloads.Workload.variant ->
  outcome
(** [run config benchmarks ~variant] executes the campaign matrix. *)

val report : outcome -> Axmemo_util.Json.t
(** Schema-versioned resilience report: {!Axmemo_telemetry.Report.make} over
    all cells, with top-level [fault_campaign] parameters (seed, kind,
    basis, rates, site groups, protections) and a [resilience] array holding
    each {!measurement} as a flat object. *)

val write_report : outcome -> string -> unit

val trace_cell :
  config ->
  benchmark:(Axmemo_workloads.Workload.meta
            * (Axmemo_workloads.Workload.variant -> Axmemo_workloads.Workload.instance)) ->
  variant:Axmemo_workloads.Workload.variant ->
  path:string ->
  unit
(** Re-run the campaign's {e first} faulty cell of [benchmark] (first site
    group, highest rate, first protection) with the cycle tracer attached
    and write the Chrome trace — fault instants ([fault_l1.tag], ...) land
    on the same clock as the LUT hit/miss events. Deterministic: the cell
    replays the exact faults the campaign measured. *)
