(** End-to-end experiment runner.

    Executes a workload instance under one of the evaluated systems — the
    plain HPI baseline, AxMemo with a given LUT configuration, the software
    CRC-LUT implementation, or ATM — on the cycle-approximate CPU model, and
    gathers every statistic the paper's figures need. Callers create a fresh
    {!Axmemo_workloads.Workload.instance} per run (datasets are
    deterministic, so runs are comparable). *)

type config =
  | Baseline  (** unmodified program, no memoization hardware *)
  | Hw_memo of {
      l1_bytes : int;
      l2_bytes : int option;  (** carved out of the L2 cache *)
      approximate : bool;  (** false forces all truncation to 0 (Figure 11) *)
      monitor : bool;
      total_l2 : int option;
          (** override the total L2 cache size (Section 6.2's L2-size
              sensitivity study); [None] = the HPI default of 1 MB *)
      adaptive : bool;
          (** use the unit's runtime-adaptive truncation (Section 3.1's
              dynamic alternative) on top of the static levels *)
    }
  | Hw_custom of {
      label : string;
      unit_cfg : Axmemo_memo.Memo_unit.config;
      approximate : bool;
      crc_bytes_per_cycle : int;
    }
      (** Fully custom memoization hardware for ablation studies: any
          {!Axmemo_memo.Memo_unit.config} (CRC width, payload width,
          replacement policy, adaptive truncation...) plus a CRC unit
          throughput. [label] doubles as the display/cache key. *)
  | Software of { table_log2 : int }
      (** software CRC + tagless in-memory LUT of [2^table_log2] entries *)
  | Atm of { table_log2 : int }
      (** Approximate Task Memoization (Brumar et al.): sampling hash +
          software task LUT with per-task runtime overhead *)

val config_label : config -> string

val l1_4k : config
val l1_8k : config
val l1_8k_l2_256k : config
val l1_8k_l2_512k : config
(** The four AxMemo configurations evaluated throughout Section 6. *)

val software_default : config
(** Software LUT sized per the paper's plateau study (scaled to the
    simulated footprint; see DESIGN.md). *)

val atm_default : config

type result = {
  label : string;
  cycles : int;
  seconds : float;
  sim_wall_seconds : float;
      (** host wall-clock seconds the simulation of this cell took (model
          assembly + execution + metric flushes). The only field excluded
          from the bit-identity contract: it varies run to run and machine
          to machine, and exists so reports can gate on simulator
          throughput. *)
  dyn_normal : int;
  dyn_memo : int;
  pipeline : Axmemo_cpu.Pipeline.stats;
  energy : Axmemo_energy.Model.breakdown;
  lookups : int;
  hits : int;
  hit_rate : float;
  collisions : int;
  memo_disabled : bool;
  trip_lookup : int option;
      (** lookup count at which the quality monitor tripped, when it did *)
  faults : Axmemo_faults.Injector.stats option;
      (** injection/protection counters when the memo unit ran with
          [config.faults] set; [None] on fault-free runs *)
  crashed : string option;
      (** [Some exn] when an injected fault drove the simulated program into
          failure (a DUE outcome, e.g. a corrupted payload used as an
          address); statistics and outputs cover the prefix up to the crash.
          Always [None] on fault-free runs — without an injector attached a
          simulation exception propagates as the harness error it is. *)
  outputs : Axmemo_workloads.Workload.outputs;
}

val run :
  ?metrics:Axmemo_telemetry.Registry.t ->
  ?profile:Axmemo_obs.Profile.t ->
  ?trace:(Axmemo_telemetry.Tracer.t -> unit) ->
  ?backend:Axmemo_ir.Interp.backend ->
  config ->
  Axmemo_workloads.Workload.instance ->
  result
(** [run config instance] transforms (if needed), simulates, and collects;
    every configuration goes through the same executor. The instance's
    memory is mutated by the run. The caller owns the observers, and the
    [result] is bit-identical with or without them: [?metrics] gets the
    memo unit's, pipeline's and cache hierarchy's instruments, flushed when
    the run ends; [?profile]'s hooks are attached to the pipeline (every
    config) and the memo unit (hardware configs), and the pipeline is
    profile-closed when the run ends; [?trace] is handed a cycle-clock
    {!Axmemo_telemetry.Tracer} (function spans, LUT and fault instants)
    after the run's wall time is stamped. [backend] selects the execution
    strategy (default [`Compiled]); both backends are pinned bit-identical
    on every field except [sim_wall_seconds]. *)

val profile_regions : Axmemo_workloads.Workload.instance -> (string * int) list
(** The instance's static regions as [(kernel, lut_id)] pairs, in the
    declaration order {!Axmemo_obs.Profile.create} expects. *)

val run_matrix :
  ?jobs:int ->
  ?backend:Axmemo_ir.Interp.backend ->
  (config * Axmemo_workloads.Workload.instance) list ->
  result list
(** [run_matrix ~jobs cells] simulates every (configuration, instance) cell,
    fanning out over [jobs] worker domains ({!Axmemo_util.Pool}; default:
    the host's recommended domain count, [1] runs serially on the calling
    domain). Results keep the input order and are bit-identical to the
    serial path: each cell owns all of its mutable state, so scheduling
    cannot affect outcomes. For per-cell observers, run {!run} under
    [Pool.run] and create each cell's registry or collector in the worker.

    Domain-safety contract: every cell must have its own
    {!Axmemo_workloads.Workload.instance} — instances embed the simulated
    memory and are mutated by the run, so sharing one across cells is a
    race (and wrong even serially). *)

(** {2 Shared with the co-run request} *)

val lookup_level : Axmemo_memo.Memo_unit.t -> unit -> [ `L1 | `L2 | `L3 | `Miss ]
(** The level that served the unit's last lookup, as the pipeline prices it. *)

type lut_activity =
  | Counted of { hits : int; misses : int }
      (** no memo hardware: the software schemes' hit/miss block counts *)
  | Unit of {
      unit : Axmemo_memo.Memo_unit.t;
      stats : Axmemo_memo.Memo_unit.stats;  (** the run's share *)
      l1_bytes : int;
    }

val execute :
  due:bool ->
  Axmemo_cpu.Pipeline.t ->
  Axmemo_ir.Interp.t ->
  Axmemo_workloads.Workload.instance ->
  string option
(** Runs the instance's entry function, then profile-closes the pipeline.
    With [~due:true] (an injector is attached) an exception raised by the
    simulated program is a crash (DUE) outcome, returned as [Some] message
    with the statistics up to the crash kept; otherwise it propagates. *)

val finish :
  ?l3_rows:int * int ->
  ?crashed:string ->
  label:string ->
  wall_start:float ->
  luts:lut_activity ->
  Axmemo_cpu.Pipeline.t ->
  Axmemo_cache.Hierarchy.t ->
  Axmemo_workloads.Workload.instance ->
  result
(** A finished run's [result]: energy with the unit's protection charge and
    [l3_rows] (DRAM-tier row hits and activations; default none), hits =
    L1 + L2 + L3, the instance's outputs, wall time since [wall_start]. *)

val speedup : baseline:result -> result -> float
(** Cycle ratio baseline/other. Always finite: if both runs report zero
    cycles the ratio is 1.0, and a lone zero denominator is clamped to one
    cycle — a report can never contain [nan] or [inf] from this helper. *)

val energy_saving : baseline:result -> result -> float
(** Energy ratio baseline/other (the paper's E_baseline / E_AxMemo). Guarded
    like {!speedup}: 1.0 when both are zero, denominator clamped to 1 pJ
    otherwise. *)
