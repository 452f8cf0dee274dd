module Ir = Axmemo_ir.Ir
module Interp = Axmemo_ir.Interp
module Hierarchy = Axmemo_cache.Hierarchy
module Pipeline = Axmemo_cpu.Pipeline
module Memo_unit = Axmemo_memo.Memo_unit
module Model = Axmemo_energy.Model
module Transform = Axmemo_compiler.Transform
module Workload = Axmemo_workloads.Workload
module Tracer = Axmemo_telemetry.Tracer
module Fault_model = Axmemo_faults.Fault_model
module Injector = Axmemo_faults.Injector
module Protection = Axmemo_faults.Protection
module Profile = Axmemo_obs.Profile

type config =
  | Baseline
  | Hw_memo of {
      l1_bytes : int;
      l2_bytes : int option;
      approximate : bool;
      monitor : bool;
      total_l2 : int option;
      adaptive : bool;
    }
  | Hw_custom of {
      label : string;
      unit_cfg : Memo_unit.config;
      approximate : bool;
      crc_bytes_per_cycle : int;
    }
  | Software of { table_log2 : int }
  | Atm of { table_log2 : int }

let kb n = n * 1024

let l1_4k =
  Hw_memo
    { l1_bytes = kb 4; l2_bytes = None; approximate = true; monitor = true; total_l2 = None; adaptive = false }

let l1_8k =
  Hw_memo
    { l1_bytes = kb 8; l2_bytes = None; approximate = true; monitor = true; total_l2 = None; adaptive = false }

let l1_8k_l2_256k =
  Hw_memo
    {
      l1_bytes = kb 8;
      l2_bytes = Some (kb 256);
      approximate = true;
      monitor = true;
      total_l2 = None;
      adaptive = false;
    }

let l1_8k_l2_512k =
  Hw_memo
    {
      l1_bytes = kb 8;
      l2_bytes = Some (kb 512);
      approximate = true;
      monitor = true;
      total_l2 = None;
      adaptive = false;
    }

let software_default = Software { table_log2 = 22 }
let atm_default = Atm { table_log2 = 22 }

let config_label = function
  | Baseline -> "baseline"
  | Hw_memo { l1_bytes; l2_bytes; approximate; total_l2; adaptive; _ } ->
      let base =
        match l2_bytes with
        | None -> Printf.sprintf "L1(%dKB)" (l1_bytes / 1024)
        | Some l2 -> Printf.sprintf "L1(%dKB)+L2(%dKB)" (l1_bytes / 1024) (l2 / 1024)
      in
      let base =
        match total_l2 with
        | None -> base
        | Some b -> Printf.sprintf "%s@L2cache=%dKB" base (b / 1024)
      in
      let base = if adaptive then base ^ "-adaptive" else base in
      if approximate then base else base ^ "-noapprox"
  | Hw_custom { label; _ } -> label
  | Software _ -> "Software LUT"
  | Atm _ -> "ATM"

type result = {
  label : string;
  cycles : int;
  seconds : float;
  sim_wall_seconds : float;
  dyn_normal : int;
  dyn_memo : int;
  pipeline : Pipeline.stats;
  energy : Model.breakdown;
  lookups : int;
  hits : int;
  hit_rate : float;
  collisions : int;
  memo_disabled : bool;
  trip_lookup : int option;
  faults : Injector.stats option;
  crashed : string option;
  outputs : Workload.outputs;
}

(* Both ratio helpers are total: reports must stay nan/inf-free even for
   degenerate cells (an empty program, a crashed faulty run with nothing
   charged). Two zeroes compare equal — ratio 1 — and a lone zero
   denominator is clamped to one cycle / one picojoule. *)
let guarded_ratio num den =
  if num = 0.0 && den = 0.0 then 1.0 else num /. Float.max den 1.0

let speedup ~baseline other =
  guarded_ratio (float_of_int baseline.cycles) (float_of_int other.cycles)

let energy_saving ~baseline other =
  guarded_ratio baseline.energy.Model.total_pj other.energy.Model.total_pj

(* Block-label based hit counting for the software schemes: an observer
   counting entries into the engine's hit and miss blocks, composed after
   the pipeline's hooks. *)
let sw_hit_counter program =
  let hit_sites = Hashtbl.create 64 and miss_sites = Hashtbl.create 64 in
  Array.iter
    (fun (f : Ir.func) ->
      Array.iteri
        (fun bidx (b : Ir.block) ->
          if String.starts_with ~prefix:Axmemo_baselines.Sw_engine.hit_prefix b.label
          then Hashtbl.replace hit_sites (f.fname, bidx) ()
          else if
            String.starts_with ~prefix:Axmemo_baselines.Sw_engine.miss_prefix b.label
          then Hashtbl.replace miss_sites (f.fname, bidx) ())
        f.blocks)
    (program : Ir.program).funcs;
  let hits = ref 0 and misses = ref 0 in
  let on_exec fname bidx iidx _instr _addr =
    if iidx = 0 then
      if Hashtbl.mem hit_sites (fname, bidx) then incr hits
      else if Hashtbl.mem miss_sites (fname, bidx) then incr misses
  in
  ({ Interp.no_hooks with on_exec }, hits, misses)

let machine = Axmemo_cpu.Machine.hpi

type lut_activity =
  | Counted of { hits : int; misses : int }
  | Unit of { unit : Memo_unit.t; stats : Memo_unit.stats; l1_bytes : int }

let execute ~due pipe interp (instance : Workload.instance) =
  let crashed =
    match Interp.run interp instance.entry instance.args with
    | _ -> None
    (* An injected fault can steer the simulated program into failure —
       e.g. a corrupted payload used in address arithmetic exhausts the
       memory model. In SEU terms that is a crash (DUE) outcome, not a
       harness error: record it and keep every statistic gathered up to the
       crash. Outputs read back whatever was written before the failure
       (the buffers are pre-allocated). *)
    | exception e when due -> Some (Printexc.to_string e)
  in
  Pipeline.profile_close pipe;
  crashed

let finish ?(l3_rows = (0, 0)) ?crashed ~label ~wall_start ~luts pipe hierarchy
    (instance : Workload.instance) =
  let pipeline = Pipeline.stats pipe in
  let unit, memo, l1_lut_bytes, lookups, hits, collisions =
    match luts with
    | Counted { hits; misses } -> (None, None, kb 8, hits + misses, hits, 0)
    | Unit { unit; stats = ms; l1_bytes } ->
        ( Some unit,
          Some ms,
          l1_bytes,
          ms.lookups,
          ms.l1_hits + ms.l2_hits + ms.l3_hits,
          ms.collisions )
  in
  let injector = Option.bind unit Memo_unit.injector in
  let faults = Option.map Injector.stats injector in
  let protection_pj =
    match (injector, faults, memo) with
    | Some inj, Some (s : Injector.stats), Some (ms : Memo_unit.stats) ->
        Protection.energy_pj (Injector.protection inj) ~lookups:ms.lookups
          ~updates:ms.updates ~corrections:s.secded_corrected
    | _ -> 0.0
  in
  let l3_row_hits, l3_activations = l3_rows in
  let energy =
    Model.of_run ~protection_pj ~l3_row_hits ~l3_activations ~pipeline ~hierarchy ~memo
      ~l1_lut_bytes ()
  in
  let outputs = instance.read_outputs () in
  {
    label;
    cycles = pipeline.cycles;
    seconds = float_of_int pipeline.cycles /. (machine.Axmemo_cpu.Machine.freq_ghz *. 1e9);
    sim_wall_seconds = Unix.gettimeofday () -. wall_start;
    dyn_normal = pipeline.dyn_normal;
    dyn_memo = pipeline.dyn_memo;
    pipeline;
    energy;
    lookups;
    hits;
    hit_rate = (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
    collisions;
    memo_disabled = Option.fold ~none:false ~some:Memo_unit.disabled unit;
    trip_lookup = Option.bind unit Memo_unit.trip_lookup;
    faults;
    crashed;
    outputs;
  }

(* What a configuration decides; [run] simulates every plan the same way. *)
type hardware = {
  unit_cfg : Memo_unit.config;
  decls : Memo_unit.lut_decl list;
  crc_bytes_per_cycle : int;
}

type plan = {
  program : Ir.program;
  hier_cfg : Hierarchy.config;
  hardware : hardware option;
  counter : (Interp.hooks * int ref * int ref) option;  (* see [sw_hit_counter] *)
}

let plan config (instance : Workload.instance) =
  let plain program =
    { program; hier_cfg = Hierarchy.hpi_default; hardware = None; counter = None }
  in
  let hardware ~approximate ~total_l2 ~crc_bytes_per_cycle (unit_cfg : Memo_unit.config) =
    let regions =
      if approximate then instance.regions
      else List.map Transform.zero_truncs instance.regions
    in
    let program =
      Transform.memoize ?barrier:instance.barrier ~entry:instance.entry instance.program
        regions
    in
    let decls = Transform.lut_decls instance.program regions in
    let hier_base =
      match total_l2 with
      | None -> Hierarchy.hpi_default
      | Some b ->
          (* Scale the way count with capacity to keep 64 KB ways. *)
          { Hierarchy.hpi_default with l2_size = b; l2_ways = b / (64 * 1024) }
    in
    {
      program;
      hier_cfg =
        (match unit_cfg.l2_bytes with
        | None -> hier_base
        | Some lut -> Hierarchy.carve_l2 hier_base ~lut_bytes:lut);
      hardware = Some { unit_cfg; decls; crc_bytes_per_cycle };
      counter = None;
    }
  in
  let software memoize table_log2 =
    let program =
      memoize ~mem:instance.mem ~table_log2 ~entry:instance.entry ?barrier:instance.barrier
        instance.program instance.regions
    in
    { (plain program) with counter = Some (sw_hit_counter program) }
  in
  match config with
  | Baseline -> plain instance.program
  | Hw_memo { l1_bytes; l2_bytes; approximate; monitor; total_l2; adaptive } ->
      hardware ~approximate ~total_l2
        ~crc_bytes_per_cycle:Axmemo_isa.Timing.crc_bytes_per_cycle
        {
          Memo_unit.default_config with
          l1_bytes;
          l2_bytes;
          monitor;
          adaptive = (if adaptive then Some Memo_unit.default_adaptive else None);
        }
  | Hw_custom { unit_cfg; approximate; crc_bytes_per_cycle; _ } ->
      hardware ~approximate ~total_l2:None ~crc_bytes_per_cycle unit_cfg
  | Software { table_log2 } -> software Axmemo_baselines.Software_memo.memoize table_log2
  | Atm { table_log2 } -> software Axmemo_baselines.Atm.memoize table_log2

let lookup_level unit () =
  match Memo_unit.last_lookup_level unit with
  | Memo_unit.Hit_l1 -> `L1
  | Memo_unit.Hit_l2 -> `L2
  | Memo_unit.Hit_l3 -> `L3
  | Memo_unit.Miss -> `Miss

(* A cycle-clock tracer on [pipe]: function-activation spans, plus LUT and
   fault instants when a memo unit is attached. Its hooks run after the
   pipeline's own, so the clock reads post-charge cycle counts. *)
let attach_tracer ~label pipe unit =
  let tr = Tracer.create ~clock:(fun () -> Pipeline.cycles pipe) () in
  Tracer.name_process tr ~pid:0 (Printf.sprintf "axmemo %s (1 cycle = 1 us)" label);
  Tracer.name_thread tr ~tid:0 "cpu";
  let on_exec =
    match unit with
    | None -> fun _ _ _ _ _ -> ()
    | Some unit -> (
        (match Memo_unit.injector unit with
        | Some inj ->
            (* Fault instants land on the same cycle clock as the LUT
               events, so a trace view correlates upsets with the misses
               they cause. *)
            Injector.set_on_fault inj (fun site ->
                Tracer.instant tr ("fault_" ^ Fault_model.site_name site))
        | None -> ());
        (* The lookup's memo hook has already run when [on_exec] fires, so
           [last_lookup_level] names the level that serviced it. *)
        fun _fname _bidx _iidx (instr : Ir.instr) _addr ->
          match instr with
          | Ir.Memo (Ir.Lookup _) -> (
              match Memo_unit.last_lookup_level unit with
              | Memo_unit.Hit_l1 -> Tracer.instant tr "lut_hit_l1"
              | Memo_unit.Hit_l2 -> Tracer.instant tr "lut_hit_l2"
              | Memo_unit.Hit_l3 -> Tracer.instant tr "lut_hit_l3"
              | Memo_unit.Miss -> Tracer.instant tr "lut_miss")
          | Ir.Memo (Ir.Invalidate _) -> Tracer.instant tr "lut_invalidate"
          | _ -> ())
  in
  ( tr,
    {
      Interp.no_hooks with
      on_enter = (fun fname -> Tracer.begin_span tr fname);
      on_leave = (fun fname -> Tracer.end_span tr fname);
      on_exec;
    } )

(* Wall time covers the full simulation of the cell (model assembly,
   interpretation/compiled execution, metric flushes) — the throughput
   number the perf gate watches. It is the one field excluded from the
   bit-identity contract. *)
let run ?metrics ?profile ?trace ?backend config (instance : Workload.instance) =
  let wall_start = Unix.gettimeofday () in
  let label = config_label config in
  let plan = plan config instance in
  let hierarchy = Hierarchy.create ?metrics plan.hier_cfg in
  let unit =
    Option.map
      (fun hw ->
        Memo_unit.create ?metrics ?profile:(Option.map Profile.memo_hooks profile) hw.unit_cfg
          hw.decls)
      plan.hardware
  in
  let pipe =
    Pipeline.create ?metrics
      ?profile:(Option.map Profile.pipeline_profile profile)
      ~machine ?lookup_level:(Option.map lookup_level unit)
      ~l2_lut_present:
        (match plan.hardware with Some hw -> hw.unit_cfg.l2_bytes <> None | None -> false)
      ?l1_lut_ways:(Option.map Memo_unit.l1_ways unit)
      ?crc_bytes_per_cycle:(Option.map (fun hw -> hw.crc_bytes_per_cycle) plan.hardware)
      ~program:plan.program ~hierarchy ()
  in
  let injector = Option.bind unit Memo_unit.injector in
  (* Per-cycle fault rates integrate over the pipeline's simulated clock. *)
  Option.iter (fun inj -> Injector.set_clock inj (fun () -> Pipeline.cycles pipe)) injector;
  let tracer = Option.map (fun _ -> attach_tracer ~label pipe unit) trace in
  let hooks =
    List.fold_left Interp.combine_hooks (Pipeline.hooks pipe)
      (Option.to_list (Option.map (fun (h, _, _) -> h) plan.counter)
      @ Option.to_list (Option.map snd tracer))
  in
  let interp =
    Interp.create
      ?memo:(Option.map (fun u -> Memo_unit.hooks u) unit)
      ~hooks ?backend ~program:plan.program ~mem:instance.mem ()
  in
  let crashed = execute ~due:(injector <> None) pipe interp instance in
  Option.iter Memo_unit.flush_metrics unit;
  Pipeline.flush_metrics pipe;
  Hierarchy.flush_metrics hierarchy;
  let luts =
    match (unit, plan.hardware, plan.counter) with
    | Some unit, Some hw, _ ->
        Unit { unit; stats = Memo_unit.stats unit; l1_bytes = hw.unit_cfg.l1_bytes }
    | _, _, Some (_, hits, misses) -> Counted { hits = !hits; misses = !misses }
    | _ -> Counted { hits = 0; misses = 0 }
  in
  let result = finish ?crashed ~label ~wall_start ~luts pipe hierarchy instance in
  (match (trace, tracer) with Some f, Some (tr, _) -> f tr | _ -> ());
  result

let profile_regions (instance : Workload.instance) =
  List.map (fun (r : Transform.region) -> (r.kernel, r.lut_id)) instance.regions

(* Parallel experiment matrix. Every (config, instance) cell is an
   independent simulation: each owns its Memory.t (inside the instance),
   Hierarchy.t, Pipeline.t and Memo_unit.t, so cells fan out over a
   Axmemo_util.Pool of domains with no shared mutable state. Results keep
   the input order and are bit-identical to a serial [List.map (run ...)]
   because the simulator is deterministic and cells never interact. *)
let run_matrix ?jobs ?backend cells =
  Axmemo_util.Pool.run ?jobs (fun (config, instance) -> run ?backend config instance) cells
