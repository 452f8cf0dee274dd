(* Stacked ablation of one cell: the same program run with growing sets of
   observers attached, from outside the library, through public functions
   only. Host-time differences between levels are the per-instruction cost
   of the layer a level adds:

   - ir: hook-free [Interp.create]/[Interp.run] of the benchmark's baseline
     program;
   - memo: the memoized program with [Memo_unit.hooks] only (hardware
     configs);
   - cpu (+cache): the level below plus [Pipeline.hooks];
   - core: the full [Runner.run].

   The levels of a cell must retire the same number of interpreter steps,
   and the fully hooked level must reproduce [Runner.run]'s cycles and
   dynamic counts, so every level executes what the full run executes; a
   mismatch fails the cell's op. *)

module Interp = Axmemo_ir.Interp
module Pipeline = Axmemo_cpu.Pipeline
module Hierarchy = Axmemo_cache.Hierarchy
module Memo_unit = Axmemo_memo.Memo_unit
module Transform = Axmemo_compiler.Transform
module Workload = Axmemo_workloads.Workload
module Runner = Axmemo.Runner

type cell = { bench : string; config : Runner.config; make : unit -> Workload.instance }

type config_class = Baseline | Hw | Software

let class_of = function
  | Runner.Baseline -> Baseline
  | Runner.Hw_memo _ | Runner.Hw_custom _ -> Hw
  | Runner.Software _ | Runner.Atm _ -> Software

let class_name = function Baseline -> "baseline" | Hw -> "hw" | Software -> "software"

type calls = { mutable send : int; mutable lookup : int; mutable update : int; mutable invalidate : int }

let total_calls c = c.send + c.lookup + c.update + c.invalidate

(* Counts every call through the public memo-hook record. *)
let counting (h : Interp.memo_hooks) c =
  {
    Interp.send =
      (fun ~lut ~ty ~trunc v ->
        c.send <- c.send + 1;
        h.Interp.send ~lut ~ty ~trunc v);
    lookup =
      (fun ~lut ->
        c.lookup <- c.lookup + 1;
        h.Interp.lookup ~lut);
    update =
      (fun ~lut p ->
        c.update <- c.update + 1;
        h.Interp.update ~lut p);
    invalidate =
      (fun ~lut ->
        c.invalidate <- c.invalidate + 1;
        h.Interp.invalidate ~lut);
  }

type result = {
  cell : cell;
  cls : config_class;
  ok : bool;
  steps : int;
  base_steps : int;  (* hook-free steps of the baseline program *)
  ir_create_s : float;
  ir_run_s : float;
  memoize_s : float;  (* [Transform.memoize]; 0 outside hardware cells *)
  lower_s : float;  (* hook-free (baseline, software) or memo-only (hw) level *)
  hooked_s : float;  (* [lower] plus [Pipeline.hooks] *)
  full_s : float;  (* [Runner.run] *)
  calls : calls;
  hits : int;
  lookups : int;
  full : Runner.result option;
}

(* Create + run one interpreter; returns (steps, create s, run s). *)
let interp_run ?memo ?hooks ~program (inst : Workload.instance) =
  let it, create_s = Check.timed (fun () -> Interp.create ?memo ?hooks ~program ~mem:inst.Workload.mem ()) in
  let (), run_s = Check.timed (fun () -> ignore (Interp.run it inst.Workload.entry inst.Workload.args)) in
  (Interp.steps it, create_s, run_s)

let machine = Axmemo_cpu.Machine.hpi

(* The fully hooked level retired exactly what [Runner.run] did. *)
let same_run pipe (full : Runner.result) =
  let s = Pipeline.stats pipe in
  s.Pipeline.cycles = full.Runner.cycles
  && s.Pipeline.dyn_normal = full.Runner.dyn_normal
  && s.Pipeline.dyn_memo = full.Runner.dyn_memo

let run_cell cell =
  let cls = class_of cell.config in
  let calls = { send = 0; lookup = 0; update = 0; invalidate = 0 } in
  (* ir: the benchmark's baseline program, no observer at all *)
  let base = cell.make () in
  let base_steps, ir_create_s, ir_run_s = interp_run ~program:base.Workload.program base in
  let steps, memoize_s, lower_s, hooked_s, same_as_full =
    match cell.config with
    | Runner.Baseline ->
        let inst = cell.make () in
        let pipe =
          Pipeline.create ~machine ~program:inst.Workload.program
            ~hierarchy:(Hierarchy.create Hierarchy.hpi_default) ()
        in
        let s, c, r = interp_run ~hooks:(Pipeline.hooks pipe) ~program:inst.Workload.program inst in
        ( (if s = base_steps then s else -1),
          0.0,
          ir_create_s +. ir_run_s,
          c +. r,
          same_run pipe )
    | Runner.Hw_memo { l1_bytes; l2_bytes; monitor; approximate = true; total_l2 = None; adaptive = false } ->
        let unit_cfg = { Memo_unit.default_config with l1_bytes; l2_bytes; monitor } in
        (* The memoized program depends only on the benchmark's code, so one
           transform serves both levels; each level gets fresh memory. *)
        let program, memoize_s =
          Check.timed (fun () ->
              Transform.memoize ?barrier:base.Workload.barrier ~entry:base.Workload.entry
                base.Workload.program base.Workload.regions)
        in
        let decls = Transform.lut_decls base.Workload.program base.Workload.regions in
        (* memo only *)
        let inst = cell.make () in
        let s_memo, c, r = interp_run ~memo:(Memo_unit.hooks (Memo_unit.create unit_cfg decls)) ~program inst in
        let lower_s = c +. r in
        (* memo + pipeline, wired as the runner wires them *)
        let inst = cell.make () in
        let hier_cfg =
          match l2_bytes with
          | None -> Hierarchy.hpi_default
          | Some lut -> Hierarchy.carve_l2 Hierarchy.hpi_default ~lut_bytes:lut
        in
        let unit_ = Memo_unit.create unit_cfg decls in
        let lookup_level () =
          match Memo_unit.last_lookup_level unit_ with
          | Memo_unit.Hit_l1 -> `L1
          | Memo_unit.Hit_l2 -> `L2
          | Memo_unit.Hit_l3 -> `L3
          | Memo_unit.Miss -> `Miss
        in
        let pipe =
          Pipeline.create ~machine ~lookup_level ~l2_lut_present:(l2_bytes <> None)
            ~l1_lut_ways:(Memo_unit.l1_ways unit_)
            ~crc_bytes_per_cycle:Axmemo_isa.Timing.crc_bytes_per_cycle ~program
            ~hierarchy:(Hierarchy.create hier_cfg) ()
        in
        let s_hooked, c, r =
          interp_run ~memo:(counting (Memo_unit.hooks unit_) calls) ~hooks:(Pipeline.hooks pipe) ~program inst
        in
        let st = Memo_unit.stats unit_ in
        let counted =
          st.Memo_unit.lookups = calls.lookup
          && st.Memo_unit.updates = calls.update
          && st.Memo_unit.sends = calls.send
        in
        ( (if s_memo = s_hooked && counted then s_hooked else -1),
          memoize_s,
          lower_s,
          c +. r,
          same_run pipe )
    | Runner.Software { table_log2 } ->
        let sw (inst : Workload.instance) =
          Axmemo_baselines.Software_memo.memoize ~mem:inst.Workload.mem ~table_log2
            ~entry:inst.Workload.entry ?barrier:inst.Workload.barrier inst.Workload.program
            inst.Workload.regions
        in
        let inst = cell.make () in
        let program = sw inst in
        let s_lo, c, r = interp_run ~program inst in
        let lower_s = c +. r in
        let inst = cell.make () in
        let program = sw inst in
        let pipe =
          Pipeline.create ~machine ~program ~hierarchy:(Hierarchy.create Hierarchy.hpi_default) ()
        in
        let s_hooked, c, r = interp_run ~hooks:(Pipeline.hooks pipe) ~program inst in
        ( (if s_lo = s_hooked then s_hooked else -1),
          0.0,
          lower_s,
          c +. r,
          same_run pipe )
    | Runner.Hw_memo _ | Runner.Hw_custom _ | Runner.Atm _ ->
        invalid_arg "Ablation.run_cell: no stack for this configuration"
  in
  let inst = cell.make () in
  let full, full_s = Check.timed (fun () -> Runner.run cell.config inst) in
  let ok = steps >= 0 && same_as_full full in
  {
    cell;
    cls;
    ok;
    steps;
    base_steps;
    ir_create_s;
    ir_run_s;
    memoize_s;
    lower_s;
    hooked_s;
    full_s;
    calls;
    hits = full.Runner.hits;
    lookups = full.Runner.lookups;
    full = Some full;
  }

let run_cell_safe cell =
  try run_cell cell
  with _ ->
    {
      cell;
      cls = class_of cell.config;
      ok = false;
      steps = 0;
      base_steps = 0;
      ir_create_s = 0.0;
      ir_run_s = 0.0;
      memoize_s = 0.0;
      lower_s = 0.0;
      hooked_s = 0.0;
      full_s = 0.0;
      calls = { send = 0; lookup = 0; update = 0; invalidate = 0 };
      hits = 0;
      lookups = 0;
      full = None;
    }

let sum f rs = List.fold_left (fun acc r -> acc +. f r) 0.0 rs
let sumi f rs = List.fold_left (fun acc r -> acc + f r) 0 rs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The per-instruction layer metrics over a set of ablated cells. *)
let metrics rs =
  let good = List.filter (fun r -> r.ok) rs in
  let base_steps = float_of_int (sumi (fun r -> r.base_steps) good) in
  let ir_ns = ratio (sum (fun r -> r.ir_run_s) good) base_steps *. 1e9 in
  let steps = float_of_int (sumi (fun r -> r.steps) good) in
  let hw = List.filter (fun r -> r.cls = Hw) good in
  let hw_calls = float_of_int (sumi (fun r -> total_calls r.calls) hw) in
  let memo_ns =
    ratio
      (sum (fun r -> r.lower_s -. (ir_ns *. 1e-9 *. float_of_int r.steps)) hw)
      hw_calls
    *. 1e9
  in
  let calls f = float_of_int (sumi (fun r -> f r.calls) hw) in
  let lookups = float_of_int (sumi (fun r -> r.lookups) hw) in
  let cell_s c = sum (fun r -> if r.cls = c then r.full_s else 0.0) good in
  let m = Metric.make in
  [
    m "compiler.memoize_s" "s" (sum (fun r -> r.memoize_s) good);
    m "ir.ns_per_instr" "ns" ir_ns;
    m "ir.create_s" "s" (sum (fun r -> r.ir_create_s) good);
    m "cpu.ns_per_instr" "ns" (ratio (sum (fun r -> r.hooked_s -. r.lower_s) good) steps *. 1e9);
    m "memo.ns_per_call" "ns" memo_ns;
    m "memo.calls.send" "count" (calls (fun c -> c.send));
    m "memo.calls.lookup" "count" (calls (fun c -> c.lookup));
    m "memo.calls.update" "count" (calls (fun c -> c.update));
    m "memo.calls.invalidate" "count" (calls (fun c -> c.invalidate));
    m "memo.hit_rate" "ratio" (ratio (float_of_int (sumi (fun r -> r.hits) hw)) lookups);
    m "memo.update_per_lookup" "ratio" (ratio (calls (fun c -> c.update)) lookups);
    m "core.finish_s" "s" (sum (fun r -> r.full_s -. r.hooked_s) good);
    m "core.cell_s.baseline" "s" (cell_s Baseline);
    m "core.cell_s.hw" "s" (cell_s Hw);
    m "core.cell_s.software" "s" (cell_s Software);
  ]

(* The ablation's ops: one per cell, fingerprinted by its full run. *)
let ops rs =
  List.map
    (fun r ->
      let id = Printf.sprintf "%s%s/%s" Check.ablation_prefix r.cell.bench (class_name r.cls) in
      match r.full with
      | Some full -> Check.of_result ~id ~ok:r.ok full
      | None -> Check.raised id)
    rs

(* The three configuration classes of the paper's Section 6 matrix. *)
let configs = [ Runner.Baseline; Runner.l1_8k_l2_512k; Runner.software_default ]

let maker bench =
  match Axmemo_workloads.Registry.find bench with
  | Some (_, make) -> make
  | None -> invalid_arg ("unknown benchmark " ^ bench)

let cells ~variant benches =
  List.concat_map
    (fun bench ->
      let make = maker bench in
      List.map (fun config -> { bench; config; make = (fun () -> make variant) }) configs)
    benches
