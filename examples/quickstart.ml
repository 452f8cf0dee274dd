(* Quickstart: memoize your own kernel.

   Builds a tiny program — a pure "pixel curve" kernel mapped over an array —
   with the IR builder, runs it on the simulated HPI core, then lets AxMemo
   memoize it and compares cycles, instructions and output quality.

   Run with: dune exec examples/quickstart.exe *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Interp = Axmemo_ir.Interp
module Transform = Axmemo_compiler.Transform
module MU = Axmemo_memo.Memo_unit
module Pipeline = Axmemo_cpu.Pipeline
module Hierarchy = Axmemo_cache.Hierarchy

(* 1. A pure kernel: gamma-style tone curve, y = x^2.2-ish via exp/log. *)
let kernel () =
  let b = B.create ~name:"tone_curve" ~pure:true ~params:[ Ir.F32 ] ~rets:[ Ir.F32 ] () in
  let x = B.param b 0 in
  let safe = B.select b (B.fcmp b Fle F32 x (B.f32 1e-6)) (B.f32 1e-6) x in
  let lg = match B.call b Axmemo_workloads.Mathlib.log_name ~rets:1 [ safe ] with
    | [ v ] -> v | _ -> assert false in
  let scaled = B.fmul b F32 lg (B.f32 2.2) in
  let y = match B.call b Axmemo_workloads.Mathlib.exp_name ~rets:1 [ scaled ] with
    | [ v ] -> v | _ -> assert false in
  B.ret b [ y ];
  B.finish b

(* 2. A driver that maps the kernel over n pixels. *)
let driver n =
  let b = B.create ~name:"main" ~params:[ Ir.I64; Ir.I64 ] ~rets:[] () in
  let inb = B.param b 0 and outb = B.param b 1 in
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 n) (fun i ->
      let off = B.cast b Sext_32_64 (B.muli b i (B.i32 4)) in
      let x = B.load b F32 (B.binop b Add I64 inb off) 0 in
      let y = match B.call b "tone_curve" ~rets:1 [ x ] with
        | [ v ] -> v | _ -> assert false in
      B.store b F32 ~src:y ~base:(B.binop b Add I64 outb off) ~offset:0);
  B.ret b [];
  B.finish b

let () =
  let n = 20_000 in
  let program =
    Axmemo_workloads.Workload.program_with_math [ driver n; kernel () ]
  in
  (* 8-bit-ish pixel data: plenty of repeated values for the LUT. *)
  let setup () =
    let mem = Memory.create () in
    let inb = Memory.alloc mem ~bytes:(4 * n) ~align:64 in
    let outb = Memory.alloc mem ~bytes:(4 * n) ~align:64 in
    for i = 0 to n - 1 do
      Memory.store_f32 mem (inb + (4 * i)) (float_of_int ((i * 7919) mod 256) /. 255.0)
    done;
    (mem, inb, outb)
  in
  let simulate program mem memo lookup_level =
    let hierarchy = Hierarchy.(create hpi_default) in
    let pipe = Pipeline.create ?lookup_level ~program ~hierarchy () in
    let t = Interp.create ?memo ~hooks:(Pipeline.hooks pipe) ~program ~mem () in
    (t, pipe)
  in
  (* Baseline run. *)
  let mem, inb, outb = setup () in
  let t, pipe = simulate program mem None None in
  ignore (Interp.run t "main" [| VI (Int64.of_int inb); VI (Int64.of_int outb) |]);
  let base_cycles = Pipeline.cycles pipe in
  let reference = Array.init n (fun i -> Memory.load_f32 mem (outb + (4 * i))) in
  Printf.printf "baseline:  %d cycles\n" base_cycles;

  (* 3. Memoize: truncate 4 mantissa LSBs of the input, LUT 0. *)
  let region = { Transform.kernel = "tone_curve"; lut_id = 0; truncs = [| 4 |] } in
  let memo_program = Transform.memoize ~entry:"main" program [ region ] in
  let unit = MU.create MU.default_config (Transform.lut_decls program [ region ]) in
  let lookup_level () =
    match MU.last_lookup_level unit with
    | MU.Hit_l1 -> `L1
    | MU.Hit_l2 -> `L2
    | MU.Hit_l3 -> `L3
    | MU.Miss -> `Miss
  in
  let mem, inb, outb = setup () in
  let t, pipe = simulate memo_program mem (Some (MU.hooks unit)) (Some lookup_level) in
  ignore (Interp.run t "main" [| VI (Int64.of_int inb); VI (Int64.of_int outb) |]);
  let memo_cycles = Pipeline.cycles pipe in
  let approx = Array.init n (fun i -> Memory.load_f32 mem (outb + (4 * i))) in

  let s = MU.stats unit in
  Printf.printf "memoized:  %d cycles (%.2fx speedup)\n" memo_cycles
    (float_of_int base_cycles /. float_of_int memo_cycles);
  Printf.printf "LUT:       %d lookups, %.1f%% hit rate\n" s.lookups
    (100.0 *. MU.hit_rate unit);
  Printf.printf "quality:   output error %.2e (Equation 2)\n"
    (Axmemo_util.Stats.output_error ~reference ~approx)
