(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) from the simulator, plus the perf smoke and the
   gated smokes of the multi-core, serve, tier, cluster and watch layers.
   Host time per layer is measured from outside the library by hostbench/.

   Usage:
     bench/main.exe                 run everything
     bench/main.exe fig7a fig9 ...  run selected experiments
     bench/main.exe --jobs N ...    fan the simulation matrix over N domains
                                    (default: the host's core count)
     bench/main.exe --backend B     execution backend for the experiments:
                                    compiled (default) or interp (reference;
                                    bit-identical, just slower)
     bench/main.exe --perf-smoke    small fixed matrix; times BOTH backends
                                    serial + parallel, prints wall-clock +
                                    throughput and writes BENCH_PR1.json and
                                    the per-backend comparison artifacts
                                    BENCH_PR1.{compiled,interp}.json

   Experiment ids: table1 table2 table3 table4 table5 fig7a fig7b fig8 fig9
                   fig10a fig10b fig11 atm l2sens ablation_crc
                   ablation_policy ablation_throughput ablation_payload
                   ablation_rounding ablation_adaptive faults corun serve
                   tier cluster watch *)

module W = Axmemo_workloads
module Workload = W.Workload
module Runner = Axmemo.Runner
module Analysis = Axmemo.Analysis
module Table = Axmemo_util.Table
module Stats = Axmemo_util.Stats
module Pool = Axmemo_util.Pool
module Interp = Axmemo_ir.Interp
module Machine = Axmemo_cpu.Machine
module Hierarchy = Axmemo_cache.Hierarchy
module Timing = Axmemo_isa.Timing
module Synthesis = Axmemo_energy.Synthesis
module Json = Axmemo_util.Json
module Report = Axmemo_telemetry.Report
module Registry = Axmemo_telemetry.Registry
module Campaign = Axmemo_resilience.Campaign
module Protection = Axmemo_faults.Protection
module Shared_lut = Axmemo_multicore.Shared_lut
module Corun = Axmemo_multicore.Corun
module Serve = Axmemo_serve.Serve
module Cluster = Axmemo_cluster.Cluster
module Timeline = Axmemo_watch.Timeline
module Alert = Axmemo_watch.Alert

let benchmarks = W.Registry.all
let names = W.Registry.names

(* The AxMemo configurations of Section 6.2 plus the contenders. *)
let cfg_noapprox =
  Runner.Hw_memo
    {
      l1_bytes = 8 * 1024;
      l2_bytes = Some (512 * 1024);
      approximate = false;
      monitor = true;
      total_l2 = None;
      adaptive = false;
    }

let hw_configs =
  [ Runner.l1_4k; Runner.l1_8k; Runner.l1_8k_l2_256k; Runner.l1_8k_l2_512k ]

let all_columns = hw_configs @ [ Runner.software_default; Runner.atm_default ]

(* --jobs N; None = the host's recommended domain count. *)
let pool_jobs : int option ref = ref None

(* --backend interp|compiled; the execution strategy for every simulation.
   The two backends are pinned bit-identical, so this only moves wall
   time — compiled is the default, interp the reference. *)
let backend : Interp.backend ref = ref `Compiled

let jobs () = match !pool_jobs with Some j -> j | None -> Pool.default_jobs ()

let instance_of name =
  let _, make = Option.get (W.Registry.find name) in
  make Workload.Eval

(* Every (benchmark, config) simulation runs once and is cached. The cache
   is only ever touched from the main domain: [prewarm] fans the simulations
   themselves out over worker domains and files the results here serially,
   and [result] is the serial fall-back for cells no experiment declared. *)
let cache : (string * string, Runner.result) Hashtbl.t = Hashtbl.create 128

let result name config =
  let key = (name, Runner.config_label config) in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let r = Runner.run ~backend:!backend config (instance_of name) in
      Hashtbl.replace cache key r;
      r

(* Run an experiment's missing (benchmark, config) cells as one parallel
   matrix before its (serial) formatting code pulls them from the cache.
   Each cell gets its own fresh instance — the domain-safety contract of
   [Runner.run_matrix]. *)
let prewarm pairs =
  let seen = Hashtbl.create 32 in
  let missing =
    List.filter
      (fun (n, c) ->
        let key = (n, Runner.config_label c) in
        if Hashtbl.mem cache key || Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      pairs
  in
  if missing <> [] then begin
    let cells = List.map (fun (n, c) -> (c, instance_of n)) missing in
    let results = Runner.run_matrix ~jobs:(jobs ()) ~backend:!backend cells in
    List.iter2
      (fun (n, c) r -> Hashtbl.replace cache (n, Runner.config_label c) r)
      missing results
  end

(* The full suite crossed with a config list, for experiment declarations. *)
let suite_cells cfgs = List.concat_map (fun n -> List.map (fun c -> (n, c)) cfgs) names

let baseline name = result name Runner.Baseline

let heading title =
  Printf.printf "\n================ %s ================\n%!" title

let average xs = Stats.mean (Array.of_list xs)

(* ------------------------------------------------------------------ *)

let table1 () =
  heading "Table 1: DDDG analysis (sample inputs)";
  (* Each analysis owns its trace and instance, so the rows fan out too. *)
  let rows =
    Pool.run ~jobs:(jobs ())
      (fun ((meta : Workload.meta), make) ->
        let r = Analysis.analyze ~max_entries:60_000 make in
        [
          meta.name;
          string_of_int r.total_dynamic_subgraphs;
          string_of_int r.unique_subgraphs;
          Table.fmt_float r.ci_ratio;
          Table.fmt_pct r.coverage;
        ])
      benchmarks
  in
  Table.print ~align:[ Left; Right; Right; Right; Right ]
    ~header:
      [ "Benchmark"; "Dynamic Subgraphs"; "Unique Subgraphs"; "CI_Ratio"; "Coverage" ]
    rows

let table2 () =
  heading "Table 2: evaluated benchmarks";
  let rows =
    List.map
      (fun ((m : Workload.meta), _) ->
        [ m.name; m.domain; m.description; m.dataset; m.input_bytes; m.trunc_bits ])
      benchmarks
  in
  Table.print
    ~header:
      [ "Benchmark"; "Domain"; "Description"; "Input Dataset"; "Input (B)"; "Trunc bits" ]
    rows

let table3 () =
  heading "Table 3: HPI microarchitectural parameters";
  let hier = Hierarchy.hpi_default in
  let rows =
    List.map (fun (k, v) -> [ k; v ]) (Machine.describe Machine.hpi)
    @ [
        [
          "L1 Data Cache";
          Printf.sprintf "%dKB, %d-way, %d-cycle hit" (hier.l1_size / 1024) hier.l1_ways
            hier.l1_latency;
        ];
        [
          "L2 Cache";
          Printf.sprintf "%dKB, %d-way, %d-cycle hit" (hier.l2_size / 1024) hier.l2_ways
            hier.l2_latency;
        ];
        [ "DRAM"; Printf.sprintf "%d-cycle access, next-line prefetch" hier.dram_latency ];
      ]
  in
  Table.print ~header:[ "Parameter"; "Value" ] rows

let table4 () =
  heading "Table 4: AxMemo instruction timing";
  Table.print ~header:[ "Instruction"; "Latency" ]
    [
      [
        "ld_crc";
        Printf.sprintf
          "load latency; hash absorbs %dB/cycle, stalls only on full queue (%dB)"
          Timing.crc_bytes_per_cycle Timing.input_queue_bytes;
      ];
      [
        "reg_crc";
        Printf.sprintf "1 issue slot; hash absorbs %dB/cycle" Timing.crc_bytes_per_cycle;
      ];
      [
        "lookup";
        Printf.sprintf "%d cycles (L1 LUT), +%d cycles (L2 LUT); waits for CRC"
          Timing.lookup_l1_cycles Timing.lookup_l2_cycles;
      ];
      [ "update"; Printf.sprintf "%d cycles" Timing.update_cycles ];
      [ "invalidate"; Printf.sprintf "%d cycle per way" Timing.invalidate_cycles_per_way ];
    ]

let table5 () =
  heading "Table 5: synthesized units (32nm)";
  let rows =
    List.map
      (fun (r : Synthesis.unit_row) ->
        [
          r.unit_name;
          Printf.sprintf "%.4f" r.area_mm2;
          Printf.sprintf "%.4f" r.energy_pj;
          Printf.sprintf "%.4f" r.latency_ns;
        ])
      Synthesis.rows
  in
  Table.print ~align:[ Left; Right; Right; Right ]
    ~header:[ "Unit"; "Area (mm^2)"; "Energy (pJ)"; "Latency (ns)" ]
    rows;
  Printf.printf "Quality monitor: %.1f um^2, %.2f uW, %.2f ns\n"
    Synthesis.quality_monitor_area_um2 Synthesis.quality_monitor_power_uw
    Synthesis.quality_monitor_latency_ns;
  Printf.printf "Area overhead with 16KB L1 LUT: %s of the %.2f mm^2 HPI core\n"
    (Table.fmt_pct (Synthesis.area_overhead ~l1_lut_bytes:(16 * 1024)))
    Synthesis.hpi_core_area_mm2

(* Generic per-benchmark x per-config table over float-valued metrics. *)
let per_config_table ~title ~fmt ~value =
  heading title;
  let header = "Benchmark" :: List.map Runner.config_label all_columns in
  let rows =
    List.map
      (fun name -> name :: List.map (fun cfg -> fmt (value name (result name cfg))) all_columns)
      names
  in
  let avg_row =
    "average"
    :: List.map
         (fun cfg -> fmt (average (List.map (fun n -> value n (result n cfg)) names)))
         all_columns
  in
  Table.print
    ~align:(Left :: List.map (fun _ -> Table.Right) all_columns)
    ~header (rows @ [ avg_row ])

let fig7a () =
  per_config_table ~title:"Figure 7a: speedup over the HPI baseline" ~fmt:Table.fmt_x
    ~value:(fun name r -> Runner.speedup ~baseline:(baseline name) r)

let fig7b () =
  per_config_table ~title:"Figure 7b: energy saving (E_baseline / E_config)"
    ~fmt:Table.fmt_x ~value:(fun name r ->
      Runner.energy_saving ~baseline:(baseline name) r)

let fig8 () =
  heading
    "Figure 8: dynamic instruction count normalized to baseline (memo share in parens)";
  let header = "Benchmark" :: List.map Runner.config_label all_columns in
  let rows =
    List.map
      (fun name ->
        let b = baseline name in
        let btotal = float_of_int (b.dyn_normal + b.dyn_memo) in
        name
        :: List.map
             (fun cfg ->
               let r = result name cfg in
               let total = float_of_int (r.dyn_normal + r.dyn_memo) in
               Printf.sprintf "%.3f (%.3f)" (total /. btotal)
                 (float_of_int r.dyn_memo /. btotal))
             all_columns)
      names
  in
  let avg =
    "average"
    :: List.map
         (fun cfg ->
           let ratios =
             List.map
               (fun name ->
                 let b = baseline name in
                 let r = result name cfg in
                 float_of_int (r.dyn_normal + r.dyn_memo)
                 /. float_of_int (b.dyn_normal + b.dyn_memo))
               names
           in
           Printf.sprintf "%.3f" (average ratios))
         all_columns
  in
  Table.print ~align:(Left :: List.map (fun _ -> Table.Right) all_columns) ~header
    (rows @ [ avg ])

let fig9 () =
  per_config_table ~title:"Figure 9: LUT hit rate" ~fmt:Table.fmt_pct ~value:(fun _ r ->
      r.hit_rate)

let fig10a () =
  heading "Figure 10a: whole-application quality loss";
  let header = "Benchmark" :: List.map Runner.config_label all_columns in
  let rows =
    List.map
      (fun name ->
        let b = baseline name in
        name
        :: List.map
             (fun cfg ->
               let r = result name cfg in
               let loss = Workload.quality_loss ~reference:b.outputs ~approx:r.outputs in
               Printf.sprintf "%.4f%%%s" (100.0 *. loss)
                 (if r.memo_disabled then " (disabled)" else ""))
             all_columns)
      names
  in
  Table.print ~align:(Left :: List.map (fun _ -> Table.Right) all_columns) ~header rows

let fig10b () =
  heading "Figure 10b: element-wise relative error CDF, L1(8KB)+L2(512KB)";
  let header = [ "Benchmark"; "p50"; "p90"; "p99"; "p99.9"; "max" ] in
  let rows =
    List.map
      (fun name ->
        let b = baseline name in
        let r = result name Runner.l1_8k_l2_512k in
        let errs = Workload.element_errors ~reference:b.outputs ~approx:r.outputs in
        let p q = Printf.sprintf "%.2e" (Stats.percentile errs q) in
        [ name; p 50.0; p 90.0; p 99.0; p 99.9; p 100.0 ])
      names
  in
  Table.print ~align:[ Left; Right; Right; Right; Right; Right ] ~header rows

let fig11 () =
  heading "Figure 11: with vs without approximation, L1(8KB)+L2(512KB)";
  let header =
    [
      "Benchmark"; "speedup w/"; "speedup w/o"; "esave w/"; "esave w/o"; "hit w/"; "hit w/o";
    ]
  in
  let rows =
    List.map
      (fun name ->
        let b = baseline name in
        let w = result name Runner.l1_8k_l2_512k in
        let wo = result name cfg_noapprox in
        [
          name;
          Table.fmt_x (Runner.speedup ~baseline:b w);
          Table.fmt_x (Runner.speedup ~baseline:b wo);
          Table.fmt_x (Runner.energy_saving ~baseline:b w);
          Table.fmt_x (Runner.energy_saving ~baseline:b wo);
          Table.fmt_pct w.hit_rate;
          Table.fmt_pct wo.hit_rate;
        ])
      names
  in
  Table.print
    ~align:[ Left; Right; Right; Right; Right; Right; Right ]
    ~header rows;
  let avg f = average (List.map f names) in
  Printf.printf "average hit rate: %s with approximation vs %s without\n"
    (Table.fmt_pct (avg (fun n -> (result n Runner.l1_8k_l2_512k).hit_rate)))
    (Table.fmt_pct (avg (fun n -> (result n cfg_noapprox).hit_rate)))

let atm () =
  heading "Section 6.2: comparison with ATM (Brumar et al.)";
  let speedups =
    List.map
      (fun name ->
        Runner.speedup ~baseline:(baseline name) (result name Runner.atm_default))
      names
  in
  let rows = List.map2 (fun name s -> [ name; Table.fmt_x s ]) names speedups in
  Table.print ~align:[ Left; Right ] ~header:[ "Benchmark"; "ATM speedup" ] rows;
  Printf.printf "geometric mean: %s (paper: 0.8x)\n"
    (Table.fmt_x (Stats.geomean (Array.of_list speedups)))

let l2sens_full =
  Runner.Hw_memo
    {
      l1_bytes = 8 * 1024;
      l2_bytes = Some (256 * 1024);
      approximate = true;
      monitor = true;
      total_l2 = None;
      adaptive = false;
    }

let l2sens_halved =
  Runner.Hw_memo
    {
      l1_bytes = 8 * 1024;
      l2_bytes = Some (256 * 1024);
      approximate = true;
      monitor = true;
      total_l2 = Some (512 * 1024);
      adaptive = false;
    }

let l2sens () =
  heading "Section 6.2: sensitivity to total L2 size (256KB L2 LUT)";
  let full = l2sens_full and halved = l2sens_halved in
  let degr = ref [] in
  let rows =
    List.map
      (fun name ->
        let a = result name full in
        let b = result name halved in
        let d = (float_of_int b.cycles /. float_of_int a.cycles) -. 1.0 in
        degr := d :: !degr;
        [ name; string_of_int a.cycles; string_of_int b.cycles; Table.fmt_pct d ])
      names
  in
  Table.print ~align:[ Left; Right; Right; Right ]
    ~header:[ "Benchmark"; "cycles @1MB L2"; "cycles @512KB L2"; "degradation" ]
    rows;
  Printf.printf "average degradation: %s (paper: 0.44%%)\n" (Table.fmt_pct (average !degr))

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out. These go beyond the
   paper's figures but use only mechanisms the paper describes (CRC sizes,
   LUT geometry, the unrolled CRC unit, LRU, the dynamic tuning option). *)

let custom ?(l1 = 8 * 1024) ?(l2 = None) ?(payload = 8) ?(crc = Axmemo_crc.Poly.crc32)
    ?(policy = Axmemo_memo.Lut.Lru) ?(adaptive = None) ?(approximate = true)
    ?(crc_bpc = Timing.crc_bytes_per_cycle) label =
  Runner.Hw_custom
    {
      label;
      unit_cfg =
        {
          Axmemo_memo.Memo_unit.default_config with
          l1_bytes = l1;
          l2_bytes = l2;
          payload_bytes = payload;
          crc;
          policy;
          adaptive;
        };
      approximate;
      crc_bytes_per_cycle = crc_bpc;
    }

let ablation_crc_columns =
  [
    custom ~crc:Axmemo_crc.Poly.crc16_ccitt "CRC-16";
    custom ~crc:Axmemo_crc.Poly.crc32 "CRC-32";
    custom ~crc:Axmemo_crc.Poly.crc64_xz "CRC-64";
  ]

let ablation_crc () =
  heading "Ablation: CRC tag width (Section 3.1: \"CRC can work in many sizes\")";
  let columns = ablation_crc_columns in
  let rows =
    List.map
      (fun name ->
        let b = baseline name in
        name
        :: List.concat_map
             (fun cfg ->
               let r = result name cfg in
               [
                 string_of_int r.collisions;
                 Printf.sprintf "%.4f%%"
                   (100.0
                   *. Workload.quality_loss ~reference:b.outputs ~approx:r.outputs);
               ])
             columns)
      names
  in
  Table.print
    ~align:[ Left; Right; Right; Right; Right; Right; Right ]
    ~header:
      [ "Benchmark"; "collisions@16"; "loss@16"; "collisions@32"; "loss@32";
        "collisions@64"; "loss@64" ]
    rows;
  print_string
    "A 16-bit tag aliases once the working set reaches thousands of keys; the\n\
     paper's conclusion that 32 bits is \"generally large enough\" shows as a\n\
     zero collision column.\n"

let ablation_policy_columns =
  [
    custom ~policy:Axmemo_memo.Lut.Lru "LRU";
    custom ~policy:Axmemo_memo.Lut.Fifo "FIFO";
    custom ~policy:Axmemo_memo.Lut.Random "Random";
  ]

let ablation_policy () =
  heading "Ablation: LUT replacement policy (paper: LRU)";
  let columns = ablation_policy_columns in
  let rows =
    List.map
      (fun name ->
        name
        :: List.map (fun cfg -> Table.fmt_pct (result name cfg).hit_rate) columns)
      names
  in
  Table.print
    ~align:[ Left; Right; Right; Right ]
    ~header:[ "Benchmark (hit rate @ L1 8KB)"; "LRU"; "FIFO"; "Random" ]
    rows

let ablation_serial_crc = custom ~l2:(Some (512 * 1024)) ~crc_bpc:1 "serial-crc"
let ablation_unrolled_crc = custom ~l2:(Some (512 * 1024)) ~crc_bpc:4 "unrolled-crc"

let ablation_throughput () =
  heading "Ablation: CRC unit throughput (serial 1 B/cycle vs 4x-unrolled, Section 6.1)";
  let serial = ablation_serial_crc in
  let unrolled = ablation_unrolled_crc in
  let rows =
    List.map
      (fun name ->
        let b = baseline name in
        let s = result name serial and u = result name unrolled in
        [
          name;
          Table.fmt_x (Runner.speedup ~baseline:b s);
          Table.fmt_x (Runner.speedup ~baseline:b u);
          string_of_int s.pipeline.crc_stall_cycles;
        ])
      names
  in
  Table.print
    ~align:[ Left; Right; Right; Right ]
    ~header:[ "Benchmark"; "speedup @1B/cy"; "speedup @4B/cy"; "stalls @1B/cy" ]
    rows;
  print_string
    "Wide-input blocks (Sobel 36B, Jmeint 72B) pay the serial unit's drain\n\
     time on every lookup; the 4x unroll is what keeps hash latency hidden.\n"

(* Only benchmarks whose kernels produce a single 4-byte output can use the
   narrow configuration. *)
let payload_eligible = [ "blackscholes"; "sobel"; "hotspot"; "lavamd"; "srad" ]
let ablation_narrow = custom ~l1:(4 * 1024) ~payload:4 "4B-entries"
let ablation_wide = custom ~l1:(4 * 1024) ~payload:8 "8B-entries"

let ablation_payload () =
  heading "Ablation: LUT entry width - 8-way x 4B vs 4-way x 8B sets (Section 3.3)";
  let eligible = payload_eligible in
  let narrow = ablation_narrow in
  let wide = ablation_wide in
  let rows =
    List.map
      (fun name ->
        let n = result name narrow and w = result name wide in
        [ name; Table.fmt_pct n.hit_rate; Table.fmt_pct w.hit_rate ])
      (List.filter (fun n -> List.mem n eligible) names)
  in
  Table.print
    ~align:[ Left; Right; Right ]
    ~header:[ "Benchmark (hit rate @ 4KB L1)"; "8-way x 4B"; "4-way x 8B" ]
    rows;
  print_string
    "Four-byte entries double both associativity and capacity in entries for\n\
     single-output kernels - the reason the set format is configurable.\n"

let ablation_truncate = custom ~l2:(Some (512 * 1024)) "cell-truncate"

let ablation_nearest =
  Runner.Hw_custom
    {
      label = "cell-nearest";
      unit_cfg =
        {
          Axmemo_memo.Memo_unit.default_config with
          l2_bytes = Some (512 * 1024);
          rounding = Axmemo_memo.Memo_unit.Nearest;
        };
      approximate = true;
      crc_bytes_per_cycle = Timing.crc_bytes_per_cycle;
    }

let ablation_rounding () =
  heading "Ablation: truncate-down vs round-to-nearest cells (Section 3.1 note)";
  let truncate = ablation_truncate in
  let nearest = ablation_nearest in
  let rows =
    List.map
      (fun name ->
        let b = baseline name in
        let t = result name truncate and n = result name nearest in
        let loss r = Workload.quality_loss ~reference:b.outputs ~approx:r.Runner.outputs in
        [
          name;
          Table.fmt_pct t.hit_rate;
          Table.fmt_pct n.hit_rate;
          Printf.sprintf "%.4f%%" (100.0 *. loss t);
          Printf.sprintf "%.4f%%" (100.0 *. loss n);
        ])
      names
  in
  Table.print
    ~align:[ Left; Right; Right; Right; Right ]
    ~header:[ "Benchmark"; "hit (truncate)"; "hit (nearest)"; "loss (truncate)"; "loss (nearest)" ]
    rows;
  print_string
    "Nearest-cell rounding centres each cell on its representative, halving\n\
     the worst-case input perturbation at identical hash cost.\n"

(* The adaptive run starts from zero truncation (approximate = false zeroes
   the static levels) and must discover a usable level on its own. *)
let ablation_adaptive_cfg =
  custom ~l2:(Some (512 * 1024)) ~approximate:false
    ~adaptive:(Some Axmemo_memo.Memo_unit.default_adaptive) "adaptive-from-zero"

let ablation_adaptive () =
  heading "Ablation: compile-time truncation vs the runtime dynamic approach (Section 3.1)";
  let adaptive = ablation_adaptive_cfg in
  let rows =
    List.map
      (fun name ->
        let b = baseline name in
        let s = result name Runner.l1_8k_l2_512k in
        let a = result name adaptive in
        [
          name;
          Table.fmt_pct s.hit_rate;
          Table.fmt_pct a.hit_rate;
          Table.fmt_x (Runner.speedup ~baseline:b s);
          Table.fmt_x (Runner.speedup ~baseline:b a);
          Printf.sprintf "%.4f%%"
            (100.0 *. Workload.quality_loss ~reference:b.outputs ~approx:a.outputs);
        ])
      names
  in
  Table.print
    ~align:[ Left; Right; Right; Right; Right; Right ]
    ~header:
      [ "Benchmark"; "hit (static)"; "hit (adaptive)"; "speedup (static)";
        "speedup (adaptive)"; "loss (adaptive)" ]
    rows;
  print_string
    "The runtime tuner trades profiling windows (forced misses) for not\n\
     needing the compile-time profiling pass; it should approach, not beat,\n\
     the statically tuned levels.\n"

(* ------------------------------------------------------------------ *)
(* Perf smoke: a small fixed matrix timed serially and in parallel on both
   backends, plus one hooked blackscholes run per backend. Results go to
   stdout and BENCH_PR1.json so the perf trajectory is tracked across PRs. *)

let smoke_names = [ "blackscholes"; "inversek2j"; "sobel" ]
let smoke_configs = [ Runner.Baseline; Runner.l1_8k; Runner.software_default ]

let smoke_cells () =
  List.concat_map
    (fun n ->
      let _, make = Option.get (W.Registry.find n) in
      List.map (fun c -> (c, make Workload.Sample)) smoke_configs)
    smoke_names

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One baseline simulation of [name] with the pipeline model hooked,
   timed, on either execution backend. Same program, same pipeline model —
   the delta is the execution hot path alone. *)
let timed_interp_run ~backend name =
  let _, make = Option.get (W.Registry.find name) in
  let instance = make Workload.Eval in
  let hierarchy = Hierarchy.(create hpi_default) in
  let pipe =
    Axmemo_cpu.Pipeline.create ~program:instance.program ~hierarchy ()
  in
  let interp =
    Axmemo_ir.Interp.create ~backend
      ~hooks:(Axmemo_cpu.Pipeline.hooks pipe)
      ~program:instance.program ~mem:instance.mem ()
  in
  let (), dt = wall (fun () -> ignore (Interp.run interp instance.entry instance.args)) in
  (dt, Interp.steps interp)

let perf_smoke () =
  heading "Perf smoke (fixed small matrix)";
  let ncells = List.length (smoke_cells ()) in
  let njobs = match !pool_jobs with Some j -> j | None -> 4 in
  (* Warm-up pass per backend: CRC step/slice tables, closure compilation,
     allocator, code paths. *)
  ignore (Runner.run_matrix ~jobs:1 ~backend:`Compiled (smoke_cells ()));
  ignore (Runner.run_matrix ~jobs:1 ~backend:`Interp (smoke_cells ()));
  (* Bench hygiene: a larger minor heap and a lazier major GC keep collector
     noise out of the timed regions. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 8 * 1024 * 1024; space_overhead = 240 };
  (* Instance creation (dataset synthesis) happens before the clock starts:
     each timed region covers the simulation matrix alone, and a full major
     collection fences it off from the previous region's garbage. *)
  let time_matrix ~jobs ~backend =
    let cells = smoke_cells () in
    Gc.full_major ();
    wall (fun () -> Runner.run_matrix ~jobs ~backend cells)
  in
  let serial, t_serial = time_matrix ~jobs:1 ~backend:`Compiled in
  let par, t_par = time_matrix ~jobs:njobs ~backend:`Compiled in
  let iserial, t_iserial = time_matrix ~jobs:1 ~backend:`Interp in
  let ipar, t_ipar = time_matrix ~jobs:njobs ~backend:`Interp in
  (* Bit-identity across scheduling and across backends: [sim_wall_seconds]
     is the one field outside the contract. *)
  let norm (r : Runner.result) = { r with Runner.sim_wall_seconds = 0.0 } in
  let all_equal a b = List.for_all2 (fun x y -> norm x = norm y) a b in
  let identical = all_equal serial par in
  let backend_identical = all_equal serial iserial && all_equal serial ipar in
  let dyn =
    List.fold_left (fun acc (r : Runner.result) -> acc + r.dyn_normal + r.dyn_memo) 0 serial
  in
  let best f = List.fold_left (fun acc () -> min acc (f ())) infinity [ (); (); () ] in
  let t_flat = best (fun () -> fst (timed_interp_run ~backend:`Interp "blackscholes")) in
  let t_closure =
    best (fun () -> fst (timed_interp_run ~backend:`Compiled "blackscholes"))
  in
  let throughput = float_of_int dyn /. t_serial /. 1e6 in
  let speedup = t_serial /. t_par in
  let backend_speedup = t_iserial /. t_serial in
  Printf.printf "matrix           %d cells (%s x %s), sample datasets\n" ncells
    (String.concat "," smoke_names)
    (String.concat "," (List.map Runner.config_label smoke_configs));
  Printf.printf "compiled serial  %.3f s (%.1f Minstr/s over %d dynamic instructions)\n"
    t_serial throughput dyn;
  Printf.printf "compiled --jobs  %.3f s with --jobs %d => %.2fx (host domains: %d)\n"
    t_par njobs speedup
    (Pool.default_jobs ());
  Printf.printf "interp serial    %.3f s (%.1f Minstr/s)\n" t_iserial
    (float_of_int dyn /. t_iserial /. 1e6);
  Printf.printf "interp --jobs    %.3f s with --jobs %d\n" t_ipar njobs;
  Printf.printf "backend speedup  %.2fx serial, %.2fx with --jobs %d\n" backend_speedup
    (t_ipar /. t_par) njobs;
  Printf.printf "bit-identical    %b serial/parallel, %b interp/compiled\n" identical
    backend_identical;
  Printf.printf "1-thread bs     %.3f s flat-hook, %.3f s compiled => %.2fx\n" t_flat
    t_closure (t_flat /. t_closure);
  let cell_benchmarks =
    List.concat_map (fun n -> List.map (fun _ -> n) smoke_configs) smoke_names
  in
  (* Per-cell wall-time column: where the simulation seconds go, and what
     the compiled backend buys on each cell. *)
  let rows =
    List.map2
      (fun bench ((c : Runner.result), (i : Runner.result)) ->
        [
          bench;
          c.label;
          string_of_int c.cycles;
          Printf.sprintf "%.4f" c.sim_wall_seconds;
          Printf.sprintf "%.4f" i.sim_wall_seconds;
          Table.fmt_x (i.sim_wall_seconds /. Float.max 1e-9 c.sim_wall_seconds);
        ])
      cell_benchmarks
      (List.combine serial iserial)
  in
  Table.print
    ~align:[ Left; Left; Right; Right; Right; Right ]
    ~header:[ "benchmark"; "config"; "cycles"; "compiled s"; "interp s"; "x" ]
    rows;
  (* Untimed telemetry pass per backend: supplies the per-cell metric
     snapshots of the shared run-report schema, checks that attaching
     telemetry does not perturb results, and pins the rendered reports
     byte-identical across backends. *)
  let telemetry backend =
    Pool.run ~jobs:1
      (fun (config, inst) ->
        let reg = Registry.create () in
        let r = Runner.run ~backend ~metrics:reg config inst in
        (r, Registry.snapshot reg))
      (smoke_cells ())
  in
  let telem = telemetry `Compiled and telem_interp = telemetry `Interp in
  let telem_identical =
    List.for_all2 (fun a ((b : Runner.result), _) -> norm a = norm b) serial telem
  in
  Printf.printf "telemetry-inert  %b\n" telem_identical;
  (* [~wall] adds the per-run simulator wall time. The main report carries
     it (gated with a loose tolerance); the per-backend comparison
     artifacts leave it out so they can be compared byte for byte. *)
  let report_runs ~wall pairs =
    List.map2
      (fun bench ((r : Runner.result), snapshot) ->
        {
          Report.benchmark = bench;
          config = r.label;
          summary =
            ([
               ("cycles", Json.Int r.cycles);
               ("seconds", Json.Float r.seconds);
               ("dyn_normal", Json.Int r.dyn_normal);
               ("dyn_memo", Json.Int r.dyn_memo);
               ("energy_pj", Json.Float r.energy.Axmemo_energy.Model.total_pj);
               ("lookups", Json.Int r.lookups);
               ("hits", Json.Int r.hits);
               ("hit_rate", Json.Float r.hit_rate);
             ]
            @
            if wall then [ ("sim_wall_seconds", Json.Float r.sim_wall_seconds) ]
            else []);
          metrics = snapshot;
          profile = None;
          service = None;
              cluster = None;
              timeline = None;
              alerts = None;
        })
      cell_benchmarks pairs
  in
  let compiled_doc = Report.make (report_runs ~wall:false telem) in
  let interp_doc = Report.make (report_runs ~wall:false telem_interp) in
  let reports_match =
    Json.to_string ~indent:2 compiled_doc = Json.to_string ~indent:2 interp_doc
  in
  Json.write_file "BENCH_PR1.compiled.json" compiled_doc;
  Json.write_file "BENCH_PR1.interp.json" interp_doc;
  Printf.printf "backend reports  %s (BENCH_PR1.compiled.json vs BENCH_PR1.interp.json)\n"
    (if reports_match then "byte-identical" else "DIVERGENT");
  let extra =
    [
      ("pr", Json.Int 6);
      ( "subject",
        Json.Str "compiled execution backend + slice-by-8 CRC + wall-time metric" );
      ("host_domains", Json.Int (Pool.default_jobs ()));
      ( "matrix",
        Json.Obj
          [
            ("benchmarks", Json.Arr (List.map (fun n -> Json.Str n) smoke_names));
            ( "configs",
              Json.Arr
                (List.map (fun c -> Json.Str (Runner.config_label c)) smoke_configs) );
            ("cells", Json.Int ncells);
          ] );
      ("jobs", Json.Int njobs);
      ("backend", Json.Str "compiled");
      ("serial_seconds", Json.Float t_serial);
      ("parallel_seconds", Json.Float t_par);
      ("parallel_speedup", Json.Float speedup);
      ("interp_serial_seconds", Json.Float t_iserial);
      ("interp_parallel_seconds", Json.Float t_ipar);
      ("backend_speedup", Json.Float backend_speedup);
      ("backend_speedup_parallel", Json.Float (t_ipar /. t_par));
      ("bit_identical", Json.Bool identical);
      ("backend_identical", Json.Bool backend_identical);
      ("backend_reports_identical", Json.Bool reports_match);
      ("telemetry_identical", Json.Bool telem_identical);
      ("dynamic_instructions", Json.Int dyn);
      ("serial_minstr_per_sec", Json.Float throughput);
      ("hook_flat_seconds", Json.Float t_flat);
      ("compiled_1t_seconds", Json.Float t_closure);
      ("compiled_1t_speedup", Json.Float (t_flat /. t_closure));
    ]
  in
  Report.write ~extra "BENCH_PR1.json" (report_runs ~wall:true telem);
  Printf.printf "wrote BENCH_PR1.json\n";
  if not identical then begin
    Printf.eprintf "FATAL: parallel results differ from serial results\n";
    exit 1
  end;
  if not backend_identical then begin
    Printf.eprintf
      "FATAL: interp and compiled backends disagree (beyond sim_wall_seconds)\n";
    exit 1
  end;
  if not telem_identical then begin
    Printf.eprintf "FATAL: telemetry-attached results differ from plain results\n";
    exit 1
  end;
  if not reports_match then begin
    Printf.eprintf "FATAL: backend run reports are not byte-identical\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* SEU resilience campaign over representative benchmarks: sweep fault rate
   and protection over the L1 LUT arrays and the hash path, then check the
   campaign's three headline claims — quality degrades monotonically with
   rate, protection detects a nonzero share of strikes, and SECDED buys back
   the unprotected SDC at a measured energy cost. Writes BENCH_FAULTS.json
   (the schema-versioned resilience report). *)
let faults_benchmarks = [ "fft"; "kmeans"; "sobel" ]

let faults_exp () =
  heading "Resilience: SEU campaign (transient faults, per-access rates)";
  let cfg = Campaign.default () in
  let selected =
    List.map (fun n -> Option.get (W.Registry.find n)) faults_benchmarks
  in
  let outcome = Campaign.run ~jobs:(jobs ()) cfg selected ~variant:Workload.Eval in
  let ms = outcome.measurements in
  let header =
    [ "benchmark"; "sites"; "rate"; "prot"; "inj"; "sdc"; "det"; "qdeg";
      "speedup"; "eovh"; "due" ]
  in
  let rows =
    List.map
      (fun (m : Campaign.measurement) ->
        [
          m.benchmark;
          m.site_group;
          Printf.sprintf "%g" m.rate;
          Protection.kind_name m.protection;
          string_of_int m.injected;
          string_of_int m.sdc_hits;
          Table.fmt_pct m.detection_rate;
          Printf.sprintf "%.1e" m.quality_degradation;
          Table.fmt_x m.speedup_retained;
          Printf.sprintf "%+.1f%%" (100.0 *. m.energy_overhead);
          (match m.crashed with Some _ -> "DUE" | None -> "-");
        ])
      ms
  in
  Table.print
    ~align:
      [ Left; Left; Right; Left; Right; Right; Right; Right; Right; Right; Left ]
    ~header rows;
  (* Headline aggregates over the protected site group (the LUT arrays). *)
  let lut p = List.filter (fun (m : Campaign.measurement) ->
      m.site_group = "lut" && m.protection = p) ms in
  let sum f l = List.fold_left (fun a m -> a + f m) 0 l in
  let sdc_none = sum (fun (m : Campaign.measurement) -> m.sdc_hits) (lut Protection.Unprotected)
  and sdc_secded = sum (fun (m : Campaign.measurement) -> m.sdc_hits) (lut Protection.Secded)
  and det_parity = sum (fun (m : Campaign.measurement) -> m.detected) (lut Protection.Parity)
  and corr = sum (fun (m : Campaign.measurement) -> m.corrected) (lut Protection.Secded) in
  (* A crashed (DUE) cell stops early and spends less energy, so it would
     understate the protection cost — average the overhead over completed
     cells only. *)
  let completed = List.filter (fun (m : Campaign.measurement) -> m.crashed = None) in
  let eovh_secded =
    average (List.map (fun (m : Campaign.measurement) -> m.energy_overhead)
               (completed (lut Protection.Secded)))
  in
  let dues =
    List.length (List.filter (fun (m : Campaign.measurement) -> m.crashed <> None) ms)
  in
  Printf.printf
    "\nLUT sites: unprotected SDC hits %d -> SECDED %d (%d corrected, parity \
     detected %d); SECDED mean energy overhead %+.2f%%; %d DUE cell(s) in the \
     campaign\n"
    sdc_none sdc_secded corr det_parity (100.0 *. eovh_secded) dues;
  Campaign.write_report outcome "BENCH_FAULTS.json";
  Printf.printf "wrote BENCH_FAULTS.json\n"

(* ------------------------------------------------------------------ *)

(* Multi-core co-run: a mixed request stream over cores sharing one L2 LUT
   carved from the LLC (a 1-node cluster), swept over core count x
   partitioning policy. Checks the subsystem's headline claims —
   throughput scales with cores, the shared LUT stays coherent without a
   protocol, and partitioning changes where the ways go without breaking
   determinism — then writes BENCH_CORUN.json in the cluster report
   layout (per-core and shared-LUT registries, series decimated). *)
let corun_mix = [ "fft"; "sobel" ]

let corun_exp () =
  heading "Co-run: shared L2 LUT across cores (throughput scheduler)";
  let partitions =
    [ Shared_lut.Free_for_all; Shared_lut.Static;
      Shared_lut.Utility { period = 2048 } ]
  in
  let cfgs =
    List.concat_map
      (fun ncores ->
        List.map
          (fun partition ->
            {
              Cluster.default with
              nodes = 1;
              node =
                {
                  Corun.default with
                  ncores;
                  partition;
                  workloads = corun_mix;
                  requests = 8;
                  variant = Workload.Eval;
                };
            })
          partitions)
      [ 1; 2; 4 ]
  in
  let outcomes = Cluster.run_matrix ~jobs:(jobs ()) cfgs in
  let header =
    [ "cores"; "partition"; "makespan"; "thrpt/s"; "speedup"; "hit"; "fair";
      "cont"; "repart"; "divergent" ]
  in
  let rows =
    List.map
      (fun (o : Cluster.outcome) ->
        [
          string_of_int o.cfg.node.Corun.ncores;
          Shared_lut.partition_name o.cfg.node.Corun.partition;
          string_of_int o.makespan_cycles;
          Printf.sprintf "%.0f" o.throughput_rps;
          Table.fmt_x o.speedup;
          Table.fmt_pct o.aggregate_hit_rate;
          Printf.sprintf "%.3f" o.fairness;
          string_of_int o.bank_stall_cycles;
          string_of_int o.node_summaries.(0).Cluster.repartitions;
          Printf.sprintf "%d/%d" o.coherence_divergent o.coherence_keys;
        ])
      outcomes
  in
  Table.print
    ~align:
      [ Right; Left; Right; Right; Right; Right; Right; Right; Right; Right ]
    ~header rows;
  let of_cores n =
    List.find
      (fun (o : Cluster.outcome) ->
        o.cfg.node.Corun.ncores = n && o.cfg.node.Corun.partition = Shared_lut.Free_for_all)
      outcomes
  in
  let t1 = (of_cores 1).throughput_rps and t4 = (of_cores 4).throughput_rps in
  Printf.printf
    "\n4-core free-for-all throughput %.2fx the 1-core stream; %d entries \
     diverge across LUT levels in the whole matrix\n"
    (t1 |> fun t1 -> if t1 = 0.0 then 0.0 else t4 /. t1)
    (List.fold_left
       (fun a (o : Cluster.outcome) -> a + o.coherence_divergent)
       0 outcomes);
  Cluster.write_report "BENCH_CORUN.json" outcomes;
  Printf.printf "wrote BENCH_CORUN.json\n"

(* ------------------------------------------------------------------ *)

(* The determinism contract the gated smokes share, checked where it is
   cheapest to rerun: [outcomes] came from a parallel matrix, and [serial]
   reruns it on one domain; both must render the same [report] byte for
   byte. Writes [file] from [outcomes] either way, then exits nonzero on a
   mismatch. *)
let write_gated ~what ~file ~report ~serial outcomes =
  let doc = report outcomes in
  let identical = Json.to_string doc = Json.to_string (report (serial ())) in
  Printf.printf "serial/parallel reports byte-identical: %b\n" identical;
  Json.write_file ~indent:2 file doc;
  Printf.printf "wrote %s\n" file;
  if not identical then begin
    Printf.eprintf "FATAL: %s reports differ between serial and parallel runs\n" what;
    exit 1
  end

let write_serve_gated ~what ~file cfgs outcomes =
  write_gated ~what ~file
    ~report:(fun os -> Serve.report os)
    ~serial:(fun () -> Serve.run_matrix ~jobs:1 cfgs)
    outcomes

(* Open-loop service study: the offered-load ramp over core count and two
   partition policies, Poisson arrivals into a bounded drop-tail queue.
   Checks the service model's headline claims — saturation throughput grows
   with cores, shed rate is monotone in offered load for a fixed seed, and
   warm requests hit far better than cold ones — and pins the report
   byte-identical between a serial and a parallel matrix before writing
   BENCH_SERVE.json (no wall-clock fields, so the diff gate is exact). *)
let serve_mix = [ "blackscholes"; "sobel" ]
let serve_loads = [ 0.5; 1.0; 2.0 ]

let serve_cfgs () =
  List.concat_map
    (fun ncores ->
      List.concat_map
        (fun partition ->
          List.map
            (fun load ->
              {
                Serve.default with
                cluster =
                  {
                    Corun.default with
                    ncores;
                    partition;
                    workloads = serve_mix;
                    requests = 24;
                    variant = Workload.Sample;
                  };
                load;
                queue_capacity = 8;
              })
            serve_loads)
        [ Shared_lut.Free_for_all; Shared_lut.Static ])
    [ 1; 2; 4 ]

let serve_exp () =
  heading "Serve: open-loop traffic over the co-run cluster";
  let cfgs = serve_cfgs () in
  let outcomes = Serve.run_matrix ~jobs:(jobs ()) cfgs in
  let header =
    [ "cores"; "partition"; "load"; "served"; "shed"; "p50"; "p99"; "p999";
      "slo-viol"; "cold-hit"; "warm-hit"; "thrpt/s" ]
  in
  let rows =
    List.map
      (fun (o : Serve.outcome) ->
        [
          string_of_int o.cfg.Serve.cluster.Corun.ncores;
          Shared_lut.partition_name o.cfg.Serve.cluster.Corun.partition;
          Printf.sprintf "%.2f" o.cfg.Serve.load;
          Printf.sprintf "%d/%d" o.served o.arrived;
          Table.fmt_pct o.shed_rate;
          Printf.sprintf "%.0f" o.total.Serve.p50;
          Printf.sprintf "%.0f" o.total.Serve.p99;
          Printf.sprintf "%.0f" o.total.Serve.p999;
          Table.fmt_pct o.slo_violation_rate;
          Table.fmt_pct o.cold_hit_rate;
          Table.fmt_pct o.warm_hit_rate;
          Printf.sprintf "%.0f" o.throughput_rps;
        ])
      outcomes
  in
  Table.print
    ~align:
      [ Right; Left; Right; Right; Right; Right; Right; Right; Right; Right;
        Right; Right ]
    ~header rows;
  print_newline ();
  List.iter
    (fun (s : Serve.saturation_point) ->
      Printf.printf
        "%d-core %-12s saturates at load %.2f (%.0f req/s; peak %.0f)\n"
        s.Serve.sat_ncores s.Serve.sat_partition s.Serve.sat_load
        s.Serve.sat_throughput_rps s.Serve.peak_throughput_rps)
    (Serve.saturation outcomes);
  write_serve_gated ~what:"serve" ~file:"BENCH_SERVE.json" cfgs outcomes

(* ------------------------------------------------------------------ *)
(* Tier smoke: the warm-restart loop end to end. A closed co-run with
   deliberately small SRAM LUTs (so the shared level spills into a DRAM L3
   tier) warms a cluster; its LUT state is captured into TIER_SNAPSHOT.axs;
   then a cold and a warm open-loop serve run — identical arrivals, the
   only difference being the replayed snapshot — are compared on the
   first-window hit rate the warm restart is meant to rescue. The rendered
   report is checked byte-identical between serial and parallel matrices
   before writing TIER_SMOKE.json (no wall-clock fields, so the diff gate
   is exact). *)

let tier_cluster =
  {
    Corun.default with
    ncores = 2;
    l1_bytes = 1024;
    shared_l2_bytes = 4096;
    workloads = serve_mix;
    requests = 12;
    variant = Workload.Sample;
    l3 =
      Some
        {
          Axmemo_tier.Dram_lut.default with
          size_bytes = 256 * 1024;
          row_bytes = 1024;
        };
  }

let tier_serve warm_start =
  { Serve.default with cluster = tier_cluster; queue_capacity = 8; warm_start }

let tier_exp () =
  heading "Tier: DRAM L3 spill path and warm-restart snapshots";
  let snapshot_file = "TIER_SNAPSHOT.axs" in
  let warm_outcome, warmed =
    Cluster.run_keep { Cluster.default with nodes = 1; node = tier_cluster }
  in
  (match warm_outcome.node_summaries.(0).Cluster.l3 with
  | None -> ()
  | Some { Cluster.stats = s; occupancy; capacity } ->
      Printf.printf
        "closed warm-up: %d spills into L3, %d/%d probes hit, occupancy %d/%d\n"
        s.Axmemo_tier.Dram_lut.inserts s.hits s.probes occupancy capacity);
  let snap = Corun.capture_snapshot (Cluster.node_cluster warmed ~node:0) in
  Axmemo_tier.Snapshot.save snap snapshot_file;
  Printf.printf "wrote %s (%d sections, %d entries)\n" snapshot_file
    (List.length snap.Axmemo_tier.Snapshot.sections)
    (Axmemo_tier.Snapshot.total_entries snap);
  let cfgs = [ tier_serve None; tier_serve (Some snapshot_file) ] in
  let outcomes = Serve.run_matrix ~jobs:(jobs ()) cfgs in
  let header =
    [ "run"; "restored"; "cold-hit"; "warm-hit"; "p99"; "slo-viol" ]
  in
  let rows =
    List.map
      (fun (o : Serve.outcome) ->
        [
          (if o.cfg.Serve.warm_start = None then "cold" else "warm");
          string_of_int o.restored_entries;
          Table.fmt_pct o.cold_hit_rate;
          Table.fmt_pct o.warm_hit_rate;
          Printf.sprintf "%.0f" o.total.Serve.p99;
          Table.fmt_pct o.slo_violation_rate;
        ])
      outcomes
  in
  Table.print ~align:[ Left; Right; Right; Right; Right; Right ] ~header rows;
  write_serve_gated ~what:"tier" ~file:"TIER_SMOKE.json" cfgs outcomes;
  match outcomes with
  | [ cold; warm ] ->
      Printf.printf "first-window hit rate: cold %.3f -> warm %.3f\n"
        cold.Serve.cold_hit_rate warm.Serve.cold_hit_rate;
      if warm.Serve.cold_hit_rate <= cold.Serve.cold_hit_rate then begin
        Printf.eprintf
          "FATAL: warm restart did not improve the first-window hit rate\n";
        exit 1
      end
  | _ ->
      Printf.eprintf "FATAL: expected exactly one cold and one warm outcome\n";
      exit 1

(* ------------------------------------------------------------------ *)
(* Cluster smoke: the sharded multi-node scale-out end to end. Fixed work
   (the blackscholes+sobel mix, 16 requests total) over 1, 2 and 4 nodes
   of 2 cores each — the scale-out curve — plus a kmeans+sobel cell whose
   barrier invalidates exercise the directory against its broadcast
   twin. Three hard gates: 2 nodes must out-serve 1 node on throughput,
   the directory must send strictly fewer invalidation messages than the
   flat per-core broadcast fan-out it replaces, and the rendered report
   must be byte-identical between serial and parallel matrices — then
   CLUSTER_SMOKE.json is written for the exact diff gate in make check. *)

let cluster_mix = [ "blackscholes"; "sobel" ]

let cluster_node ncores workloads =
  {
    Corun.default with
    ncores;
    workloads;
    requests = 16;
    variant = Workload.Sample;
  }

let cluster_cfgs () =
  List.map
    (fun nodes ->
      { Cluster.default with Cluster.nodes; node = cluster_node 2 cluster_mix })
    [ 1; 2; 4 ]
  @ List.map
      (fun directory ->
        {
          Cluster.default with
          Cluster.nodes = 2;
          node = cluster_node 2 [ "kmeans"; "sobel" ];
          directory;
        })
      [ true; false ]

let cluster_exp () =
  heading "Cluster: sharded multi-node scale-out and directory traffic";
  let cfgs = cluster_cfgs () in
  let outcomes = Cluster.run_matrix ~jobs:(jobs ()) cfgs in
  let header =
    [ "config"; "makespan"; "thrpt/s"; "speedup"; "hit"; "shard"; "inv sent";
      "filt"; "bcast="; "net msgs" ]
  in
  let rows =
    List.map
      (fun (o : Cluster.outcome) ->
        [
          Cluster.label o.Cluster.cfg;
          string_of_int o.Cluster.makespan_cycles;
          Printf.sprintf "%.0f" o.Cluster.throughput_rps;
          Table.fmt_x o.Cluster.speedup;
          Table.fmt_pct o.Cluster.aggregate_hit_rate;
          Printf.sprintf "%.3f" o.Cluster.shard_balance;
          string_of_int o.Cluster.inv_sent;
          string_of_int o.Cluster.inv_filtered;
          string_of_int o.Cluster.inv_broadcast_equivalent;
          string_of_int o.Cluster.net_messages;
        ])
      outcomes
  in
  Table.print
    ~align:
      [ Left; Right; Right; Right; Right; Right; Right; Right; Right; Right ]
    ~header rows;
  write_gated ~what:"cluster" ~file:"CLUSTER_SMOKE.json" ~report:Cluster.report
    ~serial:(fun () -> Cluster.run_matrix ~jobs:1 cfgs)
    outcomes;
  (match outcomes with
  | one :: two :: _ ->
      Printf.printf "scale-out: 1 node %.0f req/s -> 2 nodes %.0f req/s\n"
        one.Cluster.throughput_rps two.Cluster.throughput_rps;
      if two.Cluster.throughput_rps <= one.Cluster.throughput_rps then begin
        Printf.eprintf
          "FATAL: 2-node cluster did not out-serve the 1-node cluster\n";
        exit 1
      end
  | _ ->
      Printf.eprintf "FATAL: expected the 1/2/4-node scale-out outcomes\n";
      exit 1);
  match List.rev outcomes with
  | bcast :: dir :: _ ->
      Printf.printf
        "directory traffic: %d sent + %d filtered vs %d broadcast-equivalent\n"
        dir.Cluster.inv_sent dir.Cluster.inv_filtered
        dir.Cluster.inv_broadcast_equivalent;
      if dir.Cluster.inv_events = 0 then begin
        Printf.eprintf "FATAL: the kmeans cell retired no invalidates\n";
        exit 1
      end;
      if dir.Cluster.inv_sent >= dir.Cluster.inv_broadcast_equivalent then begin
        Printf.eprintf
          "FATAL: directory sent no fewer messages than a broadcast\n";
        exit 1
      end;
      if bcast.Cluster.inv_sent < dir.Cluster.inv_sent then begin
        Printf.eprintf
          "FATAL: broadcast mode sent fewer messages than the directory\n";
        exit 1
      end
  | _ ->
      Printf.eprintf "FATAL: expected the directory/broadcast twin outcomes\n";
      exit 1

(* ------------------------------------------------------------------ *)
(* Watch smoke: the live timeline and alert engine end to end. The
   blackscholes+sobel mix on 2 cores at loads 0.5 and 2.0, watch on: at
   load 2 the queue builds and the SLO burn-rate alert must fire; at 0.5
   it must stay quiet. Per-window deltas are checked to sum exactly to
   the end-of-run service aggregates, and the rendered report — timeline
   and alert sections included — must be byte-identical between serial
   and parallel matrices. WATCH_SMOKE.json has no wall fields, so the diff
   gate is exact. *)

let watch_serve load =
  {
    Serve.default with
    cluster =
      {
        Corun.default with
        ncores = 2;
        workloads = serve_mix;
        requests = 64;
        (* Eval inputs, not Sample: warm requests still finish well under
           the cold-calibrated mean, but slowly enough that load 2 builds
           a real backlog — the knee the burn-rate alert exists to catch.
           On Sample inputs the warm speedup is so large that offered load
           2.0 is effective utilization ~0.2 and nothing ever queues. *)
        variant = Workload.Eval;
      };
    load;
    watch = Some Serve.default_watch;
  }

let watch_exp () =
  heading "Watch: live windowed timeline and SLO burn-rate alerting";
  let cfgs = [ watch_serve 0.5; watch_serve 2.0 ] in
  let outcomes = Serve.run_matrix ~jobs:(jobs ()) cfgs in
  (* Conservation law: every arrival lands in exactly one window, so the
     per-window deltas sum exactly — not approximately — to the run's
     service aggregates. *)
  List.iter
    (fun (o : Serve.outcome) ->
      let tl = Option.get o.Serve.timeline in
      let t = Timeline.totals tl in
      let conserved =
        t.Timeline.total_admitted = o.Serve.arrived - o.Serve.shed_count
        && t.Timeline.total_shed = o.Serve.shed_count
        && t.Timeline.total_completed = o.Serve.served
        && t.Timeline.total_slo_violations = o.Serve.slo_violations
      in
      Printf.printf
        "load %.2f: %d windows x %d cycles (%d merges), deltas conserved: %b\n"
        o.Serve.cfg.Serve.load (Timeline.window_count tl) (Timeline.width tl)
        (Timeline.merges tl) conserved;
      if not conserved then begin
        Printf.eprintf
          "FATAL: window deltas do not sum to the service aggregates\n";
        exit 1
      end)
    outcomes;
  let fired (o : Serve.outcome) name =
    List.exists
      (fun (r : Alert.result) -> r.Alert.name = name && r.Alert.fired > 0)
      o.Serve.alerts
  in
  (match outcomes with
  | [ low; high ] ->
      Printf.printf "slo_burn alert: load 0.50 %s, load 2.00 %s\n"
        (if fired low "slo_burn" then "FIRED" else "quiet")
        (if fired high "slo_burn" then "FIRED" else "quiet");
      if fired low "slo_burn" then begin
        Printf.eprintf "FATAL: slo_burn fired at load 0.5\n";
        exit 1
      end;
      if not (fired high "slo_burn") then begin
        Printf.eprintf "FATAL: slo_burn stayed quiet at load 2\n";
        exit 1
      end
  | _ ->
      Printf.eprintf "FATAL: expected the low/high load twin outcomes\n";
      exit 1);
  write_serve_gated ~what:"watch" ~file:"WATCH_SMOKE.json" cfgs outcomes

(* ------------------------------------------------------------------ *)
(* Each experiment declares the (benchmark, config) cells it reads so the
   driver can prewarm them as one parallel matrix. [result] still covers
   anything undeclared, serially. *)

let no_cells () = []

let experiments =
  [
    ("table1", no_cells, table1);
    ("table2", no_cells, table2);
    ("table3", no_cells, table3);
    ("table4", no_cells, table4);
    ("table5", no_cells, table5);
    ("fig7a", (fun () -> suite_cells (Runner.Baseline :: all_columns)), fig7a);
    ("fig7b", (fun () -> suite_cells (Runner.Baseline :: all_columns)), fig7b);
    ("fig8", (fun () -> suite_cells (Runner.Baseline :: all_columns)), fig8);
    ("fig9", (fun () -> suite_cells (Runner.Baseline :: all_columns)), fig9);
    ("fig10a", (fun () -> suite_cells (Runner.Baseline :: all_columns)), fig10a);
    ( "fig10b",
      (fun () -> suite_cells [ Runner.Baseline; Runner.l1_8k_l2_512k ]),
      fig10b );
    ( "fig11",
      (fun () -> suite_cells [ Runner.Baseline; Runner.l1_8k_l2_512k; cfg_noapprox ]),
      fig11 );
    ("atm", (fun () -> suite_cells [ Runner.Baseline; Runner.atm_default ]), atm);
    ("l2sens", (fun () -> suite_cells [ l2sens_full; l2sens_halved ]), l2sens);
    ( "ablation_crc",
      (fun () -> suite_cells (Runner.Baseline :: ablation_crc_columns)),
      ablation_crc );
    ( "ablation_policy",
      (fun () -> suite_cells ablation_policy_columns),
      ablation_policy );
    ( "ablation_throughput",
      (fun () ->
        suite_cells [ Runner.Baseline; ablation_serial_crc; ablation_unrolled_crc ]),
      ablation_throughput );
    ( "ablation_payload",
      (fun () ->
        List.concat_map
          (fun n -> [ (n, ablation_narrow); (n, ablation_wide) ])
          (List.filter (fun n -> List.mem n payload_eligible) names)),
      ablation_payload );
    ( "ablation_rounding",
      (fun () -> suite_cells [ Runner.Baseline; ablation_truncate; ablation_nearest ]),
      ablation_rounding );
    ( "ablation_adaptive",
      (fun () ->
        suite_cells [ Runner.Baseline; Runner.l1_8k_l2_512k; ablation_adaptive_cfg ]),
      ablation_adaptive );
    ("faults", no_cells, faults_exp);
    ("corun", no_cells, corun_exp);
    ("serve", no_cells, serve_exp);
    ("tier", no_cells, tier_exp);
    ("cluster", no_cells, cluster_exp);
    ("watch", no_cells, watch_exp);
  ]

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let set_jobs s =
    match int_of_string_opt s with
    | Some n -> pool_jobs := Some (max 1 n)
    | None ->
        Printf.eprintf "--jobs expects an integer, got %S\n" s;
        exit 1
  in
  let set_backend s =
    match String.lowercase_ascii s with
    | "interp" -> backend := `Interp
    | "compiled" -> backend := `Compiled
    | _ ->
        Printf.eprintf "--backend expects interp or compiled, got %S\n" s;
        exit 1
  in
  let rec strip_jobs acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest ->
        set_jobs n;
        strip_jobs acc rest
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs expects an integer argument\n";
        exit 1
    | a :: rest when String.starts_with ~prefix:"--jobs=" a ->
        set_jobs (String.sub a 7 (String.length a - 7));
        strip_jobs acc rest
    | "--backend" :: b :: rest ->
        set_backend b;
        strip_jobs acc rest
    | [ "--backend" ] ->
        Printf.eprintf "--backend expects interp or compiled\n";
        exit 1
    | a :: rest when String.starts_with ~prefix:"--backend=" a ->
        set_backend (String.sub a 10 (String.length a - 10));
        strip_jobs acc rest
    | a :: rest -> strip_jobs (a :: acc) rest
  in
  let args = strip_jobs [] argv in
  if List.mem "--perf-smoke" args then perf_smoke ()
  else begin
    let selected = List.filter (fun a -> a <> "--perf-smoke") args in
    let to_run =
      if selected = [] then experiments
      else
        List.filter_map
          (fun a ->
            match
              List.find_opt (fun (id, _, _) -> id = a) experiments
            with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown experiment %s (known: %s)\n" a
                  (String.concat " " (List.map (fun (id, _, _) -> id) experiments));
                exit 1)
          selected
    in
    List.iter
      (fun (_, cells, f) ->
        prewarm (cells ());
        f ())
      to_run
  end
