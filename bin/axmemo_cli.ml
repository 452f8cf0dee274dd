(* Command-line front-end to the AxMemo simulator.

   Subcommands:
     list                     enumerate the benchmark suite
     run -b <bench> [-c cfg]  simulate one benchmark under one configuration
     sweep [-b <bench>]       run every configuration (optionally one bench)
     faults [-b <bench>]      SEU resilience campaign (site x rate x protection)
     corun [-b <m1,m2>]       multi-core co-run over a shared L2 LUT
     cluster [-b <m1,m2>]     sharded multi-node scale-out (directory, interconnect)
     serve [-b <m1,m2>]       open-loop service study (arrivals, queueing, SLOs)
     snapshot save/load FILE  persist warm LUT contents for --warm-start
     profile -b <bench>       attribution profile (cycles/energy/misses/error)
     diff A.json B.json       compare two run reports; --gate for CI
     top REPORT.json          render a report's timeline and alert sections
     analyze -b <bench>       DDDG candidate analysis (Table 1 row)
     ir -b <bench>            dump the benchmark's IR
     check FILE               parse and validate an IR file

   corun, cluster, serve and snapshot save take one node flag set (-b,
   --sample, --cores, --partition, --requests, --banks, --ports, --l3; see
   [node_term]) and differ only in the --cores and --partition defaults. *)

module W = Axmemo_workloads
module Runner = Axmemo.Runner
module Analysis = Axmemo.Analysis
module Table = Axmemo_util.Table
module Json = Axmemo_util.Json
module Rng = Axmemo_util.Rng
module Report = Axmemo_telemetry.Report
module Registry = Axmemo_telemetry.Registry
module Tracer = Axmemo_telemetry.Tracer
module Campaign = Axmemo_resilience.Campaign
module Fault_model = Axmemo_faults.Fault_model
module Protection = Axmemo_faults.Protection
module Profile = Axmemo_obs.Profile
module Diff = Axmemo_obs.Diff
module Timeline = Axmemo_watch.Timeline
module Alert = Axmemo_watch.Alert
module Expo = Axmemo_watch.Expo
open Cmdliner

let config_of_string = function
  | "baseline" -> Ok Runner.Baseline
  | "l1-4k" -> Ok Runner.l1_4k
  | "l1-8k" -> Ok Runner.l1_8k
  | "l1-8k-l2-256k" -> Ok Runner.l1_8k_l2_256k
  | "l1-8k-l2-512k" -> Ok Runner.l1_8k_l2_512k
  | "software" -> Ok Runner.software_default
  | "atm" -> Ok Runner.atm_default
  | "noapprox" ->
      Ok
        (Runner.Hw_memo
           {
             l1_bytes = 8 * 1024;
             l2_bytes = Some (512 * 1024);
             approximate = false;
             monitor = true;
             total_l2 = None;
             adaptive = false;
           })
  | s -> Error (`Msg ("unknown configuration: " ^ s))

let config_names =
  [ "baseline"; "l1-4k"; "l1-8k"; "l1-8k-l2-256k"; "l1-8k-l2-512k"; "software"; "atm";
    "noapprox" ]

let config_conv =
  Arg.conv
    ( config_of_string,
      fun ppf c -> Format.pp_print_string ppf (Runner.config_label c) )

let bench_conv =
  Arg.conv
    ( (fun s ->
        match W.Registry.find s with
        | Some _ -> Ok s
        | None -> Error (`Msg ("unknown benchmark: " ^ s))),
      Format.pp_print_string )

let bench_arg =
  Arg.(
    required
    & opt (some bench_conv) None
    & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark name (see $(b,list)).")

let bench_opt_arg =
  Arg.(
    value
    & opt (some bench_conv) None
    & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Restrict to one benchmark.")

let config_arg =
  Arg.(
    value
    & opt config_conv Runner.l1_8k_l2_512k
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:(Printf.sprintf "One of: %s." (String.concat ", " config_names)))

let backend_conv =
  Arg.conv
    ( (function
        | "interp" -> Ok `Interp
        | "compiled" -> Ok `Compiled
        | s -> Error (`Msg ("unknown backend: " ^ s ^ " (expected interp or compiled)"))),
      fun ppf b ->
        Format.pp_print_string ppf
          (match b with `Interp -> "interp" | `Compiled -> "compiled") )

let backend_arg =
  Arg.(
    value
    & opt backend_conv `Compiled
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution backend: $(b,compiled) (closure-chain, the default) or \
           $(b,interp) (reference interpreter). Results are bit-identical; \
           $(b,interp) exists for cross-checking and debugging.")

let variant_arg =
  Arg.(
    value & flag
    & info [ "sample" ]
        ~doc:"Use the (smaller) sample dataset instead of the evaluation one.")

let variant_of flag = if flag then W.Workload.Sample else W.Workload.Eval

(* One-line fatal error, exit 1 — bad flag values and unreadable snapshot
   files should never surface as an OCaml backtrace. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("axmemo: " ^ msg);
      exit 1)
    fmt

(* A swept list that names one value twice would simulate that cell twice
   and then collide in the report, so it is rejected before anything runs.
   Values compare after parsing: "ffa" and "free-for-all" are a repeat. *)
let rec no_repeats flag name_of = function
  | [] -> ()
  | v :: rest ->
      if List.mem v rest then die "%s repeats %s" flag (name_of v);
      no_repeats flag name_of rest

(* Sys_error messages already lead with the path; don't print it twice. *)
let with_path file msg =
  if String.length msg >= String.length file && String.sub msg 0 (String.length file) = file
  then msg
  else file ^ ": " ^ msg

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a versioned JSON run report (metrics + summary) to $(docv).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:"Write the scalar metric matrix as CSV to $(docv).")

let chrome_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "Write a cycle-timeline in Chrome trace-event format to $(docv) \
           (load in chrome://tracing or Perfetto).")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet" ] ~doc:"Suppress the human-readable tables on stdout.")

let seed_arg =
  Arg.(
    value & opt int64 0L
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Root seed: every stochastic knob (dataset generation, Random \
           replacement, fault streams) derives its stream from $(docv), so \
           one recorded number reproduces the whole run. 0 (the default) \
           keeps the historical fixed streams.")

(* Install the root seed before any instance is constructed; report it back so
   runs are reproducible from the report alone. *)
let apply_seed seed = if seed <> 0L then Rng.set_root_seed seed

let seed_extra () =
  match Rng.root_seed () with
  | 0L -> []
  | s -> [ ("root_seed", Json.Str (Int64.to_string s)) ]

let print_seed quiet =
  if not quiet then
    match Rng.root_seed () with
    | 0L -> ()
    | s -> Printf.printf "root seed        %Ld\n" s

(* Flat scalar facts of one run, shared by the [run] and [sweep] reports. *)
let summary_of ?base (r : Runner.result) =
  [
    ("cycles", Json.Int r.cycles);
    ("seconds", Json.Float r.seconds);
    ("dyn_normal", Json.Int r.dyn_normal);
    ("dyn_memo", Json.Int r.dyn_memo);
    ("energy_pj", Json.Float r.energy.total_pj);
    ("lookups", Json.Int r.lookups);
    ("hits", Json.Int r.hits);
    ("hit_rate", Json.Float r.hit_rate);
    ("collisions", Json.Int r.collisions);
    ("memo_disabled", Json.Bool r.memo_disabled);
  ]
  @
  match base with
  | None -> []
  | Some (b : Runner.result) ->
      [
        ("speedup", Json.Float (Runner.speedup ~baseline:b r));
        ("energy_saving", Json.Float (Runner.energy_saving ~baseline:b r));
        ( "quality_loss",
          Json.Float (W.Workload.quality_loss ~reference:b.outputs ~approx:r.outputs) );
      ]

let print_result ~base (r : Runner.result) =
  Printf.printf "configuration    %s\n" r.label;
  Printf.printf "cycles           %d (%.3f ms at 2 GHz)\n" r.cycles (1e3 *. r.seconds);
  Printf.printf "instructions     %d normal + %d memo\n" r.dyn_normal r.dyn_memo;
  Printf.printf "energy           %.3f uJ (processor, McPAT-style)\n"
    (r.energy.total_pj /. 1e6);
  (match base with
  | Some (b : Runner.result) ->
      Printf.printf "speedup          %.2fx\n" (Runner.speedup ~baseline:b r);
      Printf.printf "energy saving    %.2fx\n" (Runner.energy_saving ~baseline:b r);
      Printf.printf "quality loss     %.3e\n"
        (W.Workload.quality_loss ~reference:b.outputs ~approx:r.outputs)
  | None -> ());
  if r.lookups > 0 then
    Printf.printf "LUT              %d lookups, %.1f%% hits, %d collisions%s\n" r.lookups
      (100.0 *. r.hit_rate) r.collisions
      (if r.memo_disabled then ", DISABLED by quality monitor" else "")

let list_cmd =
  let doc = "List the benchmark suite (Table 2)." in
  let run () =
    List.iter
      (fun ((m : W.Workload.meta), _) ->
        Printf.printf "%-14s %-20s %s\n" m.name m.domain m.description)
      W.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Simulate one benchmark under one configuration." in
  let run bench config backend sample seed metrics csv chrome_trace quiet =
    apply_seed seed;
    print_seed quiet;
    let _, make = Option.get (W.Registry.find bench) in
    let variant = variant_of sample in
    let base =
      match config with
      | Runner.Baseline -> None
      | _ -> Some (Runner.run ~backend Baseline (make variant))
    in
    let reg = if metrics <> None || csv <> None then Some (Registry.create ()) else None in
    let r =
      Runner.run ~backend ?metrics:reg
        ?trace:(Option.map (fun path tr -> Tracer.write tr path) chrome_trace)
        config (make variant)
    in
    if not quiet then print_result ~base r;
    Option.iter
      (fun reg ->
        let report_run =
          {
            Report.benchmark = bench;
            config = r.label;
            summary = summary_of ?base r;
            metrics = Registry.snapshot reg;
            profile = None;
            service = None;
            cluster = None;
            timeline = None;
            alerts = None;
          }
        in
        Option.iter
          (fun path -> Report.write ~extra:(seed_extra ()) path [ report_run ])
          metrics;
        Option.iter (fun path -> Report.write_csv path [ report_run ]) csv)
      reg
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ bench_arg $ config_arg $ backend_arg $ variant_arg $ seed_arg
      $ metrics_arg $ csv_arg $ chrome_trace_arg $ quiet_arg)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan the simulation matrix over $(docv) worker domains (default: \
           the host's recommended domain count).")

let sweep_cmd =
  let doc = "Run every configuration over the suite (or one benchmark)." in
  let run bench backend sample seed jobs metrics csv quiet =
    apply_seed seed;
    print_seed quiet;
    let variant = variant_of sample in
    let selected =
      match bench with
      | Some b -> [ Option.get (W.Registry.find b) ]
      | None -> W.Registry.all
    in
    let configs =
      [ Runner.l1_4k; Runner.l1_8k; Runner.l1_8k_l2_256k; Runner.l1_8k_l2_512k;
        Runner.software_default; Runner.atm_default ]
    in
    (* Every cell — baseline included — with a fresh instance, fanned out as
       one matrix; rows are then grouped back per benchmark. *)
    let cells =
      List.concat_map
        (fun ((_ : W.Workload.meta), make) ->
          List.map (fun cfg -> (cfg, make variant)) (Runner.Baseline :: configs))
        selected
    in
    let want_report = metrics <> None || csv <> None in
    (* Per-cell snapshots ride the same pool fan-out; without a report
       request the plain path avoids the registry work entirely. *)
    let results, snapshots =
      if want_report then
        List.split
          (Axmemo_util.Pool.run ?jobs
             (fun (config, inst) ->
               let reg = Registry.create () in
               let r = Runner.run ~backend ~metrics:reg config inst in
               (r, Registry.snapshot reg))
             cells)
      else (Runner.run_matrix ?jobs ~backend cells, [])
    in
    let per_bench = 1 + List.length configs in
    let chunk_of i l =
      List.filteri (fun j _ -> j >= i * per_bench && j < (i + 1) * per_bench) l
    in
    if not quiet then begin
      let header = [ "benchmark"; "config"; "speedup"; "esave"; "hit"; "loss" ] in
      let rows =
        List.concat
          (List.mapi
             (fun i ((m : W.Workload.meta), _) ->
               let chunk = chunk_of i results in
               let base = List.hd chunk in
               List.map
                 (fun (r : Runner.result) ->
                   [
                     m.name;
                     r.label;
                     Table.fmt_x (Runner.speedup ~baseline:base r);
                     Table.fmt_x (Runner.energy_saving ~baseline:base r);
                     Table.fmt_pct r.hit_rate;
                     Printf.sprintf "%.1e"
                       (W.Workload.quality_loss ~reference:base.outputs
                          ~approx:r.outputs);
                   ])
                 (List.tl chunk))
             selected)
      in
      Table.print ~align:[ Left; Left; Right; Right; Right; Right ] ~header rows
    end;
    if want_report then begin
      let report_runs =
        List.concat
          (List.mapi
             (fun i ((m : W.Workload.meta), _) ->
               let rs = chunk_of i results and snaps = chunk_of i snapshots in
               let base = List.hd rs in
               List.map2
                 (fun (r : Runner.result) snapshot ->
                   let base = if r.label = base.label then None else Some base in
                   {
                     Report.benchmark = m.name;
                     config = r.label;
                     summary = summary_of ?base r;
                     metrics = snapshot;
                     profile = None;
                     service = None;
              cluster = None;
              timeline = None;
              alerts = None;
                   })
                 rs snaps)
             selected)
      in
      Option.iter
        (fun path -> Report.write ~extra:(seed_extra ()) path report_runs)
        metrics;
      Option.iter (fun path -> Report.write_csv path report_runs) csv
    end
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ bench_opt_arg $ backend_arg $ variant_arg $ seed_arg $ jobs_arg
      $ metrics_arg $ csv_arg $ quiet_arg)

(* ---- faults: SEU resilience campaign -------------------------------- *)

let site_group_conv =
  let parse = function
    | "lut" ->
        Ok ("lut", Fault_model.[ L1_tag; L1_payload; L1_valid; L1_lru ])
    | "l2" -> Ok ("l2", Fault_model.[ L2_tag; L2_payload; L2_valid; L2_lru ])
    | "hash" -> Ok ("hash", Fault_model.[ Hvr; Crc_datapath ])
    | "all" -> Ok ("all", Fault_model.all_sites)
    | s -> (
        match Fault_model.site_of_string s with
        | Some site -> Ok (s, [ site ])
        | None ->
            Error
              (`Msg
                 (s
                ^ ": expected a group (lut, l2, hash, all) or a site name \
                   (l1.tag, l1.payload, l1.valid, l1.lru, l2.*, hvr, crc)")))
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

let of_string_conv ~what of_string name_of =
  Arg.conv
    ( (fun s ->
        match of_string s with
        | Some v -> Ok v
        | None -> Error (`Msg ("unknown " ^ what ^ ": " ^ s))),
      fun ppf v -> Format.pp_print_string ppf (name_of v) )

let rates_arg =
  Arg.(
    value
    & opt (list float) [ 1e-4; 1e-3; 1e-2 ]
    & info [ "rates" ] ~docv:"R,.."
        ~doc:"Comma-separated fault rates to sweep (per access or per cycle).")

let fault_kind_arg =
  Arg.(
    value
    & opt
        (of_string_conv ~what:"fault kind" Fault_model.kind_of_string
           Fault_model.kind_name)
        Fault_model.Transient
    & info [ "kind" ] ~docv:"KIND"
        ~doc:"Fault kind: transient, stuck0 or stuck1.")

let basis_arg =
  Arg.(
    value
    & opt
        (of_string_conv ~what:"rate basis" Fault_model.basis_of_string
           Fault_model.basis_name)
        Fault_model.Per_access
    & info [ "basis" ] ~docv:"BASIS"
        ~doc:"Rate basis: access (per LUT access) or cycle (per simulated cycle).")

let protections_arg =
  Arg.(
    value
    & opt
        (list
           (of_string_conv ~what:"protection" Protection.kind_of_string
              Protection.kind_name))
        Protection.all_kinds
    & info [ "protections" ] ~docv:"P,.."
        ~doc:"Protections to sweep: none, parity, secded.")

let sites_arg =
  Arg.(
    value
    & opt (list site_group_conv)
        [ ("lut", Fault_model.[ L1_tag; L1_payload; L1_valid; L1_lru ]);
          ("hash", Fault_model.[ Hvr; Crc_datapath ]) ]
    & info [ "sites" ] ~docv:"G,.."
        ~doc:
          "Site groups swept independently: lut, l2, hash, all, or an \
           individual site name such as l1.payload.")

let l2_kb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "l2-kb" ] ~docv:"KB"
        ~doc:
          "Give the memoized cells an L2 LUT of $(docv) KB (needed for the \
           l2 site group; default: L1 only).")

let faults_cmd =
  let doc = "SEU resilience campaign: sweep fault sites x rates x protections." in
  let run bench sample seed jobs rates kind basis protections site_groups l2_kb
      metrics csv chrome_trace quiet =
    apply_seed seed;
    print_seed quiet;
    no_repeats "--rates" (Printf.sprintf "%g") rates;
    no_repeats "--protections" Protection.kind_name protections;
    no_repeats "--sites" fst site_groups;
    let variant = variant_of sample in
    let selected =
      match bench with
      | Some b -> [ Option.get (W.Registry.find b) ]
      | None -> W.Registry.all
    in
    let cfg =
      {
        (Campaign.default ()) with
        rates;
        kind;
        basis;
        protections;
        site_groups;
        l2_bytes = Option.map (fun kb -> kb * 1024) l2_kb;
      }
    in
    let outcome = Campaign.run ?jobs cfg selected ~variant in
    if not quiet then begin
      let header =
        [ "benchmark"; "sites"; "rate"; "prot"; "inj"; "sdc"; "det"; "qdeg";
          "speedup"; "eovh"; "trip"; "due" ]
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
              (match m.trip_lookup with Some n -> string_of_int n | None -> "-");
              (match m.crashed with Some _ -> "DUE" | None -> "-");
            ])
          outcome.measurements
      in
      Table.print
        ~align:
          [ Left; Left; Right; Left; Right; Right; Right; Right; Right; Right;
            Right; Left ]
        ~header rows
    end;
    Option.iter (fun path -> Campaign.write_report outcome path) metrics;
    Option.iter (fun path -> Report.write_csv path outcome.runs) csv;
    Option.iter
      (fun path ->
        Campaign.trace_cell cfg ~benchmark:(List.hd selected) ~variant ~path)
      chrome_trace
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ bench_opt_arg $ variant_arg $ seed_arg $ jobs_arg $ rates_arg
      $ fault_kind_arg $ basis_arg $ protections_arg $ sites_arg $ l2_kb_arg
      $ metrics_arg $ csv_arg $ chrome_trace_arg $ quiet_arg)

(* ---- the node shape: one flag set for every multi-core engine ---------- *)

module Shared_lut = Axmemo_multicore.Shared_lut
module Corun = Axmemo_multicore.Corun
module Cluster = Axmemo_cluster.Cluster

let partition_conv =
  Arg.conv
    ( (fun s ->
        match Shared_lut.parse_partition s with
        | Some p -> Ok p
        | None ->
            Error
              (`Msg (s ^ ": expected free-for-all (ffa), static, or utility"))),
      fun ppf p -> Format.pp_print_string ppf (Shared_lut.partition_name p) )

let all_partitions =
  [ Shared_lut.Free_for_all; Shared_lut.Static; Shared_lut.Utility { period = 2048 } ]

(* The node shape that corun, cluster, serve and snapshot save share: the
   workload mix and its dataset, plus one node's cores, shared LUT and DRAM
   tier. Each flag is defined and validated here once; the subcommands
   differ only in the [--cores] and [--partition] defaults. The term yields
   a thunk, so validation runs after the --seed banner, and the thunk
   returns one [Corun.config] cell per (cores, partition) pair, cores
   outer. *)
let node_term ~cores ~partitions =
  let benches =
    Arg.(
      value
      & opt (list bench_conv) [ "blackscholes"; "sobel" ]
      & info [ "b"; "benchmarks" ] ~docv:"NAME,.."
          ~doc:"Comma-separated workload mix, round-robined into the stream.")
  in
  let cores =
    Arg.(
      value & opt (list int) cores
      & info [ "cores" ] ~docv:"N,.." ~doc:"Cores per node to sweep.")
  in
  let partitions =
    Arg.(
      value
      & opt (list partition_conv) partitions
      & info [ "partition" ] ~docv:"P,.."
          ~doc:
            "Shared-LUT partitioning policies to sweep: free-for-all, static, \
             utility.")
  in
  let requests =
    Arg.(
      value & opt int 8
      & info [ "requests" ] ~docv:"N"
          ~doc:"Length of the request stream dispatched across the cores.")
  in
  let banks =
    Arg.(value & opt int 8 & info [ "banks" ] ~docv:"N" ~doc:"Banks of the shared LUT.")
  in
  let ports =
    Arg.(
      value & opt int 1
      & info [ "ports" ] ~docv:"N" ~doc:"Ports per bank of the shared LUT.")
  in
  let l3 =
    Arg.(
      value & opt int 0
      & info [ "l3" ] ~docv:"MB"
          ~doc:
            "Attach a DRAM-resident L3 LUT tier of $(docv) MiB behind the \
             shared level (0, the default, attaches no tier). Shared-LUT \
             victims spill into it; SRAM misses probe it at row-buffer cost.")
  in
  let cells workloads sample cores partitions requests banks ports l3_mb () =
    List.iter (fun n -> if n < 1 then die "--cores must be positive (got %d)" n) cores;
    no_repeats "--cores" string_of_int cores;
    no_repeats "--partition" Shared_lut.partition_name partitions;
    if requests < 1 then die "--requests must be positive (got %d)" requests;
    if banks < 1 then die "--banks must be positive (got %d)" banks;
    if ports < 1 then die "--ports must be positive (got %d)" ports;
    if l3_mb < 0 then die "--l3 must be non-negative (got %d)" l3_mb;
    let l3 =
      if l3_mb = 0 then None
      else Some { Axmemo_tier.Dram_lut.default with size_bytes = l3_mb * 1024 * 1024 }
    in
    List.concat_map
      (fun ncores ->
        List.map
          (fun partition ->
            {
              Corun.default with
              ncores;
              partition;
              banks;
              ports;
              workloads;
              requests;
              variant = variant_of sample;
              l3;
            })
          partitions)
      cores
  in
  Term.(
    const cells $ benches $ variant_arg $ cores $ partitions $ requests $ banks $ ports
    $ l3)

(* ---- corun and cluster: closed request streams -------------------------- *)

(* What corun and cluster share once their configs are built: the matrix,
   the report, CSV and trace files, and the merged profiles. Each passes
   its own table. *)
let run_clusters ?jobs ?(profile = false) ?chrome_trace ~metrics ~csv ~quiet ~table
    cfgs =
  let outcomes =
    try Cluster.run_matrix ?jobs ~profile cfgs with Invalid_argument msg -> die "%s" msg
  in
  if not quiet then begin
    table outcomes;
    if profile then
      List.iter
        (fun (o : Cluster.outcome) ->
          match o.profiles with
          | Some ps ->
              Printf.printf "\n%s — merged attribution profile:\n" (Corun.label o.cfg.node);
              print_string (Profile.render (Profile.merge (Array.to_list ps)))
          | None -> ())
        outcomes
  end;
  Option.iter (fun path -> Cluster.write_report path outcomes) metrics;
  Option.iter (fun path -> Report.write_csv path (Cluster.report_runs outcomes)) csv;
  Option.iter
    (fun path -> match outcomes with [] -> () | o :: _ -> Cluster.write_trace o path)
    chrome_trace

let corun_profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Attach an attribution profiler to every core: each report row \
           gains the merged $(b,profile) section, each core's entry in the \
           report's $(b,cluster) array its own, and shared-LUT arbitration \
           stalls are charged back to core and region.")

(* Corun only: every node of a multi-node cluster seeds its injector from
   the same fault spec, so its nodes would replay one upset stream. *)
let fault_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "fault-rate" ] ~docv:"R"
        ~doc:
          "Also strike the shared LUT's storage with transient upsets at \
           per-access rate $(docv).")

let corun_table outcomes =
  let header =
    [ "cores"; "partition"; "makespan"; "thrpt/s"; "speedup"; "hit"; "fair"; "cont";
      "repart" ]
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
        ])
      outcomes
  in
  Table.print ~align:[ Right; Left; Right; Right; Right; Right; Right; Right; Right ]
    ~header rows

let corun_cmd =
  let doc = "Multi-core co-run: shared L2 LUT, partitioning, arbitration." in
  let run cells fault_rate seed jobs profile metrics csv quiet =
    apply_seed seed;
    print_seed quiet;
    let sites = Fault_model.[ L2_tag; L2_payload; L2_valid; L2_lru ] in
    let faults = Option.map (fun rate -> { Fault_model.default with rate; sites }) fault_rate in
    (* A co-run is a 1-node cluster. *)
    let cfgs =
      List.map
        (fun node -> { Cluster.default with nodes = 1; node = { node with faults } })
        (cells ())
    in
    run_clusters ?jobs ~profile ~metrics ~csv ~quiet ~table:corun_table cfgs
  in
  Cmd.v (Cmd.info "corun" ~doc)
    Term.(
      const run
      $ node_term ~cores:[ 1; 2; 4 ] ~partitions:all_partitions
      $ fault_rate_arg $ seed_arg $ jobs_arg $ corun_profile_arg $ metrics_arg $ csv_arg
      $ quiet_arg)

(* ---- serve: open-loop service study ----------------------------------- *)

module Serve = Axmemo_serve.Serve
module Arrival = Axmemo_serve.Arrival
module Mc_schedule = Axmemo_multicore.Schedule

let arrival_conv =
  Arg.conv
    ( (fun s ->
        match Arrival.parse_kind s with
        | Some k -> Ok k
        | None ->
            Error
              (`Msg
                 (s ^ ": expected one of " ^ String.concat ", " Arrival.kind_names))),
      fun ppf k -> Format.pp_print_string ppf (Arrival.kind_name k) )

let arrival_arg =
  Arg.(
    value
    & opt arrival_conv Arrival.Poisson
    & info [ "arrival" ] ~docv:"KIND"
        ~doc:
          "Arrival process: $(b,poisson) (memoryless), $(b,bursty) \
           (Markov-modulated on-off), $(b,diurnal) (sinusoidal rate), or \
           $(b,closed) (everything at cycle 0 — the co-run degenerate).")

let loads_arg =
  Arg.(
    value
    & opt (list float) [ 0.8 ]
    & info [ "load"; "loads" ] ~docv:"L,.."
        ~doc:
          "Offered loads to sweep, as fractions of cluster capacity (1.0 = \
           one calibrated mean service time of work per core per unit time).")

let queue_arg =
  Arg.(
    value & opt int 16
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission-queue capacity: waiting requests beyond the cores.")

let shed_conv =
  Arg.conv
    ( (fun s ->
        match Mc_schedule.parse_shed_policy s with
        | Some p -> Ok p
        | None -> Error (`Msg (s ^ ": expected drop-tail or drop-head"))),
      fun ppf p -> Format.pp_print_string ppf (Mc_schedule.shed_policy_name p) )

let shed_arg =
  Arg.(
    value
    & opt shed_conv Mc_schedule.Drop_tail
    & info [ "shed" ] ~docv:"POLICY"
        ~doc:
          "Load-shedding policy on a full queue: $(b,drop-tail) sheds the \
           arriving request, $(b,drop-head) sheds the oldest waiting one.")

let slo_arg =
  Arg.(
    value & opt int 0
    & info [ "slo" ] ~docv:"CYCLES"
        ~doc:
          "Total-latency (queue wait + service) SLO in cycles; 0 (the \
           default) picks 4x the calibrated mean service time.")

let sweep_load_arg =
  Arg.(
    value & flag
    & info [ "sweep-load" ]
        ~doc:
          "Sweep the offered-load ramp (0.25 to 2.0) instead of $(b,--load) \
           and print each (cores, partition) group's saturation point: the \
           highest load served with at most 1% shed.")

let wall_arg =
  Arg.(
    value & flag
    & info [ "wall" ]
        ~doc:
          "Include host $(b,sim_wall_seconds) in each run's report summary \
           (off by default: wall clock is outside the bit-identity contract).")

let warm_start_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "warm-start" ] ~docv:"FILE"
        ~doc:
          "Restore LUT contents from a snapshot ($(b,axmemo snapshot save)) \
           into the fresh cluster before the first request — warm restart. \
           The arrival stream is unchanged, so the run is directly \
           comparable to its cold twin.")

(* One node count per run, unlike cluster's --nodes sweep: the saturation
   table groups cells by total cores (nodes x cores), so a node sweep would
   merge different shapes into one group. *)
let serve_nodes_arg =
  Arg.(
    value & opt int 1
    & info [ "nodes" ] ~docv:"M"
        ~doc:
          "Service nodes. 1 (the default) serves from a single co-run \
           cluster; more shard the LUT key space across $(docv) nodes of \
           $(b,--cores) cores each, with directory invalidation and the \
           modeled interconnect, and the report gains the cluster section.")

let watch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "watch" ] ~docv:"CYCLES"
        ~doc:
          "Sample a live windowed timeline with $(docv)-cycle windows (0 = \
           auto: makespan/32) and evaluate the alert rules per window; the \
           report gains the timeline and alerts sections and each run \
           prints its per-window table.")

let expo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "expo" ] ~docv:"FILE"
        ~doc:
          "With $(b,--watch): write a Prometheus text-format exposition of \
           the first run's timeline and alerts to $(docv).")

let window_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "window-log" ] ~docv:"FILE"
        ~doc:
          "With $(b,--watch): write the first run's timeline as JSONL, one \
           window object per line.")

let alerts_arg =
  Arg.(
    value & opt string ""
    & info [ "alerts" ] ~docv:"RULES"
        ~doc:
          "Alert thresholds as comma-separated key=value overrides \
           ($(b,slo-budget), $(b,slo-fast), $(b,slo-slow), \
           $(b,slo-windows), $(b,shed-max), $(b,quality-max), \
           $(b,storm-max)); empty or $(b,default) keeps the defaults.")

let serve_cmd =
  let doc =
    "Open-loop service study: seeded arrivals, bounded admission queue, \
     per-request latency, SLO accounting, saturation sweeps."
  in
  let run cells seed nodes arrival loads queue shed slo warm_start watch expo
      window_log alerts sweep_load wall jobs metrics csv chrome_trace quiet =
    apply_seed seed;
    print_seed quiet;
    let cells = cells () in
    if nodes < 1 then die "--nodes must be positive (got %d)" nodes;
    if queue < 1 then die "--queue must be positive (got %d)" queue;
    if slo < 0 then die "--slo must be non-negative (got %d)" slo;
    let loads = if sweep_load then Serve.sweep_loads else loads in
    List.iter
      (fun l ->
        if not (l > 0.0 && Float.is_finite l) then
          die "--load must be positive (got %g)" l)
      loads;
    no_repeats "--load" (Printf.sprintf "%g") loads;
    (* Validate the snapshot up front so a missing/corrupt file is one line
       and exit 1, not a mid-matrix exception. *)
    (match warm_start with
    | None -> ()
    | Some path -> (
        match Axmemo_tier.Snapshot.load path with
        | Ok _ -> ()
        | Error msg -> die "--warm-start: %s" (with_path path msg)));
    let watch_cfg =
      match watch with
      | None ->
          if expo <> None then die "--expo needs --watch";
          if window_log <> None then die "--window-log needs --watch";
          if alerts <> "" && alerts <> "default" then
            die "--alerts needs --watch";
          None
      | Some w ->
          if w < 0 then die "--watch must be non-negative (got %d)" w;
          let rules =
            match Alert.parse_rules alerts with
            | Ok rs -> rs
            | Error msg -> die "--alerts: %s" msg
          in
          Some { Serve.window_cycles = w; rules }
    in
    let cfgs =
      List.concat_map
        (fun cluster ->
          List.map
            (fun load ->
              {
                Serve.cluster;
                nodes;
                arrival;
                load;
                queue_capacity = queue;
                shed;
                slo_cycles = slo;
                warm_start;
                watch = watch_cfg;
              })
            loads)
        cells
    in
    let outcomes =
      try Serve.run_matrix ?jobs cfgs
      with Invalid_argument msg -> die "%s" msg
    in
    if not quiet then begin
      let header =
        [ "cores"; "partition"; "load"; "arrived"; "served"; "shed"; "p50";
          "p99"; "p999"; "slo-viol"; "warm-hit"; "thrpt/s" ]
      in
      let rows =
        List.map
          (fun (o : Serve.outcome) ->
            [
              string_of_int o.cfg.Serve.cluster.Corun.ncores;
              Shared_lut.partition_name o.cfg.Serve.cluster.Corun.partition;
              Printf.sprintf "%.2f" o.cfg.Serve.load;
              string_of_int o.arrived;
              string_of_int o.served;
              Table.fmt_pct o.shed_rate;
              Printf.sprintf "%.0f" o.total.Serve.p50;
              Printf.sprintf "%.0f" o.total.Serve.p99;
              Printf.sprintf "%.0f" o.total.Serve.p999;
              Table.fmt_pct o.slo_violation_rate;
              Table.fmt_pct o.warm_hit_rate;
              Printf.sprintf "%.0f" o.throughput_rps;
            ])
          outcomes
      in
      Table.print
        ~align:
          [ Right; Left; Right; Right; Right; Right; Right; Right; Right;
            Right; Right; Right ]
        ~header rows
    end;
    if sweep_load && not quiet then begin
      print_newline ();
      let header =
        [ "cores"; "partition"; "arrival"; "sat-load"; "sat-thrpt/s";
          "peak-thrpt/s" ]
      in
      let rows =
        List.map
          (fun (s : Serve.saturation_point) ->
            [
              string_of_int s.Serve.sat_ncores;
              s.Serve.sat_partition;
              s.Serve.sat_arrival;
              Printf.sprintf "%.2f" s.Serve.sat_load;
              Printf.sprintf "%.0f" s.Serve.sat_throughput_rps;
              Printf.sprintf "%.0f" s.Serve.peak_throughput_rps;
            ])
          (Serve.saturation outcomes)
      in
      Table.print ~align:[ Right; Left; Left; Right; Right; Right ] ~header rows
    end;
    if watch_cfg <> None && not quiet then
      List.iter
        (fun (o : Serve.outcome) ->
          match o.Serve.timeline with
          | None -> ()
          | Some tl -> (
              print_newline ();
              let label = Serve.label o.Serve.cfg in
              match
                Expo.render_timeline ~alerts:(Alert.to_json o.Serve.alerts) ~label
                  (Timeline.to_json tl)
              with
              | Ok rendered -> print_string rendered
              | Error msg -> die "%s: %s" label msg))
        outcomes;
    (* The exposition artifacts cover the first watched run, mirroring how
       --chrome-trace picks the first outcome. *)
    let first_watched =
      List.find_opt (fun (o : Serve.outcome) -> o.Serve.timeline <> None) outcomes
    in
    Option.iter
      (fun path ->
        match first_watched with
        | Some ({ Serve.timeline = Some tl; _ } as o) ->
            Expo.write_prometheus path tl o.Serve.alerts
        | _ -> ())
      expo;
    Option.iter
      (fun path ->
        match first_watched with
        | Some { Serve.timeline = Some tl; _ } -> Expo.write_window_log path tl
        | _ -> ())
      window_log;
    Option.iter (fun path -> Serve.write_report ~wall path outcomes) metrics;
    Option.iter
      (fun path -> Report.write_csv path (Serve.report_runs ~wall outcomes))
      csv;
    Option.iter
      (fun path ->
        match outcomes with [] -> () | o :: _ -> Serve.write_trace o path)
      chrome_trace
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run
      $ node_term ~cores:[ 1; 2; 4 ] ~partitions:all_partitions
      $ seed_arg $ serve_nodes_arg $ arrival_arg $ loads_arg $ queue_arg $ shed_arg
      $ slo_arg $ warm_start_arg $ watch_arg $ expo_arg
      $ window_log_arg $ alerts_arg $ sweep_load_arg $ wall_arg
      $ jobs_arg $ metrics_arg $ csv_arg $ chrome_trace_arg $ quiet_arg)

(* ---- cluster: sharded multi-node scale-out ---------------------------- *)

let cluster_nodes_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2; 4 ]
    & info [ "nodes" ] ~docv:"M,.."
        ~doc:
          "Node counts to sweep. Each node is its own co-run cluster of \
           $(b,--cores) cores; LUT entries are homed on a node by the high \
           bits of their CRC tag, and cross-node traffic pays the modeled \
           interconnect.")

let replicate_arg =
  Arg.(
    value & opt int 0
    & info [ "replicate-threshold" ] ~docv:"N"
        ~doc:
          "Remote hits on one entry before it is replicated into the \
           requester's local shared LUT (the directory invalidates stale \
           replicas point-to-point). 0, the default, disables replication.")

let net_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "net" ] ~docv:"CYCLES:PJ"
        ~doc:
          "Interconnect override: per-hop message latency in cycles and \
           per-hop link energy in pJ, colon-separated (e.g. $(b,64:500)). \
           Defaults to the energy model's constants.")

let net_ports_arg =
  Arg.(
    value & opt int 1
    & info [ "net-ports" ] ~docv:"N"
        ~doc:"Simultaneous messages a destination NIC accepts per window.")

let no_directory_arg =
  Arg.(
    value & flag
    & info [ "no-directory" ]
        ~doc:
          "Broadcast invalidations to every other node instead of \
           point-to-point directory messages to registered sharers — the \
           broadcast-equivalent baseline (same final LUT contents, more \
           messages).")

(* Parse "CYCLES:PJ"; any malformed shape is a one-line die, not a
   backtrace. *)
let net_override_of = function
  | None -> (Cluster.default.Cluster.net_msg_cycles, Cluster.default.Cluster.net_hop_pj)
  | Some s -> (
      match String.index_opt s ':' with
      | None -> die "--net expects CYCLES:PJ (got %s)" s
      | Some i ->
          let cyc = String.sub s 0 i in
          let pj = String.sub s (i + 1) (String.length s - i - 1) in
          (match (int_of_string_opt cyc, float_of_string_opt pj) with
          | Some c, Some p when c >= 1 && Float.is_finite p && p >= 0. -> (c, p)
          | Some c, Some _ when c < 1 ->
              die "--net cycles must be positive (got %d)" c
          | _ -> die "--net expects CYCLES:PJ (got %s)" s))

let cluster_table outcomes =
  let header =
    [ "nodes"; "cores"; "makespan"; "thrpt/s"; "speedup"; "hit"; "shard"; "rep";
      "inv sent"; "filt"; "bcast="; "net msgs" ]
  in
  (* A --partition sweep suffixes each cores cell with its policy; one
     policy keeps the plain count. *)
  let partition (o : Cluster.outcome) = Shared_lut.partition_name o.cfg.node.Corun.partition in
  let swept =
    List.length (List.sort_uniq String.compare (List.map partition outcomes)) > 1
  in
  let rows =
    List.map
      (fun (o : Cluster.outcome) ->
        let cores = string_of_int (o.cfg.nodes * o.cfg.node.Corun.ncores) in
        [
          string_of_int o.cfg.nodes;
          (if swept then cores ^ "/" ^ partition o else cores);
          string_of_int o.makespan_cycles;
          Printf.sprintf "%.0f" o.throughput_rps;
          Table.fmt_x o.speedup;
          Table.fmt_pct o.aggregate_hit_rate;
          Printf.sprintf "%.3f" o.shard_balance;
          Table.fmt_pct o.replication_hit_share;
          string_of_int o.inv_sent;
          string_of_int o.inv_filtered;
          string_of_int o.inv_broadcast_equivalent;
          string_of_int o.net_messages;
        ])
      outcomes
  in
  Table.print
    ~align:
      [ Right; Right; Right; Right; Right; Right; Right; Right; Right; Right; Right;
        Right ]
    ~header rows

let cluster_cmd =
  let doc =
    "Sharded multi-node memoization: home-shard routing, directory \
     invalidation, optional hot-entry replication, interconnect accounting."
  in
  let run cells seed nodes replicate_threshold net net_ports no_directory jobs metrics
      csv chrome_trace quiet =
    apply_seed seed;
    print_seed quiet;
    List.iter (fun m -> if m < 1 then die "--nodes must be positive (got %d)" m) nodes;
    no_repeats "--nodes" string_of_int nodes;
    let cells = cells () in
    if replicate_threshold < 0 then
      die "--replicate-threshold must be non-negative (got %d)" replicate_threshold;
    if net_ports < 1 then die "--net-ports must be positive (got %d)" net_ports;
    let net_msg_cycles, net_hop_pj = net_override_of net in
    (* Cells are ordered nodes, then cores, then partition. *)
    let cfgs =
      List.concat_map
        (fun nodes ->
          List.map
            (fun node ->
              {
                Cluster.nodes;
                node;
                replicate_threshold;
                net_msg_cycles;
                net_hop_pj;
                net_ports;
                directory = not no_directory;
              })
            cells)
        nodes
    in
    run_clusters ?jobs ?chrome_trace ~metrics ~csv ~quiet ~table:cluster_table cfgs
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      const run
      $ node_term ~cores:[ 2 ] ~partitions:[ Shared_lut.Free_for_all ]
      $ seed_arg $ cluster_nodes_arg $ replicate_arg $ net_arg $ net_ports_arg
      $ no_directory_arg $ jobs_arg $ metrics_arg $ csv_arg $ chrome_trace_arg
      $ quiet_arg)

(* ---- snapshot: warm-LUT persistence ----------------------------------- *)

module Tier_snapshot = Axmemo_tier.Snapshot

let snapshot_cmd =
  let doc = "Save or validate warm-LUT snapshots for warm-restart serving." in
  let file_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Snapshot file.")
  in
  let section_table (snap : Tier_snapshot.t) =
    List.iter
      (fun (s : Tier_snapshot.section) ->
        Printf.printf "  %-6s %6d entries\n" s.Tier_snapshot.name
          (Array.length s.Tier_snapshot.entries))
      snap.Tier_snapshot.sections
  in
  let save_cmd =
    let doc =
      "Warm a cluster with a closed request stream, then save every LUT \
       level's contents (versioned, checksummed) to $(b,FILE)."
    in
    let run file cells seed quiet =
      apply_seed seed;
      print_seed quiet;
      let cfg =
        match cells () with
        | [ cfg ] -> cfg
        | cells ->
            die "snapshot save warms one node shape; --cores and --partition give %d"
              (List.length cells)
      in
      (* Node 0's capture keeps the plain l1.<c>/l2/l3 section names. *)
      let snap =
        try
          let _outcome, t = Cluster.run_keep { Cluster.default with nodes = 1; node = cfg } in
          Corun.capture_snapshot (Cluster.node_cluster t ~node:0)
        with Invalid_argument msg -> die "%s" msg
      in
      Tier_snapshot.save snap file;
      if not quiet then begin
        Printf.printf "wrote %s: version %d, %d sections, %d entries\n" file
          Tier_snapshot.version
          (List.length snap.Tier_snapshot.sections)
          (Tier_snapshot.total_entries snap);
        section_table snap
      end
    in
    Cmd.v (Cmd.info "save" ~doc)
      Term.(
        const run $ file_pos
        $ node_term ~cores:[ 2 ] ~partitions:[ Shared_lut.Free_for_all ]
        $ seed_arg $ quiet_arg)
  in
  let load_cmd =
    let doc =
      "Validate a snapshot file (magic, version, checksum) and summarize its \
       sections; exit 1 with a one-line error on any problem."
    in
    let run file quiet =
      match Tier_snapshot.load file with
      | Error msg -> die "%s" (with_path file msg)
      | Ok snap ->
          if not quiet then begin
            Printf.printf "%s: ok — version %d, %d sections, %d entries\n" file
              Tier_snapshot.version
              (List.length snap.Tier_snapshot.sections)
              (Tier_snapshot.total_entries snap);
            section_table snap
          end
    in
    Cmd.v (Cmd.info "load" ~doc) Term.(const run $ file_pos $ quiet_arg)
  in
  Cmd.group (Cmd.info "snapshot" ~doc) [ save_cmd; load_cmd ]

(* ---- profile: attribution profiler ----------------------------------- *)

let profile_cmd =
  let doc =
    "Attribution profile: where the cycles and picojoules went, why every \
     LUT lookup missed, and which region contributed the error."
  in
  let top_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N" ~doc:"Show only the $(docv) hottest regions.")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write folded flame stacks ($(b,region;class cycles) lines, \
             loadable by speedscope or flamegraph.pl) to $(docv).")
  in
  let run bench config backend sample seed top folded metrics quiet =
    apply_seed seed;
    print_seed quiet;
    let _, make = Option.get (W.Registry.find bench) in
    let variant = variant_of sample in
    let profiled ?metrics config =
      let inst = make variant in
      let p = Profile.create ~regions:(Runner.profile_regions inst) in
      let r = Runner.run ~backend ?metrics ~profile:p config inst in
      (r, Profile.snapshot p)
    in
    (* A profiled baseline run of the same instance family gives the
       cycles-saved column; skipped when the baseline itself is profiled. *)
    let base =
      match config with Runner.Baseline -> None | _ -> Some (profiled Runner.Baseline)
    in
    let reg = Registry.create () in
    let r, snap = profiled ~metrics:reg config in
    if not quiet then begin
      print_result ~base:(Option.map fst base) r;
      print_newline ();
      print_string (Profile.render ?top ?baseline:(Option.map snd base) snap)
    end;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Profile.to_folded ~app:bench snap)))
      folded;
    Option.iter
      (fun path ->
        Report.write ~extra:(seed_extra ()) path
          [
            {
              Report.benchmark = bench;
              config = r.Runner.label;
              summary = summary_of ?base:(Option.map fst base) r;
              metrics = Registry.snapshot reg;
              profile = Some (Profile.to_json snap);
              service = None;
              cluster = None;
              timeline = None;
              alerts = None;
            };
          ])
      metrics
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ bench_arg $ config_arg $ backend_arg $ variant_arg $ seed_arg
      $ top_arg $ folded_arg $ metrics_arg $ quiet_arg)

(* ---- diff: report comparison / regression gate ------------------------ *)

let diff_cmd =
  let doc = "Compare two run reports metric by metric; $(b,--gate) for CI." in
  let file_a =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"A.json" ~doc:"Reference report (the baseline).")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"B.json" ~doc:"Candidate report to compare against A.")
  in
  let tol_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tol" ] ~docv:"SPEC"
          ~doc:
            "Tolerance spec: comma-separated $(b,name=rel) or \
             $(b,name=rel:abs) entries; $(b,*) wildcards match any \
             substring and $(b,default=) sets the fallback (exact match \
             when absent). Example: \
             $(b,default=0,summary.seconds=0.05,gauges.*=1e-9).")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Exit non-zero when any metric moves outside tolerance or a run \
             is missing on either side — the CI regression gate.")
  in
  let show_all_arg =
    Arg.(
      value & flag
      & info [ "show-all" ] ~doc:"Also list the in-tolerance changes.")
  in
  let run a b tol gate show_all quiet =
    let tolerances =
      match tol with
      | None -> Diff.exact
      | Some spec -> (
          match Diff.parse_tolerances spec with
          | Ok t -> t
          | Error e ->
              prerr_endline ("axmemo diff: " ^ e);
              exit 2)
    in
    match Diff.diff_files ~tol:tolerances a b with
    | Error e ->
        prerr_endline ("axmemo diff: " ^ e);
        exit 2
    | Ok d ->
        if not quiet then print_string (Diff.render ~show_all d);
        if gate && not (Diff.gate_ok d) then exit 1
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(
      const run $ file_a $ file_b $ tol_arg $ gate_arg $ show_all_arg
      $ quiet_arg)

(* ---- top: timeline renderer ------------------------------------------- *)

let top_cmd =
  let doc =
    "Render the timeline and alert sections of a saved report (produced by \
     $(b,axmemo serve --watch --metrics)) as per-window tables, sparklines \
     and alert status."
  in
  let report_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"REPORT.json" ~doc:"Run report carrying timelines.")
  in
  let run file =
    match Json.read_file file with
    | Error msg -> die "%s" (with_path file msg)
    | Ok report -> (
        match Expo.top_of_report report with
        | Ok rendered -> print_string rendered
        | Error msg -> die "%s: %s" file msg)
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const run $ report_arg)

let analyze_cmd =
  let doc = "DDDG candidate analysis on the sample dataset (Table 1 row)." in
  let run bench =
    let _, make = Option.get (W.Registry.find bench) in
    let r = Analysis.analyze make in
    Printf.printf "benchmark            %s\n" r.name;
    Printf.printf "dynamic subgraphs    %d\n" r.total_dynamic_subgraphs;
    Printf.printf "unique subgraphs     %d\n" r.unique_subgraphs;
    Printf.printf "avg CI_Ratio         %.2f\n" r.ci_ratio;
    Printf.printf "memoization coverage %.1f%%\n" (100.0 *. r.coverage);
    if r.trace_truncated then
      Printf.printf "(trace truncated at the analysis cap; ratios are over the prefix)\n"
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ bench_arg)

let check_cmd =
  let doc =
    "Parse and validate an IR file (the format printed by $(b,ir)); exit 1 \
     with a one-line error on a malformed one."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"IR source file.")
  in
  let run file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    match Axmemo_ir.Parser.parse_program text with
    | Error e -> die "%s: %s" file (Format.asprintf "%a" Axmemo_ir.Parser.pp_error e)
    | Ok p ->
        Printf.printf "%s: ok — %d function(s), %d static instruction(s)\n" file
          (Array.length p.funcs) (Axmemo_ir.Ir.static_count p)
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ file_arg)

let ir_cmd =
  let doc = "Dump a benchmark's IR (before memoization)." in
  let run bench =
    let _, make = Option.get (W.Registry.find bench) in
    let instance = make W.Workload.Sample in
    Format.printf "%a@." Axmemo_ir.Ir.pp_program instance.program
  in
  Cmd.v (Cmd.info "ir" ~doc) Term.(const run $ bench_arg)

let () =
  let doc = "AxMemo: hardware-compiler co-design for approximate code memoization" in
  let info = Cmd.info "axmemo" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ list_cmd; run_cmd; sweep_cmd; faults_cmd; corun_cmd; cluster_cmd;
        serve_cmd; snapshot_cmd; profile_cmd; diff_cmd; top_cmd; analyze_cmd;
        ir_cmd; check_cmd ]
  in
  (* Output files are opened once the simulation has run, so an unwritable
     path surfaces here as [Sys_error]: a one-line error, exit 1, as [die]
     gives. Any other exception stays an internal error (exit 125). *)
  exit
    (try Cmd.eval ~catch:false cmd with
    | Sys_error msg -> die "%s" msg
    | e ->
        prerr_endline
          ("axmemo: internal error, uncaught exception:\n  " ^ Printexc.to_string e);
        Cmd.Exit.internal_error)
