module Fault_model = Axmemo_faults.Fault_model
module Protection = Axmemo_faults.Protection
module Rng = Axmemo_util.Rng
module Json = Axmemo_util.Json
module Runner = Axmemo.Runner
module Memo_unit = Axmemo_memo.Memo_unit
module Workload = Axmemo_workloads.Workload
module Report = Axmemo_telemetry.Report
module Registry = Axmemo_telemetry.Registry
module Tracer = Axmemo_telemetry.Tracer

type config = {
  seed : int64;
  kind : Fault_model.kind;
  basis : Fault_model.basis;
  rates : float list;
  site_groups : (string * Fault_model.site list) list;
  protections : Protection.kind list;
  l1_bytes : int;
  l2_bytes : int option;
}

let default () =
  {
    (* Salted through the root seed so [--seed] re-keys the campaign along
       with the datasets; with no root set this is a fixed default. *)
    seed = Rng.derive_stream 0x5EEDFA17C0DEC1A5L;
    kind = Fault_model.Transient;
    basis = Fault_model.Per_access;
    rates = [ 1e-4; 1e-3; 1e-2 ];
    site_groups =
      [
        ("lut", [ Fault_model.L1_tag; L1_payload; L1_valid; L1_lru ]);
        ("hash", [ Fault_model.Hvr; Crc_datapath ]);
      ];
    protections = Protection.all_kinds;
    l1_bytes = 8 * 1024;
    l2_bytes = None;
  }

type measurement = {
  benchmark : string;
  site_group : string;
  rate : float;
  protection : Protection.kind;
  label : string;
  injected : int;
  injected_by_site : (Fault_model.site * int) list;
  sdc_hits : int;
  sdc_rate : float;
  detected : int;
  detection_rate : float;
  corrected : int;
  aliases : int;
  lookups : int;
  hits : int;
  quality_loss : float;
  quality_degradation : float;
  monitor_tripped : bool;
  trip_lookup : int option;
  crashed : string option;
  speedup_retained : float;
  energy_overhead : float;
}

type outcome = {
  config : config;
  measurements : measurement list;
  runs : Report.run list;
}

(* Per-cell fault seed: a position-independent digest of the cell's identity
   mixed with the campaign seed, so a single traced cell replays the exact
   stream the campaign drew no matter how many benchmarks ran beside it. *)
let fold_string acc s =
  String.fold_left
    (fun a c -> Int64.add (Int64.mul a 1099511628211L) (Int64.of_int (Char.code c)))
    acc s

let cell_seed cfg ~bench ~group ~rate ~protection =
  let acc = cfg.seed in
  let acc = fold_string acc bench in
  let acc = fold_string acc group in
  let acc = fold_string acc (Printf.sprintf "%h" rate) in
  let acc = fold_string acc (Protection.kind_name protection) in
  let v = Rng.int64 (Rng.create acc) in
  if v = 0L then 1L else v

let faulty_label ~group ~rate ~protection =
  Printf.sprintf "faults(%s,%g,%s)" group rate (Protection.kind_name protection)

let memo_config cfg ?faults ~label () =
  Runner.Hw_custom
    {
      label;
      unit_cfg =
        {
          Memo_unit.default_config with
          l1_bytes = cfg.l1_bytes;
          l2_bytes = cfg.l2_bytes;
          faults;
        };
      approximate = true;
      crc_bytes_per_cycle = Axmemo_isa.Timing.crc_bytes_per_cycle;
    }

let faulty_config cfg ~bench ~group ~sites ~rate ~protection =
  let spec =
    {
      Fault_model.seed = cell_seed cfg ~bench ~group ~rate ~protection;
      kind = cfg.kind;
      basis = cfg.basis;
      rate;
      sites;
      protection;
    }
  in
  memo_config cfg ~faults:spec ~label:(faulty_label ~group ~rate ~protection) ()

(* The faulty combinations in sweep order: group-major, then rate, then
   protection. *)
let combos cfg =
  List.concat_map
    (fun (group, sites) ->
      List.concat_map
        (fun rate ->
          List.map (fun protection -> (group, sites, rate, protection)) cfg.protections)
        cfg.rates)
    cfg.site_groups

let run ?jobs cfg benchmarks ~variant =
  let combos = combos cfg in
  (* Per benchmark: exact baseline, fault-free memoized reference, then one
     faulty cell per combination — all fresh instances, all one matrix. *)
  let cells =
    List.concat_map
      (fun ((meta : Workload.meta), make) ->
        (Runner.Baseline, make variant)
        :: (memo_config cfg ~label:"memo-faultfree" (), make variant)
        :: List.map
             (fun (group, sites, rate, protection) ->
               ( faulty_config cfg ~bench:meta.name ~group ~sites ~rate ~protection,
                 make variant ))
             combos)
      benchmarks
  in
  let pairs =
    Axmemo_util.Pool.run ?jobs
      (fun (config, instance) ->
        let metrics = Registry.create () in
        let r = Runner.run ~metrics config instance in
        (r, Registry.snapshot metrics))
      cells
  in
  let per_bench = 2 + List.length combos in
  let chunk i =
    List.filteri (fun j _ -> j >= i * per_bench && j < (i + 1) * per_bench) pairs
  in
  let measurements = ref [] and runs = ref [] in
  List.iteri
    (fun i ((meta : Workload.meta), _) ->
      match chunk i with
      | (base, base_snap) :: (free, free_snap) :: faulty ->
          let summary ?(extra = []) (r : Runner.result) =
            [
              ("cycles", Json.Int r.cycles);
              ("energy_pj", Json.Float r.energy.total_pj);
              ("lookups", Json.Int r.lookups);
              ("hits", Json.Int r.hits);
              ("hit_rate", Json.Float r.hit_rate);
              ("memo_disabled", Json.Bool r.memo_disabled);
              ( "quality_loss",
                Json.Float
                  (Workload.quality_loss ~reference:base.outputs ~approx:r.outputs) );
            ]
            @ extra
          in
          let mk_run snap (r : Runner.result) extra =
            {
              Report.benchmark = meta.name;
              config = r.label;
              summary = summary ~extra r;
              metrics = snap;
              sections = [];
            }
          in
          runs := mk_run base_snap base [] :: !runs;
          runs := mk_run free_snap free [] :: !runs;
          List.iter2
            (fun (group, _sites, rate, protection) ((r : Runner.result), snap) ->
              let s =
                match r.faults with
                | Some s -> s
                | None -> assert false (* faulty cells always carry an injector *)
              in
              let detected = s.parity_detected + s.secded_detected in
              let m =
                {
                  benchmark = meta.name;
                  site_group = group;
                  rate;
                  protection;
                  label = r.label;
                  injected = s.injected_total;
                  injected_by_site = s.injected_by_site;
                  sdc_hits = s.sdc_hits;
                  sdc_rate =
                    (if r.hits = 0 then 0.0
                     else float_of_int s.sdc_hits /. float_of_int r.hits);
                  detected;
                  detection_rate =
                    (if s.injected_total = 0 then 0.0
                     else float_of_int detected /. float_of_int s.injected_total);
                  corrected = s.secded_corrected;
                  aliases = s.tag_aliases;
                  lookups = r.lookups;
                  hits = r.hits;
                  quality_loss =
                    Workload.quality_loss ~reference:base.outputs ~approx:r.outputs;
                  quality_degradation =
                    Workload.quality_loss ~reference:free.outputs ~approx:r.outputs;
                  monitor_tripped = r.memo_disabled;
                  trip_lookup = r.trip_lookup;
                  crashed = r.crashed;
                  speedup_retained =
                    float_of_int free.cycles /. float_of_int (max 1 r.cycles);
                  energy_overhead = (r.energy.total_pj /. free.energy.total_pj) -. 1.0;
                }
              in
              measurements := m :: !measurements;
              let extra =
                [
                  ("fault_site_group", Json.Str group);
                  ("fault_rate", Json.Float rate);
                  ("fault_protection", Json.Str (Protection.kind_name protection));
                  ("fault_injected", Json.Int s.injected_total);
                  ("fault_sdc_hits", Json.Int s.sdc_hits);
                  ("fault_detected", Json.Int detected);
                  ("fault_corrected", Json.Int s.secded_corrected);
                  ("fault_aliases", Json.Int s.tag_aliases);
                  ("quality_degradation", Json.Float m.quality_degradation);
                  ("speedup_retained", Json.Float m.speedup_retained);
                  ("energy_overhead", Json.Float m.energy_overhead);
                  ( "trip_lookup",
                    match r.trip_lookup with Some n -> Json.Int n | None -> Json.Null
                  );
                  ( "fault_crashed",
                    match r.crashed with Some e -> Json.Str e | None -> Json.Null );
                ]
              in
              runs := mk_run snap r extra :: !runs)
            combos faulty
      | _ -> invalid_arg "Campaign.run: matrix came back short")
    benchmarks;
  { config = cfg; measurements = List.rev !measurements; runs = List.rev !runs }

let measurement_json (m : measurement) =
  Json.Obj
    [
      ("benchmark", Json.Str m.benchmark);
      ("site_group", Json.Str m.site_group);
      ("rate", Json.Float m.rate);
      ("protection", Json.Str (Protection.kind_name m.protection));
      ("label", Json.Str m.label);
      ("injected", Json.Int m.injected);
      ( "injected_by_site",
        Json.Obj
          (List.map
             (fun (site, n) -> (Fault_model.site_name site, Json.Int n))
             m.injected_by_site) );
      ("sdc_hits", Json.Int m.sdc_hits);
      ("sdc_rate", Json.Float m.sdc_rate);
      ("detected", Json.Int m.detected);
      ("detection_rate", Json.Float m.detection_rate);
      ("corrected", Json.Int m.corrected);
      ("aliases", Json.Int m.aliases);
      ("lookups", Json.Int m.lookups);
      ("hits", Json.Int m.hits);
      ("quality_loss", Json.Float m.quality_loss);
      ("quality_degradation", Json.Float m.quality_degradation);
      ("monitor_tripped", Json.Bool m.monitor_tripped);
      ("trip_lookup", match m.trip_lookup with Some n -> Json.Int n | None -> Json.Null);
      ("crashed", match m.crashed with Some e -> Json.Str e | None -> Json.Null);
      ("speedup_retained", Json.Float m.speedup_retained);
      ("energy_overhead", Json.Float m.energy_overhead);
    ]

let report outcome =
  let cfg = outcome.config in
  let extra =
    [
      ( "fault_campaign",
        Json.Obj
          [
            ("seed", Json.Str (Int64.to_string cfg.seed));
            ("root_seed", Json.Str (Int64.to_string (Rng.root_seed ())));
            ("kind", Json.Str (Fault_model.kind_name cfg.kind));
            ("basis", Json.Str (Fault_model.basis_name cfg.basis));
            ("rates", Json.Arr (List.map (fun r -> Json.Float r) cfg.rates));
            ( "site_groups",
              Json.Obj
                (List.map
                   (fun (name, sites) ->
                     ( name,
                       Json.Arr
                         (List.map (fun s -> Json.Str (Fault_model.site_name s)) sites)
                     ))
                   cfg.site_groups) );
            ( "protections",
              Json.Arr
                (List.map (fun p -> Json.Str (Protection.kind_name p)) cfg.protections)
            );
            ("l1_bytes", Json.Int cfg.l1_bytes);
            ("l2_bytes", match cfg.l2_bytes with Some b -> Json.Int b | None -> Json.Null);
          ] );
      ("resilience", Json.Arr (List.map measurement_json outcome.measurements));
    ]
  in
  Report.make ~extra outcome.runs

let write_report outcome path = Json.write_file ~indent:2 path (report outcome)

let trace_cell cfg ~benchmark:((meta : Workload.meta), make) ~variant ~path =
  match (cfg.site_groups, cfg.protections) with
  | [], _ | _, [] -> invalid_arg "Campaign.trace_cell: empty campaign"
  | (group, sites) :: _, protection :: _ ->
      let rate = List.fold_left Float.max 0.0 cfg.rates in
      let config = faulty_config cfg ~bench:meta.name ~group ~sites ~rate ~protection in
      ignore (Runner.run ~trace:(fun tr -> Tracer.write tr path) config (make variant))
