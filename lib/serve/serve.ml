(* Open-loop service model over the memoization cluster.

   One run: calibrate the mean per-request service time on a throwaway
   1-core node, convert the offered load into an arrival rate, generate
   the seeded arrival stream, and drive a fresh Cluster through
   Schedule.dispatch_open request by request — Cluster.exec_request keeps
   the LUTs warm across requests exactly as a closed stream does. Everything
   downstream (latency histograms, SLO accounting, the Chrome trace, the
   "service" report section) is observational: per-request cycle results
   are bit-identical to what the same dispatch order produces without any
   of it. *)

module Schedule = Axmemo_multicore.Schedule
module Corun = Axmemo_multicore.Corun
module Shared_lut = Axmemo_multicore.Shared_lut
module Cluster = Axmemo_cluster.Cluster
module Registry = Axmemo_telemetry.Registry
module Report = Axmemo_telemetry.Report
module Tracer = Axmemo_telemetry.Tracer
module Machine = Axmemo_cpu.Machine
module Runner = Axmemo.Runner
module Timeline = Axmemo_watch.Timeline
module Alert = Axmemo_watch.Alert
module Stats = Axmemo_util.Stats
module Json = Axmemo_util.Json
module Pool = Axmemo_util.Pool
module Rng = Axmemo_util.Rng

(* Watch sampling is purely observational: per-request cycle results,
   the arrival stream and every pre-existing report field are untouched
   whether or not it is on, so watch-less runs stay byte-identical to
   their committed baselines. *)
type watch_config = {
  window_cycles : int;  (* 0 = auto: makespan / 32 *)
  rules : Alert.rule list;
}

let default_watch = { window_cycles = 0; rules = Alert.default_rules }

type config = {
  cluster : Corun.config;
  nodes : int;  (* cluster nodes, each of shape cfg.cluster *)
  arrival : Arrival.kind;
  load : float;
      (* offered load as a fraction of cluster capacity: the arrival rate is
         load * nodes * ncores / mean_service_cycles *)
  queue_capacity : int;
  shed : Schedule.shed_policy;
  slo_cycles : int;  (* 0 = auto: slo_auto_factor x calibrated mean *)
  warm_start : string option;  (* snapshot file restored before dispatch *)
  watch : watch_config option;  (* live windowed timeline + alert rules *)
}

let slo_auto_factor = 4.0

let default =
  {
    cluster = Corun.default;
    nodes = 1;
    arrival = Arrival.Poisson;
    load = 0.8;
    queue_capacity = 16;
    shed = Schedule.Drop_tail;
    slo_cycles = 0;
    warm_start = None;
    watch = None;
  }

(* [base_label] deliberately ignores [warm_start]: it keys the arrival
   stream's seed, so a warm-started run faces exactly the arrival sequence
   its cold twin does — the only difference between them is LUT state. For
   the same reason the nodes suffix appears only for multi-node runs: a
   ",nodes=1" suffix would re-key, and so change, every one-node arrival
   stream. *)
let base_label cfg =
  Printf.sprintf "serve(%s,load=%g,%dcore,%s,q=%d,%s%s)"
    (Arrival.kind_name cfg.arrival)
    cfg.load cfg.cluster.Corun.ncores
    (Shared_lut.partition_name cfg.cluster.Corun.partition)
    cfg.queue_capacity
    (Schedule.shed_policy_name cfg.shed)
    (if cfg.nodes > 1 then Printf.sprintf ",nodes=%d" cfg.nodes else "")

let label cfg =
  match cfg.warm_start with
  | None -> base_label cfg
  | Some _ -> base_label cfg ^ "+warm"

let machine = Machine.hpi
let cycles_per_second = machine.Machine.freq_ghz *. 1e9

(* ---- calibration ------------------------------------------------------ *)

(* Mean cold service cycles over the distinct workloads of the mix, from a
   throwaway fault-free 1-core cluster. This anchors the load -> rate
   conversion, so "load 1.0" means one core-mean-service-time of work
   arriving per core per unit time. *)
let calibrate cfg =
  let c1 = { cfg.cluster with Corun.ncores = 1; faults = None } in
  let cluster = Corun.create_cluster c1 in
  let distinct = List.sort_uniq compare cfg.cluster.Corun.workloads in
  let cycles =
    List.map
      (fun w ->
        float_of_int
          (Corun.exec_request cluster ~workload:w ~core:0 ~start:0).Runner.cycles)
      distinct
  in
  Float.max 1.0 (Stats.mean (Array.of_list cycles))

(* The arrival stream's seed: position-independent (a cell draws the same
   stream whether it runs alone or inside a matrix) and re-keyed by the
   root seed via derive_stream. *)
let arrival_seed cfg =
  Rng.derive_stream
    (Int64.of_int
       (Hashtbl.hash ("serve-arrivals", base_label cfg, cfg.cluster.Corun.requests)))

(* ---- per-request records ---------------------------------------------- *)

type request_record = {
  rid : int;
  workload : string;
  core : int;
  arrival : int;
  start : int;
  finish : int;
  queue_wait : int;  (* start - arrival *)
  service : int;  (* finish - start *)
  total : int;  (* finish - arrival *)
  cold : bool;  (* first execution of its workload in this run *)
  slo_ok : bool;
  result : Runner.result;
}

type latency = { p50 : float; p99 : float; p999 : float; mean : float; max : float }

type outcome = {
  cfg : config;
  rate : float;  (* arrivals per cycle; 0 for closed *)
  mean_service_cycles : float;  (* the calibration anchor *)
  slo_cycles : int;  (* resolved (auto or explicit) *)
  requests : request_record list;  (* served, dispatch order *)
  shed : Schedule.arrival list;  (* shed order *)
  arrived : int;
  served : int;
  shed_count : int;
  shed_rate : float;
  slo_violations : int;
  slo_violation_rate : float;
  goodput_rate : float;
  queue_wait : latency;
  service : latency;
  total : latency;
  makespan_cycles : int;
  throughput_rps : float;
  offered_rps : float;
  cold_hit_rate : float;
  warm_hit_rate : float;
  aggregate_hit_rate : float;
  restored_entries : int;  (* LUT entries replayed from --warm-start; 0 cold *)
  contention_cycles : int;
  shared_accesses : int;
  contended_accesses : int;
  trace_unmatched_ends : int;
  cluster_section : Json.t;  (* the "cluster" report section *)
  timeline : Timeline.t option;  (* present iff cfg.watch is *)
  alerts : Alert.result list;  (* empty when watch is off *)
  snapshots : (string * Registry.snapshot) list;
  tracer : Tracer.t;
  sim_wall_seconds : float;
}

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Histogram-interpolated percentiles (exact to one bucket width, and they
   survive series decimation since histograms are never decimated); mean
   from the histogram's exact running sum; max from the raw records. *)
let latency_of (h : Registry.hist_data) raw_max =
  let pct p = Stats.percentile_of_histogram ~bounds:h.bounds ~counts:h.counts p in
  {
    p50 = pct 50.0;
    p99 = pct 99.0;
    p999 = pct 99.9;
    mean = (if h.total = 0 then 0.0 else h.sum /. float_of_int h.total);
    max = raw_max;
  }

let hist_of snap name =
  match List.assoc name snap with
  | Registry.Histogram h -> h
  | _ | (exception Not_found) ->
      invalid_arg (Printf.sprintf "Serve: no histogram %S in snapshot" name)

(* ---- the run ----------------------------------------------------------- *)

let run (cfg : config) =
  let wall0 = Unix.gettimeofday () in
  (match cfg.arrival with
  | Arrival.Closed -> ()
  | _ ->
      if not (cfg.load > 0.0 && Float.is_finite cfg.load) then
        invalid_arg "Serve.run: open-loop arrivals need a positive load");
  if cfg.slo_cycles < 0 then invalid_arg "Serve.run: negative slo_cycles";
  if cfg.nodes < 1 then invalid_arg "Serve.run: need at least one node";
  let ncores = cfg.cluster.Corun.ncores * cfg.nodes in
  let mean_service = calibrate cfg in
  let rate =
    match cfg.arrival with
    | Arrival.Closed -> 0.0
    | _ -> cfg.load *. float_of_int ncores /. mean_service
  in
  let arrivals =
    Arrival.generate cfg.arrival ~seed:(arrival_seed cfg) ~rate
      ~workloads:cfg.cluster.Corun.workloads ~requests:cfg.cluster.Corun.requests
  in
  let slo =
    if cfg.slo_cycles > 0 then cfg.slo_cycles
    else int_of_float (slo_auto_factor *. mean_service)
  in
  let t =
    Cluster.create ~metrics:true
      { Cluster.default with Cluster.nodes = cfg.nodes; node = cfg.cluster }
  in
  (* Warm restart: replay a saved snapshot into the fresh cluster before the
     first request. Snapshot problems surface as Invalid_argument so the CLI
     turns them into a one-line error and exit 1. *)
  let restored_entries =
    match cfg.warm_start with
    | None -> 0
    | Some path -> (
        match Axmemo_tier.Snapshot.load path with
        | Ok snap -> Cluster.restore_snapshot t snap
        | Error msg ->
            invalid_arg (Printf.sprintf "Serve.run: warm-start %s: %s" path msg))
  in
  (* Traffic attribution for the watch sampler: cumulative counters
     bracketing each request's execution. Requests run one at a time, so
     the per-request delta is exact — and when watch is off no probe is
     taken, leaving the execution path untouched. *)
  let probe () =
    let remote_probes, inv_sent, net_messages = Cluster.watch_traffic t in
    let samples, bad, trips = Cluster.monitor_observed t in
    {
      Timeline.remote_probes;
      inv_sent;
      net_messages;
      quality_samples = samples;
      quality_bad = bad;
      monitor_trips = trips;
    }
  in
  let traffic_deltas = Hashtbl.create 64 in
  let watching = cfg.watch <> None in
  let placements, shed, busy =
    Schedule.dispatch_open ~ncores ~queue_capacity:cfg.queue_capacity
      ~shed:cfg.shed
      ~run:(fun r ~core ~start ->
        let before = if watching then Some (probe ()) else None in
        let res = Cluster.exec_request t ~workload:r.Schedule.workload ~gcore:core ~start in
        (match before with
        | Some b ->
            Hashtbl.replace traffic_deltas r.Schedule.rid
              (Timeline.traffic_sub (probe ()) b)
        | None -> ());
        (res.Runner.cycles, res))
      arrivals
  in
  let settled = Cluster.settle t in
  Cluster.flush_metrics t;
  (* Arbitration stalls are charged at settlement, after the dispatch loop:
     fold each core's settled stall cycles into its busy time so the
     makespan matches Cluster.run's accounting (the Closed degenerate case
     is bit-identical end to end, makespan included). *)
  let stalls = settled.Cluster.stalls in
  let makespan =
    Array.fold_left max 0 (Array.mapi (fun i b -> b + stalls.(i)) busy)
  in
  (* Classify warm vs cold in dispatch order: the first execution of each
     workload is the cold one; everything after it probes warm LUTs. *)
  let seen = Hashtbl.create 8 in
  let records =
    List.map
      (fun (p : Runner.result Schedule.open_placement) ->
        let cold = not (Hashtbl.mem seen p.Schedule.request.Schedule.workload) in
        if cold then Hashtbl.add seen p.Schedule.request.Schedule.workload ();
        let total = p.Schedule.finish - p.Schedule.arrival in
        {
          rid = p.Schedule.request.Schedule.rid;
          workload = p.Schedule.request.Schedule.workload;
          core = p.Schedule.core;
          arrival = p.Schedule.arrival;
          start = p.Schedule.start;
          finish = p.Schedule.finish;
          queue_wait = p.Schedule.start - p.Schedule.arrival;
          service = p.Schedule.finish - p.Schedule.start;
          total;
          cold;
          slo_ok = total <= slo;
          result = p.Schedule.payload;
        })
      placements
  in
  (* The live timeline: every arrival lands in exactly one window (as an
     admission or a shed at its arrival cycle), every served request as a
     completion at its finish cycle, so window deltas sum exactly to the
     end-of-run aggregates. Built from the schedule, never from wall time —
     serial and --jobs matrices emit byte-identical timelines. *)
  let timeline =
    match cfg.watch with
    | None -> None
    | Some wc ->
        let window =
          if wc.window_cycles > 0 then wc.window_cycles else max 1 (makespan / 32)
        in
        let tl = Timeline.create ~window ~nodes:cfg.nodes () in
        let shed_rids = Hashtbl.create 16 in
        List.iter
          (fun (a : Schedule.arrival) ->
            Hashtbl.replace shed_rids a.Schedule.request.Schedule.rid ())
          shed;
        List.iter
          (fun (a : Schedule.arrival) ->
            if Hashtbl.mem shed_rids a.Schedule.request.Schedule.rid then
              Timeline.shed tl ~at:a.Schedule.at
            else Timeline.admit tl ~at:a.Schedule.at)
          arrivals;
        List.iter
          (fun (r : request_record) ->
            Timeline.complete tl
              {
                Timeline.at = r.finish;
                node = r.core / cfg.cluster.Corun.ncores;
                total_cycles = r.total;
                queue_wait_cycles = r.queue_wait;
                slo_ok = r.slo_ok;
                cold = r.cold;
                lookups = r.result.Runner.lookups;
                hits = r.result.Runner.hits;
                energy_pj = r.result.Runner.energy.Axmemo_energy.Model.total_pj;
                traffic =
                  (match Hashtbl.find_opt traffic_deltas r.rid with
                  | Some d -> d
                  | None -> Timeline.traffic_zero);
              })
          records;
        Some tl
  in
  (* The serve registry: request-lifecycle counters, log-spaced latency
     histograms, and the queue-depth series. All fed post-hoc in dispatch
     order, so the snapshot is a pure function of the schedule. *)
  let reg = Registry.create () in
  let bounds = Registry.log_bounds ~lo:1.0 ~hi:1e8 ~per_decade:8 in
  let c_arrived = Registry.counter reg "serve.arrived" in
  let c_admitted = Registry.counter reg "serve.admitted" in
  let c_served = Registry.counter reg "serve.served" in
  let c_shed = Registry.counter reg "serve.shed" in
  let c_slo = Registry.counter reg "serve.slo_violations" in
  let c_unmatched = Registry.counter reg "serve.trace.unmatched_ends" in
  let h_wait = Registry.histogram reg "serve.queue_wait_cycles" ~bounds in
  let h_service = Registry.histogram reg "serve.service_cycles" ~bounds in
  let h_total = Registry.histogram reg "serve.total_latency_cycles" ~bounds in
  let s_depth = Registry.series reg "serve.queue_depth" () in
  let arrived = List.length arrivals in
  let served = List.length records in
  let shed_count = List.length shed in
  Registry.set_count c_arrived arrived;
  Registry.set_count c_admitted (arrived - shed_count);
  Registry.set_count c_served served;
  Registry.set_count c_shed shed_count;
  List.iter
    (fun (r : request_record) ->
      Registry.observe h_wait (float_of_int r.queue_wait);
      Registry.observe h_service (float_of_int r.service);
      Registry.observe h_total (float_of_int r.total);
      (* admitted-but-not-yet-started at this dispatch instant *)
      let depth =
        List.fold_left
          (fun n q -> if q.arrival <= r.start && q.start > r.start then n + 1 else n)
          0 records
      in
      Registry.sample s_depth ~at:r.start (float_of_int depth);
      match timeline with
      | Some tl -> Timeline.depth tl ~at:r.start depth
      | None -> ())
    records;
  let slo_violations = List.length (List.filter (fun r -> not r.slo_ok) records) in
  Registry.set_count c_slo slo_violations;
  (* The request timeline: arrivals and sheds as instants on the admission
     row (tid 0), each served request as a span on its core's row. Events
     are emitted in (time, kind, rid) order with ends before begins at equal
     cycles, so back-to-back spans on one core close cleanly; a zero-cycle
     span orders its end after its own begin. *)
  let clock = ref 0 in
  let tr =
    Tracer.create ~max_events:((4 * arrived) + 64) ~clock:(fun () -> !clock) ()
  in
  Tracer.name_process tr ~pid:0
    (Printf.sprintf "axmemo %s (1 cycle = 1 us)" (base_label cfg));
  Tracer.name_thread tr ~tid:0 "admission";
  for c = 0 to ncores - 1 do
    Tracer.name_thread tr ~tid:(c + 1)
      (Printf.sprintf "n%d core %d"
         (c / cfg.cluster.Corun.ncores)
         (c mod cfg.cluster.Corun.ncores))
  done;
  let span_name rid workload = Printf.sprintf "r%d:%s" rid workload in
  let events =
    List.concat
      [
        List.map
          (fun (a : Schedule.arrival) ->
            ( (a.Schedule.at, 1, a.Schedule.request.Schedule.rid),
              fun () ->
                Tracer.instant ~tid:0 tr
                  (Printf.sprintf "arrive r%d:%s" a.Schedule.request.Schedule.rid
                     a.Schedule.request.Schedule.workload) ))
          arrivals;
        List.map
          (fun (a : Schedule.arrival) ->
            ( (a.Schedule.at, 2, a.Schedule.request.Schedule.rid),
              fun () ->
                Tracer.instant ~tid:0 tr
                  (Printf.sprintf "shed r%d:%s" a.Schedule.request.Schedule.rid
                     a.Schedule.request.Schedule.workload) ))
          shed;
        List.concat_map
          (fun r ->
            let name = span_name r.rid r.workload in
            [
              ( (r.start, 3, r.rid),
                fun () -> Tracer.begin_span ~tid:(r.core + 1) tr name );
              ( (r.finish, (if r.finish = r.start then 4 else 0), r.rid),
                fun () -> Tracer.end_span ~tid:(r.core + 1) tr name );
            ])
          records;
      ]
  in
  let events = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) events in
  List.iter
    (fun (((t, _, _) : int * int * int), emit) ->
      clock := t;
      emit ())
    events;
  let trace_unmatched_ends = Tracer.unmatched_ends tr in
  Registry.set_count c_unmatched trace_unmatched_ends;
  let serve_snap = Registry.snapshot reg in
  let max_of f =
    List.fold_left (fun m r -> Float.max m (float_of_int (f r))) 0.0 records
  in
  let lookups_of p = List.fold_left (fun n r -> if p r then n + r.result.Runner.lookups else n) 0 records in
  let hits_of p = List.fold_left (fun n r -> if p r then n + r.result.Runner.hits else n) 0 records in
  let alerts =
    match (timeline, cfg.watch) with
    | Some tl, Some wc -> Alert.evaluate wc.rules tl
    | _ -> []
  in
  let sim_seconds = float_of_int makespan /. cycles_per_second in
  {
    cfg;
    rate;
    mean_service_cycles = mean_service;
    slo_cycles = slo;
    requests = records;
    shed;
    arrived;
    served;
    shed_count;
    shed_rate = ratio shed_count arrived;
    slo_violations;
    slo_violation_rate = ratio slo_violations served;
    goodput_rate = ratio (served - slo_violations) arrived;
    queue_wait = latency_of (hist_of serve_snap "serve.queue_wait_cycles") (max_of (fun r -> r.queue_wait));
    service = latency_of (hist_of serve_snap "serve.service_cycles") (max_of (fun r -> r.service));
    total = latency_of (hist_of serve_snap "serve.total_latency_cycles") (max_of (fun r -> r.total));
    makespan_cycles = makespan;
    throughput_rps = (if makespan = 0 then 0.0 else float_of_int served /. sim_seconds);
    offered_rps = rate *. cycles_per_second;
    cold_hit_rate = ratio (hits_of (fun r -> r.cold)) (lookups_of (fun r -> r.cold));
    warm_hit_rate = ratio (hits_of (fun r -> not r.cold)) (lookups_of (fun r -> not r.cold));
    aggregate_hit_rate = ratio (hits_of (fun _ -> true)) (lookups_of (fun _ -> true));
    restored_entries;
    contention_cycles = Array.fold_left ( + ) 0 stalls;
    shared_accesses = settled.Cluster.shared_accesses;
    contended_accesses = settled.Cluster.contended_accesses;
    trace_unmatched_ends;
    cluster_section = Cluster.section t ~settled;
    timeline;
    alerts;
    snapshots = ("serve", serve_snap) :: Cluster.snapshots t;
    tracer = tr;
    sim_wall_seconds = Unix.gettimeofday () -. wall0;
  }

let run_matrix ?jobs cfgs = Pool.run ?jobs run cfgs

(* ---- saturation sweep -------------------------------------------------- *)

type saturation_point = {
  sat_ncores : int;
  sat_partition : string;
  sat_arrival : string;
  sat_load : float;  (* 0 when every swept load sheds more than the threshold *)
  sat_throughput_rps : float;
  peak_throughput_rps : float;
}

let sweep_loads = [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 2.0 ]

(* A load saturates a group once it sheds more than 1% of its arrivals. *)
let saturation_shed_threshold = 0.01

let saturation outcomes =
  let key o =
    ( o.cfg.nodes * o.cfg.cluster.Corun.ncores,
      Shared_lut.partition_name o.cfg.cluster.Corun.partition,
      Arrival.kind_name o.cfg.arrival )
  in
  let keys =
    List.fold_left
      (fun acc o -> if List.mem (key o) acc then acc else acc @ [ key o ])
      [] outcomes
  in
  List.map
    (fun ((nc, part, arr) as k) ->
      let group = List.filter (fun o -> key o = k) outcomes in
      let ok = List.filter (fun o -> o.shed_rate <= saturation_shed_threshold) group in
      let best =
        List.fold_left
          (fun acc o ->
            match acc with
            | Some b when b.cfg.load >= o.cfg.load -> acc
            | _ -> Some o)
          None ok
      in
      let peak = List.fold_left (fun m o -> Float.max m o.throughput_rps) 0.0 group in
      {
        sat_ncores = nc;
        sat_partition = part;
        sat_arrival = arr;
        sat_load = (match best with Some o -> o.cfg.load | None -> 0.0);
        sat_throughput_rps = (match best with Some o -> o.throughput_rps | None -> 0.0);
        peak_throughput_rps = peak;
      })
    keys

let saturation_json pts =
  Json.Arr
    (List.map
       (fun p ->
         Json.Obj
           [
             ("ncores", Json.Int p.sat_ncores);
             ("partition", Json.Str p.sat_partition);
             ("arrival", Json.Str p.sat_arrival);
             ("saturation_load", Json.Float p.sat_load);
             ("saturation_throughput_rps", Json.Float p.sat_throughput_rps);
             ("peak_throughput_rps", Json.Float p.peak_throughput_rps);
           ])
       pts)

(* ---- reports ----------------------------------------------------------- *)

let latency_json l =
  Json.Obj
    [
      ("p50", Json.Float l.p50);
      ("p99", Json.Float l.p99);
      ("p999", Json.Float l.p999);
      ("mean", Json.Float l.mean);
      ("max", Json.Float l.max);
    ]

let service_json o =
  (* Warm-start fields appear only for warm-started runs, so every
     pre-existing report stays byte-identical to its committed baseline. *)
  let warm_fields =
    match o.cfg.warm_start with
    | None -> []
    | Some path ->
        [
          ("warm_start", Json.Str (Filename.basename path));
          ("restored_entries", Json.Int o.restored_entries);
        ]
  in
  Json.Obj
    ([
      ("arrival", Json.Str (Arrival.kind_name o.cfg.arrival));
      ("offered_load", Json.Float o.cfg.load);
      ("rate_per_mcycle", Json.Float (o.rate *. 1e6));
      ("queue_capacity", Json.Int o.cfg.queue_capacity);
      ("shed_policy", Json.Str (Schedule.shed_policy_name o.cfg.shed));
      ("arrived", Json.Int o.arrived);
      ("served", Json.Int o.served);
      ("shed", Json.Int o.shed_count);
      ("shed_rate", Json.Float o.shed_rate);
      ("slo_cycles", Json.Int o.slo_cycles);
      ("slo_violations", Json.Int o.slo_violations);
      ("slo_violation_rate", Json.Float o.slo_violation_rate);
      ("goodput_rate", Json.Float o.goodput_rate);
      ("mean_service_cycles", Json.Float o.mean_service_cycles);
      ("queue_wait_cycles", latency_json o.queue_wait);
      ("service_cycles", latency_json o.service);
      ("total_latency_cycles", latency_json o.total);
      ("cold_hit_rate", Json.Float o.cold_hit_rate);
      ("warm_hit_rate", Json.Float o.warm_hit_rate);
      ("aggregate_hit_rate", Json.Float o.aggregate_hit_rate);
      ("makespan_cycles", Json.Int o.makespan_cycles);
      ("throughput_rps", Json.Float o.throughput_rps);
      ("offered_rps", Json.Float o.offered_rps);
      ("contention_cycles", Json.Int o.contention_cycles);
      ("shared_accesses", Json.Int o.shared_accesses);
      ("contended_accesses", Json.Int o.contended_accesses);
      ("trace_unmatched_ends", Json.Int o.trace_unmatched_ends);
    ]
    @ warm_fields)

(* One report row per outcome: the serve registry concatenated with each
   node's shared-level registry, named n<j>.cluster.<metric> as in a cluster
   row (names are disjoint and the union re-sorted, keeping series —
   Registry.merge would drop them). sim_wall_seconds enters the summary
   only on request, so default reports stay byte-identical across machines
   and --jobs settings while the smoke artifact can still gate simulator
   throughput with a loose tolerance. *)
let report_runs ?(wall = false) outcomes =
  List.map
    (fun o ->
      let metrics =
        List.concat_map
          (fun (who, snap) ->
            if who = "serve" then snap
            else if String.ends_with ~suffix:".cluster" who then
              List.map (fun (k, v) -> (who ^ "." ^ k, v)) snap
            else [])
          o.snapshots
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      {
        Report.benchmark = String.concat "+" o.cfg.cluster.Corun.workloads;
        config = label o.cfg;
        summary =
          [
            ("makespan_cycles", Json.Int o.makespan_cycles);
            ("throughput_rps", Json.Float o.throughput_rps);
            ("shed_rate", Json.Float o.shed_rate);
            ("slo_violation_rate", Json.Float o.slo_violation_rate);
            ("aggregate_hit_rate", Json.Float o.aggregate_hit_rate);
          ]
          @ (if wall then [ ("sim_wall_seconds", Json.Float o.sim_wall_seconds) ] else []);
        metrics = Registry.decimate ~cap:Cluster.default_series_cap metrics;
        sections =
          [ ("service", service_json o); ("cluster", o.cluster_section) ]
          @
          match o.timeline with
          | None -> []
          | Some tl -> [ ("timeline", Timeline.to_json tl); ("alerts", Alert.to_json o.alerts) ];
      })
    outcomes

let report ?wall outcomes =
  let runs = report_runs ?wall outcomes in
  let extra =
    [
      ("root_seed", Json.Str (Int64.to_string (Rng.root_seed ())));
      ("saturation", saturation_json (saturation outcomes));
    ]
  in
  Report.make ~extra runs

let write_report ?wall path outcomes =
  Json.write_file ~indent:2 path (report ?wall outcomes)

let write_trace o path = Tracer.write o.tracer path
