(* The open-loop saturation ramp: the blackscholes+sobel mix on Sample
   inputs, Poisson arrivals over [Serve.sweep_loads] x {1, 2} simulated
   cores, a few requests per cell with watch on, and the reports rendered to
   JSON. Many short cells make per-cell fixed costs (calibration, cluster
   construction, dispatcher, registry, timeline, tracer, report emission)
   as large a share of host time as they can get. *)

module Runner = Axmemo.Runner
module Workload = Axmemo_workloads.Workload
module Corun = Axmemo_multicore.Corun
module Serve = Axmemo_serve.Serve
module Timeline = Axmemo_watch.Timeline
module Pool = Axmemo_util.Pool
module Json = Axmemo_util.Json

let name = "serve_sweep"
let jobs = 2
let mix = [ "blackscholes"; "sobel" ]
let requests = 8

let configs () =
  List.concat_map
    (fun ncores ->
      List.map
        (fun load ->
          {
            Serve.cluster =
              { Corun.default with ncores; workloads = mix; requests; variant = Workload.Sample };
            nodes = 1;
            arrival = Axmemo_serve.Arrival.Poisson;
            load;
            queue_capacity = 8;
            shed = Axmemo_multicore.Schedule.Drop_tail;
            slo_cycles = 0;
            warm_start = None;
            watch = Some Serve.default_watch;
          })
        Serve.sweep_loads)
    [ 1; 2 ]

let cell_id (cfg : Serve.config) =
  Printf.sprintf "%dc-load%g" cfg.Serve.cluster.Corun.ncores cfg.Serve.load

(* Seed-independent invariants of one served cell. *)
let invariants (o : Serve.outcome) =
  let conserved =
    match o.Serve.timeline with
    | None -> false
    | Some tl ->
        let t = Timeline.totals tl in
        t.Timeline.total_admitted = o.Serve.arrived - o.Serve.shed_count
        && t.Timeline.total_shed = o.Serve.shed_count
        && t.Timeline.total_completed = o.Serve.served
        && t.Timeline.total_slo_violations = o.Serve.slo_violations
  in
  o.Serve.served + o.Serve.shed_count = o.Serve.arrived
  && o.Serve.served = List.length o.Serve.requests
  && o.Serve.trace_unmatched_ends = 0 && conserved

let ops_of cfg = function
  | None -> List.init requests (fun i -> Check.raised (Printf.sprintf "%s/r%d" (cell_id cfg) i))
  | Some (o : Serve.outcome) ->
      let ok = invariants o in
      List.map
        (fun (r : Serve.request_record) ->
          Check.of_result ~ok
            ~id:(Printf.sprintf "%s/r%d" (cell_id cfg) r.Serve.rid)
            ~placement:
              (Printf.sprintf "%d:%d:%d:%d" r.Serve.core r.Serve.arrival r.Serve.start r.Serve.finish)
            r.Serve.result)
        o.Serve.requests

type input = Serve.config list

(* Input generation: the datasets the round's requests run on. [Serve.run]
   builds its own copy per request, inside the timed region; this copy is
   what set-up costs a caller. *)
let setup ledger =
  List.iter (fun b -> ignore (Ledger.span ledger "workloads" (fun () -> Ablation.maker b Workload.Sample))) mix;
  configs ()

let round ~jobs ledger cfgs =
  let (outcomes, (report_bytes, report_s)), wall_s =
    Check.timed (fun () ->
        Ledger.span ledger "round" (fun () ->
            let outcomes =
              Pool.run ~jobs
                (fun cfg ->
                  Ledger.span ledger "serve" (fun () ->
                      match Serve.run cfg with o -> Some o | exception _ -> None))
                cfgs
            in
            let served = List.filter_map Fun.id outcomes in
            let report =
              Check.timed (fun () ->
                  Ledger.span ledger "telemetry" (fun () -> String.length (Json.to_string (Serve.report served))))
            in
            (outcomes, report)))
  in
  let ops = List.concat (List.map2 ops_of cfgs outcomes) in
  let served = List.filter_map Fun.id outcomes in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 served in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let busy_s = List.fold_left (fun acc (o : Serve.outcome) -> acc +. o.Serve.sim_wall_seconds) 0.0 served in
  let steps =
    ("report", report_s)
    :: List.concat
         (List.map2
            (fun cfg -> function Some (o : Serve.outcome) -> [ (cell_id cfg, o.Serve.sim_wall_seconds) ] | None -> [])
            cfgs outcomes)
  in
  let m = Metric.make in
  let layers =
    [
      m "multicore.exec_ms_p50" "ms" (1000.0 *. Pctl.median (List.map (fun (op : Check.op) -> op.host_s) ops));
      m "multicore.contended_frac" "ratio"
        (ratio (sum (fun o -> o.Serve.contended_accesses)) (sum (fun o -> o.Serve.shared_accesses)));
      m "serve.shed_frac" "ratio" (ratio (sum (fun o -> o.Serve.shed_count)) (sum (fun o -> o.Serve.arrived)));
      m "telemetry.report_s" "s" report_s;
      m "telemetry.report_bytes" "bytes" (float_of_int report_bytes);
    ]
  in
  { Check.wall_s; busy_s; steps; ops; layers }

let ablation_cells () = Ablation.cells ~variant:Workload.Sample mix

(* Twin calls made after the traced round, outside any timed region:
   [Serve.calibrate] on each cell, and each cell's watch-less run. *)
let probe (r : Check.round) =
  let cfgs = configs () in
  let calibrate_s = List.fold_left (fun acc cfg -> acc +. snd (Check.timed (fun () -> Serve.calibrate cfg))) 0.0 cfgs in
  let watchless_s =
    List.fold_left
      (fun acc cfg -> acc +. (Serve.run { cfg with Serve.watch = None }).Serve.sim_wall_seconds)
      0.0 cfgs
  in
  let requests_s = List.fold_left (fun acc (op : Check.op) -> acc +. op.host_s) 0.0 r.Check.ops in
  let m = Metric.make in
  [
    m "serve.calibrate_s" "s" calibrate_s;
    m "serve.self_s" "s" (r.Check.busy_s -. calibrate_s -. requests_s);
    m "watch.self_s" "s" (r.Check.busy_s -. watchless_s);
  ]
