(* Tests for the open-loop service model: arrival-process reproducibility,
   the open dispatcher's admission-order (FIFO) invariant and its closed
   degenerate equivalence with Schedule.dispatch, histogram-interpolated
   percentiles against the raw-array percentile, serve report byte-identity
   across --jobs, shed-rate monotonicity in offered load, bit-identity of
   the Closed serve against a 1-node Cluster.run (and of its "cluster"
   section at 1 and 2 nodes), SLO accounting, the
   balanced request timeline, and the diff gate over the "service" report
   section. *)

module Arrival = Axmemo_serve.Arrival
module Serve = Axmemo_serve.Serve
module Schedule = Axmemo_multicore.Schedule
module Corun = Axmemo_multicore.Corun
module Cluster = Axmemo_cluster.Cluster
module Registry = Axmemo_telemetry.Registry
module Tracer = Axmemo_telemetry.Tracer
module Stats = Axmemo_util.Stats
module Json = Axmemo_util.Json
module Diff = Axmemo_obs.Diff
module Runner = Axmemo.Runner
module W = Axmemo_workloads

(* --- arrivals ----------------------------------------------------------- *)

let kind_of_int = function
  | 0 -> Arrival.Closed
  | 1 -> Arrival.Poisson
  | 2 -> Arrival.Bursty { duty = 0.5 }
  | _ -> Arrival.Diurnal { amplitude = 0.6; periods = 2.0 }

let qcheck_arrival_reproducible =
  QCheck.Test.make ~name:"arrivals reproducible, sorted, round-robin" ~count:100
    QCheck.(triple (int_bound 3) int (int_bound 40))
    (fun (k, seed, requests) ->
      let kind = kind_of_int k in
      let gen () =
        Arrival.generate kind ~seed:(Int64.of_int seed) ~rate:0.01
          ~workloads:[ "a"; "b"; "c" ] ~requests
      in
      let xs = gen () in
      let sorted =
        let rec ok = function
          | a :: (b : Schedule.arrival) :: tl ->
              a.Schedule.at <= b.Schedule.at && ok (b :: tl)
          | _ -> true
        in
        ok xs
      in
      let round_robin =
        List.for_all
          (fun (a : Schedule.arrival) ->
            a.Schedule.request.Schedule.workload
            = List.nth [ "a"; "b"; "c" ] (a.Schedule.request.Schedule.rid mod 3))
          xs
      in
      List.length xs = requests
      && sorted && round_robin
      && List.for_all (fun (a : Schedule.arrival) -> a.Schedule.at >= 0) xs
      && xs = gen ())

let test_arrival_closed () =
  let xs =
    Arrival.generate Arrival.Closed ~seed:7L ~rate:0.0 ~workloads:[ "x" ]
      ~requests:5
  in
  Alcotest.(check (list int))
    "all at cycle 0" [ 0; 0; 0; 0; 0 ]
    (List.map (fun (a : Schedule.arrival) -> a.Schedule.at) xs)

let test_arrival_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative count" true
    (raises (fun () ->
         ignore
           (Arrival.generate Arrival.Poisson ~seed:1L ~rate:1.0
              ~workloads:[ "x" ] ~requests:(-1))));
  Alcotest.(check bool) "zero rate" true
    (raises (fun () ->
         ignore
           (Arrival.generate Arrival.Poisson ~seed:1L ~rate:0.0
              ~workloads:[ "x" ] ~requests:3)));
  Alcotest.(check bool) "empty mix" true
    (raises (fun () ->
         ignore
           (Arrival.generate Arrival.Poisson ~seed:1L ~rate:1.0 ~workloads:[]
              ~requests:3)));
  Alcotest.(check bool) "bad duty" true
    (raises (fun () ->
         ignore
           (Arrival.generate
              (Arrival.Bursty { duty = 1.5 })
              ~seed:1L ~rate:1.0 ~workloads:[ "x" ] ~requests:3)));
  Alcotest.(check bool) "bad amplitude" true
    (raises (fun () ->
         ignore
           (Arrival.generate
              (Arrival.Diurnal { amplitude = 1.0; periods = 2.0 })
              ~seed:1L ~rate:1.0 ~workloads:[ "x" ] ~requests:3)))

(* Poisson arrivals scale exactly with 1/rate for a fixed seed: the stream
   at a higher rate is the same pattern compressed. *)
let test_poisson_scaling () =
  let at rate =
    List.map
      (fun (a : Schedule.arrival) -> a.Schedule.at)
      (Arrival.generate Arrival.Poisson ~seed:42L ~rate ~workloads:[ "x" ]
         ~requests:20)
  in
  let slow = at 0.001 and fast = at 0.002 in
  List.iter2
    (fun s f ->
      (* int truncation of the exact 2x compression *)
      Alcotest.(check bool)
        "compressed halfway" true
        (abs ((s / 2) - f) <= 1))
    slow fast

(* --- histogram percentiles (satellite: Stats.percentile_of_histogram) --- *)

let bucket_of bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if bounds.(i) >= v then i else go (i + 1) in
  go 0

(* Nearest-rank percentile: the actual sample at rank ceil(p/100 * n). The
   interpolated Stats.percentile can land between two samples that are many
   buckets apart, so the one-bucket pin is against the empirical quantile —
   the value the histogram actually recorded. *)
let nearest_rank values p =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let r = int_of_float (Float.max 1.0 (ceil (p /. 100.0 *. float_of_int n))) in
  sorted.(min (n - 1) (r - 1))

let qcheck_hist_percentile =
  QCheck.Test.make ~name:"histogram percentile within one bucket of raw" ~count:150
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 200) (float_range 1.0 1_000_000.0))
        (float_bound_inclusive 100.0))
    (fun (values, p) ->
      let bounds = Registry.log_bounds ~lo:1.0 ~hi:1e7 ~per_decade:8 in
      let reg = Registry.create () in
      let h = Registry.histogram reg "h" ~bounds in
      Array.iter (Registry.observe h) values;
      match List.assoc "h" (Registry.snapshot reg) with
      | Registry.Histogram hd ->
          let est =
            Stats.percentile_of_histogram ~bounds:hd.Registry.bounds
              ~counts:hd.Registry.counts p
          in
          let raw = nearest_rank values p in
          abs (bucket_of bounds est - bucket_of bounds raw) <= 1
      | _ -> false)

let test_hist_percentile_empty_and_overflow () =
  let bounds = [| 1.0; 10.0; 100.0 |] in
  Alcotest.(check (float 0.0))
    "empty histogram" 0.0
    (Stats.percentile_of_histogram ~bounds ~counts:[| 0; 0; 0; 0 |] 99.0);
  (* Every count in the overflow bucket clamps to the last bound. *)
  Alcotest.(check (float 0.0))
    "overflow clamps" 100.0
    (Stats.percentile_of_histogram ~bounds ~counts:[| 0; 0; 0; 5 |] 50.0)

let test_log_bounds_shape () =
  let b = Registry.log_bounds ~lo:1.0 ~hi:100.0 ~per_decade:2 in
  Alcotest.(check int) "bucket count" 5 (Array.length b);
  Alcotest.(check (float 1e-9)) "first" 1.0 b.(0);
  Alcotest.(check (float 1e-9)) "last" 100.0 b.(4);
  let ratio = b.(1) /. b.(0) in
  Alcotest.(check (float 1e-9)) "geometric" (sqrt 10.0) ratio;
  Alcotest.(check bool) "validates" true
    (try
       ignore (Registry.log_bounds ~lo:0.0 ~hi:1.0 ~per_decade:1);
       false
     with Invalid_argument _ -> true)

(* --- dispatch_open ------------------------------------------------------ *)

(* A pure, history-free cost function keeps the dispatcher properties
   independent of any simulator state. *)
let cost_of_rid rid = ((rid * 7919) mod 13) + 1

let pure_run (r : Schedule.request) ~core:_ ~start:_ =
  (cost_of_rid r.Schedule.rid, ())

let arrivals_of_times ts =
  List.mapi
    (fun rid at ->
      { Schedule.request = { Schedule.rid; workload = "w" }; at })
    (List.sort compare ts)

let qcheck_dispatch_open_fifo =
  QCheck.Test.make
    ~name:"dispatch_open: deterministic, admission-ordered, conserving"
    ~count:300
    QCheck.(
      quad (int_bound 2) (int_bound 5) bool
        (list_of_size Gen.(int_range 0 25) (int_bound 60)))
    (fun (nc, cap, tail, ts) ->
      let ncores = nc + 1 in
      let shed = if tail then Schedule.Drop_tail else Schedule.Drop_head in
      let arrivals = arrivals_of_times ts in
      let go () =
        Schedule.dispatch_open ~ncores ~queue_capacity:cap ~shed ~run:pure_run
          arrivals
      in
      let placed, shed_list, busy = go () in
      let placed', shed_list', busy' = go () in
      (* Same seed (inputs) => identical placements, bit for bit. *)
      let deterministic =
        placed = placed' && shed_list = shed_list' && busy = busy'
      in
      (* Chronological dispatch; FIFO admission: among served requests,
         rid order implies start order. *)
      let rec nondecreasing f = function
        | a :: b :: tl -> f a <= f b && nondecreasing f (b :: tl)
        | _ -> true
      in
      let starts_chrono =
        nondecreasing (fun (p : unit Schedule.open_placement) -> p.Schedule.start) placed
      in
      let by_rid =
        List.sort
          (fun (a : unit Schedule.open_placement) b ->
            compare a.Schedule.request.Schedule.rid b.Schedule.request.Schedule.rid)
          placed
      in
      let fifo =
        nondecreasing (fun (p : unit Schedule.open_placement) -> p.Schedule.start) by_rid
      in
      let conserving =
        List.length placed + List.length shed_list = List.length arrivals
      in
      let sane =
        List.for_all
          (fun (p : unit Schedule.open_placement) ->
            p.Schedule.start >= p.Schedule.arrival
            && p.Schedule.finish
               = p.Schedule.start + cost_of_rid p.Schedule.request.Schedule.rid
            && p.Schedule.core >= 0 && p.Schedule.core < ncores)
          placed
      in
      deterministic && starts_chrono && fifo && conserving && sane)

let qcheck_dispatch_open_closed_equiv =
  QCheck.Test.make
    ~name:"dispatch_open at cycle 0 with a big queue = dispatch" ~count:200
    QCheck.(pair (int_bound 2) (int_bound 15))
    (fun (nc, n) ->
      let ncores = nc + 1 in
      let requests = Schedule.stream ~workloads:[ "w" ] ~requests:n in
      let closed, busy_c =
        Schedule.dispatch ~ncores ~run:pure_run requests
      in
      let opened, shed, busy_o =
        Schedule.dispatch_open ~ncores ~queue_capacity:n ~shed:Schedule.Drop_tail
          ~run:pure_run
          (List.map (fun r -> { Schedule.request = r; at = 0 }) requests)
      in
      let key_c =
        List.map
          (fun (p : unit Schedule.placement) ->
            (p.Schedule.request.Schedule.rid, p.Schedule.core, p.Schedule.start,
             p.Schedule.finish))
          closed
      in
      let key_o =
        List.map
          (fun (p : unit Schedule.open_placement) ->
            (p.Schedule.request.Schedule.rid, p.Schedule.core, p.Schedule.start,
             p.Schedule.finish))
          opened
      in
      shed = [] && key_c = key_o && busy_c = busy_o)

let test_dispatch_open_capacity_zero_sheds () =
  (* Capacity 0: an arrival that finds every core busy is shed outright. *)
  let arrivals = arrivals_of_times [ 0; 0; 0 ] in
  let placed, shed, _ =
    Schedule.dispatch_open ~ncores:1 ~queue_capacity:0 ~shed:Schedule.Drop_head
      ~run:pure_run arrivals
  in
  Alcotest.(check int) "served" 1 (List.length placed);
  Alcotest.(check int) "shed" 2 (List.length shed)

let test_dispatch_open_drop_head_prefers_fresh () =
  (* One core busy forever-ish, queue of 1: under drop-head the newest
     arrival replaces the waiting one, so the LAST rid eventually runs. *)
  let run (r : Schedule.request) ~core:_ ~start:_ =
    ((if r.Schedule.rid = 0 then 1000 else 10), ())
  in
  let arrivals = arrivals_of_times [ 0; 1; 2; 3 ] in
  let placed, shed, _ =
    Schedule.dispatch_open ~ncores:1 ~queue_capacity:1 ~shed:Schedule.Drop_head
      ~run arrivals
  in
  let served_rids =
    List.map
      (fun (p : unit Schedule.open_placement) -> p.Schedule.request.Schedule.rid)
      placed
  in
  Alcotest.(check (list int)) "newest survives" [ 0; 3 ] served_rids;
  Alcotest.(check (list int))
    "old waiters shed" [ 1; 2 ]
    (List.map (fun (a : Schedule.arrival) -> a.Schedule.request.Schedule.rid) shed)

(* --- serve --------------------------------------------------------------- *)

let base ?(ncores = 2) ?(requests = 10) ?(arrival = Arrival.Poisson)
    ?(load = 1.0) ?(queue = 4) ?(shed = Schedule.Drop_tail) ?(slo = 0)
    ?(workloads = [ "blackscholes" ]) ?l3 ?warm_start ?watch () =
  {
    Serve.cluster =
      {
        Corun.default with
        ncores;
        workloads;
        requests;
        variant = W.Workload.Sample;
        l3;
      };
    nodes = 1;
    arrival;
    load;
    queue_capacity = queue;
    shed;
    slo_cycles = slo;
    warm_start;
    watch;
  }

(* Shared across tests to keep the suite quick. *)
let closed_cfg =
  base ~arrival:Arrival.Closed ~queue:12 ~requests:12
    ~workloads:[ "blackscholes"; "sobel" ] ()

let closed_outcome = lazy (Serve.run closed_cfg)

let norm (r : Runner.result) = { r with Runner.sim_wall_seconds = 0.0 }

(* A closed serve run reports the cluster it ran on: its "cluster" section
   renders byte-identical to Cluster.run's for the same stream, at one node
   and at two, where kmeans' invalidates cross the directory. *)
let check_same_cluster_section name (o : Serve.outcome) (c : Cluster.outcome) =
  Alcotest.(check string) (name ^ ": cluster section")
    (Json.to_string c.Cluster.cluster_section)
    (Json.to_string o.Serve.cluster_section)

let test_closed_serve_equals_corun () =
  let o = Lazy.force closed_outcome in
  let c = Cluster.run { Cluster.default with nodes = 1; node = closed_cfg.Serve.cluster } in
  Alcotest.(check int) "served all" 12 o.Serve.served;
  Alcotest.(check int) "same count" (List.length c.Cluster.requests) o.Serve.served;
  List.iter2
    (fun (s : Serve.request_record) (r : Cluster.request_run) ->
      Alcotest.(check int) "rid" r.Cluster.rid s.Serve.rid;
      Alcotest.(check string) "workload" r.Cluster.workload s.Serve.workload;
      Alcotest.(check int) "core" r.Cluster.gcore s.Serve.core;
      Alcotest.(check int) "start" r.Cluster.start s.Serve.start;
      Alcotest.(check int) "finish" r.Cluster.finish s.Serve.finish;
      Alcotest.(check bool) "result bits" true
        (norm r.Cluster.result = norm s.Serve.result))
    o.Serve.requests c.Cluster.requests;
  Alcotest.(check int) "makespan" c.Cluster.makespan_cycles o.Serve.makespan_cycles;
  check_same_cluster_section "blackscholes+sobel" o c;
  List.iter
    (fun nodes ->
      let cfg =
        {
          (base ~arrival:Arrival.Closed ~queue:12 ~requests:12
             ~workloads:[ "kmeans"; "sobel" ] ())
          with
          Serve.nodes;
        }
      in
      check_same_cluster_section
        (Printf.sprintf "kmeans+sobel, %d node(s)" nodes)
        (Serve.run cfg)
        (Cluster.run { Cluster.default with nodes; node = cfg.Serve.cluster }))
    [ 1; 2 ]

let test_serve_jobs_byte_identical () =
  let cfgs = [ base ~load:0.8 (); base ~load:3.0 ~shed:Schedule.Drop_head () ] in
  let a = Serve.report (Serve.run_matrix ~jobs:1 cfgs) in
  let b = Serve.report (Serve.run_matrix ~jobs:4 cfgs) in
  Alcotest.(check bool) "byte-identical" true
    (Json.to_string ~indent:2 a = Json.to_string ~indent:2 b)

(* A matrix calibrates once per distinct calibration input (the cell's node
   cut to one fault-free core), so cells that differ only in load or core
   count share one; each cell must still read what it reads alone. *)
let test_matrix_equals_cells_alone () =
  let cfgs =
    [
      base ~load:0.8 ();
      base ~ncores:1 ~load:2.0 ();
      base ~load:0.8 ~workloads:[ "sobel"; "blackscholes" ] ();
    ]
  in
  let alone = List.map Serve.run cfgs in
  let matrix = Serve.run_matrix ~jobs:2 cfgs in
  List.iter2
    (fun (a : Serve.outcome) (m : Serve.outcome) ->
      Alcotest.(check (float 0.0)) "same calibration" a.mean_service_cycles
        m.mean_service_cycles)
    alone matrix;
  Alcotest.(check string) "byte-identical reports"
    (Json.to_string ~indent:2 (Serve.report alone))
    (Json.to_string ~indent:2 (Serve.report matrix))

let test_shed_rate_monotone_in_load () =
  let rates =
    List.map
      (fun load ->
        (Serve.run (base ~ncores:1 ~requests:16 ~queue:2 ~load ())).Serve.shed_rate)
      [ 1.0; 8.0; 64.0 ]
  in
  (match rates with
  | [ a; b; c ] ->
      Alcotest.(check bool) (Printf.sprintf "monotone (%g <= %g <= %g)" a b c)
        true
        (a <= b && b <= c);
      Alcotest.(check bool) "saturated load sheds" true (c > 0.0)
  | _ -> Alcotest.fail "expected three rates");
  ()

let test_slo_accounting () =
  let o = Lazy.force closed_outcome in
  (* Auto SLO: the documented multiple of the calibration mean. *)
  Alcotest.(check int) "auto slo" (int_of_float (Serve.slo_auto_factor *. o.Serve.mean_service_cycles))
    o.Serve.slo_cycles;
  let recount =
    List.length
      (List.filter (fun (r : Serve.request_record) -> r.Serve.total > o.Serve.slo_cycles)
         o.Serve.requests)
  in
  Alcotest.(check int) "violations consistent" recount o.Serve.slo_violations;
  (* An explicit 1-cycle SLO is violated by every served request. *)
  let strict = Serve.run { closed_cfg with Serve.slo_cycles = 1 } in
  Alcotest.(check int) "resolved explicit" 1 strict.Serve.slo_cycles;
  Alcotest.(check (float 0.0)) "all violate" 1.0 strict.Serve.slo_violation_rate

let test_warm_beats_cold () =
  let o = Lazy.force closed_outcome in
  Alcotest.(check bool)
    (Printf.sprintf "warm %.3f > cold %.3f" o.Serve.warm_hit_rate o.Serve.cold_hit_rate)
    true
    (o.Serve.warm_hit_rate > o.Serve.cold_hit_rate)

let test_trace_balanced () =
  let o = Lazy.force closed_outcome in
  Alcotest.(check int) "no unmatched ends" 0 o.Serve.trace_unmatched_ends;
  Alcotest.(check bool) "events recorded" true (Tracer.events o.Serve.tracer > 0);
  Alcotest.(check int) "nothing dropped" 0 (Tracer.dropped o.Serve.tracer);
  let serve_snap = List.assoc "serve" o.Serve.snapshots in
  match List.assoc "serve.trace.unmatched_ends" serve_snap with
  | Registry.Counter n -> Alcotest.(check int) "counter mirrors" 0 n
  | _ -> Alcotest.fail "serve.trace.unmatched_ends should be a counter"

let test_latency_histograms_populated () =
  let o = Lazy.force closed_outcome in
  let serve_snap = List.assoc "serve" o.Serve.snapshots in
  (match List.assoc "serve.total_latency_cycles" serve_snap with
  | Registry.Histogram h ->
      Alcotest.(check int) "every served request observed" o.Serve.served
        h.Registry.total
  | _ -> Alcotest.fail "expected a histogram");
  (* p50 <= p99 <= p999 <= upper-clamped max bucket; all positive since
     every request costs cycles. *)
  let l = o.Serve.total in
  Alcotest.(check bool) "ordered percentiles" true
    (l.Serve.p50 <= l.Serve.p99 && l.Serve.p99 <= l.Serve.p999 && l.Serve.p50 > 0.0)

(* A perturbed service section must fail the exact diff gate, and the
   violation must be attributed to a flattened service.* metric. *)
let rec json_map_leaf name f = function
  | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = name then (k, f v) else (k, json_map_leaf name f v))
           kvs)
  | Json.Arr xs -> Json.Arr (List.map (json_map_leaf name f) xs)
  | v -> v

let test_service_section_gated () =
  let o = Lazy.force closed_outcome in
  let report = Serve.report [ o ] in
  (match Diff.diff report report with
  | Ok d -> Alcotest.(check bool) "self-diff gates ok" true (Diff.gate_ok d)
  | Error e -> Alcotest.fail e);
  let perturbed =
    json_map_leaf "shed_rate" (fun _ -> Json.Float 0.5) report
  in
  match Diff.diff report perturbed with
  | Ok d ->
      Alcotest.(check bool) "perturbed fails gate" false (Diff.gate_ok d);
      Alcotest.(check bool) "violation is service.*" true
        (List.exists
           (fun (v : Diff.delta) ->
             String.length v.Diff.metric >= 8
             && String.sub v.Diff.metric 0 8 = "service.")
           d.Diff.violations)
  | Error e -> Alcotest.fail e

let test_saturation_no_shedding () =
  let o = Lazy.force closed_outcome in
  match Serve.saturation [ o ] with
  | [ p ] ->
      Alcotest.(check (float 1e-9)) "sat load" o.Serve.cfg.Serve.load p.Serve.sat_load;
      Alcotest.(check int) "cores" 2 p.Serve.sat_ncores
  | _ -> Alcotest.fail "expected one saturation point"

(* --- suites -------------------------------------------------------------- *)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "serve"
    [
      ( "arrival",
        [
          q qcheck_arrival_reproducible;
          Alcotest.test_case "closed at zero" `Quick test_arrival_closed;
          Alcotest.test_case "validation" `Quick test_arrival_validation;
          Alcotest.test_case "poisson 1/rate scaling" `Quick test_poisson_scaling;
        ] );
      ( "percentiles",
        [
          q qcheck_hist_percentile;
          Alcotest.test_case "empty + overflow" `Quick
            test_hist_percentile_empty_and_overflow;
          Alcotest.test_case "log bounds" `Quick test_log_bounds_shape;
        ] );
      ( "dispatch-open",
        [
          q qcheck_dispatch_open_fifo;
          q qcheck_dispatch_open_closed_equiv;
          Alcotest.test_case "capacity 0" `Quick test_dispatch_open_capacity_zero_sheds;
          Alcotest.test_case "drop-head" `Quick test_dispatch_open_drop_head_prefers_fresh;
        ] );
      ( "serve",
        [
          Alcotest.test_case "closed = corun bits" `Quick test_closed_serve_equals_corun;
          Alcotest.test_case "jobs byte-identical" `Quick test_serve_jobs_byte_identical;
          Alcotest.test_case "matrix = cells alone" `Quick test_matrix_equals_cells_alone;
          Alcotest.test_case "shed monotone in load" `Quick test_shed_rate_monotone_in_load;
          Alcotest.test_case "slo accounting" `Quick test_slo_accounting;
          Alcotest.test_case "warm beats cold" `Quick test_warm_beats_cold;
          Alcotest.test_case "trace balanced" `Quick test_trace_balanced;
          Alcotest.test_case "latency histograms" `Quick test_latency_histograms_populated;
          Alcotest.test_case "service section gated" `Quick test_service_section_gated;
          Alcotest.test_case "saturation point" `Quick test_saturation_no_shedding;
        ] );
    ]
