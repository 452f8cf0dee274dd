(* Tests for the live windowed timeline and the alert engine: exact
   conservation of per-window deltas under bounded pair-merges (qcheck),
   alert hysteresis semantics and evaluation determinism, byte-identity of
   watched serve reports across --jobs, the diff gate over the flattened
   "timeline"/"alerts" sections, observational purity of the sampler (a
   watch-less run's service section is untouched), the documented
   percentile edge contract, --alerts rule parsing, the exposition
   renderers, the decayed-L3-read quality source reaching the per-window
   traffic counters, and the timeline's traffic totals matching the row's
   cluster section at one and two nodes. *)

module Timeline = Axmemo_watch.Timeline
module Alert = Axmemo_watch.Alert
module Expo = Axmemo_watch.Expo
module Serve = Axmemo_serve.Serve
module Arrival = Axmemo_serve.Arrival
module Corun = Axmemo_multicore.Corun
module Dram = Axmemo_tier.Dram_lut
module Fault_model = Axmemo_faults.Fault_model
module Stats = Axmemo_util.Stats
module Json = Axmemo_util.Json
module Diff = Axmemo_obs.Diff
module Registry = Axmemo_telemetry.Registry
module W = Axmemo_workloads

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- conservation under merges ------------------------------------------ *)

(* Every event lands in exactly one window, merges only coalesce adjacent
   windows, so the per-window deltas must sum exactly to the hand-tracked
   stream aggregates — whatever the event spread. cap 4 with cycles up to
   100k over 7-cycle windows forces many pair-merge rounds. Per-event
   energies are small integral floats, so float summation is exact and
   order-independent. *)
let completion_of ~nodes at =
  {
    Timeline.at;
    node = at mod nodes;
    total_cycles = 1 + (at mod 50);
    queue_wait_cycles = at mod 5;
    slo_ok = at mod 3 <> 0;
    cold = at mod 2 = 0;
    lookups = at mod 7;
    hits = at mod 7 / 2;
    energy_pj = float_of_int (at mod 11);
    traffic =
      {
        Timeline.remote_probes = at mod 2;
        inv_sent = at mod 3;
        net_messages = at mod 4;
        quality_samples = at mod 5;
        quality_bad = at mod 2;
        monitor_trips = 0;
      };
  }

let qcheck_deltas_conserved =
  QCheck.Test.make ~name:"window deltas sum exactly to end-of-run totals"
    ~count:200
    QCheck.(pair (int_bound 3) (small_list (pair (int_bound 2) (int_bound 100_000))))
    (fun (nodes_m1, events) ->
      let nodes = 1 + nodes_m1 in
      let tl = Timeline.create ~cap:4 ~window:7 ~nodes () in
      let admits = ref 0 and sheds = ref 0 and comps = ref 0 in
      let viols = ref 0 and colds = ref 0 in
      let lookups = ref 0 and hits = ref 0 in
      let energy = ref 0.0 in
      let traffic = ref Timeline.traffic_zero in
      List.iter
        (fun (k, at) ->
          match k with
          | 0 ->
              incr admits;
              Timeline.admit tl ~at
          | 1 ->
              incr sheds;
              Timeline.shed tl ~at
          | _ ->
              let c = completion_of ~nodes at in
              incr comps;
              if not c.Timeline.slo_ok then incr viols;
              if c.Timeline.cold then incr colds;
              lookups := !lookups + c.Timeline.lookups;
              hits := !hits + c.Timeline.hits;
              energy := !energy +. c.Timeline.energy_pj;
              traffic := Timeline.traffic_add !traffic c.Timeline.traffic;
              Timeline.complete tl c)
        events;
      let t = Timeline.totals tl in
      Timeline.window_count tl <= 4
      && Timeline.width tl >= Timeline.requested_window tl
      && t.Timeline.total_admitted = !admits
      && t.Timeline.total_shed = !sheds
      && t.Timeline.total_completed = !comps
      && t.Timeline.total_slo_violations = !viols
      && t.Timeline.total_cold = !colds
      && t.Timeline.total_lookups = !lookups
      && t.Timeline.total_hits = !hits
      && t.Timeline.total_energy_pj = !energy
      && t.Timeline.total_traffic = !traffic)

let test_forced_merges_bound_buffer () =
  let tl = Timeline.create ~cap:4 ~window:10 ~nodes:1 () in
  for i = 0 to 99 do
    Timeline.admit tl ~at:(i * 100)
  done;
  Alcotest.(check bool) "merges happened" true (Timeline.merges tl > 0);
  Alcotest.(check bool) "buffer stays bounded" true
    (Timeline.window_count tl <= 4);
  (* The width only ever doubles, so it stays requested * 2^merges. *)
  Alcotest.(check int) "width is requested * 2^merges"
    (10 * (1 lsl Timeline.merges tl))
    (Timeline.width tl);
  Alcotest.(check int) "every admit retained" 100
    (Timeline.totals tl).Timeline.total_admitted

let test_depth_keeps_window_max () =
  let tl = Timeline.create ~cap:8 ~window:10 ~nodes:1 () in
  Timeline.depth tl ~at:5 3;
  Timeline.depth tl ~at:7 9;
  Timeline.depth tl ~at:9 1;
  Alcotest.(check int) "window max depth" 9
    (Timeline.nth_window tl 0).Timeline.w_max_depth

(* --- alert hysteresis ---------------------------------------------------- *)

(* Synthetic shed pattern: breach, breach, clean, clean, breach. With
   fire_after = 2 / clear_after = 2 the machine fires once at w1, clears at
   w3, and the trailing lone breach at w4 never re-fires. *)
let test_hysteresis_fire_and_clear () =
  let tl = Timeline.create ~cap:8 ~window:10 ~nodes:1 () in
  let feed w ~admit ~shed =
    let at = (w * 10) + 1 in
    for _ = 1 to admit do
      Timeline.admit tl ~at
    done;
    for _ = 1 to shed do
      Timeline.shed tl ~at
    done
  in
  feed 0 ~admit:1 ~shed:3;
  feed 1 ~admit:1 ~shed:3;
  feed 2 ~admit:3 ~shed:0;
  feed 3 ~admit:3 ~shed:0;
  feed 4 ~admit:1 ~shed:3;
  let rules = [ Alert.Shed_ceiling { max_rate = 0.5 } ] in
  match
    Alert.evaluate ~hysteresis:{ Alert.fire_after = 2; clear_after = 2 } rules tl
  with
  | [ r ] ->
      Alcotest.(check int) "fired once" 1 r.Alert.fired;
      Alcotest.(check int) "fired at w1" 1 r.Alert.first_fire;
      Alcotest.(check int) "last fire w1" 1 r.Alert.last_fire;
      (* Active through w1 (fire) and w2 (first clean window of two). *)
      Alcotest.(check int) "windows active" 2 r.Alert.windows_active;
      Alcotest.(check (list (pair int bool))) "transitions"
        [ (1, true); (3, false) ]
        (List.map
           (fun (t : Alert.transition) -> (t.Alert.tr_window, t.Alert.tr_firing))
           r.Alert.transitions)
  | _ -> Alcotest.fail "expected one rule result"

let test_hysteresis_validation () =
  let tl = Timeline.create ~window:10 ~nodes:1 () in
  Alcotest.check_raises "fire_after >= 1"
    (Invalid_argument "Alert.evaluate: hysteresis thresholds must be >= 1")
    (fun () ->
      ignore
        (Alert.evaluate ~hysteresis:{ Alert.fire_after = 0; clear_after = 2 }
           Alert.default_rules tl))

(* --- watched serve runs --------------------------------------------------- *)

let wbase ?(load = 1.0) ?(watch = Some Serve.default_watch) ?faults ?l3
    ?(l1_bytes = Corun.default.Corun.l1_bytes)
    ?(shared_l2_bytes = Corun.default.Corun.shared_l2_bytes) () =
  {
    Serve.default with
    cluster =
      {
        Corun.default with
        ncores = 2;
        workloads = [ "blackscholes"; "sobel" ];
        requests = 12;
        variant = W.Workload.Sample;
        faults;
        l3;
        l1_bytes;
        shared_l2_bytes;
      };
    arrival = Arrival.Poisson;
    load;
    queue_capacity = 4;
    watch;
  }

let watched = lazy (Serve.run (wbase ()))

let test_watched_deltas_match_service () =
  let o = Lazy.force watched in
  match o.Serve.timeline with
  | None -> Alcotest.fail "watch on but no timeline"
  | Some tl ->
      let t = Timeline.totals tl in
      Alcotest.(check int) "admitted = arrived - shed"
        (o.Serve.arrived - o.Serve.shed_count)
        t.Timeline.total_admitted;
      Alcotest.(check int) "shed" o.Serve.shed_count t.Timeline.total_shed;
      Alcotest.(check int) "completed" o.Serve.served t.Timeline.total_completed;
      Alcotest.(check int) "slo violations" o.Serve.slo_violations
        t.Timeline.total_slo_violations;
      Alcotest.(check bool) "alerts evaluated" true (o.Serve.alerts <> [])

let test_evaluate_deterministic () =
  let o = Lazy.force watched in
  match o.Serve.timeline with
  | None -> Alcotest.fail "watch on but no timeline"
  | Some tl ->
      let a = Alert.evaluate Alert.default_rules tl in
      let b = Alert.evaluate Alert.default_rules tl in
      Alcotest.(check bool) "identical results" true (a = b);
      Alcotest.(check string) "identical json"
        (Json.to_string (Alert.to_json a))
        (Json.to_string (Alert.to_json b))

let test_watched_jobs_byte_identical () =
  let cfgs = [ wbase ~load:0.8 (); wbase ~load:3.0 () ] in
  let a = Serve.report (Serve.run_matrix ~jobs:1 cfgs) in
  let b = Serve.report (Serve.run_matrix ~jobs:3 cfgs) in
  Alcotest.(check bool) "byte-identical incl. timeline + alerts" true
    (Json.to_string ~indent:2 a = Json.to_string ~indent:2 b)

(* The sampler is purely observational: switching the watch off must not
   move a single service metric, and the watch-less report must not grow
   the new sections. *)
let first_run report =
  match Json.member "runs" report with
  | Some (Json.Arr (r :: _)) -> r
  | _ -> Alcotest.fail "report has no runs"

let test_watchless_run_inert () =
  let on = first_run (Serve.report [ Lazy.force watched ]) in
  let off = first_run (Serve.report [ Serve.run (wbase ~watch:None ()) ]) in
  Alcotest.(check bool) "watched run has timeline" true
    (Json.member "timeline" on <> None);
  Alcotest.(check bool) "watch-less run has no timeline" true
    (Json.member "timeline" off = None);
  Alcotest.(check bool) "watch-less run has no alerts" true
    (Json.member "alerts" off = None);
  match (Json.member "service" on, Json.member "service" off) with
  | Some a, Some b ->
      Alcotest.(check string) "service section untouched by the watch"
        (Json.to_string ~indent:2 b)
        (Json.to_string ~indent:2 a)
  | _ -> Alcotest.fail "service section missing"

(* --- diff gate over the new sections ------------------------------------- *)

let rec json_map_leaf name f = function
  | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = name then (k, f v) else (k, json_map_leaf name f v))
           kvs)
  | Json.Arr xs -> Json.Arr (List.map (json_map_leaf name f) xs)
  | v -> v

let check_perturbation_gated report ~leaf ~value ~prefix =
  let perturbed = json_map_leaf leaf (fun _ -> value) report in
  match Diff.diff report perturbed with
  | Ok d ->
      Alcotest.(check bool) (Printf.sprintf "%s perturbation fails gate" prefix)
        false (Diff.gate_ok d);
      Alcotest.(check bool) (Printf.sprintf "violation is %s*" prefix) true
        (List.exists
           (fun (v : Diff.delta) ->
             String.length v.Diff.metric >= String.length prefix
             && String.sub v.Diff.metric 0 (String.length prefix) = prefix)
           d.Diff.violations)
  | Error e -> Alcotest.fail e

let test_timeline_and_alert_sections_gated () =
  let report = Serve.report [ Lazy.force watched ] in
  (match Diff.diff report report with
  | Ok d -> Alcotest.(check bool) "self-diff gates ok" true (Diff.gate_ok d)
  | Error e -> Alcotest.fail e);
  check_perturbation_gated report ~leaf:"requested_window_cycles"
    ~value:(Json.Int 123456) ~prefix:"timeline.";
  check_perturbation_gated report ~leaf:"first_fire_window"
    ~value:(Json.Int 99) ~prefix:"alerts."

(* --- percentile edge contract (satellite fix) ----------------------------- *)

let test_percentile_edges () =
  let bounds = [| 1.0; 2.0 |] in
  Alcotest.(check (option (float 0.0))) "empty histogram is None" None
    (Stats.percentile_of_histogram_opt ~bounds ~counts:[| 0; 0; 0 |] 50.0);
  Alcotest.(check (float 0.0)) "non-opt collapses empty to 0" 0.0
    (Stats.percentile_of_histogram ~bounds ~counts:[| 0; 0; 0 |] 50.0);
  (* Overflow-only mass clamps to the last bound — the histogram's
     resolution limit — instead of dividing into the unbounded bucket. *)
  Alcotest.(check (option (float 0.0))) "all-overflow clamps to last bound"
    (Some 2.0)
    (Stats.percentile_of_histogram_opt ~bounds ~counts:[| 0; 0; 5 |] 99.9);
  (* Out-of-range p clamps to the first/last recorded sample. *)
  let bounds1 = [| 10.0 |] and counts1 = [| 4; 0 |] in
  Alcotest.(check (float 1e-9)) "p < 0 clamps like p = 0"
    (Stats.percentile_of_histogram ~bounds:bounds1 ~counts:counts1 0.0)
    (Stats.percentile_of_histogram ~bounds:bounds1 ~counts:counts1 (-50.0));
  Alcotest.(check (float 1e-9)) "p > 100 clamps like p = 100"
    (Stats.percentile_of_histogram ~bounds:bounds1 ~counts:counts1 100.0)
    (Stats.percentile_of_histogram ~bounds:bounds1 ~counts:counts1 200.0);
  Alcotest.check_raises "NaN percentile raises"
    (Invalid_argument "Stats.percentile_of_histogram: non-finite percentile")
    (fun () ->
      ignore (Stats.percentile_of_histogram_opt ~bounds ~counts:[| 1; 0; 0 |] Float.nan));
  Alcotest.check_raises "length mismatch raises"
    (Invalid_argument "Stats.percentile_of_histogram: counts must be bounds+1 long")
    (fun () ->
      ignore (Stats.percentile_of_histogram_opt ~bounds ~counts:[| 1; 0 |] 50.0))

(* --- --alerts rule parsing ------------------------------------------------ *)

let test_parse_rules () =
  Alcotest.(check bool) "empty spec keeps defaults" true
    (Alert.parse_rules "" = Ok Alert.default_rules);
  Alcotest.(check bool) "\"default\" keeps defaults" true
    (Alert.parse_rules "default" = Ok Alert.default_rules);
  (match Alert.parse_rules "slo-budget=0.2, storm-max=64" with
  | Ok (Alert.Slo_burn { budget; fast_burn; _ } :: rest) ->
      Alcotest.(check (float 0.0)) "budget overridden" 0.2 budget;
      Alcotest.(check (float 0.0)) "fast default kept" 2.0 fast_burn;
      Alcotest.(check bool) "storm overridden" true
        (List.exists
           (function
             | Alert.Directory_storm { max_per_window } -> max_per_window = 64
             | _ -> false)
           rest)
  | Ok _ -> Alcotest.fail "slo_burn must stay first"
  | Error e -> Alcotest.fail e);
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "unknown key rejected" true
    (is_error (Alert.parse_rules "bogus=1"));
  Alcotest.(check bool) "negative threshold rejected" true
    (is_error (Alert.parse_rules "slo-budget=-1"));
  Alcotest.(check bool) "missing '=' rejected" true
    (is_error (Alert.parse_rules "slo-budget"))

(* --- exposition renderers ------------------------------------------------- *)

let test_expo_renders () =
  let o = Lazy.force watched in
  match o.Serve.timeline with
  | None -> Alcotest.fail "watch on but no timeline"
  | Some tl ->
      let prom = Expo.prometheus tl o.Serve.alerts in
      Alcotest.(check bool) "prometheus has HELP/TYPE headers" true
        (contains prom "# HELP" && contains prom "# TYPE");
      Alcotest.(check bool) "prometheus namespaced + windowed" true
        (contains prom "axmemo_" && contains prom "{window=\"0\"}");
      Alcotest.(check bool) "prometheus exports alert rules" true
        (contains prom "alert_fired_total{rule=\"slo_burn\"}");
      let log = Expo.window_log tl in
      Alcotest.(check int) "one JSONL line per window"
        (Timeline.window_count tl)
        (List.length
           (List.filter (fun l -> l <> "") (String.split_on_char '\n' log)));
      Alcotest.(check string) "sparkline scales to max" "\xe2\x96\x81\xe2\x96\x88"
        (Expo.sparkline [| 0.0; 9.0 |]);
      (match
         Expo.render_timeline
           ~alerts:(Alert.to_json o.Serve.alerts)
           ~label:(Serve.label o.Serve.cfg)
           (Timeline.to_json tl)
       with
      | Ok rendered ->
          Alcotest.(check bool) "table header present" true (contains rendered "admit")
      | Error e -> Alcotest.fail e);
      (* A report built from this outcome feeds `axmemo top`. *)
      (match Expo.top_of_report (Serve.report [ o ]) with
      | Ok s -> Alcotest.(check bool) "top renders the run" true (contains s "win")
      | Error e -> Alcotest.fail e);
      match Expo.top_of_report (Serve.report [ Serve.run (wbase ~watch:None ()) ]) with
      | Ok _ -> Alcotest.fail "top must reject a watch-less report"
      | Error _ -> ()

(* A timeline `top` cannot render faithfully is an error naming the run and
   the field, never a table of zeros. *)
let test_top_rejects_malformed () =
  let report timeline =
    Json.Obj
      [
        ( "runs",
          Json.Arr
            [ Json.Obj [ ("benchmark", Json.Str "b"); ("config", Json.Str "c");
                         ("timeline", timeline) ] ] );
      ]
  in
  let window admitted =
    Json.Obj
      (List.map
         (fun k -> (k, if k = "admitted" then admitted else Json.Int 1))
         [ "admitted"; "shed"; "completed"; "slo_violations"; "p50"; "p99";
           "max_queue_depth"; "quality_bad"; "inv_sent" ])
  in
  let timeline ?(windows = Json.Int 1) w0 =
    Json.Obj
      [ ("window_cycles", Json.Int 10); ("windows", windows); ("merges", Json.Int 0);
        ("w0", w0) ]
  in
  (match Expo.top_of_report (report (timeline (window (Json.Int 3)))) with
  | Ok s -> Alcotest.(check bool) "well-formed renders" true (contains s "1 windows")
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (name, tl) ->
      match Expo.top_of_report (report tl) with
      | Ok _ -> Alcotest.failf "%s: rendered" name
      | Error e -> Alcotest.(check bool) (name ^ " names the run") true (contains e "b / c: "))
    [
      ("string windows", timeline ~windows:(Json.Str "many") (window (Json.Int 3)));
      ("string admitted", timeline (window (Json.Str "many")));
      ("null admitted", timeline (window Json.Null));
      ("non-finite admitted", timeline (window (Json.Float Float.infinity)));
      ("windows beyond members", timeline ~windows:(Json.Int 3_000_000) (window (Json.Int 3)));
      ("fractional windows", timeline ~windows:(Json.Float 0.5) (window (Json.Int 3)));
    ]

(* --- decayed-L3 reads feed the per-window quality counters ---------------- *)

(* Small SRAM LUTs spill into a DRAM tier whose injector decays every
   relaxed payload read (transient, rate 1): each decayed read becomes a
   free quality-monitor sample, which the watch attributes to the serving
   window. A fault-free twin of the same shape bounds the shadow-comparison
   baseline, so the strict increase isolates the decay source. *)
let test_l3_decay_reaches_timeline () =
  let l3 = { Dram.default with Dram.size_bytes = 256 * 1024; row_bytes = 1024 } in
  let faults =
    {
      Fault_model.default with
      Fault_model.rate = 1.0;
      kind = Fault_model.Transient;
      sites = [ Fault_model.L3_payload ];
      seed = 42L;
    }
  in
  let quality cfg =
    match (Serve.run cfg).Serve.timeline with
    | None -> Alcotest.fail "watch on but no timeline"
    | Some tl -> (Timeline.totals tl).Timeline.total_traffic
  in
  let faulty =
    quality (wbase ~l3 ~faults ~l1_bytes:1024 ~shared_l2_bytes:4096 ())
  in
  let clean = quality (wbase ~l3 ~l1_bytes:1024 ~shared_l2_bytes:4096 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "decay adds monitor samples (%d > %d)"
       faulty.Timeline.quality_samples clean.Timeline.quality_samples)
    true
    (faulty.Timeline.quality_samples > clean.Timeline.quality_samples)

(* The timeline's traffic is the cluster's own: its totals equal the
   row's "cluster" section at every node count. One node has no other node
   to tell, so inv_sent is 0 there even though kmeans' phase barrier
   retires invalidates. *)
let test_traffic_matches_cluster_section () =
  List.iter
    (fun nodes ->
      let cfg =
        {
          Serve.default with
          cluster =
            {
              Corun.default with
              workloads = [ "kmeans"; "sobel" ];
              requests = 12;
              variant = W.Workload.Sample;
            };
          nodes;
          arrival = Arrival.Closed;
          watch = Some Serve.default_watch;
        }
      in
      let o = Serve.run cfg in
      let traffic =
        match o.Serve.timeline with
        | None -> Alcotest.fail "watch on but no timeline"
        | Some tl -> (Timeline.totals tl).Timeline.total_traffic
      in
      let section path =
        match
          List.fold_left
            (fun j k -> Option.bind j (Json.member k))
            (Some o.Serve.cluster_section) path
        with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "cluster section has no %s" (String.concat "." path)
      in
      let name = Printf.sprintf "%d node(s)" nodes in
      Alcotest.(check int) (name ^ ": remote_probes") (section [ "remote_probes" ])
        traffic.Timeline.remote_probes;
      Alcotest.(check int) (name ^ ": inv_sent = directory.sent")
        (section [ "directory"; "sent" ]) traffic.Timeline.inv_sent;
      Alcotest.(check int) (name ^ ": net_messages") (section [ "net"; "messages" ])
        traffic.Timeline.net_messages;
      if nodes = 1 then begin
        let retired =
          List.fold_left
            (fun acc (who, snap) ->
              match List.assoc_opt "memo.invalidations" snap with
              | Some (Registry.Counter n) when String.starts_with ~prefix:"n0.core" who ->
                  acc + n
              | _ -> acc)
            0 o.Serve.snapshots
        in
        Alcotest.(check bool) "1 node: invalidates retired" true (retired > 0);
        Alcotest.(check int) "1 node: inv_sent" 0 traffic.Timeline.inv_sent
      end
      else
        Alcotest.(check bool) (name ^ ": node messages sent") true
          (traffic.Timeline.net_messages > 0))
    [ 1; 2 ]

(* --- suites --------------------------------------------------------------- *)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "watch"
    [
      ( "timeline",
        [
          q qcheck_deltas_conserved;
          Alcotest.test_case "forced merges stay bounded" `Quick
            test_forced_merges_bound_buffer;
          Alcotest.test_case "depth keeps window max" `Quick
            test_depth_keeps_window_max;
        ] );
      ( "alerts",
        [
          Alcotest.test_case "hysteresis fire + clear" `Quick
            test_hysteresis_fire_and_clear;
          Alcotest.test_case "hysteresis validation" `Quick
            test_hysteresis_validation;
          Alcotest.test_case "evaluation deterministic" `Quick
            test_evaluate_deterministic;
          Alcotest.test_case "rule parsing" `Quick test_parse_rules;
        ] );
      ( "serve-watch",
        [
          Alcotest.test_case "deltas match service aggregates" `Quick
            test_watched_deltas_match_service;
          Alcotest.test_case "jobs byte-identical" `Quick
            test_watched_jobs_byte_identical;
          Alcotest.test_case "watch-less run inert" `Quick
            test_watchless_run_inert;
          Alcotest.test_case "sections gated" `Quick
            test_timeline_and_alert_sections_gated;
          Alcotest.test_case "l3 decay reaches timeline" `Quick
            test_l3_decay_reaches_timeline;
          Alcotest.test_case "traffic = cluster section" `Quick
            test_traffic_matches_cluster_section;
        ] );
      ( "percentiles",
        [ Alcotest.test_case "edge contract" `Quick test_percentile_edges ] );
      ( "expo",
        [ Alcotest.test_case "renderers" `Quick test_expo_renders;
          Alcotest.test_case "top rejects malformed timelines" `Quick
            test_top_rejects_malformed ] );
    ]
