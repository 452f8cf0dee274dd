(* Tests for the telemetry layer: registry instruments, snapshot merging,
   the tracer, the report schema, and the two end-to-end contracts that make
   telemetry safe to leave attached — observation changes no simulation
   result, and serial vs parallel matrix runs render byte-identical
   reports. *)

module Registry = Axmemo_telemetry.Registry
module Tracer = Axmemo_telemetry.Tracer
module Report = Axmemo_telemetry.Report
module Json = Axmemo_util.Json
module Runner = Axmemo.Runner
module Workload = Axmemo_workloads.Workload
module WReg = Axmemo_workloads.Registry

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Registry instruments *)

let test_counter () =
  let reg = Registry.create () in
  let c = Registry.counter reg "x" in
  check Alcotest.int "zero" 0 (Registry.count c);
  Registry.incr c;
  Registry.add c 4;
  check Alcotest.int "incr+add" 5 (Registry.count c);
  Registry.set_count c 42;
  check Alcotest.int "set" 42 (Registry.count c)

let test_gauge () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "g" in
  check (Alcotest.float 0.0) "zero" 0.0 (Registry.value g);
  Registry.set g 2.5;
  check (Alcotest.float 0.0) "set" 2.5 (Registry.value g)

let test_duplicate_name_rejected () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "dup");
  Alcotest.check_raises "duplicate" (Invalid_argument "Registry: duplicate metric \"dup\"")
    (fun () -> ignore (Registry.gauge reg "dup"))

let test_histogram_bucket_edges () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "h" ~bounds:[| 1.0; 10.0; 100.0 |] in
  (* A value equal to a bound lands in that bound's bucket; above every
     bound lands in overflow. *)
  List.iter (Registry.observe h) [ 0.5; 1.0; 1.5; 10.0; 10.5; 100.0; 100.5 ];
  match List.assoc "h" (Registry.snapshot reg) with
  | Registry.Histogram d ->
      check (Alcotest.array Alcotest.int) "counts" [| 2; 2; 2; 1 |] d.counts;
      check Alcotest.int "total" 7 d.total;
      check (Alcotest.float 1e-9) "sum" 224.0 d.sum
  | _ -> Alcotest.fail "expected histogram"

let test_histogram_bad_bounds () =
  let reg = Registry.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Registry.histogram: empty bounds")
    (fun () -> ignore (Registry.histogram reg "a" ~bounds:[||]));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Registry.histogram: bounds must be strictly increasing") (fun () ->
      ignore (Registry.histogram reg "b" ~bounds:[| 1.0; 1.0 |]))

let test_series_keeps_all_below_cap () =
  let reg = Registry.create () in
  let s = Registry.series reg "s" ~cap:8 () in
  for i = 1 to 5 do
    Registry.sample s ~at:(10 * i) (float_of_int i)
  done;
  match List.assoc "s" (Registry.snapshot reg) with
  | Registry.Series { stride; samples } ->
      check Alcotest.int "stride" 1 stride;
      check
        (Alcotest.array (Alcotest.pair Alcotest.int (Alcotest.float 0.0)))
        "samples"
        [| (10, 1.0); (20, 2.0); (30, 3.0); (40, 4.0); (50, 5.0) |]
        samples
  | _ -> Alcotest.fail "expected series"

let test_series_decimation () =
  let reg = Registry.create () in
  let s = Registry.series reg "s" ~cap:4 () in
  (* After the cap is hit the stride doubles and the retained timestamps
     are exactly the multiples of the new stride. *)
  for i = 1 to 9 do
    Registry.sample s ~at:i (float_of_int i)
  done;
  match List.assoc "s" (Registry.snapshot reg) with
  | Registry.Series { stride; samples } ->
      check Alcotest.int "stride doubled" 2 stride;
      Array.iter
        (fun (at, v) ->
          check Alcotest.int "at multiple of stride" 0 (at mod stride);
          check (Alcotest.float 0.0) "value matches at" (float_of_int at) v)
        samples;
      Alcotest.(check bool) "within cap" true (Array.length samples <= 4)
  | _ -> Alcotest.fail "expected series"

let test_series_deterministic () =
  (* The kept subset depends only on the observation count, never on
     wall-clock: two identical streams produce identical snapshots. *)
  let run () =
    let reg = Registry.create () in
    let s = Registry.series reg "s" ~cap:16 () in
    for i = 1 to 1000 do
      Registry.sample s ~at:i (float_of_int (i * i))
    done;
    Registry.snapshot reg
  in
  Alcotest.(check bool) "identical" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Snapshot merge *)

let test_merge_semantics () =
  let snap hits rate bucket =
    let reg = Registry.create () in
    Registry.set_count (Registry.counter reg "hits") hits;
    Registry.set (Registry.gauge reg "rate") rate;
    Registry.observe (Registry.histogram reg "lat" ~bounds:[| 1.0; 2.0 |]) bucket;
    Registry.sample (Registry.series reg "trail" ()) ~at:1 1.0;
    Registry.snapshot reg
  in
  let merged = Registry.merge [ snap 3 0.25 1.0; snap 4 0.75 2.0 ] in
  (match List.assoc "hits" merged with
  | Registry.Counter c -> check Alcotest.int "counters sum" 7 c
  | _ -> Alcotest.fail "counter");
  (match List.assoc "rate" merged with
  | Registry.Gauge g -> check (Alcotest.float 0.0) "gauge last-wins" 0.75 g
  | _ -> Alcotest.fail "gauge");
  (match List.assoc "lat" merged with
  | Registry.Histogram d ->
      check (Alcotest.array Alcotest.int) "histograms sum bucketwise" [| 1; 1; 0 |] d.counts
  | _ -> Alcotest.fail "histogram");
  Alcotest.(check bool) "series dropped" true (not (List.mem_assoc "trail" merged));
  (* Name-sorted result. *)
  let names = List.map fst merged in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

let test_merge_histogram_bounds_mismatch () =
  (* Same name, different bucketization: summing counts would silently mix
     incomparable axes, so merge must refuse. *)
  let snap bounds =
    let reg = Registry.create () in
    Registry.observe (Registry.histogram reg "lat" ~bounds) 1.0;
    Registry.snapshot reg
  in
  Alcotest.check_raises "bounds differ"
    (Invalid_argument "Registry.merge: histogram \"lat\" bounds differ") (fun () ->
      ignore (Registry.merge [ snap [| 1.0; 2.0 |]; snap [| 1.0; 4.0 |] ]))

let test_merge_series_different_strides () =
  (* Series never aggregate across runs, whatever their strides: a dense
     stride-1 series and a decimated stride-16 series under one name both
     drop silently while every other instrument still merges. *)
  let snap n =
    let reg = Registry.create () in
    let s = Registry.series reg "trail" ~cap:4 () in
    for i = 1 to n do
      Registry.sample s ~at:i (float_of_int i)
    done;
    Registry.incr (Registry.counter reg "runs");
    Registry.snapshot reg
  in
  let stride snap =
    match List.assoc "trail" snap with
    | Registry.Series { stride; _ } -> stride
    | _ -> Alcotest.fail "expected series"
  in
  let a = snap 3 and b = snap 64 in
  Alcotest.(check bool) "strides really differ" true (stride a <> stride b);
  let merged = Registry.merge [ a; b ] in
  Alcotest.(check bool) "series dropped" true (not (List.mem_assoc "trail" merged));
  match List.assoc "runs" merged with
  | Registry.Counter c -> check Alcotest.int "counters still sum" 2 c
  | _ -> Alcotest.fail "expected counter"

let test_merge_incompatible () =
  let snap_counter () =
    let reg = Registry.create () in
    Registry.incr (Registry.counter reg "m");
    Registry.snapshot reg
  in
  let snap_gauge () =
    let reg = Registry.create () in
    Registry.set (Registry.gauge reg "m") 1.0;
    Registry.snapshot reg
  in
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry.merge: metric \"m\" kind mismatch") (fun () ->
      ignore (Registry.merge [ snap_counter (); snap_gauge () ]))

(* ------------------------------------------------------------------ *)
(* Tracer *)

let test_tracer_events_and_json () =
  let clock = ref 0 in
  let tr = Tracer.create ~clock:(fun () -> !clock) () in
  Tracer.begin_span tr "main";
  clock := 100;
  Tracer.instant tr "lut_miss";
  clock := 250;
  Tracer.end_span tr "main";
  check Alcotest.int "three events" 3 (Tracer.events tr);
  check Alcotest.int "none dropped" 0 (Tracer.dropped tr);
  match Tracer.to_json tr with
  | Json.Obj fields ->
      Alcotest.(check bool) "has traceEvents" true (List.mem_assoc "traceEvents" fields);
      let evs =
        match List.assoc "traceEvents" fields with Json.Arr l -> l | _ -> []
      in
      (* metadata + B + i + E *)
      check Alcotest.int "event count" 4 (List.length evs);
      let phases =
        List.filter_map
          (function
            | Json.Obj f -> (
                match List.assoc_opt "ph" f with Some (Json.Str p) -> Some p | _ -> None)
            | _ -> None)
          evs
      in
      Alcotest.(check (list string)) "phases" [ "M"; "B"; "i"; "E" ] phases
  | _ -> Alcotest.fail "expected object"

let tracer_phases tr =
  match Tracer.to_json tr with
  | Json.Obj fields ->
      let evs = match List.assoc "traceEvents" fields with Json.Arr l -> l | _ -> [] in
      List.filter_map
        (function
          | Json.Obj f -> (
              match List.assoc_opt "ph" f with Some (Json.Str p) -> Some p | _ -> None)
          | _ -> None)
        evs
  | _ -> Alcotest.fail "expected object"

let test_tracer_interleaved_same_name () =
  (* Two nested "f" spans: each E closes the innermost open Begin of that
     name (Chrome's own pairing), so the recorded stream is B B E E. The
     third end_span has no open "f" left — recording it would steal the
     closing E of whatever encloses the spans, so it is counted and
     discarded instead. *)
  let clock = ref 0 in
  let tr = Tracer.create ~clock:(fun () -> !clock) () in
  Tracer.begin_span tr "f";
  incr clock;
  Tracer.begin_span tr "f";
  incr clock;
  Tracer.end_span tr "f";
  incr clock;
  Tracer.end_span tr "f";
  incr clock;
  Tracer.end_span tr "f";
  check Alcotest.int "four events recorded" 4 (Tracer.events tr);
  check Alcotest.int "stray end counted" 1 (Tracer.unmatched_ends tr);
  (* Stream stays balanced; the stray surfaces as a counter event. *)
  Alcotest.(check (list string))
    "phases" [ "M"; "B"; "B"; "E"; "E"; "C" ] (tracer_phases tr)

let test_tracer_end_of_capped_begin_suppressed () =
  (* A Begin that fell to the buffer cap is not an open span: its End must
     also be suppressed, or the E would close some earlier stored span and
     corrupt the stream. *)
  let tr = Tracer.create ~max_events:2 ~clock:(fun () -> 0) () in
  Tracer.begin_span tr "outer";
  Tracer.instant tr "tick";
  Tracer.begin_span tr "inner" (* dropped: buffer full *);
  Tracer.end_span tr "inner" (* its Begin was never stored -> stray *);
  Tracer.end_span tr "outer" (* also over cap, but correctly dropped *);
  check Alcotest.int "stored" 2 (Tracer.events tr);
  check Alcotest.int "begin+end dropped" 2 (Tracer.dropped tr);
  check Alcotest.int "capped begin's end is stray" 1 (Tracer.unmatched_ends tr);
  Alcotest.(check (list string))
    "phases" [ "M"; "B"; "i"; "C"; "C" ] (tracer_phases tr)

let test_tracer_bounded () =
  let tr = Tracer.create ~max_events:4 ~clock:(fun () -> 0) () in
  for _ = 1 to 10 do
    Tracer.instant tr "tick"
  done;
  check Alcotest.int "kept max_events" 4 (Tracer.events tr);
  check Alcotest.int "rest dropped" 6 (Tracer.dropped tr);
  match Tracer.to_json tr with
  | Json.Obj fields ->
      let evs =
        match List.assoc "traceEvents" fields with Json.Arr l -> l | _ -> []
      in
      (* metadata + 4 instants + dropped-counter event *)
      check Alcotest.int "events + dropped marker" 6 (List.length evs)
  | _ -> Alcotest.fail "expected object"

(* ------------------------------------------------------------------ *)
(* Report schema *)

(* Golden rendering of a tiny fixed report: locks the schema envelope
   (field order, version, aggregate) and the JSON writer's formatting. *)
let golden_report =
  String.concat "\n"
    [
      "{";
      "  \"schema_version\": 1,";
      "  \"generator\": \"axmemo\",";
      "  \"runs\": [";
      "    {";
      "      \"benchmark\": \"bench\",";
      "      \"config\": \"cfg\",";
      "      \"summary\": {";
      "        \"cycles\": 100";
      "      },";
      "      \"metrics\": {";
      "        \"counters\": {";
      "          \"hits\": 3";
      "        },";
      "        \"gauges\": {},";
      "        \"histograms\": {},";
      "        \"series\": {}";
      "      }";
      "    }";
      "  ],";
      "  \"aggregate\": {";
      "    \"counters\": {";
      "      \"hits\": 3";
      "    },";
      "    \"gauges\": {},";
      "    \"histograms\": {},";
      "    \"series\": {}";
      "  }";
      "}";
    ]

let tiny_report () =
  let reg = Registry.create () in
  Registry.set_count (Registry.counter reg "hits") 3;
  Report.make
    [
      {
        Report.benchmark = "bench";
        config = "cfg";
        summary = [ ("cycles", Json.Int 100) ];
        metrics = Registry.snapshot reg;
        sections = [];
      };
    ]

let test_report_golden () =
  check Alcotest.string "golden" golden_report (Json.to_string ~indent:2 (tiny_report ()))

let test_report_schema_fields () =
  match tiny_report () with
  | Json.Obj fields ->
      Alcotest.(check (list string)) "top-level fields in order"
        [ "schema_version"; "generator"; "runs"; "aggregate" ]
        (List.map fst fields);
      (match List.assoc "schema_version" fields with
      | Json.Int v -> check Alcotest.int "version" Report.schema_version v
      | _ -> Alcotest.fail "schema_version type")
  | _ -> Alcotest.fail "expected object"

let test_report_extra_fields () =
  match Report.make ~extra:[ ("pr", Json.Int 2) ] [] with
  | Json.Obj fields ->
      Alcotest.(check (list string)) "extra appended"
        [ "schema_version"; "generator"; "runs"; "aggregate"; "pr" ]
        (List.map fst fields)
  | _ -> Alcotest.fail "expected object"

let test_report_duplicate_run_rejected () =
  (* Two runs under one (benchmark, config) key would be unaddressable for
     any consumer that aligns runs — axmemo diff foremost. *)
  let run config =
    {
      Report.benchmark = "bench";
      config;
      summary = [];
      metrics = [];
      sections = [];
    }
  in
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Report.make: duplicate run (bench, cfg)") (fun () ->
      ignore (Report.make [ run "cfg"; run "other"; run "cfg" ]));
  (* Distinct configs under one benchmark stay fine. *)
  ignore (Report.make [ run "cfg"; run "other" ])

let test_report_csv () =
  let reg = Registry.create () in
  Registry.set_count (Registry.counter reg "hits") 3;
  Registry.observe (Registry.histogram reg "lat" ~bounds:[| 1.0; 2.0 |]) 1.5;
  let runs =
    [
      {
        Report.benchmark = "a,b";
        config = "c\"d";
        summary = [ ("cycles", Json.Int 7) ];
        metrics = Registry.snapshot reg;
        sections = [];
      };
    ]
  in
  let csv = Report.to_csv runs in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check bool) "header" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 28 = "benchmark,config,metric,valu");
  (* RFC 4180: comma-containing field quoted, quote doubled. *)
  Alcotest.(check bool) "escaped benchmark" true
    (List.exists
       (fun l -> String.length l > 0 && String.sub l 0 12 = "\"a,b\",\"c\"\"d\"")
       lines);
  (* Histogram expands to bucket rows plus total/sum. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (List.exists
           (fun l ->
             match String.index_opt l ',' with
             | Some _ ->
                 List.exists (fun part -> part = needle) (String.split_on_char ',' l)
             | None -> false)
           lines))
    [ "lat.le_1.0"; "lat.le_2.0"; "lat.overflow"; "lat.total"; "lat.sum" ]

(* ------------------------------------------------------------------ *)
(* End-to-end contracts *)

let small_cells () =
  let _, make = Option.get (WReg.find "sobel") in
  [
    (Runner.Baseline, make Workload.Sample);
    (Runner.l1_8k, make Workload.Sample);
    (Runner.software_default, make Workload.Sample);
  ]

let floats_identical a b = Int64.bits_of_float a = Int64.bits_of_float b

let check_result_identical i (a : Runner.result) (b : Runner.result) =
  let msg s = Printf.sprintf "cell %d: %s" i s in
  check Alcotest.int (msg "cycles") a.cycles b.cycles;
  check Alcotest.int (msg "lookups") a.lookups b.lookups;
  check Alcotest.int (msg "hits") a.hits b.hits;
  Alcotest.(check bool)
    (msg "energy bits") true
    (floats_identical a.energy.Axmemo_energy.Model.total_pj
       b.energy.Axmemo_energy.Model.total_pj);
  Alcotest.(check bool) (msg "outputs") true (a.outputs = b.outputs)

let test_telemetry_is_observational () =
  (* Attaching the registry and the tracer must not change any simulation
     result bit. *)
  let plain = Runner.run_matrix ~jobs:1 (small_cells ()) in
  let telem =
    List.map
      (fun (cfg, inst) -> Runner.run ~metrics:(Registry.create ()) ~trace:ignore cfg inst)
      (small_cells ())
  in
  List.iteri (fun i (a, b) -> check_result_identical i a b) (List.combine plain telem)

let report_of pairs =
  let runs =
    List.mapi
      (fun i ((r : Runner.result), snapshot) ->
        {
          Report.benchmark = Printf.sprintf "cell%d" i;
          config = r.label;
          summary = [ ("cycles", Json.Int r.cycles) ];
          metrics = snapshot;
          sections = [];
        })
      pairs
  in
  Json.to_string ~indent:2 (Report.make runs)

(* Each worker builds its cell's registry, so no instrument is shared
   across domains. *)
let telemetry_matrix ~jobs cells =
  Axmemo_util.Pool.run ~jobs
    (fun (cfg, inst) ->
      let reg = Registry.create () in
      let r = Runner.run ~metrics:reg cfg inst in
      (r, Registry.snapshot reg))
    cells

let test_matrix_report_serial_parallel_identical () =
  (* The acceptance bar: a merged metric report rendered from a serial
     matrix run and from a --jobs 4 run are byte-identical. *)
  let serial = report_of (telemetry_matrix ~jobs:1 (small_cells ())) in
  let parallel = report_of (telemetry_matrix ~jobs:4 (small_cells ())) in
  check Alcotest.string "byte-identical report" serial parallel

(* Runs one cell with a registry and a tracer attached; [count prefix] is
   the number of trace instants whose name starts with [prefix]. *)
let traced bench config =
  let _, make = Option.get (WReg.find bench) in
  let reg = Registry.create () and tracer = ref None in
  let trace tr = tracer := Some tr in
  let r = Runner.run ~metrics:reg ~trace config (make Workload.Sample) in
  let tr = Option.get !tracer in
  let msg s = Printf.sprintf "%s %s: %s" bench r.label s in
  check Alcotest.(pair int int) (msg "unmatched ends, dropped") (0, 0)
    (Tracer.unmatched_ends tr, Tracer.dropped tr);
  let instants =
    match Json.member "traceEvents" (Tracer.to_json tr) with
    | Some (Json.Arr events) ->
        List.filter_map
          (fun ev ->
            match (Json.member "ph" ev, Json.member "name" ev) with
            | Some (Json.Str "i"), Some (Json.Str name) -> Some name
            | _ -> None)
          events
    | _ -> Alcotest.fail "trace without traceEvents"
  in
  let count prefix = List.length (List.filter (String.starts_with ~prefix) instants) in
  (r, Registry.snapshot reg, count, msg)

let test_traced_cells_populate () =
  let _, snapshot, _, _ = traced "sobel" Runner.l1_8k in
  let counter name =
    match List.assoc_opt name snapshot with
    | Some (Registry.Counter c) -> c
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check bool) "memo lookups counted" true (counter "memo.lookups" > 0);
  Alcotest.(check bool) "pipeline cycles counted" true (counter "pipeline.cycles" > 0);
  Alcotest.(check bool) "cache accesses counted" true (counter "cache.l1.accesses" > 0);
  (* Cycle attribution and the stats mirror agree with the run. *)
  check Alcotest.int "lookup count mirrors class count"
    (counter "pipeline.class.memo_lookup.count")
    (counter "memo.lookups");
  (match List.assoc_opt "memo.trunc_bits" snapshot with
  | Some (Registry.Histogram d) ->
      check Alcotest.int "trunc histogram saw every send" (counter "memo.sends") d.total
  | _ -> Alcotest.fail "missing memo.trunc_bits histogram");
  (* Memo hardware records one LUT instant per lookup, at the level that
     served it; the other schemes record spans only. *)
  List.iter
    (fun (bench, config) ->
      let r, _, count, msg = traced bench config in
      match config with
      | Runner.Hw_memo _ ->
          check Alcotest.int (msg "hit instants") r.hits (count "lut_hit_");
          check Alcotest.int (msg "miss instants") (r.lookups - r.hits) (count "lut_miss");
          Alcotest.(check bool) (msg "invalidate instants") true (count "lut_invalidate" > 0)
      | _ ->
          check Alcotest.int (msg "LUT and fault instants") 0 (count "lut_" + count "fault_"))
    (List.concat_map
       (fun bench ->
         List.map (fun c -> (bench, c))
           Runner.[ Baseline; l1_8k; l1_8k_l2_512k; software_default; atm_default ])
       [ "sobel"; "kmeans" ]);
  (* A faulty cell records one instant per injected upset. *)
  let faults =
    {
      Axmemo_faults.Fault_model.default with
      seed = 5L;
      rate = 1e-3;
      sites = Axmemo_faults.Fault_model.[ L1_tag; L1_payload; L1_valid; L1_lru ];
    }
  in
  let r, _, count, msg =
    traced "kmeans"
      (Runner.Hw_custom
         {
           label = "l1-faults";
           unit_cfg = { Axmemo_memo.Memo_unit.default_config with faults = Some faults };
           approximate = true;
           crc_bytes_per_cycle = Axmemo_isa.Timing.crc_bytes_per_cycle;
         })
  in
  let injected = (Option.get r.faults).injected_total in
  Alcotest.(check bool) (msg "faults injected") true (injected > 0);
  check Alcotest.int (msg "fault instants") injected (count "fault_")

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "duplicate name" `Quick test_duplicate_name_rejected;
          Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "histogram bad bounds" `Quick test_histogram_bad_bounds;
          Alcotest.test_case "series below cap" `Quick test_series_keeps_all_below_cap;
          Alcotest.test_case "series decimation" `Quick test_series_decimation;
          Alcotest.test_case "series deterministic" `Quick test_series_deterministic;
        ] );
      ( "merge",
        [
          Alcotest.test_case "semantics" `Quick test_merge_semantics;
          Alcotest.test_case "histogram bounds mismatch" `Quick
            test_merge_histogram_bounds_mismatch;
          Alcotest.test_case "series strides" `Quick test_merge_series_different_strides;
          Alcotest.test_case "incompatible" `Quick test_merge_incompatible;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "events and json" `Quick test_tracer_events_and_json;
          Alcotest.test_case "interleaved same-name spans" `Quick
            test_tracer_interleaved_same_name;
          Alcotest.test_case "end of capped begin" `Quick
            test_tracer_end_of_capped_begin_suppressed;
          Alcotest.test_case "bounded buffer" `Quick test_tracer_bounded;
        ] );
      ( "report",
        [
          Alcotest.test_case "golden rendering" `Quick test_report_golden;
          Alcotest.test_case "duplicate run rejected" `Quick
            test_report_duplicate_run_rejected;
          Alcotest.test_case "schema fields" `Quick test_report_schema_fields;
          Alcotest.test_case "extra fields" `Quick test_report_extra_fields;
          Alcotest.test_case "csv" `Quick test_report_csv;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "telemetry is observational" `Slow
            test_telemetry_is_observational;
          Alcotest.test_case "serial == parallel report" `Slow
            test_matrix_report_serial_parallel_identical;
          Alcotest.test_case "traced cells populate" `Slow test_traced_cells_populate;
        ] );
    ]
