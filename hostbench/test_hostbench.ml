(* Tests for the benchmark's own logic: the tail-percentile rule, metric
   names, and failed-op counting against recorded fingerprints. *)

open Hostbench

let pct = Alcotest.(option (float 0.0))

let test_tail_rule () =
  Alcotest.check pct "too few samples" None (Pctl.tail_percentile 19);
  Alcotest.check pct "20 samples: median only" (Some 50.0) (Pctl.tail_percentile 20);
  Alcotest.check pct "99 samples: p90 has 9 beyond" (Some 50.0) (Pctl.tail_percentile 99);
  Alcotest.check pct "100 samples: p90" (Some 90.0) (Pctl.tail_percentile 100);
  Alcotest.check pct "1000 samples: p99" (Some 99.0) (Pctl.tail_percentile 1000);
  Alcotest.check pct "10000 samples: p99.9" (Some 99.9) (Pctl.tail_percentile 10000)

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p90 nearest rank" 90.0 (Pctl.percentile xs 90.0);
  Alcotest.(check (float 0.0)) "p50 nearest rank" 50.0 (Pctl.percentile xs 50.0);
  Alcotest.(check (float 0.0)) "even median" 50.5 (Pctl.median xs);
  Alcotest.(check (float 0.0)) "odd median" 2.0 (Pctl.median [ 3.0; 1.0; 2.0 ])

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "op_ms_p50"; "memo.calls.send"; "core.cell_s.hw"; "9lives"; "a-b" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S rejected" n) false (Metric.valid_name n))
    [ ""; "bad name"; "ms/s"; "_lead"; ".lead"; "caf\xc3\xa9"; String.make 65 'a' ];
  Alcotest.check_raises "make rejects" (Invalid_argument "Metric.make: bad name \"x y\"") (fun () ->
      ignore (Metric.make "x y" "s" 1.0))

let test_result_line () =
  let line =
    Metric.result_line ~correct:true ~attempted:3 ~failed:0 [ Metric.make "wall_s" "s" 1.25 ]
  in
  Alcotest.(check string)
    "shape" "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
    line

let op id fp = { Check.id; fp; ok = true; host_s = 0.001; instrs = 10 }

let test_corrupted_fingerprint () =
  let ops = [ op "a" "0011"; op "b" "2233"; op "c" "4455" ] in
  let reference = Check.table_of_ops ops in
  Alcotest.(check int) "clean" 0 (Check.failures ~reference ops);
  let corrupted = [ op "a" "0011"; op "b" "2234"; op "c" "4455" ] in
  Alcotest.(check int) "one corrupted op" 1 (Check.failures ~reference corrupted);
  Alcotest.(check int) "broken invariant" 1
    (Check.failures ~reference [ op "a" "0011"; { (op "b" "2233") with ok = false }; op "c" "4455" ]);
  Alcotest.(check int) "raised" 1 (Check.failures ~reference [ Check.raised "a"; op "b" "2233"; op "c" "4455" ]);
  Alcotest.(check int) "missing op" 1 (Check.missing ~reference [ op "a" "0011"; op "b" "2233" ]);
  Alcotest.(check int) "unknown op, strict" 1 (Check.failures ~reference [ op "z" "00" ]);
  Alcotest.(check int) "unknown op, lenient" 0 (Check.failures ~strict:false ~reference [ op "z" "00" ])

let round wall_s steps ops = { Check.wall_s; busy_s = 0.0; steps; ops; layers = [] }

let test_floors () =
  let f = Alcotest.(float 1e-12) in
  let slow_a = round 1.0 [ ("a", 0.5); ("b", 0.3) ] [ { (op "x" "") with host_s = 0.4 } ] in
  let slow_b = round 0.9 [ ("a", 0.2); ("b", 0.6) ] [ { (op "x" "") with host_s = 0.1 } ] in
  Alcotest.(check (list (pair string (float 0.0)))) "per id, first-seen order" [ ("a", 0.2); ("b", 0.3) ]
    (Check.fastest [ ("a", 0.5); ("b", 0.3); ("a", 0.2); ("b", 0.6) ]);
  (* rest: 1.0 - 0.8 = 0.2 and 0.9 - 0.8 = 0.1 *)
  Alcotest.check f "each step at its fastest, rest included" (0.2 +. 0.3 +. 0.1) (Check.floor_wall [ slow_a; slow_b ]);
  Alcotest.check f "one round is its own wall" 1.0 (Check.floor_wall [ slow_a ]);
  Alcotest.(check (list (float 0.0))) "op floors" [ 0.1 ] (Check.op_floors [ slow_a; slow_b ]);
  Alcotest.(check (list (float 0.0))) "failed ops left out" []
    (Check.op_floors [ round 1.0 [] [ Check.raised "x" ] ]);
  Alcotest.check f "scale: nominal over fastest, to the exponent" (0.5 ** Calib.exponent)
    (Calib.scale [ 4.0 *. Calib.nominal_s; 2.0 *. Calib.nominal_s ])

let test_fingerprint_sensitivity () =
  Axmemo_util.Rng.set_root_seed 0L;
  let make () =
    match Axmemo_workloads.Registry.find "blackscholes" with
    | Some (_, make) -> make Axmemo_workloads.Workload.Sample
    | None -> Alcotest.fail "blackscholes missing"
  in
  let r = Axmemo.Runner.run Axmemo.Runner.Baseline (make ()) in
  let again = Axmemo.Runner.run Axmemo.Runner.Baseline (make ()) in
  Alcotest.(check string) "deterministic" (Check.fingerprint r) (Check.fingerprint again);
  Alcotest.(check bool) "cycles enter" false
    (Check.fingerprint r = Check.fingerprint { r with Axmemo.Runner.cycles = r.Axmemo.Runner.cycles + 1 });
  Alcotest.(check bool) "placement enters" false
    (Check.fingerprint ~placement:"0:1" r = Check.fingerprint ~placement:"0:2" r)

let test_ledger () =
  let l = Ledger.create ~enabled:true in
  let spin s =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < s do
      ()
    done
  in
  Ledger.span l "round" (fun () ->
      spin 0.002;
      Ledger.span l "core" (fun () -> spin 0.004);
      Ledger.span l "serve" (fun () -> Ledger.span l "telemetry" (fun () -> spin 0.002); spin 0.002));
  let b = Ledger.breakdown l ~root:"round" in
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) b.Ledger.unattributed b.Ledger.layers in
  Alcotest.(check (float 1e-12)) "self times + unattributed = wall" b.Ledger.wall sum;
  Alcotest.(check (list string)) "layers" [ "core"; "serve"; "telemetry" ] (List.map fst b.Ledger.layers);
  List.iter (fun (n, s) -> Alcotest.(check bool) (n ^ " positive") true (s > 0.0)) b.Ledger.layers;
  Alcotest.(check bool) "serve self excludes telemetry" true
    (List.assoc "serve" b.Ledger.layers < Ledger.total l "serve");
  let off = Ledger.create ~enabled:false in
  Alcotest.(check int) "disabled ledger passes through" 7 (Ledger.span off "x" (fun () -> 7))

let () =
  Alcotest.run "hostbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "fastest-repeat floors" `Quick test_floors;
        ] );
      ( "output",
        [
          Alcotest.test_case "metric name charset" `Quick test_metric_names;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ( "check",
        [
          Alcotest.test_case "corrupted fingerprint fails its op" `Quick test_corrupted_fingerprint;
          Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
        ] );
      ("ledger", [ Alcotest.test_case "self times sum to wall" `Quick test_ledger ]);
    ]
