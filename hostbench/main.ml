(* Host-time benchmark of the simulator.

     bash hostbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

   --trace 0 repeats the workload's round on one domain until --seconds have
   passed and at least three rounds ran, then prints the end-to-end metrics. --trace 1
   runs one round at the workload's pool width, one untraced and one traced
   round serially, then the stacked ablation, and prints the per-layer
   ledger. Either way the last stdout line is one JSON object. *)

open Hostbench

module type WORKLOAD = sig
  val name : string
  val jobs : int  (* worker domains of the traced run's pooled round; at most 2 *)

  type input

  val setup : Ledger.t -> input  (* input generation and object construction *)
  val round : jobs:int -> Ledger.t -> input -> Check.round
  val ablation_cells : unit -> Ablation.cell list
  val probe : Check.round -> Metric.t list
end

let workloads : (module WORKLOAD) list =
  [ (module Paper_matrix); (module Serve_sweep); (module Cluster_churn) ]

(* Never used while the benchmark was tuned; its fingerprints are recorded
   so a run on it checks every op against a fixed expectation. *)
let held_out_seed = 9973
let fingerprint_dir = Filename.concat "hostbench" "fingerprints"
let min_rounds = 3
let setups_per_round = 3

(* Peak resident set from /proc (Linux); 0 where it is unavailable. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value ~default:acc (Option.map (fun k -> k /. 1024.0) (float_of_string_opt kb))
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' status)

let off () = Ledger.create ~enabled:false

(* [setups] set-ups, timed, then a round on the last one's input. Each
   starts after a full major collection, so no earlier garbage is collected
   on its clock and at most one set-up's input is live at a time. *)
let round_with_setups (module W : WORKLOAD) ~jobs ~setups ledger =
  let rec set_up n times =
    Gc.full_major ();
    let input, s = Check.timed (fun () -> W.setup ledger) in
    if n <= 1 then (input, List.rev (s :: times)) else set_up (n - 1) (s :: times)
  in
  let input, times = set_up setups [] in
  Gc.full_major ();
  (W.round ~jobs ledger input, times)

let round w ~jobs ledger = fst (round_with_setups w ~jobs ~setups:1 ledger)

let instrs (r : Check.round) = Check.total_instrs r.Check.ops

(* Attempted and failed ops of [rounds] against [reference]. *)
let tally ~reference rounds =
  List.fold_left
    (fun (a, f) (r : Check.round) ->
      let miss = Check.missing ~reference r.Check.ops in
      (a + List.length r.Check.ops + miss, f + Check.failures ~reference r.Check.ops + miss))
    (0, 0) rounds

let print_result ~attempted ~failed metrics =
  Printf.printf "%-28s %14.6g %s\n" "failed_frac" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio";
  print_endline (Metric.result_line ~correct:(failed = 0) ~attempted ~failed metrics)

let reference_of ~name ~seed ~(first : Check.round) =
  match Check.load_recorded ~dir:fingerprint_dir ~workload:name ~seed with
  | Some t -> (t, "recorded")
  | None -> (Check.table_of_ops first.Check.ops, "first round")

(* Rounds run on one domain, so every step of a round is serial and has a
   host time of its own. Before each round the host-speed reference is
   sampled. Each step and each op is the same deterministic work in every
   round, so its fastest repeat is its time without the host's short
   stalls; the reference rescales those to the nominal host speed. *)
let timed_run ((module W : WORKLOAD) as w) ~seed ~seconds =
  let t0 = Check.now () in
  let rec loop acc setups calib =
    let calib = Calib.sample () @ calib in
    let r, s = round_with_setups w ~jobs:1 ~setups:setups_per_round (off ()) in
    let acc = r :: acc and setups = setups @ s in
    if Check.now () -. t0 >= float_of_int seconds && List.length acc >= min_rounds then (List.rev acc, setups, calib)
    else loop acc setups calib
  in
  let rounds, setups, calib = loop [] [] [] in
  let scale = Calib.scale calib in
  let reference, source = reference_of ~name:W.name ~seed ~first:(List.hd rounds) in
  let attempted, failed = tally ~reference rounds in
  let op_ms = List.map (fun s -> 1000.0 *. scale *. s) (Check.op_floors rounds) in
  let tail = Pctl.tail_percentile (List.length op_ms) in
  Printf.printf "rounds %d, distinct ops %d (tail percentile %s), reference fingerprints: %s\n"
    (List.length rounds) (List.length op_ms)
    (match tail with Some p -> Printf.sprintf "p%g" p | None -> "none")
    source;
  Printf.printf "host speed: reference loop fastest %.6f s, nominal %.6f s, exponent %g, scale %.4f\nround wall_s (unscaled):"
    (List.fold_left Float.min infinity calib) Calib.nominal_s Calib.exponent scale;
  List.iter (fun (r : Check.round) -> Printf.printf " %.4f" r.Check.wall_s) rounds;
  print_string "\nsetup_s (unscaled):";
  List.iter (Printf.printf " %.6f") setups;
  print_string "\nreference loop s:";
  List.iter (Printf.printf " %.6f") (List.rev calib);
  print_newline ();
  let wall_s = scale *. Check.floor_wall rounds in
  let m = Metric.make in
  let metrics =
    [
      m "setup_s" "s" (scale *. Pctl.median setups);
      m "wall_s" "s" wall_s;
      m "sim_minstr_per_s" "Minstr/s" (float_of_int (instrs (List.hd rounds)) /. wall_s /. 1e6);
      m "op_ms_p50" "ms" (Pctl.percentile op_ms 50.0);
      m "op_ms_p90" "ms" (Pctl.percentile op_ms 90.0);
      m "peak_rss_mb" "MB" (peak_rss_mb ());
    ]
  in
  List.iter Metric.print_human metrics;
  print_result ~attempted ~failed metrics

(* The pooled round goes first and doubles as the warm-up, so the untraced
   and traced serial twins both run warm and their ratio is the tracing
   overhead. *)
let traced_run ((module W : WORKLOAD) as w) ~seed =
  let pooled = round w ~jobs:W.jobs (off ()) in
  let untraced = round w ~jobs:1 (off ()) in
  let ledger = Ledger.create ~enabled:true in
  let gc0 = Gc.quick_stat () and words0 = Gc.minor_words () in
  let traced = round w ~jobs:1 ledger in
  let words = Gc.minor_words () -. words0 and gc1 = Gc.quick_stat () in
  let ablation = List.map Ablation.run_cell_safe (W.ablation_cells ()) in
  let probed = W.probe traced in
  let reference, source = reference_of ~name:W.name ~seed ~first:pooled in
  let attempted, failed = tally ~reference [ pooled; untraced; traced ] in
  let abl_ops = Ablation.ops ablation in
  let attempted = attempted + List.length abl_ops in
  let failed = failed + Check.failures ~strict:false ~reference abl_ops in
  let b = Ledger.breakdown ledger ~root:"round" in
  Printf.printf "reference fingerprints: %s\n" source;
  Printf.printf "traced wall_s %.6f s = layer self times + unattributed:\n" b.Ledger.wall;
  List.iter (fun (l, s) -> Printf.printf "  self %-22s %12.6f s\n" l s) b.Ledger.layers;
  Printf.printf "  %-27s %12.6f s\n" "unattributed" b.Ledger.unattributed;
  Printf.printf "workload layers (this workload only):\n";
  List.iter (fun mt -> print_string "  "; Metric.print_human mt) (traced.Check.layers @ probed);
  let m = Metric.make in
  let metrics =
    (m "workloads.make_s" "s" (Ledger.total ledger "workloads") :: Ablation.metrics ablation)
    @ [
        m "pool.efficiency" "ratio" (pooled.Check.busy_s /. (pooled.Check.wall_s *. float_of_int W.jobs));
        m "gc.minor_words_per_instr" "words/instr" (words /. float_of_int (max 1 (instrs traced)));
        m "gc.major_collections" "count" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        m "bench.trace_overhead_frac" "ratio" ((traced.Check.wall_s /. untraced.Check.wall_s) -. 1.0);
        m "bench.unattributed_s" "s" b.Ledger.unattributed;
      ]
  in
  Printf.printf "per-layer metrics:\n";
  List.iter Metric.print_human metrics;
  print_result ~attempted ~failed metrics

(* One round plus the ablation, printed as fingerprint lines for
   hostbench/fingerprints/<workload>.txt. *)
let record_run ((module W : WORKLOAD) as w) ~seed =
  let r = round w ~jobs:W.jobs (off ()) in
  let ablation = List.map Ablation.run_cell_safe (W.ablation_cells ()) in
  List.iter print_endline (Check.record_lines ~seed (r.Check.ops @ Ablation.ops ablation))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and record = ref false in
  let names = String.concat ", " (List.map (fun (module W : WORKLOAD) -> W.name) workloads) in
  let usage = "main.exe --workload <" ^ names ^ "> --seed <n> --seconds <s> --trace <0|1>" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ names);
      ("--seed", Arg.Set_int seed, " workload seed (re-keys datasets and arrival streams)");
      ("--seconds", Arg.Set_int seconds, " minimum measured time of an untraced run");
      ("--trace", Arg.Set_int trace, " 1: print the per-layer ledger instead");
      ("--record", Arg.Set record, " print the run's fingerprints instead of metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun (module W : WORKLOAD) -> W.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload; expected one of: " ^ names);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (* Before any dataset is generated and before any domain spawns. *)
  Axmemo_util.Rng.set_root_seed (Int64.of_int !seed);
  (let (module W : WORKLOAD) = w in
   Printf.printf "hostbench %s seed %d (held-out seed %d)\n" W.name !seed held_out_seed);
  if !record then record_run w ~seed:!seed
  else if !trace = 1 then traced_run w ~seed:!seed
  else timed_run w ~seed:!seed ~seconds:!seconds
