(* Tests for the multi-core co-run subsystem: the shared L2 LUT (way
   partitioning, utility repartitioning), the post-hoc bank/port arbiter,
   the request scheduler, cross-core invalidate broadcast, the 1-core
   bit-identity guarantee against the single-core runner, serial/parallel
   report byte-identity, the node and core facts the cluster report
   renders, and the satellite guards (NaN-free ratios, bounded report
   series, the per-domain CRC table cache). *)

module Shared_lut = Axmemo_multicore.Shared_lut
module Arbiter = Axmemo_multicore.Arbiter
module Schedule = Axmemo_multicore.Schedule
module Corun = Axmemo_multicore.Corun
module Cluster = Axmemo_cluster.Cluster
module Runner = Axmemo.Runner
module Registry = Axmemo_telemetry.Registry
module Profile = Axmemo_obs.Profile
module Fault_model = Axmemo_faults.Fault_model
module Dram_lut = Axmemo_tier.Dram_lut
module Json = Axmemo_util.Json
module W = Axmemo_workloads
module Ir = Axmemo_ir.Ir
module Interp = Axmemo_ir.Interp
module Crc = Axmemo_crc

(* --- arbiter --- *)

let test_arbiter_contention () =
  let a = Arbiter.create ~banks:4 ~ports:1 ~window:13 () in
  (* Two cores hit the same bank inside one service window: the later one
     (by cycle) loses and is charged a full window. *)
  Arbiter.record a ~core:0 ~set:0 ~at:5;
  Arbiter.record a ~core:1 ~set:4 ~at:7;
  (* Different bank, same window: no conflict. *)
  Arbiter.record a ~core:1 ~set:1 ~at:6;
  (* Same bank, later window: no conflict. *)
  Arbiter.record a ~core:0 ~set:0 ~at:20;
  let s = Arbiter.settle a ~ncores:2 in
  Alcotest.(check int) "accesses" 4 s.Arbiter.accesses;
  Alcotest.(check int) "contended" 1 s.Arbiter.contended;
  Alcotest.(check (array int)) "stalls" [| 0; 13 |] s.Arbiter.stall_cycles;
  Alcotest.(check (array int)) "retries" [| 0; 1 |] s.Arbiter.retried

let test_arbiter_tie_breaks () =
  (* Same cycle, same bank: the lower core index wins arbitration. *)
  let a = Arbiter.create ~banks:2 ~ports:1 ~window:10 () in
  Arbiter.record a ~core:1 ~set:0 ~at:3;
  Arbiter.record a ~core:0 ~set:2 ~at:3;
  let s = Arbiter.settle a ~ncores:2 in
  Alcotest.(check (array int)) "core 1 loses" [| 0; 10 |] s.Arbiter.stall_cycles

let test_arbiter_ports () =
  (* Two ports serve two colliding accesses; only the third is charged. *)
  let a = Arbiter.create ~banks:1 ~ports:2 ~window:8 () in
  Arbiter.record a ~core:0 ~set:0 ~at:0;
  Arbiter.record a ~core:1 ~set:0 ~at:1;
  Arbiter.record a ~core:2 ~set:0 ~at:2;
  let s = Arbiter.settle a ~ncores:3 in
  Alcotest.(check int) "contended" 1 s.Arbiter.contended;
  Alcotest.(check (array int)) "stalls" [| 0; 0; 8 |] s.Arbiter.stall_cycles

(* --- scheduler --- *)

let test_stream_round_robin () =
  let s = Schedule.stream ~workloads:[ "a"; "b" ] ~requests:5 in
  Alcotest.(check (list string)) "round robin" [ "a"; "b"; "a"; "b"; "a" ]
    (List.map (fun (r : Schedule.request) -> r.workload) s);
  Alcotest.(check (list int)) "rids" [ 0; 1; 2; 3; 4 ]
    (List.map (fun (r : Schedule.request) -> r.rid) s)

let test_dispatch_greedy () =
  (* Costs 10,3,3,2: r0->core0, r1->core1, r2->core1 (freed at 3), r3->core1
     (freed at 6 < 10). Ties break to the lowest index. *)
  let costs = [| 10; 3; 3; 2 |] in
  let s = Schedule.stream ~workloads:[ "w" ] ~requests:4 in
  let placements, busy =
    Schedule.dispatch ~ncores:2
      ~run:(fun r ~core:_ ~start:_ -> (costs.(r.Schedule.rid), ()))
      s
  in
  Alcotest.(check (list int)) "cores" [ 0; 1; 1; 1 ]
    (List.map (fun (p : unit Schedule.placement) -> p.core) placements);
  Alcotest.(check (list int)) "starts" [ 0; 0; 3; 6 ]
    (List.map (fun (p : unit Schedule.placement) -> p.start) placements);
  Alcotest.(check (array int)) "busy" [| 10; 8 |] busy

let test_jain_fairness () =
  let close name expect got =
    Alcotest.(check bool) name true (Float.abs (expect -. got) < 1e-9)
  in
  close "balanced" 1.0 (Schedule.jain_fairness [| 5.0; 5.0; 5.0 |]);
  close "skewed" (1.0 /. 3.0) (Schedule.jain_fairness [| 9.0; 0.0; 0.0 |]);
  close "degenerate" 1.0 (Schedule.jain_fairness [||]);
  close "all zero" 1.0 (Schedule.jain_fairness [| 0.0; 0.0 |])

(* --- shared LUT partitioning --- *)

(* Distinct keys that land in the same set of [t]. *)
let same_set_keys t ~n =
  let target = Shared_lut.set_of_key t 0L in
  let rec collect acc k =
    if List.length acc = n then List.rev acc
    else
      collect
        (if Shared_lut.set_of_key t k = target then k :: acc else acc)
        (Int64.add k 1L)
  in
  collect [] 0L

let test_static_partition_isolation () =
  let t =
    Shared_lut.create ~ncores:2 ~size_bytes:4096 ~partition:Shared_lut.Static ()
  in
  let lo0, hi0 = Shared_lut.way_range t ~core:0 in
  let ways0 = hi0 - lo0 + 1 in
  Alcotest.(check int) "even split" (Shared_lut.ways t / 2) ways0;
  let keys = same_set_keys t ~n:(2 * ways0 + 1) in
  let victim_key = List.hd keys in
  let core1_key = List.nth keys 1 in
  let hammer = List.filteri (fun i _ -> i >= 2) keys in
  Shared_lut.insert t ~core:0 ~lut_id:0 ~key:victim_key ~payload:1L;
  Shared_lut.insert t ~core:1 ~lut_id:0 ~key:core1_key ~payload:2L;
  (* Core 0 thrashes its own ways of the set with [2 * ways0 - 1] more
     distinct keys — far beyond its allocation. *)
  List.iter
    (fun key -> Shared_lut.insert t ~core:0 ~lut_id:0 ~key ~payload:9L)
    hammer;
  (* Core 1's entry survived: victim selection never crossed the boundary. *)
  Alcotest.(check (option int64)) "core 1 entry intact" (Some 2L)
    (Shared_lut.lookup t ~core:1 ~lut_id:0 ~key:core1_key);
  (* ...and lookups hit across the boundary (CAT semantics: reads are
     unrestricted, only allocation is). *)
  Alcotest.(check (option int64)) "cross-partition read" (Some 2L)
    (Shared_lut.lookup t ~core:0 ~lut_id:0 ~key:core1_key);
  (* Core 0's first entry was evicted by its own traffic. *)
  Alcotest.(check (option int64)) "core 0 victim evicted" None
    (Shared_lut.lookup t ~core:0 ~lut_id:0 ~key:victim_key)

let test_free_for_all_range () =
  let t =
    Shared_lut.create ~ncores:4 ~size_bytes:4096
      ~partition:Shared_lut.Free_for_all ()
  in
  for core = 0 to 3 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "core %d owns all ways" core)
      (0, Shared_lut.ways t - 1)
      (Shared_lut.way_range t ~core)
  done

let test_utility_repartition () =
  let t =
    Shared_lut.create ~ncores:2 ~size_bytes:4096
      ~partition:(Shared_lut.Utility { period = 8 }) ()
  in
  let key = 42L in
  Shared_lut.insert t ~core:0 ~lut_id:0 ~key ~payload:7L;
  (* Core 0 produces every hit of the window; core 1 stays idle. *)
  for _ = 1 to 16 do
    ignore (Shared_lut.lookup t ~core:0 ~lut_id:0 ~key)
  done;
  Alcotest.(check bool) "repartitioned" true (Shared_lut.repartitions t >= 1);
  let lo0, hi0 = Shared_lut.way_range t ~core:0 in
  let lo1, hi1 = Shared_lut.way_range t ~core:1 in
  let w0 = hi0 - lo0 + 1 and w1 = hi1 - lo1 + 1 in
  Alcotest.(check int) "ways conserved" (Shared_lut.ways t) (w0 + w1);
  Alcotest.(check bool) "hot core grew" true (w0 > w1);
  Alcotest.(check bool) "idle core keeps a way" true (w1 >= 1)

(* --- cross-core invalidate broadcast --- *)

let test_invalidate_broadcast () =
  let cfg =
    { Corun.default with ncores = 2; workloads = [ "blackscholes" ]; requests = 0 }
  in
  let cluster = Corun.create_cluster cfg in
  let h0 = Corun.memo_hooks cluster ~core:0 in
  let h1 = Corun.memo_hooks cluster ~core:1 in
  let probe (h : Interp.memo_hooks) v =
    h.Interp.send ~lut:0 ~ty:Ir.F64 ~trunc:0 (Ir.VF v);
    h.Interp.lookup ~lut:0
  in
  (* Core 0 computes and fills: its L1 plus the shared level. *)
  Alcotest.(check (option int64)) "cold miss" None (probe h0 1.5);
  h0.Interp.update ~lut:0 77L;
  (* Core 1 misses its private L1 but hits the shared level. *)
  Alcotest.(check (option int64)) "cross-core hit" (Some 77L) (probe h1 1.5);
  let entries u = Axmemo_memo.Memo_unit.lut_entries u in
  Alcotest.(check bool) "both L1s filled" true
    (entries (Corun.core_unit cluster ~core:0) <> []
    && entries (Corun.core_unit cluster ~core:1) <> []);
  (* One core retires an invalidate: the shared level and every private L1
     must drop the LUT — no stale copy anywhere. *)
  h0.Interp.invalidate ~lut:0;
  Alcotest.(check int) "core 0 L1 empty" 0
    (List.length (entries (Corun.core_unit cluster ~core:0)));
  Alcotest.(check int) "core 1 L1 empty" 0
    (List.length (entries (Corun.core_unit cluster ~core:1)));
  Alcotest.(check int) "shared empty" 0
    (Shared_lut.occupancy (Corun.shared_lut cluster));
  Alcotest.(check (option int64)) "post-invalidate miss" None (probe h1 1.5)

(* A co-run is a 1-node cluster. *)
let corun node = Cluster.run { Cluster.default with nodes = 1; node }

(* --- 1-core co-run == single-core runner --- *)

let test_single_core_bit_identity () =
  (* One core, free-for-all (= unrestricted victim selection), one request,
     standalone epilogue retained: the co-run machinery must reproduce
     [Runner.run] on the same configuration bit for bit. *)
  let cfg =
    {
      Corun.default with
      ncores = 1;
      workloads = [ "blackscholes" ];
      requests = 1;
      partition = Shared_lut.Free_for_all;
      retain_luts = false;
    }
  in
  let outcome = corun cfg in
  let corun_r =
    match outcome.Cluster.requests with
    | [ r ] -> r.Cluster.result
    | l -> Alcotest.failf "expected 1 request, got %d" (List.length l)
  in
  let _, make = Option.get (W.Registry.find "blackscholes") in
  let single = Runner.run Runner.l1_8k_l2_512k (make W.Workload.Sample) in
  Alcotest.(check int) "cycles" single.Runner.cycles corun_r.Runner.cycles;
  Alcotest.(check bool) "everything but the label" true
    ({
       corun_r with
       Runner.label = single.Runner.label;
       (* wall time is the one field outside the bit-identity contract *)
       sim_wall_seconds = single.Runner.sim_wall_seconds;
     }
    = single)

(* --- serial vs parallel byte-identity --- *)

let test_matrix_jobs_byte_identical () =
  let cfgs =
    List.map
      (fun partition ->
        {
          Cluster.default with
          nodes = 1;
          node =
            {
              Corun.default with
              ncores = 2;
              workloads = [ "blackscholes" ];
              requests = 4;
              partition;
            };
        })
      [ Shared_lut.Free_for_all; Shared_lut.Static ]
  in
  let render jobs =
    Json.to_string ~indent:2 (Cluster.report (Cluster.run_matrix ~jobs cfgs))
  in
  Alcotest.(check string) "jobs=1 == jobs=4" (render 1) (render 4)

(* --- the report's node and core facts --- *)

(* A co-run's arbitration, partitioning, fault and DRAM-tier facts reach
   the report's top-level "cluster" entry: one node summary per node, and
   per core its way range, retries, shadow hits and (profiled) profile. *)
let test_report_node_and_core_facts () =
  let node =
    {
      Corun.default with
      ncores = 2;
      partition = Shared_lut.Static;
      workloads = [ "blackscholes"; "sobel" ];
      requests = 4;
      variant = W.Workload.Sample;
      l1_bytes = 1024;
      shared_l2_bytes = 4096;
      l3 = Some { Dram_lut.default with size_bytes = 256 * 1024 };
      faults =
        Some
          {
            Fault_model.default with
            rate = 1e-3;
            sites = Fault_model.[ L2_tag; L2_payload; L2_valid; L2_lru ];
          };
    }
  in
  let o =
    Cluster.run ~metrics:true ~profile:true { Cluster.default with nodes = 1; node }
  in
  let rec field path j =
    match path with
    | [] -> j
    | key :: rest -> (
        match Json.member key j with
        | Some v -> field rest v
        | None -> Alcotest.failf "report lacks %s" key)
  in
  let check_ints j =
    List.iter (fun (path, want) ->
        let name = String.concat "." path in
        match field path j with
        | Json.Int got -> Alcotest.(check int) name want got
        | _ -> Alcotest.failf "%s is not an int" name)
  in
  let one_entry path j =
    match field path j with
    | Json.Arr [ e ] -> e
    | _ -> Alcotest.failf "%s: expected one entry" (String.concat "." path)
  in
  let entry = one_entry [ "cluster" ] (Cluster.report [ o ]) in
  let n = o.Cluster.node_summaries.(0) in
  let ns = one_entry [ "node_summaries" ] entry in
  let injected = (Option.get n.Cluster.faults).Axmemo_faults.Injector.injected_total in
  let spills = (Option.get n.Cluster.l3).Cluster.stats.Dram_lut.inserts in
  Alcotest.(check bool) "faults struck and the tier absorbed spills" true
    (injected > 0 && spills > 0);
  check_ints ns
    [
      ([ "shared_accesses" ], n.Cluster.bank_accesses);
      ([ "repartitions" ], n.Cluster.repartitions);
      ([ "shared_occupancy" ], n.Cluster.shared_occupancy);
      ([ "faults"; "injected" ], injected);
      ([ "l3"; "spills" ], spills);
    ];
  let profiles = Option.get o.Cluster.profiles in
  match field [ "cores" ] entry with
  | Json.Arr cores ->
      Alcotest.(check int) "one entry per core" 2 (List.length cores);
      List.iteri
        (fun j cj ->
          let c = o.Cluster.cores.(j) in
          let lo, hi = c.Cluster.way_range in
          check_ints cj
            [
              ([ "way_lo" ], lo);
              ([ "way_hi" ], hi);
              ([ "shadow_hits" ], c.Cluster.shadow_hits);
              ([ "retried" ], c.Cluster.retried);
            ];
          Alcotest.(check string) "profile"
            (Json.to_string (Profile.to_json profiles.(j)))
            (Json.to_string (field [ "profile" ] cj)))
        cores
  | _ -> Alcotest.fail "cores is not an array"

(* --- co-run behaviour --- *)

let test_warm_luts_accumulate () =
  (* With [retain_luts] (the default) the stream leaves warm state behind:
     the shared LUT is occupied, and inclusive copies exist at both levels
     with no payload divergence. *)
  let cfg =
    { Corun.default with ncores = 2; workloads = [ "blackscholes" ]; requests = 4 }
  in
  let o = corun cfg in
  Alcotest.(check bool) "shared LUT warm" true
    (o.Cluster.node_summaries.(0).Cluster.shared_occupancy > 0);
  Alcotest.(check bool) "inclusive copies exist" true (o.Cluster.coherence_keys > 0);
  Alcotest.(check int) "no divergence" 0 o.Cluster.coherence_divergent;
  Alcotest.(check bool) "throughput positive" true (o.Cluster.throughput_rps > 0.0);
  Alcotest.(check bool) "fairness in range" true
    (o.Cluster.fairness > 0.0 && o.Cluster.fairness <= 1.0 +. 1e-9)

(* --- satellite: NaN-free ratios --- *)

let test_ratio_guards () =
  let _, make = Option.get (W.Registry.find "blackscholes") in
  let r = Runner.run Runner.Baseline (make W.Workload.Sample) in
  let zero_cycles = { r with Runner.cycles = 0 } in
  let zero_energy = { r with Runner.energy = { r.Runner.energy with total_pj = 0.0 } } in
  let finite name v =
    Alcotest.(check bool) name true (Float.is_finite v)
  in
  Alcotest.(check (float 0.0)) "0/0 cycles = 1" 1.0
    (Runner.speedup ~baseline:zero_cycles zero_cycles);
  Alcotest.(check (float 0.0)) "0/0 energy = 1" 1.0
    (Runner.energy_saving ~baseline:zero_energy zero_energy);
  finite "n/0 cycles finite" (Runner.speedup ~baseline:r zero_cycles);
  finite "n/0 energy finite" (Runner.energy_saving ~baseline:r zero_energy);
  finite "normal speedup" (Runner.speedup ~baseline:r r)

(* --- satellite: bounded report series --- *)

let test_registry_decimate () =
  let reg = Registry.create () in
  let c = Registry.counter reg "hits" in
  let s = Registry.series reg "trace" () in
  Registry.add c 41;
  for i = 0 to 99 do
    Registry.sample s ~at:i (float_of_int i)
  done;
  let snap = Registry.snapshot reg in
  let dec = Registry.decimate ~cap:8 snap in
  (match List.assoc "trace" dec with
  | Registry.Series { stride; samples } ->
      Alcotest.(check bool) "bounded" true (Array.length samples <= 8);
      Alcotest.(check bool) "stride grew" true (stride >= 100 / 8);
      (* Halving keeps the odd positions: timestamps stay increasing. *)
      Array.iteri
        (fun i (at, _) ->
          if i > 0 then
            Alcotest.(check bool) "monotonic" true (at > fst samples.(i - 1)))
        samples
  | _ -> Alcotest.fail "trace is not a series");
  (match List.assoc "hits" dec with
  | Registry.Counter n -> Alcotest.(check int) "counters untouched" 41 n
  | _ -> Alcotest.fail "hits is not a counter");
  Alcotest.(check bool) "idempotent" true (Registry.decimate ~cap:8 dec = dec);
  Alcotest.(check bool) "non-positive cap rejected" true
    (try
       ignore (Registry.decimate ~cap:0 snap);
       false
     with Invalid_argument _ -> true)

(* --- satellite: per-domain CRC table cache --- *)

let test_crc_cache_across_domains () =
  (* The constants table is cached per domain (no global mutex): every
     domain must still compute the canonical digests. *)
  let digest () = Crc.Engine.digest_string Crc.Poly.crc32 "axmemo" in
  let reference = digest () in
  let domains = List.init 4 (fun _ -> Domain.spawn digest) in
  List.iter
    (fun d ->
      Alcotest.(check int64) "same digest in every domain" reference
        (Domain.join d))
    domains

(* --- mixed-workload LUT id remapping --- *)

let test_mix_remap_rejects_overflow () =
  (* 9+ logical LUTs cannot fit the 3-bit LUT_ID space. *)
  let names = W.Registry.names in
  let big = List.concat [ names; names ] in
  Alcotest.(check bool) "mix too wide rejected" true
    (try
       ignore
         (Corun.create_cluster { Corun.default with workloads = big; requests = 0 });
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown benchmark rejected" true
    (try
       ignore
         (Corun.create_cluster
            { Corun.default with workloads = [ "nope" ]; requests = 0 });
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "multicore"
    [
      ( "arbiter",
        [
          Alcotest.test_case "contention" `Quick test_arbiter_contention;
          Alcotest.test_case "tie breaks" `Quick test_arbiter_tie_breaks;
          Alcotest.test_case "ports" `Quick test_arbiter_ports;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "round robin" `Quick test_stream_round_robin;
          Alcotest.test_case "greedy dispatch" `Quick test_dispatch_greedy;
          Alcotest.test_case "jain fairness" `Quick test_jain_fairness;
        ] );
      ( "shared-lut",
        [
          Alcotest.test_case "static isolation" `Quick test_static_partition_isolation;
          Alcotest.test_case "free-for-all range" `Quick test_free_for_all_range;
          Alcotest.test_case "utility repartition" `Quick test_utility_repartition;
        ] );
      ( "corun",
        [
          Alcotest.test_case "invalidate broadcast" `Quick test_invalidate_broadcast;
          Alcotest.test_case "1-core bit identity" `Quick test_single_core_bit_identity;
          Alcotest.test_case "jobs byte-identical" `Quick
            test_matrix_jobs_byte_identical;
          Alcotest.test_case "report node and core facts" `Quick
            test_report_node_and_core_facts;
          Alcotest.test_case "warm LUTs" `Quick test_warm_luts_accumulate;
          Alcotest.test_case "mix remap guards" `Quick test_mix_remap_rejects_overflow;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "ratio guards" `Quick test_ratio_guards;
          Alcotest.test_case "decimate" `Quick test_registry_decimate;
          Alcotest.test_case "crc cache domains" `Quick test_crc_cache_across_domains;
        ] );
    ]
