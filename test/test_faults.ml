(* Tests for the fault-injection subsystem: the model/injector/protection
   building blocks, the LUT-level protection semantics, the no-injector
   bit-identity guarantee (pinned against the pre-subsystem simulator), and
   the campaign's serial/parallel byte-identity. *)

module Fault_model = Axmemo_faults.Fault_model
module Injector = Axmemo_faults.Injector
module Protection = Axmemo_faults.Protection
module Lut = Axmemo_memo.Lut
module Runner = Axmemo.Runner
module Corun = Axmemo_multicore.Corun
module Cluster = Axmemo_cluster.Cluster
module Campaign = Axmemo_resilience.Campaign
module W = Axmemo_workloads
module Json = Axmemo_util.Json
module Rng = Axmemo_util.Rng

(* --- fault model --- *)

let test_spec_validation () =
  let ok = { Fault_model.default with rate = 0.5 } in
  Fault_model.validate ok;
  let rejects name spec =
    Alcotest.(check bool) name true
      (try
         Fault_model.validate spec;
         false
       with Invalid_argument _ -> true)
  in
  rejects "rate > 1" { ok with rate = 1.5 };
  rejects "negative rate" { ok with rate = -0.1 };
  rejects "empty sites" { ok with sites = [] };
  rejects "zero seed" { ok with seed = 0L }

let test_site_names_roundtrip () =
  List.iter
    (fun site ->
      let name = Fault_model.site_name site in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Fault_model.site_of_string name = Some site))
    Fault_model.all_sites;
  Alcotest.(check bool) "unknown site" true (Fault_model.site_of_string "l3.tag" = None);
  List.iter
    (fun k ->
      Alcotest.(check bool) (Fault_model.kind_name k) true
        (Fault_model.kind_of_string (Fault_model.kind_name k) = Some k))
    [ Fault_model.Transient; Stuck_at_0; Stuck_at_1 ];
  List.iter
    (fun b ->
      Alcotest.(check bool) (Fault_model.basis_name b) true
        (Fault_model.basis_of_string (Fault_model.basis_name b) = Some b))
    [ Fault_model.Per_access; Per_cycle ]

(* --- injector --- *)

let spec_all rate = { Fault_model.default with rate; seed = 7L }

let test_injector_deterministic () =
  (* Two injectors with the same spec corrupt an identical word sequence
     identically — the replay contract behind --jobs byte-identity. *)
  let a = Injector.create (spec_all 0.3) and b = Injector.create (spec_all 0.3) in
  for i = 0 to 499 do
    let v = Int64.of_int (i * 977) in
    let ca = Injector.corrupt a Fault_model.L1_payload ~width:64 v
    and cb = Injector.corrupt b Fault_model.L1_payload ~width:64 v in
    if ca <> cb then Alcotest.failf "diverged at draw %d" i
  done;
  Alcotest.(check bool) "same counters" true (Injector.stats a = Injector.stats b);
  Alcotest.(check bool) "some faults fired" true ((Injector.stats a).injected_total > 0)

let test_injector_width_respected () =
  let inj = Injector.create (spec_all 1.0) in
  for _ = 1 to 200 do
    let c = Injector.corrupt inj Fault_model.Hvr ~width:8 0L in
    Alcotest.(check bool) "flip stays under width 8" true
      (Int64.unsigned_compare c 256L < 0)
  done

let test_injector_disabled_site_is_free () =
  (* A disabled site draws nothing: the stream stays untouched, so enabled
     sites replay identically whether or not other sites are probed. *)
  let only_payload = { (spec_all 1.0) with sites = [ Fault_model.L1_payload ] } in
  let inj = Injector.create only_payload in
  let before = Injector.corrupt inj Fault_model.L1_payload ~width:64 0L in
  let inj2 = Injector.create only_payload in
  for _ = 1 to 50 do
    (* Disabled-site probes between the two draws must not consume stream. *)
    ignore (Injector.corrupt inj2 Fault_model.L2_tag ~width:32 5L)
  done;
  let after = Injector.corrupt inj2 Fault_model.L1_payload ~width:64 0L in
  Alcotest.(check int64) "stream position unaffected" before after;
  Alcotest.(check int) "disabled site never fires" 0
    (Injector.injected_at inj2 Fault_model.L2_tag)

let test_stuck_at_semantics () =
  (* Stuck-at-1 can only set bits; stuck-at-0 can only clear them. A strike
     on an already-stuck bit changes nothing and is not counted. *)
  let s1 = Injector.create { (spec_all 1.0) with kind = Fault_model.Stuck_at_1 } in
  for _ = 1 to 100 do
    let c = Injector.corrupt s1 Fault_model.L1_tag ~width:16 0xFFFFL in
    Alcotest.(check int64) "all-ones unchanged by stuck-at-1" 0xFFFFL c
  done;
  Alcotest.(check int) "no state change, no count" 0
    (Injector.injected_at s1 Fault_model.L1_tag);
  let s0 = Injector.create { (spec_all 1.0) with kind = Fault_model.Stuck_at_0 } in
  let c = Injector.corrupt s0 Fault_model.L1_tag ~width:16 0xFFFFL in
  Alcotest.(check bool) "stuck-at-0 cleared exactly one bit" true
    (Int64.logand c (Int64.lognot 0xFFFFL) = 0L
    && Axmemo_util.Bits.popcount64 (Int64.logxor c 0xFFFFL) = 1)

let test_per_cycle_integrates_clock () =
  let spec = { (spec_all 0.01) with basis = Fault_model.Per_cycle; seed = 11L } in
  let inj = Injector.create spec in
  let now = ref 0 in
  Injector.set_clock inj (fun () -> !now);
  (* 100 accesses spread over 100k cycles at 1e-2/cycle: certain to fire. *)
  for i = 1 to 100 do
    now := i * 1000;
    ignore (Injector.corrupt inj Fault_model.L1_payload ~width:64 0L)
  done;
  Alcotest.(check bool) "per-cycle faults fired" true
    ((Injector.stats inj).injected_total > 0)

(* --- protection --- *)

let test_protection_energy () =
  Alcotest.(check (float 0.0)) "unprotected is free" 0.0
    (Protection.energy_pj Protection.Unprotected ~lookups:1000 ~updates:500
       ~corrections:10);
  let parity =
    Protection.energy_pj Protection.Parity ~lookups:1000 ~updates:500 ~corrections:0
  in
  let secded =
    Protection.energy_pj Protection.Secded ~lookups:1000 ~updates:500 ~corrections:0
  in
  Alcotest.(check bool) "parity costs something" true (parity > 0.0);
  Alcotest.(check bool) "secded costs more than parity" true (secded > parity);
  let with_corr =
    Protection.energy_pj Protection.Secded ~lookups:1000 ~updates:500 ~corrections:50
  in
  Alcotest.(check (float 1e-9)) "corrections are a surcharge"
    (50.0 *. Protection.secded_correct_pj)
    (with_corr -. secded)

let test_storage_overhead () =
  Alcotest.(check int) "none" 0
    (Protection.storage_overhead_bits Protection.Unprotected ~entry_bits:97);
  Alcotest.(check int) "parity is one bit" 1
    (Protection.storage_overhead_bits Protection.Parity ~entry_bits:97);
  Alcotest.(check int) "secded r+1 for 97 bits" 8
    (Protection.storage_overhead_bits Protection.Secded ~entry_bits:97)

(* --- LUT-level protection semantics --- *)

(* One 4-way set, payload-only faults at rate 1.0: every probe corrupts one
   payload bit per way, so the very first lookup exercises the protection
   path deterministically. *)
let lut_under_fire protection =
  let spec =
    {
      Fault_model.seed = 21L;
      kind = Fault_model.Transient;
      basis = Fault_model.Per_access;
      rate = 1.0;
      sites = [ Fault_model.L1_payload ];
      protection;
    }
  in
  let inj = Injector.create spec in
  let l = Lut.create ~faults:(inj, Fault_model.l1_sites) ~size_bytes:64 () in
  Lut.insert l ~lut_id:0 ~key:5L ~payload:0xABCDL None;
  (inj, l)

let test_unprotected_sdc () =
  let inj, l = lut_under_fire Protection.Unprotected in
  match Lut.lookup l ~lut_id:0 ~key:5L with
  | None -> Alcotest.fail "entry vanished without protection"
  | Some v ->
      Alcotest.(check bool) "payload corrupted" true (v <> 0xABCDL);
      Alcotest.(check bool) "counted as SDC" true ((Injector.stats inj).sdc_hits = 1)

let test_parity_detects_and_invalidates () =
  let inj, l = lut_under_fire Protection.Parity in
  Alcotest.(check (option int64)) "odd corruption reads as a miss" None
    (Lut.lookup l ~lut_id:0 ~key:5L);
  Alcotest.(check bool) "detection counted" true
    ((Injector.stats inj).parity_detected >= 1);
  Alcotest.(check int) "no SDC escaped" 0 (Injector.stats inj).sdc_hits;
  Alcotest.(check int) "entry invalidated" 0 (Lut.occupancy l)

let test_secded_corrects () =
  let inj, l = lut_under_fire Protection.Secded in
  Alcotest.(check (option int64)) "single flip corrected, clean hit" (Some 0xABCDL)
    (Lut.lookup l ~lut_id:0 ~key:5L);
  Alcotest.(check bool) "correction counted" true
    ((Injector.stats inj).secded_corrected >= 1);
  Alcotest.(check int) "no SDC" 0 (Injector.stats inj).sdc_hits

(* --- no-injector bit-identity (pinned against the pre-faults simulator) --- *)

let test_fault_free_pinned () =
  (* Exact numbers recorded from the simulator before lib/faults existed:
     any drift means the subsystem is not observation-only when absent. *)
  let _, make = Option.get (W.Registry.find "fft") in
  let r = Runner.run Runner.l1_8k_l2_512k (make W.Workload.Sample) in
  Alcotest.(check int) "cycles" 475124 r.cycles;
  Alcotest.(check int) "lookups" 5120 r.lookups;
  Alcotest.(check int) "dyn_normal" 301853 r.dyn_normal;
  Alcotest.(check int) "dyn_memo" 15919 r.dyn_memo;
  Alcotest.(check bool) "no fault stats" true (r.faults = None);
  Alcotest.(check bool) "no crash" true (r.crashed = None);
  let _, make_k = Option.get (W.Registry.find "kmeans") in
  let rk = Runner.run Runner.l1_8k_l2_512k (make_k W.Workload.Sample) in
  Alcotest.(check int) "kmeans cycles" 641539 rk.cycles

let test_rate_zero_injector_is_transparent () =
  (* An attached injector that never fires must not change the simulation:
     same cycles, hits and outputs as the plain configuration. *)
  let _, make = Option.get (W.Registry.find "fft") in
  let plain = Runner.run Runner.l1_8k_l2_512k (make W.Workload.Sample) in
  let cfg =
    Runner.Hw_custom
      {
        label = "rate0";
        unit_cfg =
          {
            Axmemo_memo.Memo_unit.default_config with
            l1_bytes = 8 * 1024;
            l2_bytes = Some (512 * 1024);
            faults = Some { Fault_model.default with seed = 3L };
          };
        approximate = true;
        crc_bytes_per_cycle = Axmemo_isa.Timing.crc_bytes_per_cycle;
      }
  in
  let r = Runner.run cfg (make W.Workload.Sample) in
  Alcotest.(check int) "cycles identical" plain.cycles r.cycles;
  Alcotest.(check int) "hits identical" plain.hits r.hits;
  Alcotest.(check bool) "outputs identical" true (plain.outputs = r.outputs);
  match r.faults with
  | None -> Alcotest.fail "injector stats missing"
  | Some s -> Alcotest.(check int) "nothing injected" 0 s.injected_total

(* --- crash (DUE) capture --- *)

(* Unprotected upsets at rate 1e-2, fault seed 4. *)
let faults_on sites = Some { Fault_model.default with seed = 4L; rate = 1e-2; sites }

(* Upsets on the kmeans L1 LUT drive the simulated program into an
   out-of-bounds access: a DUE outcome carrying the prefix's statistics. *)
let test_cell_due () =
  let _, make = Option.get (W.Registry.find "kmeans") in
  let config =
    Runner.Hw_custom
      {
        label = "l1-faults";
        unit_cfg =
          {
            Axmemo_memo.Memo_unit.default_config with
            faults = faults_on Fault_model.[ L1_tag; L1_payload; L1_valid; L1_lru ];
          };
        approximate = true;
        crc_bytes_per_cycle = Axmemo_isa.Timing.crc_bytes_per_cycle;
      }
  in
  List.iter
    (fun backend ->
      let r = Runner.run ~backend config (make W.Workload.Sample) in
      Alcotest.(check (option string))
        "crashed" (Some "Invalid_argument(\"index out of bounds\")") r.crashed;
      Alcotest.(check (list int))
        "lookups, hits, cycles, injected" [ 108; 97; 7943; 18 ]
        [ r.lookups; r.hits; r.cycles; (Option.get r.faults).injected_total ])
    [ `Compiled; `Interp ]

(* The same capture ends a request on a faulty node; the stream goes on. *)
let test_request_due () =
  let node =
    {
      Corun.default with
      ncores = 1;
      workloads = [ "kmeans" ];
      requests = 4;
      faults = faults_on Fault_model.[ L2_tag; L2_payload; L2_valid; L2_lru ];
    }
  in
  let o = Cluster.run { Cluster.default with nodes = 1; node } in
  let crashed (r : Cluster.request_run) = r.result.crashed <> None in
  Alcotest.(check (pair int int))
    "requests, crashed" (4, 2)
    (List.length o.requests, List.length (List.filter crashed o.requests))

(* --- campaign --- *)

let small_campaign () =
  {
    (Campaign.default ()) with
    rates = [ 1e-4; 1e-2 ];
    site_groups = [ ("lut", Fault_model.[ L1_tag; L1_payload; L1_valid; L1_lru ]) ];
  }

let fft_bench () = Option.get (W.Registry.find "fft")

let test_campaign_serial_parallel_identical () =
  let cfg = small_campaign () in
  let run jobs = Campaign.run ~jobs cfg [ fft_bench () ] ~variant:W.Workload.Sample in
  let serial = run 1 and parallel = run 4 in
  let render o =
    let path = Filename.temp_file "axmemo_faults" ".json" in
    Campaign.write_report o path;
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  Alcotest.(check string) "byte-identical reports" (render serial) (render parallel)

let test_campaign_resilience_trends () =
  let cfg = small_campaign () in
  let o = Campaign.run ~jobs:2 cfg [ fft_bench () ] ~variant:W.Workload.Sample in
  let pick rate prot =
    List.find
      (fun (m : Campaign.measurement) -> m.rate = rate && m.protection = prot)
      o.measurements
  in
  let low = pick 1e-4 Protection.Unprotected
  and high = pick 1e-2 Protection.Unprotected
  and parity = pick 1e-2 Protection.Parity
  and secded = pick 1e-2 Protection.Secded in
  Alcotest.(check bool) "more faults at the higher rate" true
    (high.injected > low.injected);
  Alcotest.(check bool) "unprotected SDC at the high rate" true (high.sdc_hits > 0);
  Alcotest.(check bool) "parity detects" true (parity.detected > 0);
  Alcotest.(check bool) "secded corrects" true (secded.corrected > 0);
  Alcotest.(check bool) "secded kills the SDC" true (secded.sdc_hits < high.sdc_hits);
  Alcotest.(check bool) "protection costs energy" true
    (secded.energy_overhead > 0.0 || secded.crashed <> None)

let test_campaign_report_shape () =
  let cfg = small_campaign () in
  let o = Campaign.run ~jobs:1 cfg [ fft_bench () ] ~variant:W.Workload.Sample in
  Alcotest.(check int) "measurements = rates x protections" 6
    (List.length o.measurements);
  Alcotest.(check int) "runs = refs + faulty cells" 8 (List.length o.runs);
  match Campaign.report o with
  | Json.Obj fields ->
      Alcotest.(check bool) "has fault_campaign" true
        (List.mem_assoc "fault_campaign" fields);
      Alcotest.(check bool) "has resilience" true (List.mem_assoc "resilience" fields)
  | _ -> Alcotest.fail "report is not an object"

(* --- root seed --- *)

let test_derive_stream_identity_without_root () =
  Alcotest.(check int64) "no root installed" 0L (Rng.root_seed ());
  Alcotest.(check int64) "derive_stream is the identity" 0x1234L
    (Rng.derive_stream 0x1234L)

let () =
  Alcotest.run "faults"
    [
      ( "model",
        [
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "name round-trips" `Quick test_site_names_roundtrip;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
          Alcotest.test_case "width respected" `Quick test_injector_width_respected;
          Alcotest.test_case "disabled site free" `Quick test_injector_disabled_site_is_free;
          Alcotest.test_case "stuck-at semantics" `Quick test_stuck_at_semantics;
          Alcotest.test_case "per-cycle basis" `Quick test_per_cycle_integrates_clock;
        ] );
      ( "protection",
        [
          Alcotest.test_case "energy model" `Quick test_protection_energy;
          Alcotest.test_case "storage overhead" `Quick test_storage_overhead;
          Alcotest.test_case "unprotected SDC" `Quick test_unprotected_sdc;
          Alcotest.test_case "parity detects" `Quick test_parity_detects_and_invalidates;
          Alcotest.test_case "secded corrects" `Quick test_secded_corrects;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "fault-free pinned" `Quick test_fault_free_pinned;
          Alcotest.test_case "rate-0 injector transparent" `Quick
            test_rate_zero_injector_is_transparent;
          Alcotest.test_case "derive_stream identity" `Quick
            test_derive_stream_identity_without_root;
        ] );
      ( "crash",
        [
          Alcotest.test_case "cell DUE" `Quick test_cell_due;
          Alcotest.test_case "request DUE" `Quick test_request_due;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "serial = parallel" `Quick
            test_campaign_serial_parallel_identical;
          Alcotest.test_case "resilience trends" `Quick test_campaign_resilience_trends;
          Alcotest.test_case "report shape" `Quick test_campaign_report_shape;
        ] );
    ]
