(* Tests for the tiered + persistent LUT storage subsystem: DRAM L3
   row-buffer pricing and per-row FIFO replacement, pLUTo bulk-probe
   amortisation, the approximate-payload criticality split, snapshot
   byte-format roundtrips (including LRU/FIFO recency preservation) and
   rejection of damaged files, cluster capture/restore, serve warm-start
   efficacy, and the L3-absent bit-identity guard. *)

module Dram = Axmemo_tier.Dram_lut
module Snapshot = Axmemo_tier.Snapshot
module Lut = Axmemo_memo.Lut
module Fault_model = Axmemo_faults.Fault_model
module Injector = Axmemo_faults.Injector
module Corun = Axmemo_multicore.Corun
module Cluster = Axmemo_cluster.Cluster
module Serve = Axmemo_serve.Serve
module Arrival = Axmemo_serve.Arrival
module Json = Axmemo_util.Json
module W = Axmemo_workloads

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A tiny geometry where the row layout is easy to reason about: one row of
   [slots] 16-byte entries, or [rows] such rows. *)
let tiny ?(rows = 1) ?(slots = 2) ?(exact = 64) () =
  {
    Dram.default with
    size_bytes = rows * slots * 16;
    row_bytes = slots * 16;
    exact_high_bits = exact;
  }

(* --- geometry & row-buffer pricing -------------------------------------- *)

let test_geometry () =
  let t = Dram.create (tiny ~rows:4 ~slots:8 ()) in
  Alcotest.(check int) "rows" 4 (Dram.rows t);
  Alcotest.(check int) "slots per row" 8 (Dram.slots_per_row t);
  Alcotest.(check int) "capacity" 32 (Dram.capacity_entries t);
  Alcotest.(check int) "empty" 0 (Dram.occupancy t);
  Alcotest.check_raises "ragged geometry rejected"
    (Invalid_argument "Dram_lut.create: size_bytes must be a positive multiple of row_bytes")
    (fun () -> ignore (Dram.create { (tiny ()) with size_bytes = 100; row_bytes = 32 }))

let test_row_buffer_pricing ()
    =
  let cfg = tiny ~rows:2 ~slots:4 () in
  let t = Dram.create cfg in
  let switch = cfg.Dram.activate_cycles + cfg.Dram.row_hit_cycles in
  (* First probe ever: no row is open, so it pays the activate. *)
  ignore (Dram.lookup t ~lut_id:0 ~key:10L);
  Alcotest.(check int) "cold probe activates" switch (Dram.last_probe_cycles t);
  (* Same key again: its row is now the open row. *)
  ignore (Dram.lookup t ~lut_id:0 ~key:10L);
  Alcotest.(check int) "open-row probe" cfg.Dram.row_hit_cycles
    (Dram.last_probe_cycles t);
  (* Find a key living in the other row and alternate: every probe switches. *)
  let other =
    let rec hunt k =
      ignore (Dram.lookup t ~lut_id:0 ~key:k);
      if Dram.last_probe_cycles t = switch then k else hunt (Int64.add k 1L)
    in
    hunt 11L
  in
  ignore (Dram.lookup t ~lut_id:0 ~key:10L);
  Alcotest.(check int) "alternating rows thrash" switch (Dram.last_probe_cycles t);
  ignore (Dram.lookup t ~lut_id:0 ~key:other);
  Alcotest.(check int) "and back" switch (Dram.last_probe_cycles t);
  let s = Dram.stats t in
  Alcotest.(check int) "all probes missed (empty tier)" s.Dram.probes s.Dram.misses;
  Alcotest.(check int) "row hits + activations = probes" s.Dram.probes
    (s.Dram.row_hits + s.Dram.row_activations)

let test_insert_lookup_fifo () =
  (* One row, two slots: the per-row FIFO evicts the oldest insertion. *)
  let t = Dram.create (tiny ~rows:1 ~slots:2 ()) in
  Dram.insert t ~lut_id:0 ~key:1L ~payload:100L;
  Dram.insert t ~lut_id:0 ~key:2L ~payload:200L;
  Alcotest.(check (option int64)) "k1 present" (Some 100L)
    (Dram.lookup t ~lut_id:0 ~key:1L);
  Alcotest.(check (option int64)) "k2 present" (Some 200L)
    (Dram.lookup t ~lut_id:0 ~key:2L);
  Dram.insert t ~lut_id:0 ~key:3L ~payload:300L;
  Alcotest.(check (option int64)) "oldest evicted" None
    (Dram.lookup t ~lut_id:0 ~key:1L);
  Alcotest.(check (option int64)) "younger survives" (Some 200L)
    (Dram.lookup t ~lut_id:0 ~key:2L);
  Alcotest.(check (option int64)) "newest present" (Some 300L)
    (Dram.lookup t ~lut_id:0 ~key:3L);
  Alcotest.(check int) "one eviction" 1 (Dram.stats t).Dram.evictions;
  (* Re-inserting an existing key refreshes in place, no eviction. *)
  Dram.insert t ~lut_id:0 ~key:2L ~payload:222L;
  Alcotest.(check (option int64)) "refreshed" (Some 222L)
    (Dram.lookup t ~lut_id:0 ~key:2L);
  Alcotest.(check int) "refresh is not an eviction" 1 (Dram.stats t).Dram.evictions;
  (* Invalidation opens a hole; the next insert fills it without evicting. *)
  Dram.invalidate_lut t ~lut_id:0;
  Alcotest.(check int) "invalidated" 0 (Dram.occupancy t);
  Dram.insert t ~lut_id:1 ~key:9L ~payload:900L;
  Alcotest.(check int) "hole filled" 1 (Dram.occupancy t);
  Alcotest.(check int) "hole fill is not an eviction" 1 (Dram.stats t).Dram.evictions;
  (* lut_id is part of the tag: same key under another LUT is a miss. *)
  Alcotest.(check (option int64)) "lut_id tags" None (Dram.lookup t ~lut_id:0 ~key:9L)

let test_bulk_amortisation () =
  let cfg = tiny ~rows:8 ~slots:4 () in
  let seed = Dram.create cfg in
  let keys = Array.init 24 (fun i -> Int64.of_int (i * 7919)) in
  Array.iter (fun k -> Dram.insert seed ~lut_id:0 ~key:k ~payload:(Int64.neg k)) keys;
  (* Collect the live entries round-robin across rows: the worst serial
     probe order, where consecutive probes (almost) always switch rows. *)
  let by_row = Hashtbl.create 8 in
  Dram.iter_entries seed (fun ~row ~slot:_ ~lut_id ~key ~payload:_ ~stamp:_ ->
      Hashtbl.replace by_row row ((lut_id, key) :: (try Hashtbl.find by_row row with Not_found -> [])));
  let buckets = ref [] in
  Hashtbl.iter (fun _ es -> buckets := ref es :: !buckets) by_row;
  let interleaved = ref [] in
  let drained = ref false in
  while not !drained do
    drained := true;
    List.iter
      (fun b ->
        match !b with
        | [] -> ()
        | e :: rest ->
            b := rest;
            drained := false;
            interleaved := e :: !interleaved)
      !buckets
  done;
  let live = Array.of_list !interleaved in
  (* Individual probes from a cold row buffer, summed. *)
  let individual =
    let t = Dram.create cfg in
    Array.iter (fun (l, k) -> Dram.insert t ~lut_id:l ~key:k ~payload:1L) live;
    Array.fold_left
      (fun acc (l, k) ->
        ignore (Dram.lookup t ~lut_id:l ~key:k);
        acc + Dram.last_probe_cycles t)
      0 live
  in
  let t = Dram.create cfg in
  Array.iter (fun (l, k) -> Dram.insert t ~lut_id:l ~key:k ~payload:1L) live;
  let results, bulk_cycles = Dram.bulk_lookup t live in
  Alcotest.(check bool) "bulk never dearer than serial probes" true
    (bulk_cycles <= individual);
  (* With more live entries than rows, at least one row must be shared, so
     the sort saves at least one activation. *)
  if Array.length live > Dram.rows t then
    Alcotest.(check bool) "row sharing amortises an activation" true
      (bulk_cycles < individual);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "bulk result %d" i) true (r <> None))
    results

(* --- approximate payload (criticality split) ---------------------------- *)

let l3_spec rate kind =
  { Fault_model.default with rate; kind; sites = Fault_model.l3_sites_list; seed = 42L }

let test_relaxed_bits_decay () =
  let inj = Injector.create (l3_spec 1.0 Fault_model.Stuck_at_0) in
  let t = Dram.create ~injector:inj (tiny ~rows:1 ~slots:4 ~exact:48 ()) in
  let payload = -1L (* all ones: any stuck-at-0 flip is visible *) in
  Dram.insert t ~lut_id:0 ~key:5L ~payload;
  let high_mask = Int64.shift_left (-1L) 16 in
  (match Dram.lookup t ~lut_id:0 ~key:5L with
  | None -> Alcotest.fail "entry lost"
  | Some v ->
      Alcotest.(check int64) "exact high bits untouched"
        (Int64.logand payload high_mask)
        (Int64.logand v high_mask);
      Alcotest.(check bool) "a relaxed low bit decayed" true (v <> payload));
  Alcotest.(check bool) "decay counted" true
    ((Dram.stats t).Dram.corrupted_reads >= 1);
  (* The decayed value persists: it was written back into the cells. *)
  let first = Dram.lookup t ~lut_id:0 ~key:5L in
  (match first with
  | Some v ->
      Alcotest.(check int64) "still exact up high"
        (Int64.logand payload high_mask)
        (Int64.logand v high_mask)
  | None -> Alcotest.fail "entry lost on reread");
  (* Rewriting the entry restores pristine cells for the high bits. *)
  Dram.insert t ~lut_id:0 ~key:5L ~payload:0x1234_5678_0000_0000L;
  match Dram.lookup t ~lut_id:0 ~key:5L with
  | Some v ->
      Alcotest.(check int64) "rewrite refreshes high bits" 0x1234_5678_0000_0000L
        (Int64.logand v high_mask)
  | None -> Alcotest.fail "entry lost after rewrite"

let test_exact_64_never_decays () =
  let inj = Injector.create (l3_spec 1.0 Fault_model.Transient) in
  let t = Dram.create ~injector:inj (tiny ~rows:1 ~slots:4 ~exact:64 ()) in
  Dram.insert t ~lut_id:0 ~key:5L ~payload:0xDEAD_BEEFL;
  for _ = 1 to 10 do
    Alcotest.(check (option int64)) "fully exact storage" (Some 0xDEAD_BEEFL)
      (Dram.lookup t ~lut_id:0 ~key:5L)
  done;
  Alcotest.(check int) "no corrupted reads" 0 (Dram.stats t).Dram.corrupted_reads

let test_disabled_site_is_exact () =
  (* An injector whose spec does not list l3.payload must leave reads exact
     and not advance its fault stream. *)
  let inj = Injector.create { (l3_spec 1.0 Fault_model.Transient) with
                              sites = [ Fault_model.L1_payload ] } in
  let t = Dram.create ~injector:inj (tiny ~rows:1 ~slots:4 ~exact:0 ()) in
  Dram.insert t ~lut_id:0 ~key:5L ~payload:77L;
  Alcotest.(check (option int64)) "site off, read exact" (Some 77L)
    (Dram.lookup t ~lut_id:0 ~key:5L);
  Alcotest.(check int) "nothing injected" 0
    (Injector.injected_at inj Fault_model.L3_payload)

(* --- snapshot format ---------------------------------------------------- *)

let entry_gen =
  QCheck.Gen.(
    triple (int_range 0 7)
      (map Int64.of_int (int_range 0 1_000_000))
      (map Int64.of_int int))

let sram_capture_fixpoint =
  (* capture -> bytes -> restore -> capture is the identity on sections:
     entry set, payloads, and LRU recency order all survive. *)
  QCheck.Test.make ~name:"sram snapshot roundtrip preserves entries and LRU order"
    ~count:100
    QCheck.(make (Gen.list_size (Gen.int_range 1 120) entry_gen))
    (fun entries ->
      let mk () = Lut.create ~size_bytes:1024 () in
      let a = mk () in
      List.iter (fun (l, k, p) -> Lut.insert a ~lut_id:l ~key:k ~payload:p None)
        entries;
      (* Touch a few keys so recency order differs from insertion order. *)
      List.iteri (fun i (l, k, _) -> if i mod 3 = 0 then
          ignore (Lut.lookup a ~lut_id:l ~key:k)) entries;
      let snap = { Snapshot.sections = [ Snapshot.capture_lut ~name:"l2" a ] } in
      match Snapshot.of_bytes (Snapshot.to_bytes snap) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok decoded ->
          let b = mk () in
          let restored =
            match Snapshot.section decoded "l2" with
            | Some s -> Snapshot.restore_lut s b
            | None -> QCheck.Test.fail_report "section lost"
          in
          (* Recency order survived: re-capturing the restored LUT
             reproduces the original section byte for byte. (Checked before
             the lookups below, which refresh LRU state.) *)
          restored = Snapshot.total_entries snap
          && Snapshot.to_bytes
               { Snapshot.sections = [ Snapshot.capture_lut ~name:"l2" b ] }
             = Snapshot.to_bytes snap
          && (* And every live lookup answers bit-identically. *)
          List.for_all
            (fun (l, k, _) ->
              Lut.lookup a ~lut_id:l ~key:k = Lut.lookup b ~lut_id:l ~key:k)
            entries)

let dram_capture_fixpoint =
  QCheck.Test.make ~name:"dram snapshot roundtrip preserves entries and FIFO order"
    ~count:100
    QCheck.(make (Gen.list_size (Gen.int_range 1 80) entry_gen))
    (fun entries ->
      let cfg = tiny ~rows:4 ~slots:4 () in
      let a = Dram.create cfg in
      List.iter (fun (l, k, p) -> Dram.insert a ~lut_id:l ~key:k ~payload:p) entries;
      let snap = { Snapshot.sections = [ Snapshot.capture_dram ~name:"l3" a ] } in
      match Snapshot.of_bytes (Snapshot.to_bytes snap) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok decoded ->
          let b = Dram.create cfg in
          let restored =
            match Snapshot.section decoded "l3" with
            | Some s -> Snapshot.restore_dram s b
            | None -> QCheck.Test.fail_report "section lost"
          in
          restored = Dram.occupancy a
          && List.for_all
               (fun (l, k, _) ->
                 Dram.lookup a ~lut_id:l ~key:k = Dram.lookup b ~lut_id:l ~key:k)
               entries
          && Snapshot.to_bytes
               { Snapshot.sections = [ Snapshot.capture_dram ~name:"l3" b ] }
             = Snapshot.to_bytes snap)

let sample_snapshot () =
  let lut = Lut.create ~size_bytes:1024 () in
  for i = 1 to 40 do
    Lut.insert lut ~lut_id:(i mod 4) ~key:(Int64.of_int (i * 31))
      ~payload:(Int64.of_int (i * 1001)) None
  done;
  { Snapshot.sections = [ Snapshot.capture_lut ~name:"l1.0" lut ] }

let reject name bytes expect =
  let file = Filename.temp_file "axmemo_test" ".axs" in
  let oc = open_out_bin file in
  output_string oc bytes;
  close_out oc;
  let r = Snapshot.load file in
  Sys.remove file;
  match r with
  | Ok _ -> Alcotest.failf "%s: damaged snapshot accepted" name
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error mentions %S (got %S)" name expect msg)
        true
        (contains msg expect)

let test_snapshot_rejection () =
  let good = Snapshot.to_bytes (sample_snapshot ()) in
  (* Sanity: the pristine bytes decode. *)
  (match Snapshot.of_bytes good with
  | Ok s -> Alcotest.(check int) "pristine decodes" 40 (Snapshot.total_entries s)
  | Error e -> Alcotest.failf "pristine rejected: %s" e);
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    Bytes.to_string b
  in
  reject "bad magic" (flip good 0) "bad magic";
  reject "wrong version" (flip good 8) "unsupported snapshot version";
  reject "corrupted body" (flip good (String.length good / 2)) "checksum";
  (* Cut inside the header so the parser runs out of bytes before it even
     reaches the checksum. *)
  reject "truncated" (String.sub good 0 13) "truncated";
  (* Appended bytes shift where the trailing CRC is read from, so the
     checksum is what catches them. *)
  reject "trailing garbage" (good ^ "junk") "checksum";
  reject "empty file" "" "truncated";
  (* A missing file is a clean one-line error, not an exception. *)
  match Snapshot.load "/nonexistent/axmemo.axs" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error msg -> Alcotest.(check bool) "missing file error" true (String.length msg > 0)

(* A well-formed header and a valid CRC-32 trailer around one section whose
   entry count claims far more entries than the file holds: the trailer is
   an integrity check, not authentication, so anyone can write one. The
   decoder must reject the count before allocating for it. *)
let test_snapshot_claimed_count_bounded () =
  let b = Buffer.create 64 in
  Buffer.add_string b "AXMEMOSN";
  Buffer.add_int32_le b 1l;
  Buffer.add_int32_le b 1l;
  Buffer.add_uint16_le b 2;
  Buffer.add_string b "l2";
  Buffer.add_int32_le b 1_000_000l;
  (* one real entry: lut_id, key, payload *)
  Buffer.add_int32_le b 0l;
  Buffer.add_int64_le b 7L;
  Buffer.add_int64_le b 9L;
  let body = Buffer.contents b in
  let crc = Axmemo_crc.Engine.digest_string Axmemo_crc.Poly.crc32 body in
  Buffer.add_int32_le b (Int64.to_int32 crc);
  let bytes = Buffer.contents b in
  Alcotest.(check int) "48-byte file" 48 (String.length bytes);
  let before = Gc.allocated_bytes () in
  let r = Snapshot.of_bytes bytes in
  let allocated = Gc.allocated_bytes () -. before in
  (match r with
  | Ok _ -> Alcotest.fail "over-claimed snapshot accepted"
  | Error msg -> Alcotest.(check string) "error" "truncated snapshot file" msg);
  Alcotest.(check bool)
    (Printf.sprintf "allocates under 1 MB (%.0f bytes)" allocated)
    true (allocated < 1e6)

let test_snapshot_file_roundtrip () =
  let snap = sample_snapshot () in
  let file = Filename.temp_file "axmemo_test" ".axs" in
  Snapshot.save snap file;
  let r = Snapshot.load file in
  Sys.remove file;
  match r with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
      Alcotest.(check string) "file roundtrip byte-identical"
        (Snapshot.to_bytes snap) (Snapshot.to_bytes loaded)

(* --- cluster capture/restore & L3 integration --------------------------- *)

(* Small LUTs so the shared level actually spills into the DRAM tier. *)
let l3_cfg =
  {
    Corun.default with
    ncores = 2;
    l1_bytes = 1024;
    shared_l2_bytes = 4096;
    workloads = [ "blackscholes"; "sobel" ];
    requests = 8;
    variant = W.Workload.Sample;
    l3 = Some { Dram.default with size_bytes = 256 * 1024; row_bytes = 1024 };
  }

(* A co-run is a 1-node cluster; its node 0 holds the plain LUT levels. *)
let corun_keep node =
  let o, t = Cluster.run_keep { Cluster.default with nodes = 1; node } in
  (o, Cluster.node_cluster t ~node:0)

let l3_outcome = lazy (corun_keep l3_cfg)

let test_cluster_l3_summary () =
  let o, _ = Lazy.force l3_outcome in
  match o.Cluster.node_summaries.(0).Cluster.l3 with
  | None -> Alcotest.fail "l3 summary missing"
  | Some { Cluster.stats = s; occupancy; capacity } ->
      Alcotest.(check bool) "spills reached the tier" true (s.Dram.inserts > 0);
      Alcotest.(check bool) "tier was probed" true (s.Dram.probes > 0);
      Alcotest.(check int) "probes split into hits+misses" s.Dram.probes
        (s.Dram.hits + s.Dram.misses);
      (* Inserts are charged as row traffic too, so row touches can only
         exceed probes. *)
      Alcotest.(check bool) "every probe touched a row" true
        (s.Dram.row_hits + s.Dram.row_activations >= s.Dram.probes);
      Alcotest.(check bool) "occupancy within capacity" true (occupancy <= capacity);
      Alcotest.(check bool) "label advertises the tier" true
        (contains (Corun.label l3_cfg) "l3=256KB")

let test_cluster_capture_restore () =
  let _, cluster = Lazy.force l3_outcome in
  let snap = Corun.capture_snapshot cluster in
  let names = List.map (fun (s : Snapshot.section) -> s.Snapshot.name)
      snap.Snapshot.sections in
  Alcotest.(check (list string)) "sections per level"
    [ "l1.0"; "l1.1"; "l2"; "l3" ] names;
  Alcotest.(check bool) "captured something" true (Snapshot.total_entries snap > 0);
  (* Restoring into a fresh cluster replays every captured entry. *)
  let fresh = snd (corun_keep { l3_cfg with requests = 0 }) in
  let restored, _, _ = Corun.restore_snapshot_stats fresh snap in
  Alcotest.(check int) "every entry restored" (Snapshot.total_entries snap) restored;
  (* And a re-capture of the restored cluster is byte-identical. *)
  Alcotest.(check string) "restored cluster re-captures identically"
    (Snapshot.to_bytes snap)
    (Snapshot.to_bytes (Corun.capture_snapshot fresh))

let test_l3_absent_unchanged () =
  (* The tier is strictly opt-in: without it the label, the outcome record
     and the report JSON must not mention it at all. *)
  let cfg = { l3_cfg with l3 = None } in
  let o, _ = corun_keep cfg in
  Alcotest.(check bool) "no l3 summary" true (o.Cluster.node_summaries.(0).Cluster.l3 = None);
  let has_l3 s = contains s "\"l3\"" in
  Alcotest.(check bool) "label silent" false (contains (Corun.label cfg) "l3");
  Alcotest.(check bool) "report json silent" false
    (has_l3 (Json.to_string (Cluster.report [ o ])))

(* --- serve warm start --------------------------------------------------- *)

let serve_cfg warm_start =
  {
    Serve.default with
    cluster =
      {
        Corun.default with
        ncores = 2;
        workloads = [ "blackscholes"; "sobel" ];
        requests = 12;
        variant = W.Workload.Sample;
      };
    arrival = Arrival.Poisson;
    load = 0.8;
    queue_capacity = 8;
    warm_start;
  }

let test_warm_start_beats_cold () =
  (* Warm a closed cluster, snapshot it, and compare a cold serve run with
     its warm twin: same arrivals, better first-window hit rate. *)
  let _, warmed = corun_keep (serve_cfg None).Serve.cluster in
  let file = Filename.temp_file "axmemo_test" ".axs" in
  Snapshot.save (Corun.capture_snapshot warmed) file;
  let cold = Serve.run (serve_cfg None) in
  let warm = Serve.run (serve_cfg (Some file)) in
  Sys.remove file;
  Alcotest.(check int) "cold restores nothing" 0 cold.Serve.restored_entries;
  Alcotest.(check bool) "warm restored entries" true (warm.Serve.restored_entries > 0);
  (* The arrival stream ignores warm_start: both runs face identical
     arrivals. *)
  Alcotest.(check (list int)) "same arrivals"
    (List.map (fun (r : Serve.request_record) -> r.Serve.arrival) cold.Serve.requests)
    (List.map (fun (r : Serve.request_record) -> r.Serve.arrival) warm.Serve.requests);
  Alcotest.(check bool)
    (Printf.sprintf "warm first-window hit rate improves (%.3f -> %.3f)"
       cold.Serve.cold_hit_rate warm.Serve.cold_hit_rate)
    true
    (warm.Serve.cold_hit_rate > cold.Serve.cold_hit_rate);
  let has_warm s = contains s "+warm" in
  Alcotest.(check bool) "warm label tagged" true
    (has_warm (Serve.label (serve_cfg (Some file))));
  Alcotest.(check bool) "cold label untagged" false
    (has_warm (Serve.label (serve_cfg None)))

let test_warm_start_bad_file_rejected () =
  Alcotest.(check bool) "invalid snapshot raises Invalid_argument" true
    (match Serve.run (serve_cfg (Some "/nonexistent/warm.axs")) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- suites ------------------------------------------------------------- *)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ sram_capture_fixpoint; dram_capture_fixpoint ]

let () =
  Alcotest.run "tier"
    [
      ( "dram_lut",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "row-buffer pricing" `Quick test_row_buffer_pricing;
          Alcotest.test_case "insert/lookup/per-row FIFO" `Quick test_insert_lookup_fifo;
          Alcotest.test_case "bulk probe amortisation" `Quick test_bulk_amortisation;
        ] );
      ( "approx_payload",
        [
          Alcotest.test_case "relaxed low bits decay" `Quick test_relaxed_bits_decay;
          Alcotest.test_case "64 exact bits never decay" `Quick test_exact_64_never_decays;
          Alcotest.test_case "disabled site stays exact" `Quick test_disabled_site_is_exact;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "file roundtrip" `Quick test_snapshot_file_roundtrip;
          Alcotest.test_case "damaged files rejected" `Quick test_snapshot_rejection;
          Alcotest.test_case "claimed entry count bounded" `Quick
            test_snapshot_claimed_count_bounded;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "l3 summary" `Quick test_cluster_l3_summary;
          Alcotest.test_case "capture/restore" `Quick test_cluster_capture_restore;
          Alcotest.test_case "l3-absent runs untouched" `Quick test_l3_absent_unchanged;
        ] );
      ( "serve",
        [
          Alcotest.test_case "warm start beats cold" `Slow test_warm_start_beats_cold;
          Alcotest.test_case "bad warm-start rejected" `Quick
            test_warm_start_bad_file_rejected;
        ] );
      ("properties", qsuite);
    ]
