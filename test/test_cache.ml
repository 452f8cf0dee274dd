(* Tests for the set-associative cache model and the two-level hierarchy. *)

module Sa = Axmemo_cache.Sa_cache
module H = Axmemo_cache.Hierarchy

let mk ?(size = 1024) ?(ways = 4) ?(line = 64) () =
  Sa.create ~name:"t" ~size_bytes:size ~ways ~line_bytes:line

let test_geometry () =
  let c = mk () in
  Alcotest.(check int) "sets" 4 (Sa.sets c);
  Alcotest.(check int) "ways" 4 (Sa.ways c);
  Alcotest.(check int) "line" 64 (Sa.line_bytes c)

let test_geometry_invalid () =
  Alcotest.(check bool) "indivisible size rejected" true
    (try
       ignore (Sa.create ~name:"x" ~size_bytes:1000 ~ways:3 ~line_bytes:64);
       false
     with Invalid_argument _ -> true)

let test_miss_then_hit () =
  let c = mk () in
  Alcotest.(check bool) "cold miss" true (Sa.access c ~addr:0 ~write:false = `Miss);
  Alcotest.(check bool) "warm hit" true (Sa.access c ~addr:32 ~write:false = `Hit)

let test_lru_eviction () =
  let c = mk ~size:256 ~ways:2 ~line:64 () in
  (* 2 sets; addresses mapping to set 0: 0, 128, 256, ... *)
  ignore (Sa.access c ~addr:0 ~write:false);
  ignore (Sa.access c ~addr:128 ~write:false);
  (* touch 0 so 128 becomes LRU *)
  ignore (Sa.access c ~addr:0 ~write:false);
  ignore (Sa.access c ~addr:256 ~write:false);
  (* evicts 128 *)
  Alcotest.(check bool) "0 still resident" true (Sa.probe c ~addr:0);
  Alcotest.(check bool) "128 evicted" false (Sa.probe c ~addr:128);
  Alcotest.(check bool) "256 resident" true (Sa.probe c ~addr:256)

let test_probe_no_state_change () =
  let c = mk ~size:256 ~ways:2 ~line:64 () in
  ignore (Sa.access c ~addr:0 ~write:false);
  ignore (Sa.access c ~addr:128 ~write:false);
  (* probing 0 must NOT refresh its LRU position *)
  ignore (Sa.probe c ~addr:0);
  ignore (Sa.access c ~addr:256 ~write:false);
  Alcotest.(check bool) "0 was LRU despite probe" false (Sa.probe c ~addr:0)

let test_stats () =
  let c = mk () in
  ignore (Sa.access c ~addr:0 ~write:false);
  ignore (Sa.access c ~addr:0 ~write:true);
  ignore (Sa.access c ~addr:4096 ~write:false);
  let s = Sa.stats c in
  Alcotest.(check int) "accesses" 3 s.accesses;
  Alcotest.(check int) "hits" 1 s.hits;
  Alcotest.(check int) "misses" 2 s.misses;
  Alcotest.(check int) "writes" 1 s.writes;
  Alcotest.(check (float 1e-9)) "hit rate" (1.0 /. 3.0) (Sa.hit_rate c);
  Sa.reset_stats c;
  Alcotest.(check int) "reset" 0 (Sa.stats c).accesses

let test_invalidate_all () =
  let c = mk () in
  ignore (Sa.access c ~addr:0 ~write:false);
  Sa.invalidate_all c;
  Alcotest.(check bool) "gone" false (Sa.probe c ~addr:0)

(* --- hierarchy --- *)

let test_hierarchy_latencies () =
  let h = H.create H.hpi_default in
  let cfg = H.config h in
  let cold = H.read h ~addr:0 in
  Alcotest.(check int) "cold read = L1+L2+DRAM"
    (cfg.l1_latency + cfg.l2_latency + cfg.dram_latency)
    cold;
  let warm = H.read h ~addr:0 in
  Alcotest.(check int) "warm read = L1" cfg.l1_latency warm

let test_hierarchy_l2_hit () =
  let h =
    H.create { H.hpi_default with l1_size = 128; l1_ways = 2; l2_size = 64 * 1024 }
  in
  let cfg = H.config h in
  (* Fill L1's single set beyond capacity so addr 0 falls back to L2.
     Use far-apart addresses to dodge the next-line prefetcher. *)
  ignore (H.read h ~addr:0);
  ignore (H.read h ~addr:8192);
  ignore (H.read h ~addr:16384);
  let lat = H.read h ~addr:0 in
  Alcotest.(check int) "L2 hit" (cfg.l1_latency + cfg.l2_latency) lat

let test_hierarchy_prefetch_stream () =
  let h = H.create H.hpi_default in
  ignore (H.read h ~addr:0);
  (* Next-line prefetch should have staged the following lines. *)
  let lat = H.read h ~addr:64 in
  Alcotest.(check int) "prefetched line hits L1" (H.config h).l1_latency lat

let test_hierarchy_write () =
  let h = H.create H.hpi_default in
  Alcotest.(check int) "store buffer cost" 1 (H.write h ~addr:0);
  (* write-allocate: a read of the same line now hits *)
  Alcotest.(check int) "allocated" (H.config h).l1_latency (H.read h ~addr:0)

let test_carve_l2 () =
  let c = H.carve_l2 H.hpi_default ~lut_bytes:(256 * 1024) in
  Alcotest.(check int) "ways reduced" 12 c.l2_ways;
  Alcotest.(check int) "size reduced" (768 * 1024) c.l2_size;
  let unchanged = H.carve_l2 H.hpi_default ~lut_bytes:0 in
  Alcotest.(check int) "zero carve unchanged" 16 unchanged.l2_ways

let test_carve_l2_limit () =
  Alcotest.(check bool) "over half rejected" true
    (try
       ignore (H.carve_l2 H.hpi_default ~lut_bytes:(600 * 1024));
       false
     with Invalid_argument _ -> true)

(* The read-latency histogram counts service levels and is folded in at
   flush: exact buckets, total and sum, nothing added by a second flush,
   and no allocation per read. *)
let test_read_latency_histogram () =
  let module R = Axmemo_telemetry.Registry in
  let reg = R.create () in
  let h =
    H.create ~metrics:reg { H.hpi_default with l1_size = 128; l1_ways = 2; l2_size = 64 * 1024 }
  in
  let cfg = H.config h in
  (* three DRAM reads fill L1's one set, so addr 0 comes back from L2 and
     prefetches line 128 into L1 *)
  let lats = List.map (fun addr -> H.read h ~addr) [ 0; 8192; 16384; 0; 128 ] in
  let l1 = cfg.l1_latency and l2 = cfg.l1_latency + cfg.l2_latency in
  let dram = l2 + cfg.dram_latency in
  Alcotest.(check (list int)) "service levels" [ dram; dram; dram; l2; l1 ] lats;
  let hist () =
    match List.assoc "cache.read_latency" (R.snapshot reg) with
    | R.Histogram d -> d
    | _ -> Alcotest.fail "cache.read_latency is not a histogram"
  in
  Alcotest.(check int) "nothing before the flush" 0 (hist ()).total;
  H.flush_metrics h;
  let d = hist () in
  Alcotest.(check (array int)) "counts" [| 1; 1; 3; 0 |] d.counts;
  Alcotest.(check int) "total" 5 d.total;
  Alcotest.(check (float 0.0)) "sum" (float_of_int (List.fold_left ( + ) 0 lats)) d.sum;
  H.flush_metrics h;
  Alcotest.(check bool) "a second flush adds nothing" true (hist () = d);
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    ignore (H.read h ~addr:((i * 64) land 0xFFFF))
  done;
  let per_read = (Gc.minor_words () -. w0) /. 10_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per read < 1" per_read)
    true (per_read < 1.0)

(* --- properties --- *)

let prop_accesses_equal_hits_plus_misses =
  QCheck.Test.make ~name:"accesses = hits + misses" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 500) (int_bound 100_000))
    (fun addrs ->
      let c = mk () in
      List.iter (fun a -> ignore (Sa.access c ~addr:a ~write:false)) addrs;
      let s = Sa.stats c in
      s.accesses = s.hits + s.misses && s.accesses = List.length addrs)

let prop_working_set_within_capacity_never_misses_twice =
  QCheck.Test.make ~name:"small working set has only cold misses" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_bound 3))
    (fun lines ->
      (* 4 distinct lines in a 16-line cache: after the cold miss each line
         always hits. *)
      let c = mk () in
      List.iter (fun l -> ignore (Sa.access c ~addr:(l * 64) ~write:false)) lines;
      let distinct = List.sort_uniq compare lines in
      (Sa.stats c).misses = List.length distinct)

let prop_hit_rate_bounded =
  QCheck.Test.make ~name:"hit rate in [0,1]" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (int_bound 10_000))
    (fun addrs ->
      let c = mk () in
      List.iter (fun a -> ignore (Sa.access c ~addr:a ~write:false)) addrs;
      let r = Sa.hit_rate c in
      r >= 0.0 && r <= 1.0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_accesses_equal_hits_plus_misses;
      prop_working_set_within_capacity_never_misses_twice;
      prop_hit_rate_bounded;
    ]

let () =
  Alcotest.run "cache"
    [
      ( "sa_cache",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "geometry invalid" `Quick test_geometry_invalid;
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "probe is pure" `Quick test_probe_no_state_change;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "invalidate all" `Quick test_invalidate_all;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latency ladder" `Quick test_hierarchy_latencies;
          Alcotest.test_case "l2 hit" `Quick test_hierarchy_l2_hit;
          Alcotest.test_case "prefetch stream" `Quick test_hierarchy_prefetch_stream;
          Alcotest.test_case "write" `Quick test_hierarchy_write;
          Alcotest.test_case "carve l2" `Quick test_carve_l2;
          Alcotest.test_case "carve limit" `Quick test_carve_l2_limit;
          Alcotest.test_case "read-latency histogram" `Quick test_read_latency_histogram;
        ] );
      ("properties", qsuite);
    ]
