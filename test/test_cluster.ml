(* Tests for the sharded multi-node cluster: shard-routing totality and
   uniformity, directory vs broadcast invalidation semantics (same final
   LUT contents, strictly fewer messages), replication hit-share
   monotonicity in the threshold, serial/parallel report byte-identity,
   per-node fault streams, and the config validators behind the CLI's flag
   hygiene. *)

module Cluster = Axmemo_cluster.Cluster
module Corun = Axmemo_multicore.Corun
module Snapshot = Axmemo_tier.Snapshot
module Runner = Axmemo.Runner
module Json = Axmemo_util.Json
module Shared_lut = Axmemo_multicore.Shared_lut
module Fault_model = Axmemo_faults.Fault_model
module Injector = Axmemo_faults.Injector

(* --- shard routing --- *)

(* Deterministic 64-bit key stream (splitmix-style), so the uniformity
   check never depends on global RNG state. *)
let key_stream n =
  let x = ref 0x9E3779B97F4A7C15L in
  Array.init n (fun _ ->
      x := Int64.add !x 0x9E3779B97F4A7C15L;
      let z = !x in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
      Int64.logxor z (Int64.shift_right_logical z 31))

let test_shard_total () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"shard in range"
       (QCheck.pair QCheck.int64 (QCheck.int_range 1 8))
       (fun (key, nodes) ->
         let s = Cluster.shard_of_key ~nodes key in
         s >= 0 && s < nodes))

let test_shard_uniformity () =
  (* Random key sets spread across shards with Jain >= 0.95 — the balance
     the report's shard_balance_jain metric is expected to show. *)
  List.iter
    (fun nodes ->
      let keys = key_stream 4096 in
      let buckets = Array.make nodes 0 in
      Array.iter
        (fun k ->
          let s = Cluster.shard_of_key ~nodes k in
          buckets.(s) <- buckets.(s) + 1)
        keys;
      let j =
        Axmemo_multicore.Schedule.jain_fairness (Array.map float_of_int buckets)
      in
      if j < 0.95 then
        Alcotest.failf "nodes=%d: shard Jain %.4f < 0.95" nodes j)
    [ 2; 3; 4; 8 ]

let test_shard_independent_of_low_bits () =
  (* Set-index bits (the low ones) must not move an entry's home. *)
  let k = 0x12345678L in
  let nodes = 4 in
  let home = Cluster.shard_of_key ~nodes k in
  for low = 0 to 255 do
    let k' = Int64.logor (Int64.logand k (Int64.lognot 0xFFL)) (Int64.of_int low) in
    Alcotest.(check int) "home stable under low bits" home
      (Cluster.shard_of_key ~nodes k')
  done

let test_ring_hops () =
  Alcotest.(check int) "adjacent" 1 (Cluster.ring_hops ~nodes:4 0 1);
  Alcotest.(check int) "wrap" 1 (Cluster.ring_hops ~nodes:4 0 3);
  Alcotest.(check int) "across" 2 (Cluster.ring_hops ~nodes:4 0 2);
  Alcotest.(check int) "self" 0 (Cluster.ring_hops ~nodes:4 2 2)

(* --- directory vs broadcast --- *)

let kmeans_cluster ~directory =
  {
    Cluster.default with
    nodes = 2;
    directory;
    node =
      { Corun.default with ncores = 2; workloads = [ "kmeans"; "sobel" ]; requests = 4 };
  }

let strip_wall (o : Cluster.outcome) =
  List.map
    (fun (r : Cluster.request_run) ->
      (r.Cluster.rid, r.Cluster.gcore, r.Cluster.start, r.Cluster.finish,
       { r.Cluster.result with Runner.sim_wall_seconds = 0.0 }))
    o.Cluster.requests

let test_directory_equals_broadcast () =
  (* kmeans retires mid-program invalidates; the directory must reach the
     same final LUT contents and the same execution as broadcast mode while
     never sending more node messages — and strictly fewer invalidations
     than the flat per-core broadcast fan-out (the measured
     corun.invalidate.* baseline it has to beat). *)
  let od, td = Cluster.run_keep (kmeans_cluster ~directory:true) in
  let ob, tb = Cluster.run_keep (kmeans_cluster ~directory:false) in
  Alcotest.(check string) "final LUT contents"
    (Snapshot.to_bytes (Cluster.capture_snapshot tb))
    (Snapshot.to_bytes (Cluster.capture_snapshot td));
  Alcotest.(check bool) "same execution" true (strip_wall od = strip_wall ob);
  Alcotest.(check int) "same events" ob.Cluster.inv_events od.Cluster.inv_events;
  Alcotest.(check bool) "invalidates happened" true (od.Cluster.inv_events > 0);
  (* Broadcast mode messages every other node per event. *)
  Alcotest.(check int) "broadcast sends everything"
    (ob.Cluster.inv_events * 1)
    ob.Cluster.inv_sent;
  Alcotest.(check bool) "directory never sends more" true
    (od.Cluster.inv_sent <= ob.Cluster.inv_sent);
  Alcotest.(check int) "sent + filtered = node fan-out"
    (od.Cluster.inv_events * 1)
    (od.Cluster.inv_sent + od.Cluster.inv_filtered);
  Alcotest.(check bool) "strictly beats flat core broadcast" true
    (od.Cluster.inv_sent < od.Cluster.inv_broadcast_equivalent);
  Alcotest.(check int) "flat fan-out" (od.Cluster.inv_events * 3)
    od.Cluster.inv_broadcast_equivalent

(* --- replication --- *)

let rep_cluster threshold =
  {
    Cluster.default with
    nodes = 2;
    replicate_threshold = threshold;
    node =
      { Corun.default with ncores = 2; workloads = [ "blackscholes"; "sobel" ]; requests = 8 };
  }

let test_replication_monotone () =
  (* A lower install threshold can only convert more remote hits into
     replica hits: the hit share is monotone non-increasing in the
     threshold, and a threshold no remote entry ever reaches yields no
     replicas at all. *)
  let o1 = Cluster.run (rep_cluster 1) in
  let o4 = Cluster.run (rep_cluster 4) in
  let off = Cluster.run (rep_cluster 0) in
  Alcotest.(check bool) "replicas installed at t=1" true (o1.Cluster.replica_installs > 0);
  Alcotest.(check bool) "replica hits at t=1" true (o1.Cluster.replica_hits > 0);
  Alcotest.(check bool) "share monotone" true
    (o1.Cluster.replication_hit_share >= o4.Cluster.replication_hit_share);
  Alcotest.(check int) "off = no installs" 0 off.Cluster.replica_installs;
  Alcotest.(check (float 0.0)) "off = zero share" 0.0 off.Cluster.replication_hit_share;
  Alcotest.(check bool) "share bounded" true
    (o1.Cluster.replication_hit_share >= 0.0 && o1.Cluster.replication_hit_share <= 1.0)

(* --- serial vs parallel byte-identity --- *)

let test_matrix_jobs_byte_identical () =
  let cfgs =
    [
      {
        Cluster.default with
        nodes = 2;
        node = { Corun.default with ncores = 2; workloads = [ "blackscholes"; "sobel" ]; requests = 6 };
      };
      {
        Cluster.default with
        nodes = 4;
        replicate_threshold = 2;
        node = { Corun.default with ncores = 1; workloads = [ "kmeans"; "sobel" ]; requests = 4 };
      };
    ]
  in
  let render jobs =
    Json.to_string ~indent:2 (Cluster.report (Cluster.run_matrix ~jobs cfgs))
  in
  Alcotest.(check string) "jobs=1 == jobs=4" (render 1) (render 4)

(* --- scale-out sanity --- *)

let test_scale_out_throughput () =
  (* Fixed total work over growing node counts: 2 nodes must beat 1 node
     on the shard-friendly mix — the cluster-smoke gate in miniature. *)
  let cell nodes =
    Cluster.run
      {
        Cluster.default with
        nodes;
        node =
          { Corun.default with ncores = 2; workloads = [ "blackscholes"; "sobel" ]; requests = 8 };
      }
  in
  let o1 = cell 1 and o2 = cell 2 in
  Alcotest.(check bool) "2 nodes beat 1" true
    (o2.Cluster.throughput_rps > o1.Cluster.throughput_rps);
  Alcotest.(check bool) "balanced shards" true (o2.Cluster.shard_balance >= 0.9)

(* --- per-node fault streams --- *)

(* The same lookup+insert sequence into each node's shared LUT draws a
   different upset stream per node, and node 0 replays the 1-node
   cluster's (the co-run's) stream exactly. *)
let test_per_node_fault_streams () =
  let faults =
    {
      Fault_model.default with
      Fault_model.rate = 0.05;
      sites = Fault_model.[ L2_tag; L2_payload; L2_valid; L2_lru ];
    }
  in
  let node = { Corun.default with Corun.faults = Some faults } in
  let drive t j =
    let c = Cluster.node_cluster t ~node:j in
    let shared = Corun.shared_lut c in
    for i = 1 to 1000 do
      let key = Int64.of_int (i * 7919) in
      ignore (Shared_lut.lookup shared ~core:0 ~lut_id:0 ~key);
      Shared_lut.insert shared ~core:0 ~lut_id:0 ~key ~payload:(Int64.of_int i)
    done;
    Option.get (Corun.fault_stats c)
  in
  let two = Cluster.create { Cluster.default with nodes = 2; node } in
  let s0 = drive two 0 and s1 = drive two 1 in
  Alcotest.(check bool) "both nodes struck" true
    (s0.Injector.injected_total > 0 && s1.Injector.injected_total > 0);
  Alcotest.(check bool) "node streams differ" true (s0 <> s1);
  let one = Cluster.create { Cluster.default with nodes = 1; node } in
  Alcotest.(check bool) "node 0 keeps the spec's stream" true (drive one 0 = s0)

(* --- config validation (CLI flag hygiene backs onto these) --- *)

let test_validate_rejects () =
  let rejects cfg =
    try
      Cluster.validate cfg;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "0 nodes" true (rejects { Cluster.default with nodes = 0 });
  Alcotest.(check bool) "63 nodes" true (rejects { Cluster.default with nodes = 63 });
  Alcotest.(check bool) "negative threshold" true
    (rejects { Cluster.default with replicate_threshold = -1 });
  Alcotest.(check bool) "0-cycle messages" true
    (rejects { Cluster.default with net_msg_cycles = 0 });
  Alcotest.(check bool) "0 ports" true (rejects { Cluster.default with net_ports = 0 });
  Alcotest.(check bool) "negative hop energy" true
    (rejects { Cluster.default with net_hop_pj = -1.0 });
  Alcotest.(check bool) "nan hop energy" true
    (rejects { Cluster.default with net_hop_pj = Float.nan });
  Cluster.validate Cluster.default

let () =
  Alcotest.run "cluster"
    [
      ( "sharding",
        [
          Alcotest.test_case "total" `Quick test_shard_total;
          Alcotest.test_case "uniform" `Quick test_shard_uniformity;
          Alcotest.test_case "low bits" `Quick test_shard_independent_of_low_bits;
          Alcotest.test_case "ring hops" `Quick test_ring_hops;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "directory = broadcast" `Quick test_directory_equals_broadcast;
          Alcotest.test_case "replication monotone" `Quick test_replication_monotone;
          Alcotest.test_case "jobs byte-identical" `Quick test_matrix_jobs_byte_identical;
          Alcotest.test_case "scale-out" `Quick test_scale_out_throughput;
          Alcotest.test_case "per-node fault streams" `Quick test_per_node_fault_streams;
        ] );
      ( "validation",
        [ Alcotest.test_case "rejects" `Quick test_validate_rejects ] );
    ]
