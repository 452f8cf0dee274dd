(* The sharded cluster on its write-heavy side: 4 nodes x 2 cores running a
   kmeans+sobel+blackscholes mix on Sample inputs, with tiny SRAM LUTs (1 KB
   L1, 4 KB shared), a 256 KB DRAM L3, replication after one remote hit and
   the invalidation directory on. LUT inserts, evictions, L3 spills, remote
   inserts, barrier invalidations and remote probes are frequent here and
   rare in the two read-heavy workloads. The round ends with a snapshot
   capture and a restore into a fresh cluster. *)

module Runner = Axmemo.Runner
module Workload = Axmemo_workloads.Workload
module Corun = Axmemo_multicore.Corun
module Schedule = Axmemo_multicore.Schedule
module Cluster = Axmemo_cluster.Cluster
module Dram_lut = Axmemo_tier.Dram_lut
module Snapshot = Axmemo_tier.Snapshot
module Json = Axmemo_util.Json

let name = "cluster_churn"
let jobs = 1
let mix = [ "kmeans"; "sobel"; "blackscholes" ]
let requests = 104

let config =
  {
    Cluster.default with
    Cluster.nodes = 4;
    node =
      {
        Corun.default with
        ncores = 2;
        l1_bytes = 1024;
        shared_l2_bytes = 4096;
        workloads = mix;
        requests;
        variant = Workload.Sample;
        l3 = Some { Dram_lut.default with Dram_lut.size_bytes = 256 * 1024; row_bytes = 1024 };
      };
    replicate_threshold = 1;
    directory = true;
  }

(* Written and read back inside the working directory, then removed. *)
let snapshot_file = ".hostbench-snapshot.axs"

let int_at path json =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path
  |> Fun.flip Option.bind Json.to_float
  |> Option.map int_of_float
  |> Option.value ~default:(-1)

let dram_stats t =
  List.filter_map
    (fun node -> Option.map Dram_lut.stats (Corun.dram_lut (Cluster.node_cluster t ~node)))
    (List.init (Cluster.nodes t) Fun.id)

type input = Cluster.t * Schedule.request list * float

(* The inputs, the cluster (with its creation time) and the request stream. *)
let setup ledger =
  List.iter (fun b -> ignore (Ledger.span ledger "workloads" (fun () -> Ablation.maker b Workload.Sample))) mix;
  let t, create_s =
    Check.timed (fun () -> Ledger.span ledger "cluster" (fun () -> Cluster.create ~metrics:true config))
  in
  (t, Schedule.stream ~workloads:mix ~requests, create_s)

let round ~jobs:_ ledger (t, stream, create_s) =
  let exec_s = ref 0.0 and settle_s = ref 0.0 and report_s = ref 0.0 in
  let capture_s = ref 0.0 and restore_s = ref 0.0 in
  let acc r f =
    let x, s = Check.timed f in
    r := !r +. s;
    x
  in
  let result, wall_s =
    Check.timed (fun () ->
        Ledger.span ledger "round" (fun () ->
            match
              let placements, _busy =
                Schedule.dispatch ~ncores:(Cluster.global_cores t)
                  ~run:(fun (r : Schedule.request) ~core ~start ->
                    let res =
                      acc exec_s (fun () ->
                          Ledger.span ledger "cluster" (fun () ->
                              Cluster.exec_request t ~workload:r.Schedule.workload ~gcore:core ~start))
                    in
                    (res.Runner.cycles, res))
                  stream
              in
              let settled =
                acc settle_s (fun () ->
                    Ledger.span ledger "cluster" (fun () ->
                        let s = Cluster.settle t in
                        Cluster.flush_metrics t;
                        s))
              in
              let section, bytes =
                acc report_s (fun () ->
                    Ledger.span ledger "telemetry" (fun () ->
                        let j = Cluster.section t ~settled in
                        (j, String.length (Json.to_string j))))
              in
              let first =
                acc capture_s (fun () ->
                    Ledger.span ledger "tier" (fun () ->
                        let snap = Cluster.capture_snapshot t in
                        Snapshot.save snap snapshot_file;
                        snap))
              in
              let fresh = Ledger.span ledger "cluster" (fun () -> Cluster.create config) in
              acc restore_s (fun () ->
                  Ledger.span ledger "tier" (fun () ->
                      match Snapshot.load snapshot_file with
                      | Ok snap -> ignore (Cluster.restore_snapshot fresh snap)
                      | Error e -> failwith e));
              let again = Ledger.span ledger "tier" (fun () -> Cluster.capture_snapshot fresh) in
              (placements, settled, section, bytes, Snapshot.to_bytes first = Snapshot.to_bytes again)
            with
            | x -> Some x
            | exception _ -> None))
  in
  if Sys.file_exists snapshot_file then Sys.remove snapshot_file;
  match result with
  | None ->
      let ops = List.map (fun (r : Schedule.request) -> Check.raised (Printf.sprintf "r%d" r.Schedule.rid)) stream in
      { Check.wall_s; busy_s = 0.0; steps = []; ops; layers = [] }
  | Some (placements, settled, section, report_bytes, snapshot_identity) ->
      let inv_sent = int_at [ "directory"; "sent" ] section in
      let inv_events = int_at [ "directory"; "events" ] section in
      let broadcast = int_at [ "directory"; "broadcast_equivalent" ] section in
      let remote_probes = int_at [ "remote_probes" ] section in
      let remote_hits = int_at [ "remote_hits" ] section in
      let shard_accesses =
        match Json.member "shard_accesses" section with
        | Some (Json.Arr xs) -> List.fold_left (fun a j -> a + int_of_float (Option.value ~default:0.0 (Json.to_float j))) 0 xs
        | _ -> 0
      in
      (* The node-level settlement, re-derived through the multicore layer's
         own public call: arbitration settlement is a pure function of the
         recorded accesses, so the twin must agree with the cluster's. *)
      let node_settle, multicore_settle_s =
        Check.timed (fun () ->
            List.init (Cluster.nodes t) (fun node ->
                let c = Cluster.node_cluster t ~node in
                let s = Corun.settle_arbiter c in
                Corun.flush_metrics c;
                s))
      in
      let ok =
        inv_sent >= 0 && inv_sent <= broadcast && snapshot_identity
        && node_settle = Array.to_list settled.Cluster.bank
      in
      let ops =
        List.map
          (fun (p : Runner.result Schedule.placement) ->
            Check.of_result ~ok
              ~id:(Printf.sprintf "r%d" p.Schedule.request.Schedule.rid)
              ~placement:(Printf.sprintf "%d:%d:%d" p.Schedule.core p.Schedule.start p.Schedule.finish)
              p.Schedule.payload)
          placements
      in
      let instrs = Check.total_instrs ops in
      let dram = dram_stats t in
      let dsum f = List.fold_left (fun a s -> a + f s) 0 dram in
      let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      let m = Metric.make in
      let layers =
        [
          m "multicore.exec_ms_p50" "ms" (1000.0 *. Pctl.median (List.map (fun (op : Check.op) -> op.host_s) ops));
          m "multicore.settle_s" "s" multicore_settle_s;
          m "multicore.contended_frac" "ratio" (ratio settled.Cluster.contended_accesses settled.Cluster.shared_accesses);
          m "telemetry.report_s" "s" !report_s;
          m "telemetry.report_bytes" "bytes" (float_of_int report_bytes);
          m "cluster.create_s" "s" create_s;
          m "cluster.ns_per_instr" "ns" (if instrs = 0 then 0.0 else !exec_s /. float_of_int instrs *. 1e9);
          m "cluster.settle_s" "s" !settle_s;
          m "cluster.remote_probe_frac" "ratio" (ratio remote_probes shard_accesses);
          m "cluster.remote_hit_frac" "ratio" (ratio remote_hits remote_probes);
          m "cluster.inv_sent_per_event" "ratio" (ratio inv_sent inv_events);
          m "cluster.net_messages" "count" (float_of_int (int_at [ "net"; "messages" ] section));
          m "tier.l3_hit_frac" "ratio" (ratio (dsum (fun s -> s.Dram_lut.hits)) (dsum (fun s -> s.Dram_lut.probes)));
          m "tier.spills" "count" (float_of_int (dsum (fun s -> s.Dram_lut.inserts)));
          m "tier.snapshot_capture_s" "s" !capture_s;
          m "tier.snapshot_restore_s" "s" !restore_s;
        ]
      in
      let busy_s = List.fold_left (fun a (op : Check.op) -> a +. op.host_s) 0.0 ops in
      let steps =
        [ ("settle", !settle_s); ("report", !report_s); ("capture", !capture_s); ("restore", !restore_s) ]
        @ List.map (fun (op : Check.op) -> (op.Check.id, op.Check.host_s)) ops
      in
      { Check.wall_s; busy_s; steps; ops; layers }

let ablation_cells () = Ablation.cells ~variant:Workload.Sample mix
let probe (_ : Check.round) = []
