(* The sharded multi-node memoization cluster.

   M nodes, each a full Corun cluster (N cores, one shared L2 LUT, a bank
   arbiter, optionally a DRAM L3 tier), joined by a modeled point-to-point
   interconnect. Every LUT entry has one home node — the high bits of its
   CRC tag pick the shard — and all shared-level traffic for that entry
   lands there: a core whose key homes elsewhere probes the remote node's
   shared LUT over the network, and inserts are posted to the home the same
   way. Invalidations go through a directory (per-LUT sharer-node sets)
   instead of a broadcast, and hot remote entries can be replicated into
   the local shared level, with the directory dropping stale replicas when
   the home copy is rewritten.

   Determinism contract, inherited from Corun: requests execute one at a
   time in dispatch order, so every table, counter and message below is a
   pure function of the configuration. Network contention reuses the
   arbiter's post-hoc settlement (banks = destination NICs, window = one
   message's service time); synchronous remote probes additionally charge
   2 x hops x net_msg_cycles per probe, accumulated per core and folded
   into finish times at settlement exactly like arbitration stalls — so
   per-request cycle results stay bit-identical to the node-local model.
   This is the one engine that drives request streams: a 1-node cluster
   installs neither hook and is the co-run, reported in the same layout as
   every other node count. *)

module Corun = Axmemo_multicore.Corun
module Shared_lut = Axmemo_multicore.Shared_lut
module Arbiter = Axmemo_multicore.Arbiter
module Schedule = Axmemo_multicore.Schedule
module Memo_unit = Axmemo_memo.Memo_unit
module Model = Axmemo_energy.Model
module Injector = Axmemo_faults.Injector
module Fault_model = Axmemo_faults.Fault_model
module Workloads = Axmemo_workloads.Registry
module Registry = Axmemo_telemetry.Registry
module Report = Axmemo_telemetry.Report
module Tracer = Axmemo_telemetry.Tracer
module Machine = Axmemo_cpu.Machine
module Dram_lut = Axmemo_tier.Dram_lut
module Snapshot = Axmemo_tier.Snapshot
module Profile = Axmemo_obs.Profile
module Runner = Axmemo.Runner
module Json = Axmemo_util.Json
module Pool = Axmemo_util.Pool
module Rng = Axmemo_util.Rng

type config = {
  nodes : int;
  node : Corun.config;
      (* per-node shape (cores, LUT sizes, partition, mix); [node.requests]
         is the TOTAL stream length across the cluster, so scale-out sweeps
         compare fixed work over growing node counts *)
  replicate_threshold : int;  (* remote hits before replicating; 0 = off *)
  net_msg_cycles : int;  (* per-hop service latency of one message *)
  net_hop_pj : float;  (* per-hop link energy *)
  net_ports : int;  (* simultaneous messages a destination NIC accepts *)
  directory : bool;
      (* true: point-to-point invalidations to registered sharers only;
         false: send to every other node (the broadcast-equivalent baseline,
         same final LUT contents by construction) *)
}

let default =
  {
    nodes = 2;
    node = Corun.default;
    replicate_threshold = 0;
    net_msg_cycles = Model.default_constants.Model.net_msg_cycles;
    net_hop_pj = Model.default_constants.Model.net_hop_pj;
    net_ports = 1;
    directory = true;
  }

(* Replication and broadcast-mode suffixes appear only when configured, so
   sweep labels stay minimal (and distinct per cell, which Report.make
   requires). *)
let label (cfg : config) =
  Printf.sprintf "cluster(%dnode,%s%s%s)" cfg.nodes (Corun.label cfg.node)
    (if cfg.replicate_threshold > 0 then
       Printf.sprintf ",rep=%d" cfg.replicate_threshold
     else "")
    (if cfg.directory then "" else ",bcast")

let machine = Machine.hpi

(* ---- shard routing ----------------------------------------------------- *)

(* Keys are CRC-32 tags zero-extended to 64 bits, and the shared LUT's set
   index comes from the low bits — so the home shard uses the top byte of
   the CRC word (folded with bits 56..63 for 64-bit-key safety), keeping
   routing independent of set placement within a node. *)
let shard_of_key ~nodes key =
  if nodes <= 1 then 0
  else
    let hi = Int64.to_int (Int64.shift_right_logical key 24) land 0xFF in
    let up = Int64.to_int (Int64.shift_right_logical key 56) land 0xFF in
    (hi lxor up) mod nodes

(* Bidirectional ring: the usual chiplet baseline, and the shortest-path
   distance keeps per-message cost a pure function of (src, dst). *)
let ring_hops ~nodes a b =
  let d = abs (a - b) in
  Int.min d (nodes - d)

(* ---- the cluster ------------------------------------------------------- *)

type msg_kind = Probe | Insert | Inv_lut | Inv_replica

let msg_kind_name = function
  | Probe -> "probe"
  | Insert -> "insert"
  | Inv_lut -> "inv"
  | Inv_replica -> "inv-rep"

type msg = { seq : int; at : int; src : int; dst : int; hops : int; kind : msg_kind }

type stats = {
  shard_accesses : int array;  (* shared-level accesses homed per node *)
  mutable remote_probes : int;  (* lookups that crossed the interconnect *)
  mutable remote_hits : int;
  mutable remote_inserts : int;
  mutable replica_installs : int;
  mutable replica_hits : int;  (* remote-homed lookups served by a local replica *)
  mutable replica_invalidations : int;  (* stale replicas dropped on a write *)
  mutable inv_events : int;  (* retired invalidate instructions *)
  mutable inv_sent : int;  (* point-to-point LUT invalidations delivered *)
  mutable inv_filtered : int;  (* skipped: destination not a registered sharer *)
  mutable net_messages : int;
  mutable net_hops : int;  (* link traversals, responses included *)
  net_latency : int array;  (* per global core, synchronous round-trip cycles *)
  mutable restore_entries : int;
  mutable restore_amortised : int;  (* DRAM row activations, batched restore *)
  mutable restore_serial : int;  (* what an entry-at-a-time replay would cost *)
  mutable replica_batch_amortised : int;  (* same accounting for replica L3 copies *)
  mutable replica_batch_serial : int;
}

type t = {
  cfg : config;
  npc : int;  (* cores per node *)
  gcores : int;  (* nodes * npc *)
  nodes : Corun.cluster array;
  net_arb : Arbiter.t;  (* banks = destination NICs, window = one message *)
  sharers : (int, int) Hashtbl.t;  (* lut -> node bitmask (directory) *)
  replicas : (int * int64, int) Hashtbl.t;  (* (lut, key) -> replica-holder mask *)
  hot : (int * int * int64, int) Hashtbl.t;  (* (node, lut, key) -> remote hits *)
  l3_pending : (int * int64 * int64) list ref array;  (* per-node replica L3 copies *)
  st : stats;
  mutable msgs : msg list;  (* newest first; reversed for the trace *)
  mutable mseq : int;
}

let node_bit n = 1 lsl n

let register_sharer t ~lut ~node =
  let m = Option.value ~default:0 (Hashtbl.find_opt t.sharers lut) in
  let m' = m lor node_bit node in
  if m' <> m then Hashtbl.replace t.sharers lut m'

let send_msg t ~gcore ~kind ~src ~dst ~lut ~at ~sync =
  let hops = ring_hops ~nodes:t.cfg.nodes src dst in
  let legs = if sync then 2 * hops else hops in
  t.st.net_messages <- t.st.net_messages + 1;
  t.st.net_hops <- t.st.net_hops + legs;
  Arbiter.record ~tag:lut t.net_arb ~core:gcore ~set:dst ~at;
  if sync then
    t.st.net_latency.(gcore) <-
      t.st.net_latency.(gcore) + (legs * t.cfg.net_msg_cycles);
  t.mseq <- t.mseq + 1;
  t.msgs <- { seq = t.mseq; at; src; dst; hops; kind } :: t.msgs

(* A write makes every replica of (lut, key) stale. The home node's
   directory row names the holders, so the drops are point-to-point; the
   replica entry disappears from each holder's shared level (stale L1
   copies are left to the paper's no-coherence tolerance, measured by the
   divergence check like every other private-level copy). *)
let invalidate_replicas t ~gcore ~home ~lut_id ~key ~at =
  match Hashtbl.find_opt t.replicas (lut_id, key) with
  | None -> ()
  | Some mask ->
      Hashtbl.remove t.replicas (lut_id, key);
      for d = 0 to t.cfg.nodes - 1 do
        if mask land node_bit d <> 0 then begin
          t.st.replica_invalidations <- t.st.replica_invalidations + 1;
          send_msg t ~gcore ~kind:Inv_replica ~src:home ~dst:d ~lut:lut_id ~at
            ~sync:false;
          ignore
            (Shared_lut.invalidate_entry (Corun.shared_lut t.nodes.(d)) ~lut_id ~key)
        end
      done

(* Threshold-crossing remote hits replicate into the requester's local
   shared level (the payload already rode back on the probe reply, so the
   install itself is node-local) and, when the node carries a DRAM tier,
   queue an L3 copy for the per-request batched fill. *)
let maybe_replicate t ~nid ~local ~lut_id ~key ~payload =
  if t.cfg.replicate_threshold > 0 then begin
    let hk = (nid, lut_id, key) in
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.hot hk) in
    if n >= t.cfg.replicate_threshold then begin
      Hashtbl.remove t.hot hk;
      local.Memo_unit.sl_insert ~lut_id ~key ~payload;
      let m = Option.value ~default:0 (Hashtbl.find_opt t.replicas (lut_id, key)) in
      Hashtbl.replace t.replicas (lut_id, key) (m lor node_bit nid);
      register_sharer t ~lut:lut_id ~node:nid;
      t.st.replica_installs <- t.st.replica_installs + 1;
      if Option.is_some (Corun.dram_lut t.nodes.(nid)) then
        t.l3_pending.(nid) := (lut_id, key, payload) :: !(t.l3_pending.(nid))
    end
    else Hashtbl.replace t.hot hk n
  end

(* The per-core shared-L2 port of node [nid]: traffic whose key homes here
   falls through to the node-local port (bank arbitration included);
   everything else crosses the interconnect. Remote probes bypass the home
   node's bank arbiter — NIC service occupancy covers their serialization —
   and use the requester's local core index for the home structure's shadow
   accounting. *)
let make_port t nid ~core ~now ~local =
  let gcore = (nid * t.npc) + core in
  let replica_bit lut_id key =
    match Hashtbl.find_opt t.replicas (lut_id, key) with
    | Some m -> m land node_bit nid <> 0
    | None -> false
  in
  {
    Memo_unit.sl_lookup =
      (fun ~lut_id ~key ->
        let home = shard_of_key ~nodes:t.cfg.nodes key in
        t.st.shard_accesses.(home) <- t.st.shard_accesses.(home) + 1;
        if home = nid then begin
          let r = local.Memo_unit.sl_lookup ~lut_id ~key in
          (match r with
          | Some _ -> register_sharer t ~lut:lut_id ~node:nid
          | None -> ());
          r
        end
        else begin
          let served =
            if t.cfg.replicate_threshold > 0 && replica_bit lut_id key then begin
              match local.Memo_unit.sl_lookup ~lut_id ~key with
              | Some v ->
                  t.st.replica_hits <- t.st.replica_hits + 1;
                  register_sharer t ~lut:lut_id ~node:nid;
                  Some v
              | None ->
                  (* the replica was evicted locally: deregister so the
                     directory stops invalidating a copy that is gone *)
                  (match Hashtbl.find_opt t.replicas (lut_id, key) with
                  | Some m ->
                      Hashtbl.replace t.replicas (lut_id, key)
                        (m land lnot (node_bit nid))
                  | None -> ());
                  None
            end
            else None
          in
          match served with
          | Some v -> Some v
          | None ->
              t.st.remote_probes <- t.st.remote_probes + 1;
              send_msg t ~gcore ~kind:Probe ~src:nid ~dst:home ~lut:lut_id
                ~at:(now ()) ~sync:true;
              let r =
                Shared_lut.lookup (Corun.shared_lut t.nodes.(home)) ~core ~lut_id
                  ~key
              in
              (match r with
              | Some payload ->
                  t.st.remote_hits <- t.st.remote_hits + 1;
                  (* the inclusive L1 fill makes this node a sharer *)
                  register_sharer t ~lut:lut_id ~node:nid;
                  maybe_replicate t ~nid ~local ~lut_id ~key ~payload
              | None -> ());
              r
        end);
    sl_insert =
      (fun ~lut_id ~key ~payload ->
        let home = shard_of_key ~nodes:t.cfg.nodes key in
        t.st.shard_accesses.(home) <- t.st.shard_accesses.(home) + 1;
        (* the updating unit's L1 holds the entry either way *)
        register_sharer t ~lut:lut_id ~node:nid;
        (if home = nid then local.Memo_unit.sl_insert ~lut_id ~key ~payload
         else begin
           t.st.remote_inserts <- t.st.remote_inserts + 1;
           send_msg t ~gcore ~kind:Insert ~src:nid ~dst:home ~lut:lut_id
             ~at:(now ()) ~sync:false;
           Shared_lut.insert (Corun.shared_lut t.nodes.(home)) ~core ~lut_id ~key
             ~payload;
           register_sharer t ~lut:lut_id ~node:home
         end);
        if t.cfg.replicate_threshold > 0 then
          invalidate_replicas t ~gcore ~home ~lut_id ~key ~at:(now ()));
    sl_invalidate = (fun ~lut_id -> local.Memo_unit.sl_invalidate ~lut_id);
  }

(* Deliver one cross-node LUT invalidation: the destination drops the LUT
   from its shared level, its DRAM tier and every core's private L1; its
   collectors attribute the lost residency to the remote-invalidate
   reason. *)
let deliver_lut_invalidate t ~dst ~lut =
  let nd = t.nodes.(dst) in
  Shared_lut.invalidate_lut (Corun.shared_lut nd) ~lut_id:lut;
  (match Corun.dram_lut nd with
  | Some d -> Dram_lut.invalidate_lut d ~lut_id:lut
  | None -> ());
  for c = 0 to t.npc - 1 do
    Memo_unit.invalidate_remote (Corun.core_unit nd ~core:c) ~lut
  done;
  match Corun.collectors nd with
  | Some ps -> Array.iter (fun p -> Profile.on_remote_invalidate p ~lut) ps
  | None -> ()

(* Directory-side purge after a LUT-wide invalidate: every replica row and
   hot counter of that LUT is void. Hashtbl iteration order only decides
   removal order, never an observable count. *)
let purge_lut t ~lut =
  let reps =
    Hashtbl.fold (fun (l, k) _ acc -> if l = lut then (l, k) :: acc else acc)
      t.replicas []
  in
  List.iter (Hashtbl.remove t.replicas) reps;
  let hots =
    Hashtbl.fold (fun (n, l, k) _ acc -> if l = lut then (n, l, k) :: acc else acc)
      t.hot []
  in
  List.iter (Hashtbl.remove t.hot) hots

(* The cross-node half of a retired [invalidate]: the issuing node already
   dropped everything it can see (its unit, its peers' L1s, its shared
   level and tier). With the directory on, only registered sharers get a
   message; the filtered count is exactly what the broadcast baseline would
   have wasted. *)
let on_invalidate t nid ~core ~lut ~at =
  let gcore = (nid * t.npc) + core in
  t.st.inv_events <- t.st.inv_events + 1;
  let mask = Option.value ~default:0 (Hashtbl.find_opt t.sharers lut) in
  for d = 0 to t.cfg.nodes - 1 do
    if d <> nid then
      if t.cfg.directory && mask land node_bit d = 0 then
        t.st.inv_filtered <- t.st.inv_filtered + 1
      else begin
        t.st.inv_sent <- t.st.inv_sent + 1;
        send_msg t ~gcore ~kind:Inv_lut ~src:nid ~dst:d ~lut ~at ~sync:false;
        deliver_lut_invalidate t ~dst:d ~lut
      end
  done;
  Hashtbl.replace t.sharers lut 0;
  purge_lut t ~lut

let validate (cfg : config) =
  if cfg.nodes < 1 then invalid_arg "Cluster: need at least one node";
  if cfg.nodes > 62 then invalid_arg "Cluster: node bitmasks cap the count at 62";
  if cfg.replicate_threshold < 0 then
    invalid_arg "Cluster: negative replicate_threshold";
  if cfg.net_msg_cycles < 1 then invalid_arg "Cluster: net_msg_cycles must be positive";
  if cfg.net_ports < 1 then invalid_arg "Cluster: net_ports must be positive";
  if not (Float.is_finite cfg.net_hop_pj && cfg.net_hop_pj >= 0.0) then
    invalid_arg "Cluster: net_hop_pj must be finite and non-negative"

(* Node j's shape: node 0 keeps the fault spec's seed, so a 1-node
   cluster replays the co-run's upset stream, and every other node hashes
   its index into the seed, so nodes do not strike in lockstep. A hash of 0
   (a seed the injector rejects) falls back to the index itself. *)
let node_config (node : Corun.config) j =
  match node.Corun.faults with
  | Some spec when j > 0 ->
      let seed = Rng.int64 (Rng.create (Int64.add spec.Fault_model.seed (Int64.of_int j))) in
      let seed = if seed = 0L then Int64.of_int j else seed in
      { node with Corun.faults = Some { spec with Fault_model.seed } }
  | _ -> node

let create ?(metrics = false) ?(profile = false) (cfg : config) =
  validate cfg;
  let npc = cfg.node.Corun.ncores in
  let gcores = cfg.nodes * npc in
  (* The per-core ports close over the cluster record, which closes over
     the node array — tied with a forward reference. The port maker runs
     eagerly inside create_cluster (before the record exists), so the
     routed port is forced lazily on first access; no request can run
     before wiring completes. A 1-node cluster takes neither hook, so it
     is the Corun model verbatim: a port would add a closure call to every
     shared-LUT access on the serve path, and it would count those accesses
     into the section's shard_accesses, changing every co-run report. *)
  let tref = ref None in
  let the () =
    match !tref with Some t -> t | None -> failwith "Cluster: port used before wiring"
  in
  (* Every node serves the same mix: resolve it (one workload make each)
     once, not once per node. *)
  let mix = Corun.resolve_mix cfg.node in
  let nodes =
    Array.init cfg.nodes (fun nid ->
        if cfg.nodes = 1 then Corun.create_cluster ~metrics ~profile ~mix cfg.node
        else
          Corun.create_cluster ~metrics ~profile ~mix
            ~l2_port:(fun ~core ~now ~local ->
              let port = lazy (make_port (the ()) nid ~core ~now ~local) in
              {
                Memo_unit.sl_lookup =
                  (fun ~lut_id ~key ->
                    (Lazy.force port).Memo_unit.sl_lookup ~lut_id ~key);
                sl_insert =
                  (fun ~lut_id ~key ~payload ->
                    (Lazy.force port).Memo_unit.sl_insert ~lut_id ~key ~payload);
                sl_invalidate =
                  (fun ~lut_id ->
                    (Lazy.force port).Memo_unit.sl_invalidate ~lut_id);
              })
            ~on_invalidate:(fun ~core ~lut ~at -> on_invalidate (the ()) nid ~core ~lut ~at)
            (node_config cfg.node nid))
  in
  let t =
    {
      cfg;
      npc;
      gcores;
      nodes;
      net_arb =
        Arbiter.create ~banks:cfg.nodes ~ports:cfg.net_ports ~window:cfg.net_msg_cycles;
      sharers = Hashtbl.create 16;
      replicas = Hashtbl.create 256;
      hot = Hashtbl.create 256;
      l3_pending = Array.init cfg.nodes (fun _ -> ref []);
      st =
        {
          shard_accesses = Array.make cfg.nodes 0;
          remote_probes = 0;
          remote_hits = 0;
          remote_inserts = 0;
          replica_installs = 0;
          replica_hits = 0;
          replica_invalidations = 0;
          inv_events = 0;
          inv_sent = 0;
          inv_filtered = 0;
          net_messages = 0;
          net_hops = 0;
          net_latency = Array.make gcores 0;
          restore_entries = 0;
          restore_amortised = 0;
          restore_serial = 0;
          replica_batch_amortised = 0;
          replica_batch_serial = 0;
        };
      msgs = [];
      mseq = 0;
    }
  in
  tref := Some t;
  t

let nodes t = t.cfg.nodes
let global_cores t = t.gcores
let node_cluster t ~node = t.nodes.(node)

(* Monotone interconnect counters for the serve-path timeline sampler:
   (remote probes, point-to-point invalidations delivered, messages). *)
let watch_traffic t = (t.st.remote_probes, t.st.inv_sent, t.st.net_messages)

(* Cluster-wide quality-monitor observations: Corun.monitor_observed
   folded over every node. *)
let monitor_observed t =
  Array.fold_left
    (fun (s, b, tr) node ->
      let s', b', tr' = Corun.monitor_observed node in
      (s + s', b + b', tr + tr'))
    (0, 0, 0) t.nodes

(* ---- per-request execution --------------------------------------------- *)

(* Replica payloads queued for a node's DRAM tier land in one row-sorted
   bulk fill per request (pLUTo-style activation amortisation), mirroring
   the batched snapshot restore. Entries queue newest-first, so the reverse
   is install order — which bulk_fill's stamp pre-assignment needs. *)
let flush_l3_pending t =
  Array.iteri
    (fun nid pending ->
      match !pending with
      | [] -> ()
      | entries -> (
          pending := [];
          match Corun.dram_lut t.nodes.(nid) with
          | None -> ()
          | Some d ->
              let a, s = Dram_lut.bulk_fill d (Array.of_list (List.rev entries)) in
              t.st.replica_batch_amortised <- t.st.replica_batch_amortised + a;
              t.st.replica_batch_serial <- t.st.replica_batch_serial + s))
    t.l3_pending

let exec_request t ~workload ~gcore ~start =
  let nid = gcore / t.npc and core = gcore mod t.npc in
  let res = Corun.exec_request t.nodes.(nid) ~workload ~core ~start in
  flush_l3_pending t;
  res

(* ---- settlement --------------------------------------------------------- *)

type settlement = {
  bank : Arbiter.settlement array;  (* per node, local-core indexed *)
  net : Arbiter.settlement;  (* global-core indexed *)
  stalls : int array;
      (* per global core: bank stalls + NIC stalls + synchronous net
         round-trip latency — everything settlement adds to busy time *)
  shared_accesses : int;
  contended_accesses : int;
}

let settle t =
  let bank = Array.map Corun.settle_arbiter t.nodes in
  let net = Arbiter.settle t.net_arb ~ncores:t.gcores in
  let stalls =
    Array.init t.gcores (fun g ->
        let nid = g / t.npc and core = g mod t.npc in
        bank.(nid).Arbiter.stall_cycles.(core)
        + net.Arbiter.stall_cycles.(g)
        + t.st.net_latency.(g))
  in
  (* Settled stalls flow back to (core, region) on the collectors through
     the tag each access was recorded with. *)
  Array.iteri
    (fun nid s ->
      match Corun.collectors t.nodes.(nid) with
      | Some ps ->
          List.iter
            (fun (c, tag, cycles) ->
              if tag >= 0 then Profile.note_contention ps.(c) ~lut:tag ~cycles)
            s.Arbiter.tag_stalls
      | None -> ())
    bank;
  List.iter
    (fun (g, tag, cycles) ->
      if tag >= 0 then
        match Corun.collectors t.nodes.(g / t.npc) with
        | Some ps -> Profile.note_contention ps.(g mod t.npc) ~lut:tag ~cycles
        | None -> ())
    net.Arbiter.tag_stalls;
  {
    bank;
    net;
    stalls;
    shared_accesses =
      Array.fold_left (fun a s -> a + s.Arbiter.accesses) 0 bank;
    contended_accesses =
      Array.fold_left (fun a s -> a + s.Arbiter.contended) 0 bank
      + net.Arbiter.contended;
  }

let flush_metrics t = Array.iter Corun.flush_metrics t.nodes

(* Registry rows named n<j>.core<i> / n<j>.cluster; a 1-node cluster keeps
   the prefix so cluster reports address nodes uniformly. *)
let snapshots t =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun j nd ->
            List.map
              (fun (who, snap) -> (Printf.sprintf "n%d.%s" j who, snap))
              (Corun.cluster_snapshots nd))
          t.nodes))

(* ---- the "cluster" report section --------------------------------------- *)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Rendered from the live stats plus a settlement, so the serve layer can
   attach it without building a full outcome. *)
let section (t : t) ~settled =
  let cfg = t.cfg and st = t.st and net = settled.net in
  Json.Obj
    ([
       ("nodes", Json.Int cfg.nodes);
       ("cores_per_node", Json.Int cfg.node.Corun.ncores);
       ( "shard_accesses",
         Json.Arr (Array.to_list (Array.map (fun n -> Json.Int n) st.shard_accesses)) );
       ( "shard_balance_jain",
         Json.Float (Schedule.jain_fairness (Array.map float_of_int st.shard_accesses)) );
       ("remote_probes", Json.Int st.remote_probes);
       ("remote_hits", Json.Int st.remote_hits);
       ("remote_inserts", Json.Int st.remote_inserts);
       ( "replication",
         Json.Obj
           [
             ("threshold", Json.Int cfg.replicate_threshold);
             ("installs", Json.Int st.replica_installs);
             ("hits", Json.Int st.replica_hits);
             ("invalidations", Json.Int st.replica_invalidations);
             ( "hit_share",
               Json.Float (ratio st.replica_hits (st.replica_hits + st.remote_hits)) );
             ("l3_batch_amortised_activations", Json.Int st.replica_batch_amortised);
             ("l3_batch_serial_activations", Json.Int st.replica_batch_serial);
           ] );
       ( "directory",
         Json.Obj
           [
             ("enabled", Json.Bool cfg.directory);
             ("events", Json.Int st.inv_events);
             ("sent", Json.Int st.inv_sent);
             ("filtered", Json.Int st.inv_filtered);
             (* the satellite-measured baseline to beat: a flat M x N-core
                machine broadcasts every event to all other cores (the
                corun.invalidate.* per-core counters), while the directory
                coalesces to one message per sharer node *)
             ( "broadcast_equivalent",
               Json.Int (st.inv_events * ((cfg.nodes * cfg.node.Corun.ncores) - 1)) );
             ( "node_broadcast_equivalent",
               Json.Int (st.inv_events * (cfg.nodes - 1)) );
           ] );
       ( "net",
         Json.Obj
           [
             ("messages", Json.Int st.net_messages);
             ("hops", Json.Int st.net_hops);
             ("msg_cycles", Json.Int cfg.net_msg_cycles);
             ("ports", Json.Int cfg.net_ports);
             ("hop_pj", Json.Float cfg.net_hop_pj);
             ("net_pj", Json.Float (float_of_int st.net_hops *. cfg.net_hop_pj));
             ("latency_cycles", Json.Int (Array.fold_left ( + ) 0 st.net_latency));
             ("contended", Json.Int net.Arbiter.contended);
             ( "stall_cycles",
               Json.Int (Array.fold_left ( + ) 0 net.Arbiter.stall_cycles) );
           ] );
     ]
    @
    (* Restore accounting rides along only for warm-started runs, so cold
       sections are not padded with zeros that mean "no restore happened". *)
    if st.restore_entries = 0 then []
    else
      [
        ( "restore",
          Json.Obj
            [
              ("entries", Json.Int st.restore_entries);
              ("amortised_activations", Json.Int st.restore_amortised);
              ("serial_activations", Json.Int st.restore_serial);
            ] );
      ])

(* ---- warm-LUT snapshots -------------------------------------------------

   Cluster capture prefixes each node's sections with "n<j>.". Restore
   accepts both that format (sections land on their node directly) and a
   plain single-node snapshot, whose "l2"/"l3" entries are shard-routed to
   their home nodes — each node's DRAM share through one bulk fill — and
   whose "l1.<c>" sections map global core c onto (node c/npc, core
   c mod npc). Every restored entry registers its node in the directory. *)

let register_section t ~node (sec : Snapshot.section) =
  Array.iter
    (fun (e : Snapshot.entry) -> register_sharer t ~lut:e.lut_id ~node)
    sec.Snapshot.entries

let capture_snapshot t =
  let sections =
    Array.to_list
      (Array.mapi
         (fun j nd ->
           List.map
             (fun (s : Snapshot.section) ->
               { s with Snapshot.name = Printf.sprintf "n%d.%s" j s.Snapshot.name })
             (Corun.capture_snapshot nd).Snapshot.sections)
         t.nodes)
  in
  { Snapshot.sections = List.concat sections }

let strip_prefix ~prefix s =
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    Some (String.sub s pl (String.length s - pl))
  else None

let restore_snapshot t (snap : Snapshot.t) =
  let restored = ref 0 in
  let prefixed = ref false in
  (* Node-prefixed sections: hand each node its own sub-snapshot. *)
  Array.iteri
    (fun j nd ->
      let prefix = Printf.sprintf "n%d." j in
      let mine =
        List.filter_map
          (fun (s : Snapshot.section) ->
            match strip_prefix ~prefix s.Snapshot.name with
            | Some name ->
                prefixed := true;
                register_section t ~node:j s;
                Some { s with Snapshot.name }
            | None -> None)
          snap.Snapshot.sections
      in
      if mine <> [] then begin
        let n, a, s = Corun.restore_snapshot_stats nd { Snapshot.sections = mine } in
        restored := !restored + n;
        t.st.restore_amortised <- t.st.restore_amortised + a;
        t.st.restore_serial <- t.st.restore_serial + s
      end)
    t.nodes;
  (* Plain single-node sections, shard-routed. *)
  if not !prefixed then begin
    let route_split (sec : Snapshot.section) =
      let per_node = Array.make t.cfg.nodes [] in
      Array.iter
        (fun (e : Snapshot.entry) ->
          let home = shard_of_key ~nodes:t.cfg.nodes e.Snapshot.key in
          per_node.(home) <- e :: per_node.(home))
        sec.Snapshot.entries;
      Array.map (fun l -> Array.of_list (List.rev l)) per_node
    in
    List.iter
      (fun (sec : Snapshot.section) ->
        let name = sec.Snapshot.name in
        if name = "l2" then
          Array.iteri
            (fun j entries ->
              let s = { Snapshot.name = "l2"; entries } in
              register_section t ~node:j s;
              restored :=
                !restored
                + Snapshot.restore_lut s (Shared_lut.lut (Corun.shared_lut t.nodes.(j))))
            (route_split sec)
        else if name = "l3" then
          Array.iteri
            (fun j entries ->
              match Corun.dram_lut t.nodes.(j) with
              | None -> ()
              | Some d ->
                  let s = { Snapshot.name = "l3"; entries } in
                  register_section t ~node:j s;
                  let n, a, sr = Snapshot.restore_dram_batched s d in
                  restored := !restored + n;
                  t.st.restore_amortised <- t.st.restore_amortised + a;
                  t.st.restore_serial <- t.st.restore_serial + sr)
            (route_split sec)
        else
          match strip_prefix ~prefix:"l1." name with
          | Some idx -> (
              match int_of_string_opt idx with
              | Some g when g >= 0 && g < t.gcores ->
                  let nd = t.nodes.(g / t.npc) in
                  register_section t ~node:(g / t.npc) sec;
                  restored :=
                    !restored
                    + Snapshot.restore_lut sec
                        (Memo_unit.l1_lut (Corun.core_unit nd ~core:(g mod t.npc)))
              | _ -> ())
          | None -> ())
      snap.Snapshot.sections
  end;
  t.st.restore_entries <- t.st.restore_entries + !restored;
  !restored

(* ---- the cluster co-run ------------------------------------------------- *)

type request_run = {
  rid : int;
  workload : string;
  gcore : int;
  start : int;
  finish : int;
  result : Runner.result;
}

type core_summary = {
  gcore : int;
  node : int;
  core : int;
  served : int;
  busy_cycles : int;
  bank_stall_cycles : int;  (* local shared-LUT arbitration *)
  net_stall_cycles : int;  (* NIC contention, settled post hoc *)
  net_latency_cycles : int;  (* synchronous remote-probe round trips *)
  finish_cycles : int;  (* busy + every settled addition *)
  lookups : int;
  hits : int;
  hit_rate : float;
  baseline_cycles : int;
  speedup : float;
  retried : int;  (* bank-arbiter re-issues *)
  way_range : int * int;  (* final shared-LUT allocation on its node *)
  shadow_hits : int;
}

(* End-of-run DRAM tier aggregate of one node. *)
type l3_summary = { stats : Dram_lut.stats; occupancy : int; capacity : int }

(* One node's arbitration, partitioning, fault and tier facts: the
   report's node_summaries entry. *)
type node_summary = {
  bank_accesses : int;  (* shared-LUT accesses through the bank arbiter *)
  bank_contended : int;
  contention_pj : float;  (* re-issued probes at the L2 access energy *)
  repartitions : int;
  shared_occupancy : int;
  l3 : l3_summary option;  (* None unless the node carries a DRAM tier *)
  faults : Injector.stats option;
}

type outcome = {
  cfg : config;
  requests : request_run list;
  cores : core_summary array;
  makespan_cycles : int;
  throughput_rps : float;
  speedup : float;
  aggregate_hit_rate : float;
  fairness : float;  (* Jain over per-core finish cycles *)
  shard_balance : float;  (* Jain over per-node homed accesses *)
  remote_probes : int;
  remote_hits : int;
  replica_installs : int;
  replica_hits : int;
  replication_hit_share : float;  (* replica hits over all remote-homed hits *)
  inv_events : int;
  inv_sent : int;
  inv_filtered : int;
  inv_broadcast_equivalent : int;  (* events * (nodes * cores_per_node - 1) *)
  net_messages : int;
  bank_stall_cycles : int;
  coherence_keys : int;
  coherence_divergent : int;
  node_summaries : node_summary array;
  cluster_section : Json.t;  (* the "cluster" report section, from the live stats *)
  snapshots : (string * Registry.snapshot) list;
  profiles : Profile.snapshot array option;  (* per global core *)
  messages : msg list;  (* send order, for the trace *)
}

(* The paper's no-coherence argument, measured across the whole cluster:
   (lut, key) pairs simultaneously valid in several SRAM structures, and
   how many of those hold diverging payloads (replicas gone stale between
   a home write and their directory drop land here too). DRAM tiers are
   excluded — their relaxed cells are approximate by contract. *)
let coherence_check t =
  let tbl : (int * int64, int64 list) Hashtbl.t = Hashtbl.create 1024 in
  let add entries =
    List.iter
      (fun (lut_id, key, payload) ->
        let k = (lut_id, key) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
        Hashtbl.replace tbl k (payload :: prev))
      entries
  in
  Array.iter
    (fun nd ->
      for c = 0 to t.npc - 1 do
        add (Memo_unit.lut_entries (Corun.core_unit nd ~core:c))
      done;
      add (Shared_lut.entries (Corun.shared_lut nd)))
    t.nodes;
  Hashtbl.fold
    (fun _k payloads (keys, divergent) ->
      match payloads with
      | [] | [ _ ] -> (keys, divergent)
      | p :: rest ->
          ( keys + 1,
            if List.for_all (fun q -> q = p) rest then divergent else divergent + 1 ))
    tbl (0, 0)

let l3_summary d =
  { stats = Dram_lut.stats d; occupancy = Dram_lut.occupancy d; capacity = Dram_lut.capacity_entries d }

let run_keep ?(metrics = false) ?(profile = false) (cfg : config) =
  let t = create ~metrics ~profile cfg in
  let stream =
    Schedule.stream ~workloads:cfg.node.Corun.workloads
      ~requests:cfg.node.Corun.requests
  in
  let baselines = Hashtbl.create 8 in
  let baseline_of name =
    match Hashtbl.find_opt baselines name with
    | Some c -> c
    | None ->
        let c =
          match Workloads.find name with
          | Some (_meta, make) ->
              (Runner.run Runner.Baseline (make cfg.node.Corun.variant)).Runner.cycles
          | None -> invalid_arg (Printf.sprintf "Cluster: unknown benchmark %S" name)
        in
        Hashtbl.replace baselines name c;
        c
  in
  let placements, busy =
    Schedule.dispatch ~ncores:t.gcores
      ~run:(fun (r : Schedule.request) ~core ~start ->
        let result = exec_request t ~workload:r.Schedule.workload ~gcore:core ~start in
        (result.Runner.cycles, result))
      stream
  in
  let settlement = settle t in
  let requests =
    List.map
      (fun (p : Runner.result Schedule.placement) ->
        {
          rid = p.Schedule.request.Schedule.rid;
          workload = p.Schedule.request.Schedule.workload;
          gcore = p.Schedule.core;
          start = p.Schedule.start;
          finish = p.Schedule.finish;
          result = p.Schedule.payload;
        })
      placements
  in
  let cores =
    Array.init t.gcores (fun g ->
        let nid = g / t.npc and core = g mod t.npc in
        let mine = List.filter (fun (r : request_run) -> r.gcore = g) requests in
        let served = List.length mine in
        let lookups = List.fold_left (fun a r -> a + r.result.Runner.lookups) 0 mine in
        let hits = List.fold_left (fun a r -> a + r.result.Runner.hits) 0 mine in
        let baseline_cycles =
          List.fold_left (fun a r -> a + baseline_of r.workload) 0 mine
        in
        let busy_cycles = busy.(g) in
        let finish_cycles = busy_cycles + settlement.stalls.(g) in
        let shared = Corun.shared_lut t.nodes.(nid) in
        {
          gcore = g;
          node = nid;
          core;
          served;
          busy_cycles;
          bank_stall_cycles = settlement.bank.(nid).Arbiter.stall_cycles.(core);
          net_stall_cycles = settlement.net.Arbiter.stall_cycles.(g);
          net_latency_cycles = t.st.net_latency.(g);
          finish_cycles;
          lookups;
          hits;
          hit_rate = ratio hits lookups;
          baseline_cycles;
          speedup =
            (if baseline_cycles = 0 && finish_cycles = 0 then 1.0
             else float_of_int baseline_cycles /. float_of_int (max 1 finish_cycles));
          retried = settlement.bank.(nid).Arbiter.retried.(core);
          way_range = Shared_lut.way_range shared ~core;
          shadow_hits = (Shared_lut.shadow_hits shared).(core);
        })
  in
  let makespan_cycles = Array.fold_left (fun a c -> max a c.finish_cycles) 0 cores in
  let total_lookups = Array.fold_left (fun a c -> a + c.lookups) 0 cores in
  let total_hits = Array.fold_left (fun a c -> a + c.hits) 0 cores in
  let total_baseline = Array.fold_left (fun a c -> a + c.baseline_cycles) 0 cores in
  let keys, divergent = coherence_check t in
  flush_metrics t;
  let node_summaries =
    Array.mapi
      (fun nid nd ->
        let bank = settlement.bank.(nid) in
        let shared = Corun.shared_lut nd in
        {
          bank_accesses = bank.Arbiter.accesses;
          bank_contended = bank.Arbiter.contended;
          contention_pj =
            float_of_int bank.Arbiter.contended
            *. Model.default_constants.Model.l2_access_pj;
          repartitions = Shared_lut.repartitions shared;
          shared_occupancy = Shared_lut.occupancy shared;
          l3 = Option.map l3_summary (Corun.dram_lut nd);
          faults = Corun.fault_stats nd;
        })
      t.nodes
  in
  ( {
      cfg;
      requests;
      cores;
      makespan_cycles;
      throughput_rps =
        (if makespan_cycles = 0 then 0.0
         else
           float_of_int cfg.node.Corun.requests
           /. (float_of_int makespan_cycles /. (machine.Machine.freq_ghz *. 1e9)));
      speedup =
        (if total_baseline = 0 && makespan_cycles = 0 then 1.0
         else float_of_int total_baseline /. float_of_int (max 1 makespan_cycles));
      aggregate_hit_rate = ratio total_hits total_lookups;
      fairness =
        Schedule.jain_fairness
          (Array.map (fun c -> float_of_int c.finish_cycles) cores);
      shard_balance =
        Schedule.jain_fairness (Array.map float_of_int t.st.shard_accesses);
      remote_probes = t.st.remote_probes;
      remote_hits = t.st.remote_hits;
      replica_installs = t.st.replica_installs;
      replica_hits = t.st.replica_hits;
      replication_hit_share = ratio t.st.replica_hits (t.st.replica_hits + t.st.remote_hits);
      inv_events = t.st.inv_events;
      inv_sent = t.st.inv_sent;
      inv_filtered = t.st.inv_filtered;
      inv_broadcast_equivalent = t.st.inv_events * ((cfg.nodes * t.npc) - 1);
      net_messages = t.st.net_messages;
      bank_stall_cycles =
        Array.fold_left
          (fun a s -> a + Array.fold_left ( + ) 0 s.Arbiter.stall_cycles)
          0 settlement.bank;
      coherence_keys = keys;
      coherence_divergent = divergent;
      node_summaries;
      cluster_section = section t ~settled:settlement;
      snapshots = snapshots t;
      profiles =
        (if profile then
           Some
             (Array.init t.gcores (fun g ->
                  match Corun.collectors t.nodes.(g / t.npc) with
                  | Some ps -> Profile.snapshot ps.(g mod t.npc)
                  | None -> Profile.snapshot (Profile.create ~regions:[])))
         else None);
      messages = List.rev t.msgs;
    },
    t )

let run ?metrics ?profile cfg = fst (run_keep ?metrics ?profile cfg)

let run_matrix ?jobs ?(profile = false) cfgs =
  Pool.run ?jobs (fun cfg -> run ~metrics:true ~profile cfg) cfgs

(* ---- reports ------------------------------------------------------------ *)

(* [profiles] is the outcome's per-global-core array: a profiled run embeds
   each core's own snapshot next to its counters. *)
let core_summary_json profiles c =
  let lo, hi = c.way_range in
  Json.Obj
    ([
       ("gcore", Json.Int c.gcore);
       ("node", Json.Int c.node);
       ("core", Json.Int c.core);
       ("served", Json.Int c.served);
       ("busy_cycles", Json.Int c.busy_cycles);
       ("bank_stall_cycles", Json.Int c.bank_stall_cycles);
       ("net_stall_cycles", Json.Int c.net_stall_cycles);
       ("net_latency_cycles", Json.Int c.net_latency_cycles);
       ("finish_cycles", Json.Int c.finish_cycles);
       ("lookups", Json.Int c.lookups);
       ("hits", Json.Int c.hits);
       ("hit_rate", Json.Float c.hit_rate);
       ("baseline_cycles", Json.Int c.baseline_cycles);
       ("speedup", Json.Float c.speedup);
       ("retried", Json.Int c.retried);
       ("way_lo", Json.Int lo);
       ("way_hi", Json.Int hi);
       ("shadow_hits", Json.Int c.shadow_hits);
     ]
    @
    match profiles with
    | Some ps -> [ ("profile", Profile.to_json ps.(c.gcore)) ]
    | None -> [])

(* The "faults" and "l3" blocks appear only on nodes configured with them. *)
let node_summary_json n =
  Json.Obj
    ([
       ("shared_accesses", Json.Int n.bank_accesses);
       ("contended_accesses", Json.Int n.bank_contended);
       ("contention_pj", Json.Float n.contention_pj);
       ("repartitions", Json.Int n.repartitions);
       ("shared_occupancy", Json.Int n.shared_occupancy);
     ]
    @ (match n.faults with
      | None -> []
      | Some s ->
          [
            ( "faults",
              Json.Obj
                [
                  ("injected", Json.Int s.Injector.injected_total);
                  ("sdc_hits", Json.Int s.Injector.sdc_hits);
                  ("parity_detected", Json.Int s.Injector.parity_detected);
                  ("secded_corrected", Json.Int s.Injector.secded_corrected);
                  ("secded_detected", Json.Int s.Injector.secded_detected);
                  ("tag_aliases", Json.Int s.Injector.tag_aliases);
                ] );
          ])
    @
    match n.l3 with
    | None -> []
    | Some { stats = s; occupancy; capacity } ->
        [
          ( "l3",
            Json.Obj
              [
                ("probes", Json.Int s.Dram_lut.probes);
                ("hits", Json.Int s.Dram_lut.hits);
                ("misses", Json.Int s.Dram_lut.misses);
                ("spills", Json.Int s.Dram_lut.inserts);
                ("evictions", Json.Int s.Dram_lut.evictions);
                ("row_activations", Json.Int s.Dram_lut.row_activations);
                ("row_hits", Json.Int s.Dram_lut.row_hits);
                ("corrupted_reads", Json.Int s.Dram_lut.corrupted_reads);
                ("occupancy", Json.Int occupancy);
                ("capacity", Json.Int capacity);
              ] );
        ])

let schedule_head_rows = 24

let outcome_json o =
  let node = o.cfg.node in
  let head = List.filteri (fun i _ -> i < schedule_head_rows) o.requests in
  Json.Obj
    [
      ("label", Json.Str (label o.cfg));
      ("nodes", Json.Int o.cfg.nodes);
      ("cores_per_node", Json.Int node.Corun.ncores);
      ("partition", Json.Str (Shared_lut.partition_name node.Corun.partition));
      ("l1_bytes", Json.Int node.Corun.l1_bytes);
      ("shared_l2_bytes", Json.Int node.Corun.shared_l2_bytes);
      ("banks", Json.Int node.Corun.banks);
      ("ports", Json.Int node.Corun.ports);
      ("workloads", Json.Arr (List.map (fun w -> Json.Str w) node.Corun.workloads));
      ("requests", Json.Int node.Corun.requests);
      ("makespan_cycles", Json.Int o.makespan_cycles);
      ("throughput_rps", Json.Float o.throughput_rps);
      ("speedup", Json.Float o.speedup);
      ("aggregate_hit_rate", Json.Float o.aggregate_hit_rate);
      ("fairness", Json.Float o.fairness);
      ("coherence_keys", Json.Int o.coherence_keys);
      ("coherence_divergent", Json.Int o.coherence_divergent);
      ("bank_stall_cycles", Json.Int o.bank_stall_cycles);
      ( "node_summaries",
        Json.Arr (Array.to_list (Array.map node_summary_json o.node_summaries)) );
      ("cluster", o.cluster_section);
      ( "cores",
        Json.Arr (Array.to_list (Array.map (core_summary_json o.profiles) o.cores)) );
      ( "schedule_head",
        Json.Arr
          (List.map
             (fun r ->
               Json.Str
                 (Printf.sprintf "r%d %s g%d [%d..%d] hit=%.3f" r.rid r.workload
                    r.gcore r.start r.finish r.result.Runner.hit_rate))
             head) );
      ( "schedule_rows_omitted",
        Json.Int (max 0 (List.length o.requests - schedule_head_rows)) );
    ]

let default_series_cap = 32

(* One report row per outcome: per-node registries are merged into the row
   with an n<j>. name prefix (names stay disjoint, so the re-sorted union
   keeps every series), the "cluster" section carries the shard/directory/
   net story, and the profile is the merge of every core's collector
   (a pointwise sum in core order, so byte-identical for any --jobs). *)
let report_runs outcomes =
  List.map
    (fun o ->
      let metrics =
        List.sort
          (fun (a, _) (b, _) -> compare a b)
          (List.concat_map
             (fun (who, snap) ->
               List.map (fun (k, v) -> (who ^ "." ^ k, v)) snap)
             o.snapshots)
      in
      {
        Report.benchmark = String.concat "+" o.cfg.node.Corun.workloads;
        config = label o.cfg;
        summary =
          [
            ("makespan_cycles", Json.Int o.makespan_cycles);
            ("throughput_rps", Json.Float o.throughput_rps);
            ("speedup", Json.Float o.speedup);
            ("aggregate_hit_rate", Json.Float o.aggregate_hit_rate);
            ("fairness", Json.Float o.fairness);
            ("shard_balance_jain", Json.Float o.shard_balance);
          ];
        metrics = Registry.decimate ~cap:default_series_cap metrics;
        sections =
          (match o.profiles with
          | None -> []
          | Some ps -> [ ("profile", Profile.to_json (Profile.merge (Array.to_list ps))) ])
          @ [ ("cluster", o.cluster_section) ];
      })
    outcomes

let report outcomes =
  Report.make
    ~extra:
      [
        ("root_seed", Json.Str (Int64.to_string (Rng.root_seed ())));
        ("cluster", Json.Arr (List.map outcome_json outcomes));
      ]
    (report_runs outcomes)

let write_report path outcomes = Json.write_file ~indent:2 path (report outcomes)

(* ---- the message trace --------------------------------------------------

   One Chrome-trace row per node's NIC; each message is a span from its
   issue cycle to issue + legs x msg_cycles (both legs for synchronous
   probes). Spans are emitted in (cycle, seq) order post hoc, so the trace
   is byte-identical for any --jobs setting. *)

let trace o =
  let clock = ref 0 in
  let tr =
    Tracer.create
      ~max_events:((2 * List.length o.messages) + (2 * o.cfg.nodes) + 64)
      ~clock:(fun () -> !clock)
      ()
  in
  for n = 0 to o.cfg.nodes - 1 do
    Tracer.name_thread tr ~tid:n (Printf.sprintf "node %d net" n)
  done;
  let events =
    List.concat_map
      (fun m ->
        let name =
          Printf.sprintf "m%d:%s n%d->n%d" m.seq (msg_kind_name m.kind) m.src m.dst
        in
        let legs = if m.kind = Probe then 2 * m.hops else m.hops in
        let dur = max 1 (legs * o.cfg.net_msg_cycles) in
        [
          ((m.at, 0, m.seq), fun () -> Tracer.begin_span ~tid:m.src tr name);
          ((m.at + dur, 1, m.seq), fun () -> Tracer.end_span ~tid:m.src tr name);
        ])
      o.messages
  in
  let events = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) events in
  List.iter
    (fun (((at, _, _) : int * int * int), emit) ->
      clock := at;
      emit ())
    events;
  tr

let write_trace o path = Tracer.write (trace o) path
