(** The sharded multi-node memoization cluster.

    Generalizes the co-run model from N cores sharing one LUT to M nodes
    of N cores each: every LUT entry has a {e home shard} chosen by the
    high bits of its CRC tag ({!shard_of_key}), remote shared-level
    lookups and inserts cross a modeled interconnect (bidirectional ring,
    {!config.net_msg_cycles} per hop, {!config.net_hop_pj} per link
    traversal), and the co-run's cross-core invalidate broadcast becomes a
    {e directory}: per-LUT sharer-node sets, point-to-point invalidations
    to registered sharers only. Hot remote entries can optionally be
    replicated into the requester's local shared level
    ({!config.replicate_threshold}); the directory tracks replica holders
    and drops stale replicas when the home copy is rewritten.

    Interconnect contention reuses the arbiter's post-hoc settlement
    (banks = destination NICs, window = one message's service time), and
    synchronous remote probes additionally charge round-trip latency into
    the issuing core's finish time at settlement — so request execution
    stays serial and deterministic, reports are byte-identical for any
    [--jobs] setting. Network energy is reported beside, never inside,
    [total_pj], mirroring the DRAM-tier convention.

    This is the one engine that drives request streams — closed ones
    through {!run}, open-loop ones through the serve layer's calls to
    {!create}, {!exec_request} and {!settle}. Each node is a
    {!Corun.cluster}; a 1-node cluster installs neither the routing port
    nor the directory hook, so it is the co-run, reported through the same
    {!report} as every other node count. A 1-core, 1-node free-for-all run
    of a single workload reproduces [Runner.run (Hw_memo ...)] bit for
    bit. *)

module Corun = Axmemo_multicore.Corun

type config = {
  nodes : int;  (** 1..62 (sharer sets are int bitmasks) *)
  node : Corun.config;
      (** per-node shape (cores, LUT sizes, partition, mix);
          [node.requests] is the {e total} stream length across the
          cluster, so scale-out sweeps compare fixed work over growing
          node counts *)
  replicate_threshold : int;
      (** remote hits on one (lut, key) before it is replicated into the
          requester's local shared level; [0] disables replication *)
  net_msg_cycles : int;  (** per-hop service latency of one message *)
  net_hop_pj : float;  (** per-hop link energy *)
  net_ports : int;  (** simultaneous messages a destination NIC accepts *)
  directory : bool;
      (** [true]: point-to-point invalidations to registered sharers only;
          [false]: send to every other node — the broadcast-equivalent
          baseline, reaching the same final LUT contents by construction *)
}

val default : config
(** 2 nodes of {!Corun.default}, no replication, directory on, net
    constants from {!Axmemo_energy.Model.default_constants}. *)

val label : config -> string
(** [cluster(<M>node,<node label>)], with [",rep=<t>"] only when
    replication is on and [",bcast"] only in broadcast mode. *)

val validate : config -> unit
(** @raise Invalid_argument on a non-positive node count / message
    latency / port count, more than 62 nodes, a negative replication
    threshold, or a non-finite or negative hop energy. *)

val shard_of_key : nodes:int -> int64 -> int
(** The home node of a LUT key: the top byte of the 32-bit CRC word
    (bits 24..31, folded with bits 56..63) mod [nodes] — disjoint from the
    low bits that pick the set within a node, so routing and placement
    stay independent. Total: every key of every int64 maps to [0..nodes-1]
    (and to [0] when [nodes <= 1]). *)

val ring_hops : nodes:int -> int -> int -> int
(** Shortest-path distance between two nodes on a bidirectional ring. *)

(** {1 The live cluster}

    Exposed for the serve layer and tests; {!run} composes exactly these. *)

type t

val create : ?metrics:bool -> ?profile:bool -> config -> t
(** Builds the M nodes ({!Corun.create_cluster} each, with the shard-
    routing L2 port and the directory invalidate hook installed when
    [nodes > 1]) plus the interconnect arbiter and directory state. Node
    [j > 0] seeds its fault injector from the spec's seed mixed with [j],
    so nodes strike independently; node 0 keeps the seed as given.
    @raise Invalid_argument as {!validate}. *)

val nodes : t -> int
val global_cores : t -> int

val node_cluster : t -> node:int -> Corun.cluster
(** The underlying per-node co-run cluster (tests poke core units and
    shared LUTs through it). *)

val watch_traffic : t -> int * int * int
(** Monotone interconnect counters for the timeline sampler:
    [(remote_probes, inv_sent, net_messages)]. *)

val monitor_observed : t -> int * int * int
(** Cluster-wide cumulative quality-monitor observations
    [(samples, bad, tripped_cores)] — {!Corun.monitor_observed} summed
    over every node. *)

val exec_request :
  t -> workload:string -> gcore:int -> start:int -> Axmemo.Runner.result
(** One invocation on global core [gcore] (node [gcore / cores_per_node],
    local core [gcore mod cores_per_node]); afterwards, replica payloads
    queued for DRAM tiers are flushed through one row-sorted
    {!Axmemo_tier.Dram_lut.bulk_fill} per node. Callers must issue
    requests in their dispatcher's canonical order. *)

type settlement = {
  bank : Axmemo_multicore.Arbiter.settlement array;
      (** per node, local-core indexed *)
  net : Axmemo_multicore.Arbiter.settlement;  (** global-core indexed *)
  stalls : int array;
      (** per global core: bank stalls + NIC stalls + synchronous remote
          round-trip latency — everything settlement adds to busy time *)
  shared_accesses : int;
  contended_accesses : int;
}

val settle : t -> settlement
(** Settles each node's bank arbiter and the interconnect; call once,
    after the last request. Settled stalls flow back to (core, region) on
    the profile collectors when profiling is on. *)

val flush_metrics : t -> unit

val snapshots : t -> (string * Axmemo_telemetry.Registry.snapshot) list
(** Per-node registry snapshots, names prefixed ["n<j>."] (e.g.
    ["n0.core1"], ["n1.cluster"]); empty unless created with
    [~metrics:true]. Requires {!flush_metrics} first. *)

val section : t -> settled:settlement -> Axmemo_util.Json.t
(** The additive ["cluster"] report section from the live stats: shard
    balance, remote traffic, replication, directory accounting (sent /
    filtered vs broadcast-equivalent), interconnect latency / contention /
    energy, and — after a warm restore — the batched-activation counts. *)

(** {1 Warm-LUT snapshots} *)

val capture_snapshot : t -> Axmemo_tier.Snapshot.t
(** Every node's sections, names prefixed ["n<j>."]. *)

val restore_snapshot : t -> Axmemo_tier.Snapshot.t -> int
(** Restores a cluster snapshot (prefixed sections land on their node) or
    a plain single-node snapshot, whose ["l2"]/["l3"] entries are
    shard-routed to their homes — each node's DRAM share through one
    batched fill — and whose ["l1.<c>"] sections map global core [c] onto
    (node, local core). Every restored entry registers its node as a
    sharer in the directory. Returns the entry count restored. *)

(** {1 Running} *)

type request_run = {
  rid : int;
  workload : string;
  gcore : int;
  start : int;
  finish : int;
  result : Axmemo.Runner.result;
}

type core_summary = {
  gcore : int;
  node : int;
  core : int;
  served : int;
  busy_cycles : int;
  bank_stall_cycles : int;  (** local shared-LUT arbitration *)
  net_stall_cycles : int;  (** NIC contention, settled post hoc *)
  net_latency_cycles : int;  (** synchronous remote-probe round trips *)
  finish_cycles : int;  (** busy + every settled addition *)
  lookups : int;
  hits : int;
  hit_rate : float;
  baseline_cycles : int;
  speedup : float;
  retried : int;  (** bank-arbiter re-issues *)
  way_range : int * int;  (** final shared-LUT allocation on its node *)
  shadow_hits : int;
}

type l3_summary = {
  stats : Axmemo_tier.Dram_lut.stats;
      (** [inserts] are the shared-level victims absorbed (spills) *)
  occupancy : int;
  capacity : int;
}
(** One node's end-of-run DRAM tier aggregate. *)

type node_summary = {
  bank_accesses : int;  (** shared-LUT accesses through the bank arbiter *)
  bank_contended : int;
  contention_pj : float;  (** re-issued probes at the L2 access energy *)
  repartitions : int;
  shared_occupancy : int;
  l3 : l3_summary option;  (** [None] unless the node carries a DRAM tier *)
  faults : Axmemo_faults.Injector.stats option;
      (** [None] unless the config asked for faults *)
}
(** One node's shared-LUT arbitration, partitioning, fault and DRAM-tier
    facts: its entry in the report's ["node_summaries"] array. *)

type outcome = {
  cfg : config;
  requests : request_run list;
  cores : core_summary array;
  makespan_cycles : int;
  throughput_rps : float;
  speedup : float;
  aggregate_hit_rate : float;
  fairness : float;  (** Jain over per-core finish cycles *)
  shard_balance : float;  (** Jain over the shared-level accesses homed per node *)
  remote_probes : int;
  remote_hits : int;
  replica_installs : int;
  replica_hits : int;
  replication_hit_share : float;
      (** replica hits over all remote-homed hits (replica + probe) *)
  inv_events : int;  (** retired invalidate instructions *)
  inv_sent : int;  (** point-to-point node messages delivered *)
  inv_filtered : int;  (** skipped: destination not a registered sharer *)
  inv_broadcast_equivalent : int;
      (** [inv_events * (nodes * cores_per_node - 1)] — the per-core
          fan-out a flat broadcast machine would deliver (the measured
          [corun.invalidate.*] baseline); the directory coalesces to one
          message per sharer node and filters non-sharers on top *)
  net_messages : int;
  bank_stall_cycles : int;
  coherence_keys : int;
      (** (lut, key) pairs simultaneously valid in several SRAM structures
          cluster-wide (DRAM tiers excluded: approximate by contract) *)
  coherence_divergent : int;  (** the subset holding diverging payloads *)
  node_summaries : node_summary array;  (** node order *)
  cluster_section : Axmemo_util.Json.t;
      (** the ["cluster"] report section ({!section}), rendered from the
          live stats at the end of the run: shard and remote traffic,
          replication, directory, interconnect and restore accounting *)
  snapshots : (string * Axmemo_telemetry.Registry.snapshot) list;
  profiles : Axmemo_obs.Profile.snapshot array option;  (** per global core *)
  messages : msg list;  (** send order, for the trace *)
}

and msg = {
  seq : int;
  at : int;
  src : int;
  dst : int;
  hops : int;
  kind : msg_kind;
}

and msg_kind = Probe | Insert | Inv_lut | Inv_replica

val run_keep : ?metrics:bool -> ?profile:bool -> config -> outcome * t
(** {!run}, but also hands back the cluster with its warm end-of-run LUT
    state — the closed-stream warmer behind [axmemo snapshot save]
    ({!Corun.capture_snapshot} of {!node_cluster} 0 keeps the plain
    single-node section names). *)

val run : ?metrics:bool -> ?profile:bool -> config -> outcome
(** Simulates one closed request stream: places the requests with
    {!Axmemo_multicore.Schedule.dispatch}, executes them one at a time,
    settles bank and interconnect arbitration, and measures coherence
    divergence across the SRAM LUT levels. Baseline cycles come from a
    fresh un-memoized [Runner.run Baseline] per workload. With
    [~profile:true] each core carries an {!Axmemo_obs.Profile} collector;
    all scheduling and cycle results are bit-identical either way. *)

val run_matrix : ?jobs:int -> ?profile:bool -> config list -> outcome list
(** Each cell with [~metrics:true]; byte-identical for any [?jobs]. *)

(** {1 Reports and traces} *)

val default_series_cap : int
(** 32: the series length report rows are decimated to. *)

val report_runs : outcome list -> Axmemo_telemetry.Report.run list
(** One run row per outcome: per-node registries merged under ["n<j>."]
    name prefixes, the ["cluster"] section attached (regression-gated as
    [cluster.<path>] by [Obs.Diff]), profiles merged across all cores. *)

val report : outcome list -> Axmemo_util.Json.t
(** Schema-v1 report over {!report_runs}; extra fields: [root_seed] and
    one ["cluster"] array entry per outcome — the node config (cores,
    LUT sizes, partition, banks, ports), aggregates, coherence counts,
    one ["node_summaries"] entry per node (bank arbitration,
    repartitioning, occupancy, and the ["faults"] and ["l3"] blocks only
    on nodes configured with them), the ["cluster"] section, per-core
    counters with way ranges, retries, shadow hits and, on profiled runs,
    each core's ["profile"], and the schedule head. *)

val write_report : string -> outcome list -> unit

val trace : outcome -> Axmemo_telemetry.Tracer.t
(** Chrome-trace with one row per node's NIC: each message is a span from
    its issue cycle to issue + legs x [net_msg_cycles] (both legs for
    synchronous probes), emitted post hoc in deterministic order. *)

val write_trace : outcome -> string -> unit
