(** One co-run node: the N-core group the sharded cluster composes.

    Each core owns a private pipeline, data-cache hierarchy, hash/value
    registers and L1 LUT (all reused from the single-core model); every
    core's L2-level memoization traffic goes to one {!Shared_lut} carved
    from the shared LLC, with bank/port contention charged by an
    {!Arbiter}. The node runs no request stream of its own:
    [Axmemo_cluster.Cluster] places requests with {!Schedule}, executes
    them one at a time through {!exec_request}, settles the arbiter and
    reports. A 1-node cluster is the co-run of the paper's Section 6, and a
    1-core free-for-all co-run of a single workload reproduces
    [Runner.run (Hw_memo ...)] bit for bit. *)

type config = {
  ncores : int;
  l1_bytes : int;  (** per-core private L1 LUT *)
  shared_l2_bytes : int;  (** the shared LUT carved from the LLC *)
  partition : Shared_lut.partition;
  banks : int;
  ports : int;  (** ports per bank of the shared LUT *)
  workloads : string list;  (** the mix, round-robined into the stream *)
  requests : int;
  variant : Axmemo_workloads.Workload.variant;
  retain_luts : bool;
      (** keep LUT contents warm across requests by stripping the trailing
          per-region [Invalidate]s the compiler emits for standalone runs
          (mid-program invalidates are untouched); off, every request keeps
          the standalone epilogue and a 1-core co-run replays [Runner.run]
          bit for bit *)
  faults : Axmemo_faults.Fault_model.spec option;
      (** when set, upsets strike the shared LUT's storage
          ([Axmemo_cluster.Cluster.create] re-seeds it per node) *)
  l3 : Axmemo_tier.Dram_lut.config option;
      (** when set, a DRAM-resident LUT tier sits behind the shared level:
          shared-LUT victims spill into it, every core's SRAM miss probes
          it (row-buffer-priced through the pipeline's lookup charge), and
          its relaxed payload cells decay through the fault injector when
          the spec enables site [l3.payload] *)
}

val default : config
(** 2 cores, 8 KiB L1 / 512 KiB shared, free-for-all, 8 banks x 1 port,
    8 blackscholes requests, warm LUTs, no faults, no L3 tier. *)

val label : config -> string
(** Appends [",l3=<n>KB"] only when the tier is configured, so tier-less
    labels (and everything keyed off them) are unchanged. *)

(** {1 The node} *)

type cluster

type l2_port_maker =
  core:int -> now:(unit -> int) -> local:Axmemo_memo.Memo_unit.shared_l2 ->
  Axmemo_memo.Memo_unit.shared_l2
(** How a multi-node layer interposes on a core's shared-L2 traffic: called
    once per core at cluster creation with the core id, the core's absolute
    cycle clock, and the node-local port (which already records bank
    arbitration); the returned port is what the unit talks to. *)

val create_cluster :
  ?metrics:bool ->
  ?profile:bool ->
  ?l2_port:l2_port_maker ->
  ?on_invalidate:(core:int -> lut:int -> at:int -> unit) ->
  config ->
  cluster
(** Builds the cores, the shared LUT and the arbiter. Every workload's
    logical LUT ids are renumbered onto a disjoint range (mix order), so a
    mixed stream never aliases; single-workload mixes keep their original
    ids. [metrics] attaches one registry per core (the unit's instruments)
    plus a cluster registry (the shared LUT's). [profile] attaches one
    {!Axmemo_obs.Profile} collector per core over the mix's remapped
    regions, with shared-LUT evictions broadcast to every collector.
    [?l2_port] lets the sharded-cluster layer redirect shared-level traffic
    (absent, units talk to the node-local level exactly as before);
    [?on_invalidate] fires after each local invalidate broadcast — with the
    issuing core, the LUT id, and the absolute issue cycle — so a directory
    can issue cross-node invalidations. Neither default changes any
    behaviour.
    @raise Invalid_argument on an unknown benchmark, an empty mix, fewer
    than one core, or a mix needing more than 8 logical LUTs. *)

val memo_hooks : cluster -> core:int -> Axmemo_ir.Interp.memo_hooks
(** The core's own hooks with [invalidate] wrapped to broadcast: the
    issuing unit drops its L1 and the shared level, the wrapper drops every
    {e other} core's private L1 so no stale private copy survives. With a
    metrics registry attached, the broadcast counts one
    [corun.invalidate.broadcasts] event plus, per peer core,
    [corun.invalidate.delivered.core<i>] (the peer held the LUT) or
    [corun.invalidate.filtered.core<i>] (it held nothing — the message was
    pure overhead). The family is created lazily on the first event, so
    invalidate-free runs keep byte-identical metrics snapshots. *)

val collectors : cluster -> Axmemo_obs.Profile.t array option
(** The live per-core profile collectors (creation order), when the cluster
    was built with [~profile:true] — the cluster layer marks remote
    invalidations on them. *)

val core_unit : cluster -> core:int -> Axmemo_memo.Memo_unit.t
val shared_lut : cluster -> Shared_lut.t

val monitor_observed : cluster -> int * int * int
(** Cumulative quality-monitor observations summed over every core:
    [(samples, bad, tripped_cores)]. Monotone over a run — the timeline
    sampler diffs consecutive reads to attribute quality activity to
    service windows. *)

val dram_lut : cluster -> Axmemo_tier.Dram_lut.t option
(** The cluster's DRAM tier, when the config asked for one. *)

val fault_stats : cluster -> Axmemo_faults.Injector.stats option
(** The shared-LUT fault injector's totals, when the config asked for
    faults. *)

val capture_snapshot : cluster -> Axmemo_tier.Snapshot.t
(** Serialize every LUT level's warm contents: sections ["l1.<core>"] per
    private L1, ["l2"] the shared level, ["l3"] the DRAM tier (when
    attached), each ordered oldest-first so a restore reproduces recency
    state. Deterministic for a deterministic run. *)

val restore_snapshot_stats : cluster -> Axmemo_tier.Snapshot.t -> int * int * int
(** Replay a snapshot's sections into a freshly created cluster (before any
    request runs); returns [(restored, amortised, serial)]: the number of
    entries restored and the DRAM tier's batch-warming accounting, in row
    activations — what the row-sorted fill cost vs an entry-at-a-time
    replay (both 0 when the snapshot has no [l3] section or no tier is
    attached). Sections that do not match the cluster's shape (extra
    cores, an [l3] section with no tier attached) are skipped, so a
    snapshot from a wider configuration degrades gracefully. Restoring
    draws no fault events and leaves telemetry counters untouched.
    DRAM-tier sections go through {!Axmemo_tier.Dram_lut.bulk_fill}
    (row-sorted batch warming; identical final state). *)

(** {2 Driver access}

    What a request-stream driver composes: per-request execution,
    arbitration settlement and the metric flush/snapshot step. *)

val exec_request :
  cluster -> workload:string -> core:int -> start:int -> Axmemo.Runner.result
(** Execute one invocation of [workload] on [core] with the core's cycle
    base set to [start]. LUT/cache warm state carries over between calls;
    callers must issue requests in their dispatcher's canonical order for
    results to stay deterministic.
    @raise Invalid_argument when [workload] is not in the cluster's mix. *)

val settle_arbiter : cluster -> Arbiter.settlement
(** Post-hoc settlement of every shared-LUT access recorded so far (see
    {!Arbiter.settle}); call once, after the last request. *)

val flush_metrics : cluster -> unit
(** Mirror each core unit's and the shared LUT's cumulative stats into
    their registries — required before {!cluster_snapshots}. *)

val cluster_snapshots : cluster -> (string * Axmemo_telemetry.Registry.snapshot) list
(** The ["core<i>"] and ["cluster"] registry snapshots (empty list unless
    the cluster was created with [~metrics:true]). *)
