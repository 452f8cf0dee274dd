(** The per-core memoization unit (Section 3).

    Contains the hash value registers (one in-flight CRC per logical LUT;
    single hardware thread — the paper evaluates one core), the L1 LUT, the
    optional inclusive L2 LUT carved from last-level-cache ways, and the
    quality-monitoring unit of Section 6.

    The unit plugs into the interpreter through {!hooks} and reports the
    latency class of the most recent lookup so the CPU timing model can
    charge Table 4 latencies.

    Allocation contract: the hash value registers are a slot array
    indexed by [lut + 8 * tid], grown on a TID's first use, and each slot's
    CRC engines are started once and reset in place. On a unit with no
    fault injector and no profiler (a registry may be attached), {!send}
    and an {!update} of an already-fingerprinted key allocate nothing in
    steady state, and {!lookup} allocates only its [Some] result and the
    boxed key and fingerprint it latches. The shared-level, DRAM-tier,
    adaptive and quality-monitor sampling paths are outside the contract. *)

type rounding = Truncate | Nearest
(** How the approximation maps an input into its cell before hashing:
    [Truncate] clears the LSBs (the paper's evaluated mechanism); [Nearest]
    rounds to the nearest cell — the "more sophisticated approach" the paper
    notes is possible "since the approximation does not affect [the] hashing
    unit" (Section 3.1). *)

type adaptive_config = {
  profile_period : int;
      (** lookups between profiling windows (the paper: "a certain
          percentage of the execution time") *)
  profile_length : int;  (** window length, in lookups *)
  target_error : float;  (** per-sample relative error the window tolerates *)
  bad_fraction : float;  (** fraction of bad samples that triggers back-off *)
  max_extra_bits : int;  (** upper bound on the added truncation *)
}

val default_adaptive : adaptive_config
(** Profile 100 of every 1000 lookups, 1% error target, 5% bad fraction,
    up to 20 extra bits. *)

type config = {
  l1_bytes : int;  (** dedicated SRAM, ≤ 16 KB *)
  l2_bytes : int option;  (** carved from the LLC; [None] = single level *)
  payload_bytes : int;  (** 4 or 8; fixes set geometry (8- or 4-way) *)
  crc : Axmemo_crc.Poly.t;  (** tag hash; CRC-32 by default *)
  monitor : bool;  (** enable the quality-monitoring unit *)
  collision_tracking : bool;
      (** maintain shadow 64-bit input fingerprints to measure hash-collision
          frequency (a measurement aid, not hardware state) *)
  policy : Lut.policy;  (** LUT replacement policy (LRU in the paper) *)
  rounding : rounding;  (** input-cell mapping before hashing *)
  adaptive : adaptive_config option;
      (** Section 3.1's "dynamic approach": instead of compile-time-profiled
          truncation levels, the unit periodically forces a profiling window
          in which every lookup misses, compares recomputed results against
          LUT contents, and raises or lowers a per-LUT {e extra} truncation
          applied on top of the instructions' static level. *)
  faults : Axmemo_faults.Fault_model.spec option;
      (** Attach a fault injector: SEUs strike the named sites at the spec's
          rate, and the spec's protection kind guards the LUT entries. [None]
          (the default) leaves every run bit-identical to a unit built
          without the fault subsystem. *)
}

val default_config : config
(** 8 KB L1, no L2, 8-byte payloads, CRC-32, monitor on, collision tracking
    on, no adaptive truncation, no fault injection. *)

type lut_decl = { lut_id : int; payload : Axmemo_ir.Payload.kind }
(** Static declaration of one logical LUT: its id and how its 8-byte data
    field is interpreted (needed by the quality monitor to compute relative
    errors). *)

type level = Hit_l1 | Hit_l2 | Hit_l3 | Miss

type stats = {
  sends : int;
  bytes_hashed : int;
  lookups : int;
  l1_hits : int;
  l2_hits : int;
  l3_hits : int;  (** hits served by an attached DRAM tier ({!attach_l3}) *)
  misses : int;  (** includes monitor-forced misses *)
  forced_misses : int;
  updates : int;
  invalidations : int;
  collisions : int;  (** lookups whose tag matched but whose full-input fingerprint differed *)
  monitor_comparisons : int;
}

type shared_l2 = {
  sl_lookup : lut_id:int -> key:int64 -> int64 option;
  sl_insert : lut_id:int -> key:int64 -> payload:int64 -> unit;
  sl_invalidate : lut_id:int -> unit;
}
(** Externally owned next-level LUT, used when several cores share one
    inclusive L2 LUT (the multi-core co-run model). The unit drives it
    exactly like a private L2 — [sl_lookup] on an L1 miss (an inclusive hit
    fills the L1), [sl_insert] on update, [sl_invalidate] on the
    [invalidate] instruction and on adaptive-truncation changes — while the
    caller owns storage, partitioning and arbitration. *)

type l3_port = {
  t3_lookup : lut_id:int -> key:int64 -> int64 option;
  t3_cycles : unit -> int;
  t3_spill : lut_id:int -> key:int64 -> payload:int64 -> unit;
  t3_invalidate : lut_id:int -> unit;
  t3_decay : unit -> (int64 * int64) option;
}
(** Externally owned DRAM LUT tier ([Axmemo_tier.Dram_lut], typically
    cluster-shared). Probed after the last SRAM level misses; a hit refills
    the inclusive SRAM hierarchy. [t3_cycles] reads the DRAM cost of the
    probe just issued (row-buffer dependent), [t3_spill] receives SRAM
    victims, [t3_invalidate] drops a logical LUT. [t3_decay] reads the
    (clean, as-read) payload pair when the probe just issued returned a
    payload whose relaxed low bits had decayed ([None] on an exact read):
    the unit feeds the exact relative error into the quality monitor's
    observed-error window — and the profiler's per-region attribution —
    without a forced recompute, so sustained payload decay can trip the
    unit like any other quality failure. Another neutral closure record,
    so this library does not depend on the tier layer. *)

type profile_hooks = {
  pr_lookup :
    lut:int -> key:int64 -> fp:int64 option -> level:level -> forced:bool -> unit;
  pr_insert : lev:[ `L1 | `L2 ] -> lut:int -> key:int64 -> fp:int64 option -> unit;
  pr_evict : lev:[ `L1 | `L2 ] -> lut:int -> key:int64 -> full:bool -> unit;
  pr_invalidate : lut:int -> unit;
  pr_error : lut:int -> err:float -> unit;
  pr_collision : lut:int -> unit;
}
(** Event port for the attribution profiler ([Axmemo_obs.Profile]). Like
    {!shared_l2}, a neutral closure record so this library stays independent
    of the observability layer. The unit reports, per logical LUT:

    - [pr_lookup]: the final outcome of every lookup (after monitor and
      adaptive overrides), with the probe key and — when collision tracking
      is on — the full-input fingerprint. Forced misses (quality monitor
      sampling, adaptive profiling windows, a tripped monitor) come with
      [forced:true]; a tripped unit reports [key:0L] since no hash is
      computed.
    - [pr_insert] / [pr_evict]: residency changes per LUT level. Inclusive
      L1 fills on an L2 hit pass [fp:None] (the entry's fingerprint is
      unchanged); [pr_evict]'s [full] says whether the whole level was at
      capacity when the victim was displaced, distinguishing capacity from
      set-conflict evictions. The external shared level reports its own
      evictions through the cluster, not here.
    - [pr_invalidate]: the LUT was dropped at every level this core can
      see (the [invalidate] instruction, an adaptive-truncation change, or
      a cross-core broadcast received by {!invalidate_external}).
    - [pr_error]: one shadow-exact comparison — the worst relative error
      between a LUT payload and the freshly recomputed value (monitor
      sampling and adaptive windows).
    - [pr_collision]: a tag hit whose stored fingerprint differed.

    All events are purely observational. *)

type t

val create :
  ?metrics:Axmemo_telemetry.Registry.t ->
  ?shared_l2:shared_l2 ->
  ?profile:profile_hooks ->
  config ->
  lut_decl list ->
  t
(** [create config decls] builds a unit serving the declared logical LUTs.
    With [?metrics], the unit registers its instruments (all names under
    [memo.*]) and records live events — LUT evictions/spills, adaptive and
    monitor window outcomes — as it runs; per-send truncation levels are
    counted as it runs and enter the [memo.trunc_bits] histogram at
    {!flush_metrics}.
    Telemetry is purely observational: results are bit-identical with or
    without it. With [?shared_l2], L1 misses fall through to the given
    external level instead of a private L2. With [?profile], the unit
    feeds the attribution profiler's event port ({!profile_hooks}); absent,
    the hot path pays one pattern match per site and allocates nothing.
    @raise Invalid_argument on duplicate or out-of-range (0..7) LUT ids, or
    if both [config.l2_bytes] and [?shared_l2] are set. *)

val hooks : ?tid:int -> t -> Axmemo_ir.Interp.memo_hooks
(** Adapter for {!Axmemo_ir.Interp.create}, bound to one hardware thread
    (default 0). Under SMT, each thread's instruction stream carries its own
    TID: hash value registers and latched keys are addressed by
    {v {LUT_ID, TID} v} (Section 3.2) while the LUT storage itself is shared
    by the core's threads. *)

val send : ?tid:int -> t -> lut:int -> ty:Axmemo_ir.Ir.ty -> trunc:int -> Axmemo_ir.Ir.value -> unit
(** TID-explicit variants of the hook operations, for SMT models and tests.
    {!send} and {!lookup} address the register of [(lut, tid)]; an {!update}
    with no lookup on it since the last {!reset} is dropped.
    @raise Invalid_argument from {!send} or {!lookup} (untripped) when [lut]
    is outside 0..7 (the 3-bit LUT_ID) or [tid] is negative. *)

val lookup : ?tid:int -> t -> lut:int -> int64 option
val update : ?tid:int -> t -> lut:int -> int64 -> unit
val invalidate : t -> lut:int -> unit

val invalidate_external : t -> lut:int -> unit
(** Receiver side of the cross-core invalidate broadcast: drop this core's
    private L1 entries for [lut] because {e another} core retired an
    [invalidate]. Does not touch hash registers, the shared level, or this
    core's invalidation count — those belong to the issuing core. *)

val invalidate_remote : t -> lut:int -> unit
(** Receiver side of a cross-{e node} point-to-point invalidation: the same
    private-L1 drop as {!invalidate_external}, but without the profile
    event — the cluster layer attributes the drop to the remote reason on
    its own collectors. *)

val l1_holds : t -> lut:int -> bool
(** Whether this core's private L1 holds any entry of [lut] — lets the
    invalidate broadcast count delivered vs filtered receivers. *)

val attach_l3 : t -> l3_port -> unit
(** Attach the DRAM tier. Extends the last {e private} SRAM level's evict
    hook with [t3_spill] (a unit backed by a cluster-shared L2 spills at the
    cluster layer instead), and registers the [memo.l3.hits] counter when a
    registry is attached — so an L3-less unit's metrics snapshot and
    behaviour stay byte-identical to a build without this tier.
    @raise Invalid_argument if a tier is already attached. *)

val last_lookup_level : t -> level
(** Latency class of the most recent lookup ([Miss] before any lookup). *)

val last_l3_cycles : t -> int
(** DRAM cycles charged by the most recent lookup's L3 probe — 0 when no
    probe was issued (L1/L2 hit, no tier attached, or tripped monitor). The
    pipeline adds this to its lookup latency. *)

val disabled : t -> bool
(** True once the quality monitor has shut memoization off. *)

val trip_lookup : t -> int option
(** The lookup count at which the monitor first tripped ([None] if it never
    did) — the campaign's latency-to-trip measure. *)

val monitor_observed : t -> int * int
(** [(samples, bad)] observed-error totals accumulated by the quality
    monitor so far — shadow comparisons plus decayed-L3-read observations,
    cumulative across window closes (the per-window counters reset; these
    never do). The timeline's per-window quality deltas are differences of
    consecutive reads. *)

val injector : t -> Axmemo_faults.Injector.t option
(** The attached fault injector, when [config.faults] was set. The runner
    uses it to install the cycle clock and tracer observer, and to read
    {!Axmemo_faults.Injector.stats} at the end of the run. *)

val stats : t -> stats

val hit_rate : t -> float
(** Total (L1 + L2 + L3) hits over lookups; 0 when no lookups were made. *)

val l1_ways : t -> int
(** Associativity of the L1 LUT (for [invalidate] timing). *)

val l1_lut : t -> Lut.t
(** The private L1 LUT — the snapshot layer's capture/restore handle. *)

val extra_truncation : t -> lut_id:int -> int
(** Current adaptive extra-truncation level for one LUT (0 when the unit is
    not adaptive or has not raised it yet). *)

val lut_entries : t -> (int * int64 * int64) list
(** Valid [(lut_id, key, payload)] entries across both LUT levels (L1 first);
    measurement aid for the multi-core no-coherence check. *)

val flush_metrics : t -> unit
(** Mirror the cumulative {!stats} into the attached registry (counters
    [memo.sends], [memo.lookups], [memo.l1.hits], ...), add the sends since
    the last flush to the [memo.trunc_bits] histogram, histogram the
    current per-set LUT occupancies, and set the [memo.hit_rate] and
    [memo.monitor.tripped] gauges. Call once, when the run ends, before
    snapshotting the registry. No-op without an attached registry. *)

val reset : t -> unit
(** Invalidate all storage, clear hash registers, stats and monitor state. *)
