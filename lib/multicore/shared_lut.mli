(** The shared inclusive L2 LUT of the multi-core co-run model.

    One set-associative LUT ({!Axmemo_memo.Lut}) carved from the shared
    last-level cache and probed by every core's memoization unit. The
    interesting question a shared structure raises is {e allocation}: who may
    evict whom. Three policies are modeled:

    - {b free-for-all}: any core's insert may victimize any way — maximum
      capacity sharing, zero isolation;
    - {b static}: the ways of every set are split into contiguous,
      near-equal per-core ranges fixed at creation (Intel-CAT style: lookups
      still hit in any way, but a core's inserts only victimize its own
      range, so one core can never evict another's entries);
    - {b utility}: the static split re-balanced periodically from shadow hit
      counters — every [period] lookups the ways are redistributed in
      proportion to each core's hits over the elapsed window
      (largest-remainder, at least one way per core, ties to the lower core
      index), so the policy is a pure function of the observed stream.

    All bookkeeping is deterministic; the structure carries no clock of its
    own. Bank/port timing lives in {!Arbiter}. *)

type partition = Free_for_all | Static | Utility of { period : int }

val partition_name : partition -> string

val parse_partition : string -> partition option
(** Accepts ["free-for-all"]/["ffa"], ["static"], ["utility"] (period 2048). *)

type t

val create :
  ?metrics:Axmemo_telemetry.Registry.t ->
  ?faults:Axmemo_faults.Injector.t * Axmemo_faults.Fault_model.lut_sites ->
  ?payload_bytes:int ->
  ?policy:Axmemo_memo.Lut.policy ->
  ncores:int ->
  size_bytes:int ->
  partition:partition ->
  unit ->
  t
(** [create ~ncores ~size_bytes ~partition ()] builds the shared level.
    [?metrics] registers [sharedlut.*] instruments (lookups, hits, inserts,
    evictions, invalidations, repartitions, occupancy); [?faults] exposes
    the storage to an injector exactly like a private LUT level would be.
    @raise Invalid_argument if a partitioned policy is asked to split fewer
    ways than cores, or on a non-positive utility period. *)

val lookup : t -> core:int -> lut_id:int -> key:int64 -> int64 option
(** Probe on behalf of [core]. Hits match any way regardless of partition;
    shadow per-core hit/lookup counters feed the utility policy. *)

val insert : t -> core:int -> lut_id:int -> key:int64 -> payload:int64 -> unit
(** Insert on behalf of [core]; victim selection is confined to the core's
    current way range. Refreshing an existing key never crosses the
    partition (it rewrites in place). *)

val invalidate_lut : t -> lut_id:int -> unit
(** Drop one logical LUT everywhere — the shared half of the cross-core
    invalidate broadcast. *)

val invalidate_entry : t -> lut_id:int -> key:int64 -> bool
(** Drop one [(lut_id, key)] entry if present (a cluster directory
    invalidating a stale replica after a remote write); [true] if dropped.
    Counts a [lut.l2.invalidations] telemetry event only when something was
    dropped. *)

val set_evict_observer :
  t -> (lut_id:int -> key:int64 -> full:bool -> unit) -> unit
(** Install an eviction observer (the attribution profiler's residency
    feed) on top of the telemetry hook. [full] is whether the LUT was at
    entry capacity when the victim was displaced — capacity vs. set
    conflict, measured while the victim is still counted. Call at most
    once, before the first insert. *)

val set_spill :
  t -> (lut_id:int -> key:int64 -> payload:int64 -> unit) -> unit
(** Install a payload-carrying spill hook on top of whatever eviction hook
    is already installed (telemetry and/or the profiler's observer) — the
    DRAM L3 tier absorbs shared-level victims through it. Call at most
    once, before the first insert. *)

val lut : t -> Axmemo_memo.Lut.t
(** The underlying storage, exposed for snapshot capture/restore only —
    mutating it directly bypasses partition bookkeeping. *)

val way_range : t -> core:int -> int * int
(** The core's current allocation window (inclusive way indices). *)

val ways : t -> int
val set_of_key : t -> int64 -> int

val repartitions : t -> int
(** Times the utility policy has re-balanced (0 for the other policies). *)

val shadow_hits : t -> int array
(** Cumulative per-core shared-level hits (a copy). *)

val occupancy : t -> int
val entries : t -> (int * int64 * int64) list

val flush_metrics : t -> unit
(** Mirror end-of-run state (occupancy gauge) into the attached registry. *)
