(** Two-level data-cache hierarchy with DRAM behind it.

    Latencies follow the paper's Table 3 HPI configuration: 1-cycle L1 hit,
    13-cycle L2 hit, DDR3-1600 behind the L2. The L2's way count is reduced
    when ways are carved out for the L2 LUT. *)

type config = {
  l1_size : int;
  l1_ways : int;
  l1_latency : int;
  l2_size : int;  (** capacity available for {e data} (after any LUT carve-out) *)
  l2_ways : int;
  l2_latency : int;
  line_bytes : int;
  dram_latency : int;  (** cycles for an L2 miss to complete *)
}

val hpi_default : config
(** 32 KB 4-way L1D @1 cycle, 1 MB 16-way L2 @13 cycles, 64 B lines,
    160-cycle DRAM (80 ns at 2 GHz). The paper enables 1 MB of the 2 MB L2
    since a single core is used. *)

val carve_l2 : config -> lut_bytes:int -> config
(** [carve_l2 c ~lut_bytes] removes whole ways from the L2 to host an L2 LUT
    of at least [lut_bytes], returning the reduced data-side configuration.
    @raise Invalid_argument if more than half the L2 would be carved
    (the paper caps the L2 LUT at half the last-level cache). *)

type t

val create : ?metrics:Axmemo_telemetry.Registry.t -> config -> t
(** With [?metrics], registers instruments under [cache.*]: a
    [cache.read_latency] histogram (one bucket per service level —
    L1 hit, L2 hit, DRAM) and stat mirrors, all written by
    {!flush_metrics}: a read only counts its service level, so a snapshot
    taken before the flush misses the reads since the last one. Latency
    results are bit-identical either way. *)

val config : t -> config

val read : t -> addr:int -> int
(** [read t ~addr] simulates a load: probes L1 then L2, allocates on the
    way back, returns total latency in cycles. *)

val write : t -> addr:int -> int
(** [write t ~addr] simulates a store (write-allocate, write-back); the
    returned latency is the store-buffer occupancy cost seen by the core. *)

val l1 : t -> Sa_cache.t
val l2 : t -> Sa_cache.t

val reset_stats : t -> unit

val flush_metrics : t -> unit
(** Fold the reads counted since the last flush into
    [cache.read_latency] (exact: latencies are integers) and mirror both
    caches' {!Sa_cache.stats} into the attached registry
    ([cache.l1.accesses], [cache.l1.hits], ... [cache.l2.writes]). Call
    when the run ends; a second flush adds no reads. No-op without an
    attached registry. *)
