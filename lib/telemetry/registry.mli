(** Unified metrics registry.

    A registry holds named instruments created once at simulator-construction
    time; the hot path then mutates pre-allocated records (an [int]/[float]
    store, an array slot) and never allocates, searches, or formats.
    Components accept the registry as an {e option} at creation: with [None]
    the instrumentation sites reduce to a single pattern match on an
    immutable field, so an uninstrumented run does no telemetry work at all
    — and, because every instrument is purely observational, an instrumented
    run computes bit-identical simulation results.

    Four instrument kinds cover the paper's evaluation needs:

    - {b counters}: monotonically increasing integers (hits, misses, stalls);
    - {b gauges}: last-written floats (hit rate, energy, derived ratios);
    - {b histograms}: fixed buckets chosen at creation — values are counted
      into the first bucket whose upper bound is [>=] the value, with an
      implicit overflow bucket (truncation levels, set occupancy, memory
      latencies);
    - {b series}: windowed time-series samplers — every observation is
      kept as an [(at, value)] pair, and when [cap] samples
      accumulate the series halves itself and doubles its stride, so memory
      stays bounded and the decimation is deterministic (CRC back-pressure
      over time, adaptive-truncation decisions).

    Instrument names are unique per registry and reports render them
    sorted, so a snapshot serializes identically no matter the creation or
    observation order. *)

type t
type counter
type gauge
type histogram
type series

val create : unit -> t

val counter : t -> string -> counter
(** [counter t name] registers a counter starting at 0.
    @raise Invalid_argument if [name] is already registered. *)

val gauge : t -> string -> gauge
(** Registers a gauge starting at 0. Same name discipline as {!counter}. *)

val histogram : t -> string -> bounds:float array -> histogram
(** [histogram t name ~bounds] registers a histogram with one bucket per
    upper bound plus an overflow bucket. [bounds] must be non-empty and
    strictly increasing.
    @raise Invalid_argument on a duplicate name or bad bounds. *)

val log_bounds : lo:float -> hi:float -> per_decade:int -> float array
(** [log_bounds ~lo ~hi ~per_decade] builds geometric histogram bounds
    from [lo] to [hi] (inclusive), [per_decade] per power of ten — the
    bucket ladder for latency distributions, where relative (not absolute)
    resolution matters and the p99.9 tail must stay readable. Adjacent
    bounds differ by a factor of 10^(1/per_decade), so percentiles
    interpolated from the histogram ({!Axmemo_util.Stats.percentile_of_histogram})
    are exact to within one bucket width at every rank.
    @raise Invalid_argument unless [0 < lo < hi] and [per_decade >= 1]. *)

val series : t -> string -> ?cap:int -> unit -> series
(** [series t name ()] registers a sampler keeping every observation,
    decimating 2x whenever [cap] (default 512) samples are held.
    @raise Invalid_argument on a duplicate name or a non-positive [cap]. *)

(** {2 Hot-path operations — allocation-free} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set_count : counter -> int -> unit
(** Overwrite the count (used by end-of-run flushes that mirror an existing
    simulator counter into the registry). *)

val count : counter -> int

val set : gauge -> float -> unit
val value : gauge -> float

val observe : histogram -> float -> unit
val observe_n : histogram -> float -> int -> unit
(** [observe_n h v n] records [v] [n] times (one bucket increment). *)

val sample : series -> at:int -> float -> unit
(** [sample s ~at v] offers one observation with timestamp [at] (any
    monotonic integer: cycle, lookup index...). Whether it is kept depends
    only on the observation count, never on wall-clock. *)

(** {2 Snapshots} *)

type hist_data = { bounds : float array; counts : int array; total : int; sum : float }
(** [counts] has [Array.length bounds + 1] entries, the last being the
    overflow bucket. *)

type data =
  | Counter of int
  | Gauge of float
  | Histogram of hist_data
  | Series of { stride : int; samples : (int * float) array }

type snapshot = (string * data) list
(** Sorted by name. *)

val snapshot : t -> snapshot
(** An immutable copy of every instrument's current state. *)

val decimate : cap:int -> snapshot -> snapshot
(** [decimate ~cap snap] bounds every series in [snap] to at most [cap]
    samples by repeatedly applying the live sampler's own halving rule (keep
    every other sample, double the stride). Counters, gauges and histograms
    pass through untouched. Deterministic and idempotent — report emitters
    use it to keep checked-in JSON small without changing its schema.
    @raise Invalid_argument on a non-positive [cap]. *)

val merge : snapshot list -> snapshot
(** Deterministic cross-run aggregation, applied left to right: counters
    sum; histograms with identical bounds sum bucket-wise; gauges keep the
    {e last} value in argument order; series are dropped (a time axis does
    not aggregate across independent runs). The result is sorted by name.
    @raise Invalid_argument if one name maps to incompatible instruments
    (different kinds, or histograms with different bounds). *)

val to_json : snapshot -> Axmemo_util.Json.t
(** Render as the [metrics] object of the run-report schema (see
    {!Report}): [{"counters": {...}, "gauges": {...}, "histograms":
    {name: {"bounds": [...], "counts": [...], "total": n, "sum": x}},
    "series": {name: {"stride": k, "samples": [[at, v], ...]}}}]. *)
