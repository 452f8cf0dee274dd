(** CRC computation engines.

    Two implementations mirror the paper's Figure 3:
    - a {e serial} engine that shifts one bit per step (the LFSR-with-input-XOR
      structure), the reference for correctness; and
    - a {e parallel} table-driven engine that consumes 8 bits per step using a
      precomputed 256-entry table — the "n-bit parallel implementation" whose
      constants live in a small RAM in hardware.

    Both expose incremental state: the hardware accumulates input words as
    they arrive (hiding hash latency behind the original computation), so the
    software model must too.

    Allocation contract: the register is unboxed storage, so {!reset},
    {!feed_int} and {!feed_int64} (on an already-boxed value) allocate
    nothing on a fault-free engine; {!value} allocates only its boxed
    result. *)

type t
(** An in-flight CRC computation (the contents of one Hash Value Register). *)

val start : ?fault:(int -> int64) -> Poly.t -> t
(** [start p] begins a computation under parameterisation [p].

    [?fault] models single-event upsets in the CRC datapath: when present it
    is called once per byte step with the register width and must return an
    XOR mask folded into the shift register ([0L] leaves the step clean).
    The hook is how {!Axmemo_faults.Injector} reaches the engine without the
    CRC library depending on the fault subsystem. Absent, the engine is
    exactly the fault-free datapath. *)

val reset : t -> unit
(** [reset t] returns [t] to its state at {!start}, in place: the register
    holds the initial value and {!bytes_fed} is 0. A hash value register is
    reset this way when [lookup] consumes it, instead of a new engine being
    started. *)

val copy : t -> t
(** [copy t] snapshots the in-flight state. *)

val feed_byte : t -> int -> unit
(** [feed_byte t b] accumulates one input byte [b] (0-255) using the parallel
    (table-driven) step. *)

val feed_string : t -> string -> unit
(** [feed_string t s] accumulates every byte of [s] in order. Fault-free
    engines consume 8 bytes per step off the slice-by-8 tables; the result
    is identical to folding {!feed_byte} over [s]. *)

val feed_int64 : t -> width:int -> int64 -> unit
(** [feed_int64 t ~width v] accumulates the low [width] bytes of [v] in
    little-endian order — how the memoization unit consumes register inputs.
    Fault-free engines fold all [width] bytes in a single sliced step. *)

val feed_int : t -> width:int -> int -> unit
(** [feed_int t ~width v] is [feed_int64 t ~width (Int64.of_int v)] for
    [0 <= width <= 7], with [v] passed as an immediate so the caller boxes
    nothing. An 8-byte input goes in as two 4-byte halves, low half first:
    the CRC of a byte stream does not depend on how it is split. *)

val value : t -> int64
(** [value t] finalizes (reflection + xorout) without disturbing the in-flight
    state, returning the CRC of everything fed so far. *)

val bytes_fed : t -> int
(** [bytes_fed t] counts bytes accumulated since [start]. *)

val digest_string : Poly.t -> string -> int64
(** [digest_string p s] is the one-shot CRC of [s]. *)

val digest_serial : Poly.t -> string -> int64
(** [digest_serial p s] computes the same CRC with the bit-serial engine.
    Used to cross-check the table-driven implementation. *)

val table : Poly.t -> int64 array
(** [table p] exposes the 256-entry step table (the contents of the small
    constants RAM in the hardware implementation). *)

val self_test : Poly.t -> bool
(** [self_test p] verifies both engines produce [p.check] on "123456789",
    that the slice-by-8 string path agrees with {!digest_serial} on a longer
    message, and that sliced {!feed_int64} steps match byte-at-a-time
    feeding. *)
