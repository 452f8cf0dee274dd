(** Bank/port arbitration for the shared L2 LUT.

    Cores run one after another (determinism demands a canonical order over
    the one shared mutable LUT), so contention is {e settled post hoc}:
    every shared-LUT access is recorded with its absolute issue cycle, then
    {!settle} bins the log by (bank, service window) — the bank is the set
    index modulo [banks], the window is [window] cycles wide — and charges
    every access beyond [ports] per bin one full window of stall cycles to
    its issuing core. Ties inside a bin resolve by (cycle, core, log order),
    making the settlement a pure function of the recorded stream. *)

type t

val create : banks:int -> ports:int -> window:int -> t
(** [banks] banks of [ports] ports each. [window] is the service latency of
    one probe (the L2 LUT lookup latency in the co-run model).
    @raise Invalid_argument on non-positive parameters. *)

val record : tag:int -> t -> core:int -> set:int -> at:int -> unit
(** Log one access to the bank holding [set], issued by [core] at absolute
    cycle [at]. [tag] rides along unchanged — the co-run passes the logical
    LUT id so settled stalls can be attributed back to a memoization
    region; it never affects arbitration (ties break on cycle, core, log
    order before the tag is reachable). The log is flat integer columns
    (bank, cycle, core, tag; the log order is the index) grown by
    doubling, so recording allocates nothing per access. *)

type settlement = {
  accesses : int;  (** everything recorded *)
  contended : int;  (** accesses that lost arbitration *)
  stall_cycles : int array;  (** per-core contention cycles *)
  retried : int array;  (** per-core lost-arbitration counts *)
  tag_stalls : (int * int * int) list;
      (** per-[(core, tag)] stall cycles, sorted by [(core, tag)];
          row sums over a core equal [stall_cycles.(core)] *)
}

val settle : t -> ncores:int -> settlement
(** Deterministic, order-independent settlement of the whole log. Bins are
    formed by sorting the log by (bank, cycle, core, log order) with a
    stable radix sort, so a bin is a contiguous run. The log is left
    untouched: settling again, or after more records, settles the whole
    log again. *)

val banks : t -> int
val ports : t -> int
val window : t -> int
