(** Flat byte-addressable memory with a bump allocator.

    Workloads allocate their input/output arrays here before execution;
    loads and stores in the interpreter resolve against it. Addresses are
    plain integers (byte offsets), little-endian layout. *)

type t

val create : ?size_bytes:int -> unit -> t
(** [create ()] returns an empty memory; it grows on demand up to
    [size_bytes] (default 512 MiB — the software-LUT baselines allocate
    multi-MB tables). *)

val alloc : t -> bytes:int -> align:int -> int
(** [alloc t ~bytes ~align] reserves a fresh region and returns its base
    address, aligned to [align] (a power of two). *)

val load : t -> Ir.ty -> int -> Ir.value
(** [load t ty addr] reads a value of type [ty] at [addr]. I32 loads are
    sign-extended; F32 loads are widened to [float]. *)

val store : t -> Ir.ty -> int -> Ir.value -> unit
(** [store t ty addr v] writes [v] at [addr] with [ty] layout. Stores a [VF]
    for float types and a [VI] for integer types.
    @raise Invalid_argument on a value/type kind mismatch. *)

val load_f32 : t -> int -> float
val store_f32 : t -> int -> float -> unit
val load_f64 : t -> int -> float
val store_f64 : t -> int -> float -> unit
val load_i32 : t -> int -> int32
val store_i32 : t -> int -> int32 -> unit
val load_i64 : t -> int -> int64
val store_i64 : t -> int -> int64 -> unit
