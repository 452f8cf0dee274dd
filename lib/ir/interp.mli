(** IR interpreter.

    Executes a program functionally and, through optional hooks, drives the
    tracer (for DDDG construction) and the CPU timing model. The memoization
    unit is attached as a record of callbacks so this library stays
    independent of the hardware model.

    Performance notes (the hot path of every simulation):
    - block labels are resolved to integer indices once at {!create}, so
      taking a branch is an array access, not a [Hashtbl.find];
    - the observer interface is the {!hooks} record of site compilers:
      everything static about an instruction is resolved once, at
      {!create}, and nothing is allocated per dynamic instruction;
    - the interpreter loop is specialized on hook presence at function-call
      granularity, so a hook-free run has no per-instruction hook dispatch;
    - the [`Compiled] backend keeps registers unboxed: a frame is an
      integer plane and a kind plane (a [Bytes] each) plus a float plane,
      and each immediate operand has a constant slot after the
      registers. An instruction reads and writes slots directly, calls and
      returns copy slot to slot, and frames come from a per-function arena,
      so a steady-state step allocates nothing. The one value boxed per
      execution is the [Ir.value] a [reg_crc]/[ld_crc] hands to
      {!memo_hooks.send}; {!run} converts its arguments and results once.
      Kinds stay dynamic, as in the walker: a typed read of the other kind
      fails with the walker's message. *)

type memo_hooks = {
  send : lut:int -> ty:Ir.ty -> trunc:int -> Ir.value -> unit;
      (** A [reg_crc]/[ld_crc] streamed one input value; the unit truncates
          [trunc] LSBs and feeds the bytes to the hash register of [lut]. *)
  lookup : lut:int -> int64 option;
      (** Finalize the hash and probe; [Some payload] on hit. *)
  update : lut:int -> int64 -> unit;
      (** Insert a payload under the key of the last lookup on [lut]. *)
  invalidate : lut:int -> unit;
}

type hooks = {
  on_enter : string -> unit;  (** function entered *)
  on_leave : string -> unit;  (** function left *)
  exec_site : string -> int -> int -> Ir.instr -> int -> unit;
      (** Site compiler. [exec_site fname bidx iidx instr] is called once per
          {e static} instruction (instruction [iidx] of block [bidx]), at
          {!create}, by either backend; the closure it returns runs each
          time that instruction executes, with the resolved effective
          address for memory instructions and [-1] otherwise. For a [Call]
          the closure runs before the callee (issue order), with [-1]. *)
  term_site : string -> int -> Ir.terminator -> unit -> unit;
      (** Site compiler for block terminators: [term_site fname bidx term]
          is called once per block at {!create}; the closure runs each time
          the terminator executes. *)
}
(** The interpreter's one observer protocol. An observer precomputes what
    it can per site, and the protocol itself allocates nothing per
    executed instruction. *)

val no_hooks : hooks
(** The canonical no-op observer. {!combine_hooks} recognises it physically
    and short-circuits, so [combine_hooks no_hooks h] is [h] itself — no
    fan-out closures. *)

val combine_hooks : hooks -> hooks -> hooks
(** Fan one execution out to two observers, first-before-second: the
    combined site compiler resolves both sides' sites once and returns a
    closure running the first side's, then the second's. When either side
    is {!no_hooks} the other is returned unchanged. *)

type t

type backend = [ `Interp | `Compiled ]
(** Execution strategy. [`Interp] walks the IR per instruction, calling the
    hook sites it stored per block at {!create}; [`Compiled] pre-compiles
    every basic block into a chain of closures at {!create} (operands
    resolved to array slots, branch targets to compiled-block references,
    each hook site resolved next to the closure that calls it) and
    dispatches once per block. Both are pinned bit-identical: same results,
    same {!steps}, same hook sequence. *)

val create :
  ?memo:memo_hooks ->
  ?hooks:hooks ->
  ?max_steps:int ->
  ?backend:backend ->
  program:Ir.program ->
  mem:Memory.t ->
  unit ->
  t
(** [create ~program ~mem ()] prepares an execution context, pre-resolving
    every terminator label to a block index. [max_steps] (default
    [2_000_000_000]) bounds total executed instructions as a runaway guard.
    [hooks] observes every executed instruction and terminator; every one
    of its sites is compiled here, exactly once per static instruction and
    terminator, and {!run} compiles none. [backend]
    (default [`Compiled]) selects the execution strategy.
    @raise Failure if a terminator references an unknown label. *)

val run : t -> string -> Ir.value array -> Ir.value array
(** [run t fname args] calls function [fname] with [args] and returns its
    results.
    @raise Failure on a dynamic error (unknown function, step limit,
    type-mismatched operation, division by zero). *)

val steps : t -> int
(** Instructions executed so far across all [run] calls. *)
