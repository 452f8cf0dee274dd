(** IR interpreter.

    Executes a program functionally and, through optional hooks, drives the
    tracer (for DDDG construction) and the CPU timing model. The memoization
    unit is attached as a record of callbacks so this library stays
    independent of the hardware model.

    Performance notes (the hot path of every simulation):
    - block labels are resolved to integer indices once at {!create}, so
      taking a branch is an array access, not a [Hashtbl.find];
    - the observer interface is the flat-argument {!hooks} record — nothing
      is allocated per dynamic instruction;
    - the interpreter loop is specialized on hook presence at function-call
      granularity, so a hook-free run has no per-instruction hook dispatch. *)

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
  on_exec : string -> int -> int -> Ir.instr -> int -> unit;
      (** [on_exec fname bidx iidx instr addr]: instruction [iidx] of block
          [bidx] executed; [addr] is the resolved effective address for
          memory instructions, [-1] otherwise. For a [Call] the hook fires
          before the callee runs (issue order), with [addr = -1]. *)
  on_term : string -> int -> Ir.terminator -> unit;
      (** [on_term fname bidx term]: a terminator executed. *)
  exec_site : (string -> int -> int -> Ir.instr -> int -> unit) option;
      (** Optional site compiler. When present, the [`Compiled] backend
          calls [site fname bidx iidx instr] at most once per {e static}
          instruction (at {!create}) and invokes the returned closure with
          the effective address once per execution, {e instead of}
          [on_exec]. The closure must be observationally identical to the
          corresponding [on_exec] call; observers that cannot precompute
          anything leave this [None] and keep the flat callback. The
          [`Interp] backend ignores it. *)
  term_site : (string -> int -> Ir.terminator -> unit -> unit) option;
      (** Site compiler for terminators, replacing [on_term] per execution
          under the [`Compiled] backend. *)
}
(** The interpreter's one observer protocol: each callback receives flat
    arguments, so observing a run allocates nothing per instruction. *)

val no_hooks : hooks
(** The canonical no-op observer. {!combine_hooks} recognises it physically
    and short-circuits, so [combine_hooks no_hooks h] is [h] itself — no
    fan-out closures. *)

val combine_hooks : hooks -> hooks -> hooks
(** Fan one execution out to two observers, first-before-second. When either
    side is {!no_hooks} the other is returned unchanged. Site compilers
    compose: if at least one side provides one, the combined record does
    too, wrapping the siteless side's flat callback. *)

type t

type backend = [ `Interp | `Compiled ]
(** Execution strategy. [`Interp] walks the IR per instruction; [`Compiled]
    pre-compiles every basic block into a chain of closures at {!create}
    (operands resolved to array slots, branch targets to compiled-block
    references, hook sites specialized per static instruction) and
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
    [hooks] observes every executed instruction and terminator. [backend]
    (default [`Compiled]) selects the execution strategy.
    @raise Failure if a terminator references an unknown label. *)

val run : t -> string -> Ir.value array -> Ir.value array
(** [run t fname args] calls function [fname] with [args] and returns its
    results.
    @raise Failure on a dynamic error (unknown function, step limit,
    type-mismatched operation, division by zero). *)

val steps : t -> int
(** Instructions executed so far across all [run] calls. *)
