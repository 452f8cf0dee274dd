(** Dynamic IR trace with on-the-fly dataflow resolution.

    Stand-in for the paper's LLVM-Tracer step: executing a program with these
    hooks attached yields one entry per dynamic instruction, with operand
    producers already resolved to earlier entries (registers are renamed
    through call boundaries, and load values are linked to in-trace stores
    to the same address). The result feeds {!Axmemo_ddg} directly.

    Producer ids:
    - [>= 0]: index of the producing trace entry;
    - [< 0]: a distinct {e external} input (function parameter of the
      outermost traced frame, or a load from memory never written in-trace);
    - absent: constant operand. *)

type entry = {
  static_id : int;  (** unique id of the static instruction *)
  weight : int;  (** estimated latency (vertex weight in the DDDG) *)
  srcs : int array;  (** producer ids, see above *)
  is_load : bool;
  is_store : bool;
}

type t

val create :
  ?max_entries:int ->
  machine:Axmemo_cpu.Machine.t ->
  program:Axmemo_ir.Ir.program ->
  unit ->
  t
(** [create ~machine ~program ()] prepares an empty trace; recording stops
    silently after [max_entries] (default 400_000) to bound analysis cost.
    [program] provides parameter registers for cross-call renaming. *)

val hooks : t -> Axmemo_ir.Interp.hooks
(** Pass as the interpreter's [hooks] during a {e sample-input} run. *)

val entries : t -> entry array
(** Recorded entries in execution order. *)

val truncated : t -> bool
(** True if the entry limit was reached. *)

val static_instances : t -> (int, int) Hashtbl.t
(** Map from static instruction id to its dynamic execution count. *)

val weight_of_instr : Axmemo_cpu.Machine.t -> Axmemo_ir.Ir.instr -> int
(** The latency estimate used as vertex weight. *)
