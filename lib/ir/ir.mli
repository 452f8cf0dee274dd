(** A small typed register IR.

    This is the compilation substrate of the reproduction: workloads are
    authored against {!Builder}, the AxMemo compiler pass rewrites programs at
    this level, and {!Interp} / the CPU timing model execute it. The design
    mirrors the fragment of LLVM IR the paper's toolflow (LLVM-Tracer +
    ALADDIN) operates on: virtual registers, typed arithmetic, loads/stores
    against a flat memory, calls, and — after transformation — the five
    AxMemo instructions of Section 4.

    Registers are mutable (non-SSA): loops are expressed with explicit
    register updates and branches. *)

type ty = I32 | I64 | F32 | F64

type value = VI of int64 | VF of float
(** Runtime values. [VI] carries both integer widths (I32 values are kept
    sign-extended); [VF] carries both float widths (F32 results are rounded
    to binary32 after every operation). *)

type reg = int
(** Virtual register index within a function. *)

type operand = Reg of reg | Imm of value

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Lshr | Ashr
type fbinop = Fadd | Fsub | Fmul | Fdiv

type funop =
  | Fneg
  | Fabs
  | Fsqrt
  | Fsin
  | Fcos
  | Fexp
  | Flog
  | Ffloor
  | Fround

type icmp = Ieq | Ine | Ilt | Ile | Igt | Ige
type fcmp = Feq | Fne | Flt | Fle | Fgt | Fge

type cast =
  | I_to_f  (** signed integer to float *)
  | F_to_i  (** float to integer, truncating toward zero *)
  | F32_of_f64
  | F64_of_f32
  | Bits_of_f32  (** reinterpret binary32 pattern as I32 *)
  | F32_of_bits
  | Bits_of_f64  (** reinterpret binary64 pattern as I64 *)
  | F64_of_bits
  | Sext_32_64
  | Trunc_64_32

type memo_instr =
  | Ld_crc of { dst : reg; ty : ty; base : operand; offset : int; lut : int; trunc : int }
      (** Load [ty] at [base+offset] into [dst] {e and} stream the loaded
          value, with [trunc] LSBs cleared, into LUT [lut]'s hash register. *)
  | Reg_crc of { src : operand; ty : ty; lut : int; trunc : int }
      (** Stream a register value into the hash register. *)
  | Lookup of { dst : reg; lut : int }
      (** Finalize the hash, probe the LUT; on hit write the 8-byte payload
          to [dst] (as I64) and set the memo condition flag; clear it on
          miss. *)
  | Update of { src : operand; lut : int }
      (** Insert [src] (an I64 payload) under the key of the last lookup. *)
  | Invalidate of { lut : int }  (** Drop every entry of logical LUT [lut]. *)

type instr =
  | Const of { dst : reg; ty : ty; value : value }
  | Mov of { dst : reg; src : operand }
  | Binop of { op : binop; ty : ty; dst : reg; a : operand; b : operand }
  | Fbinop of { op : fbinop; ty : ty; dst : reg; a : operand; b : operand }
  | Funop of { op : funop; ty : ty; dst : reg; a : operand }
  | Icmp of { op : icmp; ty : ty; dst : reg; a : operand; b : operand }
  | Fcmp of { op : fcmp; ty : ty; dst : reg; a : operand; b : operand }
  | Select of { dst : reg; cond : operand; if_true : operand; if_false : operand }
  | Cast of { op : cast; dst : reg; src : operand }
  | Load of { ty : ty; dst : reg; base : operand; offset : int }
  | Store of { ty : ty; src : operand; base : operand; offset : int }
  | Call of { callee : string; dsts : reg array; args : operand array }
  | Memo of memo_instr

type terminator =
  | Jmp of string
  | Br of { cond : operand; if_true : string; if_false : string }
  | Br_memo of { on_hit : string; on_miss : string }
      (** Branch on the condition flag set by the last [Lookup]. *)
  | Ret of operand array

type block = { label : string; mutable instrs : instr array; mutable term : terminator }

type func = {
  fname : string;
  params : (reg * ty) array;
  ret_tys : ty array;
  mutable blocks : block array;  (** entry is [blocks.(0)] *)
  nregs : int;
  pure : bool;
      (** Declared side-effect-free and deterministic: eligible for
          memoization. Checked by {!validate}. *)
}

type program = { funcs : func array }

val find_func : program -> string -> func
(** [find_func p name] returns the function named [name].
    @raise Not_found if absent. *)

val ty_size : ty -> int
(** [ty_size ty] is the size in bytes (4 or 8). *)

val instr_dst : instr -> reg list
(** Registers written by an instruction. *)

val instr_srcs : instr -> reg list
(** Registers read by an instruction (operand registers only). *)

val validate : program -> (unit, string list) result
(** [validate p] checks structural invariants: block labels resolve,
    registers are in range, call signatures match, entry blocks exist, and
    functions declared [pure] contain no [Store], no [Memo] instruction and
    call only pure functions. Returns the list of violations on error. *)

val pp_instr : Format.formatter -> instr -> unit
val pp_func : Format.formatter -> func -> unit
val pp_program : Format.formatter -> program -> unit

val static_count : program -> int
(** Total number of static instructions (terminators excluded). *)
