type memo_hooks = {
  send : lut:int -> ty:Ir.ty -> trunc:int -> Ir.value -> unit;
  lookup : lut:int -> int64 option;
  update : lut:int -> int64 -> unit;
  invalidate : lut:int -> unit;
}

type hooks = {
  on_enter : string -> unit;
  on_leave : string -> unit;
  exec_site : string -> int -> int -> Ir.instr -> int -> unit;
      (* site compiler: called once per static instruction at [create]; the
         returned closure runs once per execution with the effective address *)
  term_site : string -> int -> Ir.terminator -> unit -> unit;
      (* site compiler for terminators *)
}

let no_hooks =
  {
    on_enter = ignore;
    on_leave = ignore;
    exec_site = (fun _ _ _ _ _ -> ());
    term_site = (fun _ _ _ () -> ());
  }

let combine_hooks a b =
  (* Attaching a single real consumer must not pay fan-out closures, so the
     canonical no-op record short-circuits (physical equality: a custom
     record of no-ops still composes). *)
  if a == no_hooks then b
  else if b == no_hooks then a
  else
    {
      on_enter =
        (fun fname ->
          a.on_enter fname;
          b.on_enter fname);
      on_leave =
        (fun fname ->
          a.on_leave fname;
          b.on_leave fname);
      exec_site =
        (fun fname bidx iidx instr ->
          let fa = a.exec_site fname bidx iidx instr in
          let fb = b.exec_site fname bidx iidx instr in
          fun addr ->
            fa addr;
            fb addr);
      term_site =
        (fun fname bidx term ->
          let fa = a.term_site fname bidx term in
          let fb = b.term_site fname bidx term in
          fun () ->
            fa ();
            fb ());
    }

(* Terminators with block labels pre-resolved to indices: the inner loop
   follows a branch with an array access instead of a Hashtbl.find on the
   label string. *)
type rterm =
  | Rjmp of int
  | Rbr of { cond : Ir.operand; if_true : int; if_false : int }
  | Rbr_memo of { on_hit : int; on_miss : int }
  | Rret of Ir.operand array

(* [sites]/[tsite] are the resolved hook sites of the [`Interp] walker
   (empty and a no-op otherwise: the compiled backend resolves its own). *)
type cblock = {
  instrs : Ir.instr array;
  rterm : rterm;
  term : Ir.terminator;  (* original form, handed to the site compiler *)
  sites : (int -> unit) array;
  tsite : unit -> unit;
}

type cfunc = { fn : Ir.func; cblocks : cblock array }

type backend = [ `Interp | `Compiled ]

(* A register frame of the compiled backend: a function's [nregs] registers
   followed by its constant slots, one per immediate operand. Slot [s] keeps
   its integer at bytes [8s..8s+7] of [iv], its float at [fv.(s)] and its
   kind at byte [s] of [kd] (['\000'] integer, ['\001'] float); only the
   plane its kind names is meaningful. Kinds stay dynamic because
   [Ir.validate] does not type registers. *)
type frame = { iv : Bytes.t; kd : Bytes.t; fv : float array }

(* A function lowered to closure chains: [k_body.(b)] executes block [b]
   (instructions, hook sites, terminator) on a frame and returns the next
   block index, or -1 on return, leaving the results in slots [0..] of
   [k_ret]. Frames come from a depth-indexed arena, so steady-state
   execution allocates nothing. *)
type ker = {
  k_fn : Ir.func;
  k_body : (frame -> int) array;
  k_ret : frame;
  mutable k_tmpl : frame;  (* a fresh frame: registers [VI 0L], constants set *)
  mutable k_pool : frame array;
  mutable k_pool_len : int;  (* valid prefix of [k_pool] *)
  mutable k_depth : int;
}

type t = {
  program : Ir.program;
  mem : Memory.t;
  memo : memo_hooks option;
  hooks : hooks option;
  max_steps : int;
  funcs : (string, cfunc) Hashtbl.t;
  mutable memo_flag : bool;
  mutable nsteps : int;
  mutable kers : (string, ker) Hashtbl.t option;
      (* [Some] iff the backend is [`Compiled]; mutable only to break the
         create/compile cycle *)
}

let compile_func (hooks : hooks option) (f : Ir.func) =
  let labels = Hashtbl.create 16 in
  Array.iteri (fun i (b : Ir.block) -> Hashtbl.replace labels b.label i) f.blocks;
  let resolve l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None -> failwith (Printf.sprintf "Interp: unknown label %s in %s" l f.fname)
  in
  let cblocks =
    Array.mapi
      (fun bidx (b : Ir.block) ->
        let rterm =
          match b.term with
          | Ir.Jmp l -> Rjmp (resolve l)
          | Ir.Br { cond; if_true; if_false } ->
              Rbr { cond; if_true = resolve if_true; if_false = resolve if_false }
          | Ir.Br_memo { on_hit; on_miss } ->
              Rbr_memo { on_hit = resolve on_hit; on_miss = resolve on_miss }
          | Ir.Ret ops -> Rret ops
        in
        let sites, tsite =
          match hooks with
          | None -> ([||], ignore)
          | Some h ->
              let sites = Array.mapi (h.exec_site f.fname bidx) b.instrs in
              (sites, h.term_site f.fname bidx b.term)
        in
        { instrs = b.instrs; rterm; term = b.term; sites; tsite })
      f.blocks
  in
  { fn = f; cblocks }

let steps t = t.nsteps

let[@inline] sext32 v = Int64.shift_right (Int64.shift_left v 32) 32
let[@inline] round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let vi = function Ir.VI v -> v | Ir.VF _ -> failwith "Interp: expected integer value"
let vf = function Ir.VF v -> v | Ir.VI _ -> failwith "Interp: expected float value"

let eval_binop op ty a b =
  let a = vi a and b = vi b in
  let wide =
    match (op : Ir.binop) with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | Mul -> Int64.mul a b
    | Div -> if b = 0L then failwith "Interp: division by zero" else Int64.div a b
    | Rem -> if b = 0L then failwith "Interp: division by zero" else Int64.rem a b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
    | Shl ->
        let s = Int64.to_int b land if ty = Ir.I32 then 31 else 63 in
        Int64.shift_left a s
    | Lshr ->
        let s = Int64.to_int b land if ty = Ir.I32 then 31 else 63 in
        if ty = Ir.I32 then Int64.shift_right_logical (Int64.logand a 0xFFFFFFFFL) s
        else Int64.shift_right_logical a s
    | Ashr ->
        let s = Int64.to_int b land if ty = Ir.I32 then 31 else 63 in
        Int64.shift_right a s
  in
  Ir.VI (if ty = Ir.I32 then sext32 wide else wide)

let eval_fbinop op ty a b =
  let a = vf a and b = vf b in
  let r =
    match (op : Ir.fbinop) with
    | Fadd -> a +. b
    | Fsub -> a -. b
    | Fmul -> a *. b
    | Fdiv -> a /. b
  in
  Ir.VF (if ty = Ir.F32 then round_f32 r else r)

let eval_funop op ty a =
  let a = vf a in
  let r =
    match (op : Ir.funop) with
    | Fneg -> -.a
    | Fabs -> abs_float a
    | Fsqrt -> sqrt a
    | Fsin -> sin a
    | Fcos -> cos a
    | Fexp -> exp a
    | Flog -> log a
    | Ffloor -> floor a
    | Fround -> Float.round a
  in
  Ir.VF (if ty = Ir.F32 then round_f32 r else r)

let eval_icmp op a b =
  let a = vi a and b = vi b in
  let r =
    match (op : Ir.icmp) with
    | Ieq -> a = b
    | Ine -> a <> b
    | Ilt -> a < b
    | Ile -> a <= b
    | Igt -> a > b
    | Ige -> a >= b
  in
  Ir.VI (if r then 1L else 0L)

let eval_fcmp op a b =
  let a = vf a and b = vf b in
  let r =
    match (op : Ir.fcmp) with
    | Feq -> a = b
    | Fne -> a <> b
    | Flt -> a < b
    | Fle -> a <= b
    | Fgt -> a > b
    | Fge -> a >= b
  in
  Ir.VI (if r then 1L else 0L)

let eval_cast op v =
  match (op : Ir.cast) with
  | I_to_f -> Ir.VF (Int64.to_float (vi v))
  | F_to_i -> Ir.VI (Int64.of_float (vf v))
  | F32_of_f64 -> Ir.VF (round_f32 (vf v))
  | F64_of_f32 -> Ir.VF (vf v)
  | Bits_of_f32 -> Ir.VI (sext32 (Int64.of_int32 (Int32.bits_of_float (vf v))))
  | F32_of_bits -> Ir.VF (Int32.float_of_bits (Int64.to_int32 (vi v)))
  | Bits_of_f64 -> Ir.VI (Int64.bits_of_float (vf v))
  | F64_of_bits -> Ir.VF (Int64.float_of_bits (vi v))
  | Sext_32_64 -> Ir.VI (sext32 (vi v))
  | Trunc_64_32 -> Ir.VI (sext32 (vi v))

let[@inline] operand regs = function Ir.Reg r -> regs.(r) | Ir.Imm v -> v

let callee_func t callee =
  match Hashtbl.find_opt t.funcs callee with
  | Some cf -> cf
  | None -> failwith ("Interp: unknown function " ^ callee)

let eval_memo t regs (m : Ir.memo_instr) : int =
  match m with
  | Ld_crc { dst; ty; base; offset; lut; trunc } ->
      let a = Int64.to_int (vi (operand regs base)) + offset in
      let v = Memory.load t.mem ty a in
      regs.(dst) <- v;
      (match t.memo with Some mh -> mh.send ~lut ~ty ~trunc v | None -> ());
      a
  | Reg_crc { src; ty; lut; trunc } ->
      (match t.memo with
      | Some mh -> mh.send ~lut ~ty ~trunc (operand regs src)
      | None -> ());
      -1
  | Lookup { dst; lut } ->
      (match t.memo with
      | Some mh -> (
          match mh.lookup ~lut with
          | Some payload ->
              t.memo_flag <- true;
              regs.(dst) <- VI payload
          | None ->
              t.memo_flag <- false;
              regs.(dst) <- VI 0L)
      | None ->
          t.memo_flag <- false;
          regs.(dst) <- VI 0L);
      -1
  | Update { src; lut } ->
      (match t.memo with
      | Some mh -> mh.update ~lut (vi (operand regs src))
      | None -> ());
      -1
  | Invalidate { lut } ->
      (match t.memo with Some mh -> mh.invalidate ~lut | None -> ());
      -1

(* Executes one non-call instruction; returns the effective address for
   memory instructions, -1 otherwise, which the hook site receives. [Call]
   is handled by the block drivers because it recurses and fires its hook
   before the callee runs. *)
let exec_simple t regs (instr : Ir.instr) : int =
  match instr with
  | Const { dst; value; _ } ->
      regs.(dst) <- value;
      -1
  | Mov { dst; src } ->
      regs.(dst) <- operand regs src;
      -1
  | Binop { op; ty; dst; a; b } ->
      regs.(dst) <- eval_binop op ty (operand regs a) (operand regs b);
      -1
  | Fbinop { op; ty; dst; a; b } ->
      regs.(dst) <- eval_fbinop op ty (operand regs a) (operand regs b);
      -1
  | Funop { op; ty; dst; a } ->
      regs.(dst) <- eval_funop op ty (operand regs a);
      -1
  | Icmp { op; dst; a; b; _ } ->
      regs.(dst) <- eval_icmp op (operand regs a) (operand regs b);
      -1
  | Fcmp { op; dst; a; b; _ } ->
      regs.(dst) <- eval_fcmp op (operand regs a) (operand regs b);
      -1
  | Select { dst; cond; if_true; if_false } ->
      regs.(dst) <-
        (if vi (operand regs cond) <> 0L then operand regs if_true
         else operand regs if_false);
      -1
  | Cast { op; dst; src } ->
      regs.(dst) <- eval_cast op (operand regs src);
      -1
  | Load { ty; dst; base; offset } ->
      let a = Int64.to_int (vi (operand regs base)) + offset in
      regs.(dst) <- Memory.load t.mem ty a;
      a
  | Store { ty; src; base; offset } ->
      let a = Int64.to_int (vi (operand regs base)) + offset in
      Memory.store t.mem ty a (operand regs src);
      a
  | Memo m -> eval_memo t regs m
  | Call _ -> assert false

(* ------------------------------------------------------------------ *)
(* Compiled backend: each basic block becomes a chain of closures built at
   [create]. Operands are resolved to frame slots (an immediate to its
   constant slot), callees and branch targets to compiled-block references,
   and hook sites are specialized per static instruction — the same
   specialization the interpreter loop does on hook presence, pushed from
   run time to compile time. Dispatch is one indirect call per block
   instead of a match per instruction, and a closure reads and writes
   unboxed slots: the only [Ir.value] built per execution is the one a memo
   send hands over. Every arm stays bit-identical to its [eval_*] /
   [exec_simple] twin, including failure messages and which failure comes
   first. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A slot's kind byte; a zeroed frame holds [VI 0L] in every slot. *)
let int_kind = '\000'
let float_kind = '\001'

let[@inline] rd_i fr s =
  if Bytes.unsafe_get fr.kd s <> int_kind then failwith "Interp: expected integer value";
  get64u fr.iv (s lsl 3)

let[@inline] rd_f fr s =
  if Bytes.unsafe_get fr.kd s <> float_kind then failwith "Interp: expected float value";
  Array.unsafe_get fr.fv s

let[@inline] wr_i fr s x =
  set64u fr.iv (s lsl 3) x;
  Bytes.unsafe_set fr.kd s int_kind

let[@inline] wr_f fr s x =
  Array.unsafe_set fr.fv s x;
  Bytes.unsafe_set fr.kd s float_kind

(* Slot-to-slot copy of the kind and both planes, with no branch on the
   kind: moves, selects, arguments and results. *)
let[@inline] copy_slot src s dst d =
  set64u dst.iv (d lsl 3) (get64u src.iv (s lsl 3));
  Array.unsafe_set dst.fv d (Array.unsafe_get src.fv s);
  Bytes.unsafe_set dst.kd d (Bytes.unsafe_get src.kd s)

(* The boxed view of a slot, for [run]'s arguments and results, memo sends
   and the out-of-range fallback. *)
let read_value fr s =
  if Bytes.get fr.kd s = int_kind then Ir.VI (get64u fr.iv (s lsl 3)) else Ir.VF fr.fv.(s)

let write_value fr s (v : Ir.value) = match v with VI x -> wr_i fr s x | VF x -> wr_f fr s x

let make_frame n =
  { iv = Bytes.make (8 * n) '\000'; kd = Bytes.make n int_kind; fv = Array.make n 0.0 }

let no_frame = make_frame 0

(* Per-function compile state. Constant slots are handed out past the
   registers as immediates are met, in the one pass that compiles the
   function; a repeated immediate gets a slot per occurrence. *)
type layout = { nregs : int; mutable nslots : int; mutable consts : (int * Ir.value) list }

(* Raised while compiling a site that names a register outside
   [0, nregs): slot access is unchecked, so the site is compiled to fail
   where a boxed access would. *)
exception Out_of_bounds

let in_range lay r = 0 <= r && r < lay.nregs
let reg lay r = if in_range lay r then r else raise Out_of_bounds

let slot lay = function
  | Ir.Reg r -> reg lay r
  | Ir.Imm v ->
      let s = lay.nslots in
      lay.nslots <- s + 1;
      lay.consts <- (s, v) :: lay.consts;
      s

(* A fresh frame: registers [VI 0L], constant slots set. *)
let template lay =
  let fr = make_frame lay.nslots in
  List.iter (fun (s, v) -> write_value fr s v) lay.consts;
  fr

(* Compile-time specialization of the scalar evaluators: the opcode match
   and the width test move from every execution to [create]. *)

let[@inline] wr_w is32 fr d w = wr_i fr d (if is32 then sext32 w else w)
let[@inline] wr_r is32 fr d r = wr_f fr d (if is32 then round_f32 r else r)

let compile_binop (op : Ir.binop) (ty : Ir.ty) d a b : frame -> int =
  let is32 = match ty with Ir.I32 -> true | Ir.I64 | Ir.F32 | Ir.F64 -> false in
  let smask = if is32 then 31 else 63 in
  match op with
  | Add ->
      fun fr ->
        wr_w is32 fr d (Int64.add (rd_i fr a) (rd_i fr b));
        -1
  | Sub ->
      fun fr ->
        wr_w is32 fr d (Int64.sub (rd_i fr a) (rd_i fr b));
        -1
  | Mul ->
      fun fr ->
        wr_w is32 fr d (Int64.mul (rd_i fr a) (rd_i fr b));
        -1
  | Div ->
      fun fr ->
        let x = rd_i fr a in
        let y = rd_i fr b in
        if y = 0L then failwith "Interp: division by zero";
        wr_w is32 fr d (Int64.div x y);
        -1
  | Rem ->
      fun fr ->
        let x = rd_i fr a in
        let y = rd_i fr b in
        if y = 0L then failwith "Interp: division by zero";
        wr_w is32 fr d (Int64.rem x y);
        -1
  | And ->
      fun fr ->
        wr_w is32 fr d (Int64.logand (rd_i fr a) (rd_i fr b));
        -1
  | Or ->
      fun fr ->
        wr_w is32 fr d (Int64.logor (rd_i fr a) (rd_i fr b));
        -1
  | Xor ->
      fun fr ->
        wr_w is32 fr d (Int64.logxor (rd_i fr a) (rd_i fr b));
        -1
  | Shl ->
      fun fr ->
        let x = rd_i fr a in
        wr_w is32 fr d (Int64.shift_left x (Int64.to_int (rd_i fr b) land smask));
        -1
  | Lshr ->
      if is32 then fun fr ->
        let x = rd_i fr a in
        wr_w true fr d
          (Int64.shift_right_logical (Int64.logand x 0xFFFFFFFFL)
             (Int64.to_int (rd_i fr b) land 31));
        -1
      else fun fr ->
        let x = rd_i fr a in
        wr_i fr d (Int64.shift_right_logical x (Int64.to_int (rd_i fr b) land 63));
        -1
  | Ashr ->
      fun fr ->
        let x = rd_i fr a in
        wr_w is32 fr d (Int64.shift_right x (Int64.to_int (rd_i fr b) land smask));
        -1

let compile_fbinop (op : Ir.fbinop) (ty : Ir.ty) d a b : frame -> int =
  let is32 = match ty with Ir.F32 -> true | Ir.I32 | Ir.I64 | Ir.F64 -> false in
  match op with
  | Fadd ->
      fun fr ->
        wr_r is32 fr d (rd_f fr a +. rd_f fr b);
        -1
  | Fsub ->
      fun fr ->
        wr_r is32 fr d (rd_f fr a -. rd_f fr b);
        -1
  | Fmul ->
      fun fr ->
        wr_r is32 fr d (rd_f fr a *. rd_f fr b);
        -1
  | Fdiv ->
      fun fr ->
        wr_r is32 fr d (rd_f fr a /. rd_f fr b);
        -1

let compile_funop (op : Ir.funop) (ty : Ir.ty) d a : frame -> int =
  let is32 = match ty with Ir.F32 -> true | Ir.I32 | Ir.I64 | Ir.F64 -> false in
  match op with
  | Fneg ->
      fun fr ->
        wr_r is32 fr d (-.rd_f fr a);
        -1
  | Fabs ->
      fun fr ->
        wr_r is32 fr d (abs_float (rd_f fr a));
        -1
  | Fsqrt ->
      fun fr ->
        wr_r is32 fr d (sqrt (rd_f fr a));
        -1
  | Fsin ->
      fun fr ->
        wr_r is32 fr d (sin (rd_f fr a));
        -1
  | Fcos ->
      fun fr ->
        wr_r is32 fr d (cos (rd_f fr a));
        -1
  | Fexp ->
      fun fr ->
        wr_r is32 fr d (exp (rd_f fr a));
        -1
  | Flog ->
      fun fr ->
        wr_r is32 fr d (log (rd_f fr a));
        -1
  | Ffloor ->
      fun fr ->
        wr_r is32 fr d (floor (rd_f fr a));
        -1
  | Fround ->
      fun fr ->
        wr_r is32 fr d (Float.round (rd_f fr a));
        -1

let[@inline] wr_bool fr d c = wr_i fr d (if c then 1L else 0L)

let compile_icmp (op : Ir.icmp) d a b : frame -> int =
  match op with
  | Ieq ->
      fun fr ->
        wr_bool fr d (rd_i fr a = rd_i fr b);
        -1
  | Ine ->
      fun fr ->
        wr_bool fr d (rd_i fr a <> rd_i fr b);
        -1
  | Ilt ->
      fun fr ->
        wr_bool fr d (rd_i fr a < rd_i fr b);
        -1
  | Ile ->
      fun fr ->
        wr_bool fr d (rd_i fr a <= rd_i fr b);
        -1
  | Igt ->
      fun fr ->
        wr_bool fr d (rd_i fr a > rd_i fr b);
        -1
  | Ige ->
      fun fr ->
        wr_bool fr d (rd_i fr a >= rd_i fr b);
        -1

let compile_fcmp (op : Ir.fcmp) d a b : frame -> int =
  match op with
  | Feq ->
      fun fr ->
        wr_bool fr d (rd_f fr a = rd_f fr b);
        -1
  | Fne ->
      fun fr ->
        wr_bool fr d (rd_f fr a <> rd_f fr b);
        -1
  | Flt ->
      fun fr ->
        wr_bool fr d (rd_f fr a < rd_f fr b);
        -1
  | Fle ->
      fun fr ->
        wr_bool fr d (rd_f fr a <= rd_f fr b);
        -1
  | Fgt ->
      fun fr ->
        wr_bool fr d (rd_f fr a > rd_f fr b);
        -1
  | Fge ->
      fun fr ->
        wr_bool fr d (rd_f fr a >= rd_f fr b);
        -1

let compile_cast (op : Ir.cast) d s : frame -> int =
  match op with
  | I_to_f ->
      fun fr ->
        wr_f fr d (Int64.to_float (rd_i fr s));
        -1
  | F_to_i ->
      fun fr ->
        wr_i fr d (Int64.of_float (rd_f fr s));
        -1
  | F32_of_f64 ->
      fun fr ->
        wr_f fr d (round_f32 (rd_f fr s));
        -1
  | F64_of_f32 ->
      fun fr ->
        wr_f fr d (rd_f fr s);
        -1
  | Bits_of_f32 ->
      fun fr ->
        wr_i fr d (sext32 (Int64.of_int32 (Int32.bits_of_float (rd_f fr s))));
        -1
  | F32_of_bits ->
      fun fr ->
        wr_f fr d (Int32.float_of_bits (Int64.to_int32 (rd_i fr s)));
        -1
  | Bits_of_f64 ->
      fun fr ->
        wr_i fr d (Int64.bits_of_float (rd_f fr s));
        -1
  | F64_of_bits ->
      fun fr ->
        wr_f fr d (Int64.float_of_bits (rd_i fr s));
        -1
  | Sext_32_64 | Trunc_64_32 ->
      fun fr ->
        wr_i fr d (sext32 (rd_i fr s));
        -1

(* Loads and stores go straight to [Memory]'s backing buffer, in
   [Memory.load]/[Memory.store]'s order: address, growth, bounds. *)
let compile_load mem (ty : Ir.ty) d base offset : frame -> int =
  match ty with
  | I32 ->
      fun fr ->
        let a = Int64.to_int (rd_i fr base) + offset in
        wr_i fr d (Int64.of_int32 (Bytes.get_int32_le (Memory.backing mem (a + 4)) a));
        a
  | I64 ->
      fun fr ->
        let a = Int64.to_int (rd_i fr base) + offset in
        wr_i fr d (Bytes.get_int64_le (Memory.backing mem (a + 8)) a);
        a
  | F32 ->
      fun fr ->
        let a = Int64.to_int (rd_i fr base) + offset in
        wr_f fr d (Int32.float_of_bits (Bytes.get_int32_le (Memory.backing mem (a + 4)) a));
        a
  | F64 ->
      fun fr ->
        let a = Int64.to_int (rd_i fr base) + offset in
        wr_f fr d (Int64.float_of_bits (Bytes.get_int64_le (Memory.backing mem (a + 8)) a));
        a

(* A value of the wrong kind is handed to [Memory.store], which raises its
   own kind-mismatch error before touching memory. *)
let[@inline] check_store_kind mem ty fr s a kind =
  if Bytes.unsafe_get fr.kd s <> kind then Memory.store mem ty a (read_value fr s)

let compile_store mem (ty : Ir.ty) src base offset : frame -> int =
  match ty with
  | I32 ->
      fun fr ->
        let a = Int64.to_int (rd_i fr base) + offset in
        check_store_kind mem ty fr src a int_kind;
        Bytes.set_int32_le (Memory.backing mem (a + 4)) a
          (Int64.to_int32 (get64u fr.iv (src lsl 3)));
        a
  | I64 ->
      fun fr ->
        let a = Int64.to_int (rd_i fr base) + offset in
        check_store_kind mem ty fr src a int_kind;
        Bytes.set_int64_le (Memory.backing mem (a + 8)) a (get64u fr.iv (src lsl 3));
        a
  | F32 ->
      fun fr ->
        let a = Int64.to_int (rd_i fr base) + offset in
        check_store_kind mem ty fr src a float_kind;
        Bytes.set_int32_le (Memory.backing mem (a + 4)) a
          (Int32.bits_of_float (Array.unsafe_get fr.fv src));
        a
  | F64 ->
      fun fr ->
        let a = Int64.to_int (rd_i fr base) + offset in
        check_store_kind mem ty fr src a float_kind;
        Bytes.set_int64_le (Memory.backing mem (a + 8)) a
          (Int64.bits_of_float (Array.unsafe_get fr.fv src));
        a

let[@inline] bump t =
  t.nsteps <- t.nsteps + 1;
  if t.nsteps > t.max_steps then failwith "Interp: step limit exceeded"

let acquire (k : ker) =
  let d = k.k_depth in
  k.k_depth <- d + 1;
  if d < k.k_pool_len then begin
    let fr = k.k_pool.(d) in
    (* registers back to [VI 0L]; no instruction writes a constant slot *)
    let n = k.k_fn.nregs in
    Bytes.unsafe_fill fr.iv 0 (n lsl 3) '\000';
    Bytes.unsafe_fill fr.kd 0 n int_kind;
    fr
  end
  else begin
    (* recursion depth grows one frame at a time, so [d = k_pool_len] *)
    let tm = k.k_tmpl in
    let fr = { iv = Bytes.copy tm.iv; kd = Bytes.copy tm.kd; fv = Array.copy tm.fv } in
    if d >= Array.length k.k_pool then begin
      let grown = Array.make (Int.max 4 (2 * (d + 1))) fr in
      Array.blit k.k_pool 0 grown 0 (Array.length k.k_pool);
      k.k_pool <- grown
    end;
    k.k_pool.(d) <- fr;
    k.k_pool_len <- d + 1;
    fr
  end

(* Runs a function on a frame [acquire]d for it. *)
let enter t (k : ker) fr =
  let body = k.k_body in
  (match t.hooks with
  | None ->
      let b = ref 0 in
      while !b >= 0 do
        b := body.(!b) fr
      done
  | Some h ->
      h.on_enter k.k_fn.fname;
      let b = ref 0 in
      while !b >= 0 do
        b := body.(!b) fr
      done;
      h.on_leave k.k_fn.fname);
  k.k_depth <- k.k_depth - 1

(* Memoization hook presence is resolved at compile time: a memo-less
   context compiles [Reg_crc]/[Update]/[Invalidate] down to a step-count
   bump. Semantics mirror [eval_memo] arm for arm. *)
let compile_memo t lay (m : Ir.memo_instr) : frame -> int =
  match m with
  | Ld_crc { dst; ty; base; offset; lut; trunc } -> (
      let dst = reg lay dst in
      let load = compile_load t.mem ty dst (slot lay base) offset in
      match t.memo with
      | Some mh ->
          fun fr ->
            let a = load fr in
            mh.send ~lut ~ty ~trunc (read_value fr dst);
            a
      | None -> load)
  | Reg_crc { src; ty; lut; trunc } -> (
      match t.memo with
      | Some mh ->
          let s = slot lay src in
          fun fr ->
            mh.send ~lut ~ty ~trunc (read_value fr s);
            -1
      | None -> fun _ -> -1)
  | Lookup { dst; lut } -> (
      let dst = reg lay dst in
      match t.memo with
      | Some mh ->
          fun fr ->
            (match mh.lookup ~lut with
            | Some payload ->
                t.memo_flag <- true;
                wr_i fr dst payload
            | None ->
                t.memo_flag <- false;
                wr_i fr dst 0L);
            -1
      | None ->
          fun fr ->
            t.memo_flag <- false;
            wr_i fr dst 0L;
            -1)
  | Update { src; lut } -> (
      match t.memo with
      | Some mh ->
          let s = slot lay src in
          fun fr ->
            mh.update ~lut (rd_i fr s);
            -1
      | None -> fun _ -> -1)
  | Invalidate { lut } -> (
      match t.memo with
      | Some mh ->
          fun _ ->
            mh.invalidate ~lut;
            -1
      | None -> fun _ -> -1)

(* Compile one non-call instruction to a closure returning the effective
   address (-1 when not a memory access) — the compiled twin of
   [exec_simple].
   @raise Out_of_bounds if it names a register outside [0, nregs). *)
let compile_ex t lay (instr : Ir.instr) : frame -> int =
  match instr with
  | Const { dst; value = VI x; _ } ->
      let d = reg lay dst in
      fun fr ->
        wr_i fr d x;
        -1
  | Const { dst; value = VF x; _ } ->
      let d = reg lay dst in
      fun fr ->
        wr_f fr d x;
        -1
  | Mov { dst; src } ->
      let d = reg lay dst and s = slot lay src in
      fun fr ->
        copy_slot fr s fr d;
        -1
  | Binop { op; ty; dst; a; b } -> compile_binop op ty (reg lay dst) (slot lay a) (slot lay b)
  | Fbinop { op; ty; dst; a; b } ->
      compile_fbinop op ty (reg lay dst) (slot lay a) (slot lay b)
  | Funop { op; ty; dst; a } -> compile_funop op ty (reg lay dst) (slot lay a)
  | Icmp { op; dst; a; b; _ } -> compile_icmp op (reg lay dst) (slot lay a) (slot lay b)
  | Fcmp { op; dst; a; b; _ } -> compile_fcmp op (reg lay dst) (slot lay a) (slot lay b)
  | Select { dst; cond; if_true; if_false } ->
      let d = reg lay dst in
      let c = slot lay cond in
      let x = slot lay if_true in
      let y = slot lay if_false in
      fun fr ->
        copy_slot fr (if rd_i fr c <> 0L then x else y) fr d;
        -1
  | Cast { op; dst; src } -> compile_cast op (reg lay dst) (slot lay src)
  | Load { ty; dst; base; offset } ->
      compile_load t.mem ty (reg lay dst) (slot lay base) offset
  | Store { ty; src; base; offset } ->
      compile_store t.mem ty (slot lay src) (slot lay base) offset
  | Memo m -> compile_memo t lay m
  | Call _ -> assert false

(* An instruction naming a register outside [0, nregs) runs on a boxed
   copy of the registers through the walker's [exec_simple]: it fails where
   the walker fails (and succeeds where it does, e.g. on an untaken
   [Select] arm). Well-formed programs never take this path. *)
let compile_boxed t nregs instr : frame -> int =
 fun fr ->
  let regs = Array.init nregs (read_value fr) in
  let a = exec_simple t regs instr in
  Array.iteri (write_value fr) regs;
  a

let find_ker t callee =
  match t.kers with None -> assert false | Some kers -> Hashtbl.find_opt kers callee

(* A call copies its arguments slot to slot into a frame of the callee and
   its results back from the callee's [k_ret]; the callee is resolved here,
   and its hook site fires before the callee runs (issue order). Failures
   keep the order of a boxed call: unknown callee, then argument registers,
   then (after the callee returns) result registers. *)
let compile_call t lay hook ~callee ~(dsts : Ir.reg array) ~(args : Ir.operand array)
    (rest : frame -> int) : frame -> int =
  match find_ker t callee with
  | None ->
      fun _ ->
        bump t;
        hook (-1);
        failwith ("Interp: unknown function " ^ callee)
  | Some k -> (
      let params = Array.map fst k.k_fn.params in
      let nparams = Array.length params in
      match
        if
          Array.length args < nparams
          || not (Array.for_all (fun r -> 0 <= r && r < k.k_fn.nregs) params)
        then raise Out_of_bounds;
        Array.map (slot lay) args
      with
      | exception Out_of_bounds ->
          fun _ ->
            bump t;
            hook (-1);
            invalid_arg "index out of bounds"
      | srcs ->
          let ndsts = Array.length dsts in
          let dsts_ok =
            Array.for_all (in_range lay) dsts && ndsts <= Array.length k.k_fn.ret_tys
          in
          fun fr ->
            bump t;
            hook (-1);
            let callee_fr = acquire k in
            for i = 0 to nparams - 1 do
              copy_slot fr (Array.unsafe_get srcs i) callee_fr (Array.unsafe_get params i)
            done;
            enter t k callee_fr;
            if not dsts_ok then invalid_arg "index out of bounds";
            let ret = k.k_ret in
            for i = 0 to ndsts - 1 do
              copy_slot ret i fr (Array.unsafe_get dsts i)
            done;
            rest fr)

(* One instruction fused with the rest of its block: [hk] is the
   pre-compiled hook site, or None on hook-free contexts. *)
let compile_instr t lay hk (instr : Ir.instr) (rest : frame -> int) : frame -> int =
  match instr with
  | Call { callee; dsts; args } ->
      let hook = match hk with None -> ignore | Some h -> h in
      compile_call t lay hook ~callee ~dsts ~args rest
  | _ -> (
      let ex =
        try compile_ex t lay instr with Out_of_bounds -> compile_boxed t lay.nregs instr
      in
      match hk with
      | None ->
          fun fr ->
            bump t;
            ignore (ex fr : int);
            rest fr
      | Some h ->
          fun fr ->
            bump t;
            h (ex fr);
            rest fr)

let compile_term t lay (k : ker) (rt : rterm) : frame -> int =
  let out_of_range _ = invalid_arg "index out of bounds" in
  match rt with
  | Rjmp b -> fun _ -> b
  | Rbr { cond; if_true; if_false } -> (
      match slot lay cond with
      | exception Out_of_bounds -> out_of_range
      | c -> fun fr -> if rd_i fr c <> 0L then if_true else if_false)
  | Rbr_memo { on_hit; on_miss } -> fun _ -> if t.memo_flag then on_hit else on_miss
  | Rret ops -> (
      match
        if Array.length ops > Array.length k.k_fn.ret_tys then raise Out_of_bounds;
        Array.map (slot lay) ops
      with
      | exception Out_of_bounds -> out_of_range
      | srcs ->
          let ret = k.k_ret in
          fun fr ->
            for i = 0 to Array.length srcs - 1 do
              copy_slot fr (Array.unsafe_get srcs i) ret i
            done;
            -1)

let compile_block t (k : ker) lay fname bidx (cb : cblock) : frame -> int =
  let hks =
    Array.mapi
      (fun iidx instr ->
        match t.hooks with None -> None | Some h -> Some (h.exec_site fname bidx iidx instr))
      cb.instrs
  in
  let next = compile_term t lay k cb.rterm in
  let tail : frame -> int =
    match t.hooks with
    | None -> next
    | Some h ->
        let ts = h.term_site fname bidx cb.term in
        fun fr ->
          ts ();
          next fr
  in
  (* Chain the block into one closure: each instruction tail-calls the
     rest, so executing a block is a single indirect call with no loop
     counter and no per-instruction array load. *)
  let chain = ref tail in
  for iidx = Array.length cb.instrs - 1 downto 0 do
    chain := compile_instr t lay hks.(iidx) cb.instrs.(iidx) !chain
  done;
  !chain

let compile_all t =
  let kers = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (cf : cfunc) ->
      Hashtbl.replace kers name
        {
          k_fn = cf.fn;
          k_body = Array.make (Array.length cf.cblocks) (fun _ -> -1);
          k_ret = make_frame (Array.length cf.fn.ret_tys);
          k_tmpl = no_frame;
          k_pool = [||];
          k_pool_len = 0;
          k_depth = 0;
        })
    t.funcs;
  t.kers <- Some kers;
  (* bodies are filled once every ker exists, so call sites resolve callees
     regardless of program order; the frame template is complete once every
     block has handed out its constant slots *)
  Hashtbl.iter
    (fun name (cf : cfunc) ->
      let k = Hashtbl.find kers name in
      let lay = { nregs = cf.fn.nregs; nslots = cf.fn.nregs; consts = [] } in
      Array.iteri
        (fun bidx cb -> k.k_body.(bidx) <- compile_block t k lay cf.fn.fname bidx cb)
        cf.cblocks;
      k.k_tmpl <- template lay)
    t.funcs

(* ------------------------------------------------------------------ *)
(* The block drivers are specialized on hook presence: the hooked variant
   calls the block's resolved sites, the plain variant's loop contains no
   option match and no hook dispatch at all. Dispatch happens once per
   function call in [exec_func]. *)
let rec exec_func t (cf : cfunc) (args : Ir.value array) : Ir.value array =
  let fn = cf.fn in
  let regs = Array.make fn.nregs (Ir.VI 0L) in
  Array.iteri (fun i (r, _) -> regs.(r) <- args.(i)) fn.params;
  match t.hooks with
  | None -> run_plain t cf regs 0
  | Some h ->
      h.on_enter fn.fname;
      let results = run_hooked t cf regs 0 in
      h.on_leave fn.fname;
      results

and run_plain t cf regs bidx : Ir.value array =
  let block = cf.cblocks.(bidx) in
  let instrs = block.instrs in
  let n = Array.length instrs in
  for iidx = 0 to n - 1 do
    let instr = instrs.(iidx) in
    t.nsteps <- t.nsteps + 1;
    if t.nsteps > t.max_steps then failwith "Interp: step limit exceeded";
    match instr with
    | Call { callee; dsts; args } ->
        let g = callee_func t callee in
        let results = exec_func t g (Array.map (operand regs) args) in
        Array.iteri (fun i dst -> regs.(dst) <- results.(i)) dsts
    | _ -> ignore (exec_simple t regs instr)
  done;
  match block.rterm with
  | Rjmp b -> run_plain t cf regs b
  | Rbr { cond; if_true; if_false } ->
      run_plain t cf regs (if vi (operand regs cond) <> 0L then if_true else if_false)
  | Rbr_memo { on_hit; on_miss } ->
      run_plain t cf regs (if t.memo_flag then on_hit else on_miss)
  | Rret ops -> Array.map (operand regs) ops

and run_hooked t cf regs bidx : Ir.value array =
  let block = cf.cblocks.(bidx) in
  let instrs = block.instrs in
  let sites = block.sites in
  let n = Array.length instrs in
  for iidx = 0 to n - 1 do
    let instr = instrs.(iidx) in
    t.nsteps <- t.nsteps + 1;
    if t.nsteps > t.max_steps then failwith "Interp: step limit exceeded";
    match instr with
    | Call { callee; dsts; args } ->
        (* The call hook fires before the callee runs so a timing consumer
           sees instructions in issue order. *)
        sites.(iidx) (-1);
        let g = callee_func t callee in
        let results = exec_func t g (Array.map (operand regs) args) in
        Array.iteri (fun i dst -> regs.(dst) <- results.(i)) dsts
    | _ ->
        let addr = exec_simple t regs instr in
        sites.(iidx) addr
  done;
  block.tsite ();
  match block.rterm with
  | Rjmp b -> run_hooked t cf regs b
  | Rbr { cond; if_true; if_false } ->
      run_hooked t cf regs (if vi (operand regs cond) <> 0L then if_true else if_false)
  | Rbr_memo { on_hit; on_miss } ->
      run_hooked t cf regs (if t.memo_flag then on_hit else on_miss)
  | Rret ops -> Array.map (operand regs) ops

let run t fname args =
  match t.kers with
  | None -> (
      match Hashtbl.find_opt t.funcs fname with
      | None -> failwith ("Interp: unknown function " ^ fname)
      | Some cf ->
          if Array.length args <> Array.length cf.fn.params then
            failwith ("Interp: bad argument count for " ^ fname);
          exec_func t cf args)
  | Some kers -> (
      match Hashtbl.find_opt kers fname with
      | None -> failwith ("Interp: unknown function " ^ fname)
      | Some k ->
          if Array.length args <> Array.length k.k_fn.params then
            failwith ("Interp: bad argument count for " ^ fname);
          (* an aborted previous run (step limit, crash injection) may have
             left arena depths dirty *)
          Hashtbl.iter (fun _ k -> k.k_depth <- 0) kers;
          let fr = acquire k in
          Array.iteri
            (fun i (r, _) ->
              if r < 0 || r >= k.k_fn.nregs then invalid_arg "index out of bounds";
              write_value fr r args.(i))
            k.k_fn.params;
          enter t k fr;
          Array.init (Array.length k.k_fn.ret_tys) (read_value k.k_ret))

let create ?memo ?hooks ?(max_steps = 2_000_000_000) ?(backend = `Compiled)
    ~program ~mem () =
  (* Every hook site is resolved here, once: by the walker's per-block site
     arrays, or by [compile_block] next to the closure that calls it. *)
  let walker_hooks = match (backend : backend) with `Interp -> hooks | `Compiled -> None in
  let funcs = Hashtbl.create 16 in
  Array.iter
    (fun (f : Ir.func) -> Hashtbl.replace funcs f.fname (compile_func walker_hooks f))
    (program : Ir.program).funcs;
  let t =
    {
      program;
      mem;
      memo;
      hooks;
      max_steps;
      funcs;
      memo_flag = false;
      nsteps = 0;
      kers = None;
    }
  in
  (match backend with `Compiled -> compile_all t | `Interp -> ());
  t
