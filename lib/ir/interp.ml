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

(* A function lowered to closure chains: [k_body.(b)] executes block [b]
   (instructions, hook sites, terminator) and returns the next block index,
   or -1 on return, leaving the results in [k_ret]. Register frames come
   from a depth-indexed arena so steady-state execution allocates nothing. *)
type ker = {
  k_fn : Ir.func;
  k_body : (Ir.value array -> int) array;
  k_ret : Ir.value array;
  mutable k_pool : Ir.value array array;
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

let sext32 v = Int64.shift_right (Int64.shift_left v 32) 32
let round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

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
   [create]. Operands are resolved to array slots, callees and branch
   targets to compiled-block references, and hook sites are specialized per
   static instruction — the same specialization the interpreter loop does on
   hook presence, pushed from run time to compile time. Dispatch is one
   indirect call per block instead of a match per instruction. *)

let vzero = Ir.VI 0L

let getter = function
  | Ir.Reg r -> fun (regs : Ir.value array) -> regs.(r)
  | Ir.Imm v -> fun _ -> v

(* Compile-time specialization of the scalar evaluators: the opcode match
   and the width test move from every execution to [create]. Every arm must
   stay bit-identical to its [eval_*] twin, including operand evaluation
   order and failure messages. *)

let compile_binop (op : Ir.binop) (ty : Ir.ty) : Ir.value -> Ir.value -> Ir.value =
  let is32 = match ty with Ir.I32 -> true | Ir.I64 | Ir.F32 | Ir.F64 -> false in
  let[@inline] fin w = Ir.VI (if is32 then sext32 w else w) in
  let smask = if is32 then 31 else 63 in
  match op with
  | Add -> fun a b -> fin (Int64.add (vi a) (vi b))
  | Sub -> fun a b -> fin (Int64.sub (vi a) (vi b))
  | Mul -> fun a b -> fin (Int64.mul (vi a) (vi b))
  | Div ->
      fun a b ->
        let a = vi a in
        let b = vi b in
        if b = 0L then failwith "Interp: division by zero" else fin (Int64.div a b)
  | Rem ->
      fun a b ->
        let a = vi a in
        let b = vi b in
        if b = 0L then failwith "Interp: division by zero" else fin (Int64.rem a b)
  | And -> fun a b -> fin (Int64.logand (vi a) (vi b))
  | Or -> fun a b -> fin (Int64.logor (vi a) (vi b))
  | Xor -> fun a b -> fin (Int64.logxor (vi a) (vi b))
  | Shl ->
      fun a b ->
        let a = vi a in
        fin (Int64.shift_left a (Int64.to_int (vi b) land smask))
  | Lshr ->
      if is32 then fun a b ->
        let a = vi a in
        fin
          (Int64.shift_right_logical (Int64.logand a 0xFFFFFFFFL)
             (Int64.to_int (vi b) land 31))
      else fun a b ->
        let a = vi a in
        fin (Int64.shift_right_logical a (Int64.to_int (vi b) land 63))
  | Ashr ->
      fun a b ->
        let a = vi a in
        fin (Int64.shift_right a (Int64.to_int (vi b) land smask))

let compile_fbinop (op : Ir.fbinop) (ty : Ir.ty) : Ir.value -> Ir.value -> Ir.value =
  let is32 = match ty with Ir.F32 -> true | Ir.I32 | Ir.I64 | Ir.F64 -> false in
  let[@inline] fin r = Ir.VF (if is32 then round_f32 r else r) in
  match op with
  | Fadd -> fun a b -> fin (vf a +. vf b)
  | Fsub -> fun a b -> fin (vf a -. vf b)
  | Fmul -> fun a b -> fin (vf a *. vf b)
  | Fdiv -> fun a b -> fin (vf a /. vf b)

let compile_funop (op : Ir.funop) (ty : Ir.ty) : Ir.value -> Ir.value =
  let is32 = match ty with Ir.F32 -> true | Ir.I32 | Ir.I64 | Ir.F64 -> false in
  let[@inline] fin r = Ir.VF (if is32 then round_f32 r else r) in
  match op with
  | Fneg -> fun a -> fin (-.vf a)
  | Fabs -> fun a -> fin (abs_float (vf a))
  | Fsqrt -> fun a -> fin (sqrt (vf a))
  | Fsin -> fun a -> fin (sin (vf a))
  | Fcos -> fun a -> fin (cos (vf a))
  | Fexp -> fun a -> fin (exp (vf a))
  | Flog -> fun a -> fin (log (vf a))
  | Ffloor -> fun a -> fin (floor (vf a))
  | Fround -> fun a -> fin (Float.round (vf a))

(* Shared result cells: structurally identical to the fresh boxes the
   interpreter allocates, so sharing is invisible to every comparison. *)
let vtrue = Ir.VI 1L
let vfalse = Ir.VI 0L

let compile_icmp (op : Ir.icmp) : Ir.value -> Ir.value -> Ir.value =
  match op with
  | Ieq -> fun a b -> if vi a = vi b then vtrue else vfalse
  | Ine -> fun a b -> if vi a <> vi b then vtrue else vfalse
  | Ilt -> fun a b -> if vi a < vi b then vtrue else vfalse
  | Ile -> fun a b -> if vi a <= vi b then vtrue else vfalse
  | Igt -> fun a b -> if vi a > vi b then vtrue else vfalse
  | Ige -> fun a b -> if vi a >= vi b then vtrue else vfalse

let compile_fcmp (op : Ir.fcmp) : Ir.value -> Ir.value -> Ir.value =
  match op with
  | Feq -> fun a b -> if vf a = vf b then vtrue else vfalse
  | Fne -> fun a b -> if vf a <> vf b then vtrue else vfalse
  | Flt -> fun a b -> if vf a < vf b then vtrue else vfalse
  | Fle -> fun a b -> if vf a <= vf b then vtrue else vfalse
  | Fgt -> fun a b -> if vf a > vf b then vtrue else vfalse
  | Fge -> fun a b -> if vf a >= vf b then vtrue else vfalse

let compile_cast (op : Ir.cast) : Ir.value -> Ir.value =
  match op with
  | I_to_f -> fun v -> Ir.VF (Int64.to_float (vi v))
  | F_to_i -> fun v -> Ir.VI (Int64.of_float (vf v))
  | F32_of_f64 -> fun v -> Ir.VF (round_f32 (vf v))
  | F64_of_f32 -> fun v -> Ir.VF (vf v)
  | Bits_of_f32 ->
      fun v -> Ir.VI (sext32 (Int64.of_int32 (Int32.bits_of_float (vf v))))
  | F32_of_bits -> fun v -> Ir.VF (Int32.float_of_bits (Int64.to_int32 (vi v)))
  | Bits_of_f64 -> fun v -> Ir.VI (Int64.bits_of_float (vf v))
  | F64_of_bits -> fun v -> Ir.VF (Int64.float_of_bits (vi v))
  | Sext_32_64 -> fun v -> Ir.VI (sext32 (vi v))
  | Trunc_64_32 -> fun v -> Ir.VI (sext32 (vi v))

let[@inline] bump t =
  t.nsteps <- t.nsteps + 1;
  if t.nsteps > t.max_steps then failwith "Interp: step limit exceeded"

let find_ker t callee =
  match t.kers with
  | None -> assert false
  | Some kers -> (
      match Hashtbl.find_opt kers callee with
      | Some k -> k
      | None -> failwith ("Interp: unknown function " ^ callee))

let acquire_regs (k : ker) =
  let d = k.k_depth in
  k.k_depth <- d + 1;
  if d < k.k_pool_len then begin
    let regs = k.k_pool.(d) in
    Array.fill regs 0 (Array.length regs) vzero;
    regs
  end
  else begin
    (* recursion depth grows one frame at a time, so [d = k_pool_len] *)
    let regs = Array.make k.k_fn.nregs vzero in
    if d >= Array.length k.k_pool then begin
      let grown = Array.make (max 4 (2 * (d + 1))) [||] in
      Array.blit k.k_pool 0 grown 0 (Array.length k.k_pool);
      k.k_pool <- grown
    end;
    k.k_pool.(d) <- regs;
    k.k_pool_len <- d + 1;
    regs
  end

let exec_ker t (k : ker) (args : Ir.value array) =
  let regs = acquire_regs k in
  Array.iteri (fun i (r, _) -> regs.(r) <- args.(i)) k.k_fn.params;
  let body = k.k_body in
  (match t.hooks with
  | None ->
      let b = ref 0 in
      while !b >= 0 do
        b := body.(!b) regs
      done
  | Some h ->
      h.on_enter k.k_fn.fname;
      let b = ref 0 in
      while !b >= 0 do
        b := body.(!b) regs
      done;
      h.on_leave k.k_fn.fname);
  k.k_depth <- k.k_depth - 1

(* Memoization hook presence is resolved at compile time: a memo-less
   context compiles [Reg_crc]/[Update]/[Invalidate] down to a step-count
   bump. Semantics mirror [eval_memo] arm for arm. *)
let compile_memo t (m : Ir.memo_instr) : Ir.value array -> int =
  match m with
  | Ld_crc { dst; ty; base; offset; lut; trunc } -> (
      let gb = getter base in
      match t.memo with
      | Some mh ->
          fun regs ->
            let a = Int64.to_int (vi (gb regs)) + offset in
            let v = Memory.load t.mem ty a in
            regs.(dst) <- v;
            mh.send ~lut ~ty ~trunc v;
            a
      | None ->
          fun regs ->
            let a = Int64.to_int (vi (gb regs)) + offset in
            regs.(dst) <- Memory.load t.mem ty a;
            a)
  | Reg_crc { src; ty; lut; trunc } -> (
      match t.memo with
      | Some mh ->
          let g = getter src in
          fun regs ->
            mh.send ~lut ~ty ~trunc (g regs);
            -1
      | None -> fun _ -> -1)
  | Lookup { dst; lut } -> (
      match t.memo with
      | Some mh ->
          fun regs ->
            (match mh.lookup ~lut with
            | Some payload ->
                t.memo_flag <- true;
                regs.(dst) <- VI payload
            | None ->
                t.memo_flag <- false;
                regs.(dst) <- VI 0L);
            -1
      | None ->
          fun regs ->
            t.memo_flag <- false;
            regs.(dst) <- VI 0L;
            -1)
  | Update { src; lut } -> (
      match t.memo with
      | Some mh ->
          let g = getter src in
          fun regs ->
            mh.update ~lut (vi (g regs));
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
   [exec_simple], with operands and opcodes resolved once. *)
let compile_ex t (instr : Ir.instr) : Ir.value array -> int =
  match instr with
  | Const { dst; value; _ } ->
      fun regs ->
        regs.(dst) <- value;
        -1
  | Mov { dst; src } ->
      let g = getter src in
      fun regs ->
        regs.(dst) <- g regs;
        -1
  | Binop { op; ty; dst; a; b } ->
      let ga = getter a and gb = getter b in
      let f = compile_binop op ty in
      fun regs ->
        regs.(dst) <- f (ga regs) (gb regs);
        -1
  | Fbinop { op; ty; dst; a; b } ->
      let ga = getter a and gb = getter b in
      let f = compile_fbinop op ty in
      fun regs ->
        regs.(dst) <- f (ga regs) (gb regs);
        -1
  | Funop { op; ty; dst; a } ->
      let ga = getter a in
      let f = compile_funop op ty in
      fun regs ->
        regs.(dst) <- f (ga regs);
        -1
  | Icmp { op; dst; a; b; _ } ->
      let ga = getter a and gb = getter b in
      let f = compile_icmp op in
      fun regs ->
        regs.(dst) <- f (ga regs) (gb regs);
        -1
  | Fcmp { op; dst; a; b; _ } ->
      let ga = getter a and gb = getter b in
      let f = compile_fcmp op in
      fun regs ->
        regs.(dst) <- f (ga regs) (gb regs);
        -1
  | Select { dst; cond; if_true; if_false } ->
      let gc = getter cond and gt = getter if_true and gf = getter if_false in
      fun regs ->
        regs.(dst) <- (if vi (gc regs) <> 0L then gt regs else gf regs);
        -1
  | Cast { op; dst; src } ->
      let g = getter src in
      let f = compile_cast op in
      fun regs ->
        regs.(dst) <- f (g regs);
        -1
  | Load { ty; dst; base; offset } ->
      let gb = getter base in
      fun regs ->
        let a = Int64.to_int (vi (gb regs)) + offset in
        regs.(dst) <- Memory.load t.mem ty a;
        a
  | Store { ty; src; base; offset } ->
      let gb = getter base and gs = getter src in
      fun regs ->
        let a = Int64.to_int (vi (gb regs)) + offset in
        Memory.store t.mem ty a (gs regs);
        a
  | Memo m -> compile_memo t m
  | Call _ -> assert false

(* [hk] is the pre-compiled hook site for this static instruction, or None
   on hook-free contexts. Calls fire their hook before the callee runs
   (issue order), like the interpreter loop. *)
let compile_instr t (hk : (int -> unit) option) (instr : Ir.instr) :
    Ir.value array -> unit =
  match instr with
  | Ir.Call { callee; dsts; args } ->
      let gargs = Array.map getter args in
      let nargs = Array.length gargs in
      (* per-site argument buffer: safe under recursion because [exec_ker]
         copies the arguments into the callee frame before executing *)
      let args_buf = Array.make nargs vzero in
      let kref = ref None in
      let do_call regs =
        let k =
          match !kref with
          | Some k -> k
          | None ->
              let k = find_ker t callee in
              kref := Some k;
              k
        in
        for i = 0 to nargs - 1 do
          args_buf.(i) <- (Array.unsafe_get gargs i) regs
        done;
        exec_ker t k args_buf;
        let ret = k.k_ret in
        Array.iteri (fun i dst -> regs.(dst) <- ret.(i)) dsts
      in
      (match hk with
      | None ->
          fun regs ->
            bump t;
            do_call regs
      | Some h ->
          fun regs ->
            bump t;
            h (-1);
            do_call regs)
  | _ -> (
      let ex = compile_ex t instr in
      match hk with
      | None ->
          fun regs ->
            bump t;
            ignore (ex regs : int)
      | Some h ->
          fun regs ->
            bump t;
            let a = ex regs in
            h a)

let compile_block t (k : ker) fname bidx (cb : cblock) : Ir.value array -> int =
  let steps =
    Array.mapi
      (fun iidx instr ->
        let hk =
          match t.hooks with
          | None -> None
          | Some h -> Some (h.exec_site fname bidx iidx instr)
        in
        compile_instr t hk instr)
      cb.instrs
  in
  let next : Ir.value array -> int =
    match cb.rterm with
    | Rjmp b -> fun _ -> b
    | Rbr { cond; if_true; if_false } ->
        let g = getter cond in
        fun regs -> if vi (g regs) <> 0L then if_true else if_false
    | Rbr_memo { on_hit; on_miss } ->
        fun _ -> if t.memo_flag then on_hit else on_miss
    | Rret ops ->
        let gs = Array.map getter ops in
        let nret = Array.length gs in
        let ret = k.k_ret in
        fun regs ->
          for i = 0 to nret - 1 do
            ret.(i) <- (Array.unsafe_get gs i) regs
          done;
          -1
  in
  (* Chain the block into one closure: each step tail-calls the rest, so
     executing a block is a single indirect call with no loop counter and
     no per-instruction array load. *)
  let tail : Ir.value array -> int =
    match t.hooks with
    | None -> next
    | Some h ->
        let ts = h.term_site fname bidx cb.term in
        fun regs ->
          ts ();
          next regs
  in
  Array.fold_right
    (fun step rest ->
      fun regs ->
        step regs;
        rest regs)
    steps tail

let compile_all t =
  let kers = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (cf : cfunc) ->
      Hashtbl.replace kers name
        {
          k_fn = cf.fn;
          k_body = Array.make (Array.length cf.cblocks) (fun _ -> -1);
          k_ret = Array.make (Array.length cf.fn.ret_tys) vzero;
          k_pool = [||];
          k_pool_len = 0;
          k_depth = 0;
        })
    t.funcs;
  t.kers <- Some kers;
  (* bodies are filled once every ker exists, so call sites resolve callees
     regardless of program order *)
  Hashtbl.iter
    (fun name (cf : cfunc) ->
      let k = Hashtbl.find kers name in
      Array.iteri
        (fun bidx cb -> k.k_body.(bidx) <- compile_block t k cf.fn.fname bidx cb)
        cf.cblocks)
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
          exec_ker t k args;
          Array.copy k.k_ret)

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
