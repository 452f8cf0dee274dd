type ty = I32 | I64 | F32 | F64
type value = VI of int64 | VF of float
type reg = int
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
  | I_to_f
  | F_to_i
  | F32_of_f64
  | F64_of_f32
  | Bits_of_f32
  | F32_of_bits
  | Bits_of_f64
  | F64_of_bits
  | Sext_32_64
  | Trunc_64_32

type memo_instr =
  | Ld_crc of { dst : reg; ty : ty; base : operand; offset : int; lut : int; trunc : int }
  | Reg_crc of { src : operand; ty : ty; lut : int; trunc : int }
  | Lookup of { dst : reg; lut : int }
  | Update of { src : operand; lut : int }
  | Invalidate of { lut : int }

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
  | Ret of operand array

type block = { label : string; mutable instrs : instr array; mutable term : terminator }

type func = {
  fname : string;
  params : (reg * ty) array;
  ret_tys : ty array;
  mutable blocks : block array;
  nregs : int;
  pure : bool;
}

type program = { funcs : func array }

let find_func p name =
  match Array.find_opt (fun f -> f.fname = name) p.funcs with
  | Some f -> f
  | None -> raise Not_found

let ty_size = function I32 | F32 -> 4 | I64 | F64 -> 8

let instr_dst = function
  | Const { dst; _ }
  | Mov { dst; _ }
  | Binop { dst; _ }
  | Fbinop { dst; _ }
  | Funop { dst; _ }
  | Icmp { dst; _ }
  | Fcmp { dst; _ }
  | Select { dst; _ }
  | Cast { dst; _ }
  | Load { dst; _ } -> [ dst ]
  | Store _ -> []
  | Call { dsts; _ } -> Array.to_list dsts
  | Memo (Ld_crc { dst; _ }) -> [ dst ]
  | Memo (Lookup { dst; _ }) -> [ dst ]
  | Memo (Reg_crc _ | Update _ | Invalidate _) -> []

let operand_reg = function Reg r -> [ r ] | Imm _ -> []

let instr_srcs = function
  | Const _ -> []
  | Mov { src; _ } -> operand_reg src
  | Binop { a; b; _ } | Fbinop { a; b; _ } | Icmp { a; b; _ } | Fcmp { a; b; _ } ->
      operand_reg a @ operand_reg b
  | Funop { a; _ } -> operand_reg a
  | Select { cond; if_true; if_false; _ } ->
      operand_reg cond @ operand_reg if_true @ operand_reg if_false
  | Cast { src; _ } -> operand_reg src
  | Load { base; _ } -> operand_reg base
  | Store { src; base; _ } -> operand_reg src @ operand_reg base
  | Call { args; _ } -> Array.to_list args |> List.concat_map operand_reg
  | Memo (Ld_crc { base; _ }) -> operand_reg base
  | Memo (Reg_crc { src; _ }) -> operand_reg src
  | Memo (Update { src; _ }) -> operand_reg src
  | Memo (Lookup _ | Invalidate _) -> []

(* --- validation --- *)

let validate p =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let func_tbl = Hashtbl.create 16 in
  Array.iter (fun f -> Hashtbl.replace func_tbl f.fname f) p.funcs;
  let check_func f =
    if Array.length f.blocks = 0 then err "%s: no blocks" f.fname;
    let labels = Hashtbl.create 16 in
    Array.iter
      (fun b ->
        if Hashtbl.mem labels b.label then err "%s: duplicate label %s" f.fname b.label;
        Hashtbl.replace labels b.label ())
      f.blocks;
    let check_label where l =
      if not (Hashtbl.mem labels l) then err "%s/%s: unknown label %s" f.fname where l
    in
    let check_reg where r =
      if r < 0 || r >= f.nregs then err "%s/%s: register %d out of range" f.fname where r
    in
    let check_operand where = function Reg r -> check_reg where r | Imm _ -> () in
    Array.iter
      (fun (r, _) -> check_reg "params" r)
      f.params;
    Array.iter
      (fun b ->
        Array.iter
          (fun i ->
            List.iter (check_reg b.label) (instr_dst i);
            List.iter (fun r -> check_reg b.label r) (instr_srcs i);
            (match i with
            | Call { callee; dsts; args } -> (
                match Hashtbl.find_opt func_tbl callee with
                | None -> err "%s/%s: call to unknown function %s" f.fname b.label callee
                | Some g ->
                    if Array.length args <> Array.length g.params then
                      err "%s/%s: call to %s with %d args (expected %d)" f.fname b.label
                        callee (Array.length args) (Array.length g.params);
                    if Array.length dsts <> Array.length g.ret_tys then
                      err "%s/%s: call to %s binds %d results (expected %d)" f.fname
                        b.label callee (Array.length dsts) (Array.length g.ret_tys);
                    if f.pure && not g.pure then
                      err "%s: pure function calls impure %s" f.fname callee)
            | Store _ when f.pure -> err "%s: pure function contains a store" f.fname
            | Memo _ when f.pure -> err "%s: pure function contains a memo instruction" f.fname
            | Const _ | Mov _ | Binop _ | Fbinop _ | Funop _ | Icmp _ | Fcmp _
            | Select _ | Cast _ | Load _ | Store _ | Memo _ -> ());
            ignore (List.map (fun o -> check_operand b.label o) []))
          b.instrs;
        match b.term with
        | Jmp l -> check_label b.label l
        | Br { cond; if_true; if_false } ->
            check_operand b.label cond;
            check_label b.label if_true;
            check_label b.label if_false
        | Br_memo { on_hit; on_miss } ->
            check_label b.label on_hit;
            check_label b.label on_miss
        | Ret ops ->
            Array.iter (check_operand b.label) ops;
            if Array.length ops <> Array.length f.ret_tys then
              err "%s/%s: ret arity %d (expected %d)" f.fname b.label (Array.length ops)
                (Array.length f.ret_tys))
      f.blocks
  in
  Array.iter check_func p.funcs;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

(* --- pretty printing --- *)

let string_of_ty = function I32 -> "i32" | I64 -> "i64" | F32 -> "f32" | F64 -> "f64"

let string_of_binop = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Lshr -> "lshr"
  | Ashr -> "ashr"

let string_of_fbinop = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let string_of_funop = function
  | Fneg -> "fneg" | Fabs -> "fabs" | Fsqrt -> "fsqrt" | Fsin -> "fsin"
  | Fcos -> "fcos" | Fexp -> "fexp" | Flog -> "flog" | Ffloor -> "ffloor"
  | Fround -> "fround"

let string_of_icmp = function
  | Ieq -> "eq" | Ine -> "ne" | Ilt -> "lt" | Ile -> "le" | Igt -> "gt" | Ige -> "ge"

let string_of_fcmp = function
  | Feq -> "feq" | Fne -> "fne" | Flt -> "flt" | Fle -> "fle" | Fgt -> "fgt" | Fge -> "fge"

let string_of_cast = function
  | I_to_f -> "i2f" | F_to_i -> "f2i" | F32_of_f64 -> "f32.of.f64"
  | F64_of_f32 -> "f64.of.f32" | Bits_of_f32 -> "bits.of.f32"
  | F32_of_bits -> "f32.of.bits" | Bits_of_f64 -> "bits.of.f64"
  | F64_of_bits -> "f64.of.bits" | Sext_32_64 -> "sext" | Trunc_64_32 -> "trunc"

let pp_value ppf = function
  | VI v -> Format.fprintf ppf "%Ld" v
  | VF v -> Format.fprintf ppf "%h" v

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm v -> pp_value ppf v

let pp_instr ppf i =
  let f fmt = Format.fprintf ppf fmt in
  match i with
  | Const { dst; ty; value } ->
      f "r%d = const.%s %a" dst (string_of_ty ty) pp_value value
  | Mov { dst; src } -> f "r%d = mov %a" dst pp_operand src
  | Binop { op; ty; dst; a; b } ->
      f "r%d = %s.%s %a, %a" dst (string_of_binop op) (string_of_ty ty) pp_operand a
        pp_operand b
  | Fbinop { op; ty; dst; a; b } ->
      f "r%d = %s.%s %a, %a" dst (string_of_fbinop op) (string_of_ty ty) pp_operand a
        pp_operand b
  | Funop { op; ty; dst; a } ->
      f "r%d = %s.%s %a" dst (string_of_funop op) (string_of_ty ty) pp_operand a
  | Icmp { op; ty; dst; a; b } ->
      f "r%d = icmp.%s.%s %a, %a" dst (string_of_icmp op) (string_of_ty ty) pp_operand a
        pp_operand b
  | Fcmp { op; ty; dst; a; b } ->
      f "r%d = fcmp.%s.%s %a, %a" dst (string_of_fcmp op) (string_of_ty ty) pp_operand a
        pp_operand b
  | Select { dst; cond; if_true; if_false } ->
      f "r%d = select %a, %a, %a" dst pp_operand cond pp_operand if_true pp_operand
        if_false
  | Cast { op; dst; src } -> f "r%d = %s %a" dst (string_of_cast op) pp_operand src
  | Load { ty; dst; base; offset } ->
      f "r%d = load.%s [%a + %d]" dst (string_of_ty ty) pp_operand base offset
  | Store { ty; src; base; offset } ->
      f "store.%s %a, [%a + %d]" (string_of_ty ty) pp_operand src pp_operand base offset
  | Call { callee; dsts; args } ->
      let args_s =
        String.concat ", " (Array.to_list args |> List.map (Format.asprintf "%a" pp_operand))
      in
      if Array.length dsts = 0 then f "call %s(%s)" callee args_s
      else
        f "%s = call %s(%s)"
          (String.concat ", " (Array.to_list dsts |> List.map (Printf.sprintf "r%d")))
          callee args_s
  | Memo (Ld_crc { dst; ty; base; offset; lut; trunc }) ->
      f "r%d = ld_crc.%s [%a + %d], lut=%d, n=%d" dst (string_of_ty ty) pp_operand base
        offset lut trunc
  | Memo (Reg_crc { src; ty; lut; trunc }) ->
      f "reg_crc.%s %a, lut=%d, n=%d" (string_of_ty ty) pp_operand src lut trunc
  | Memo (Lookup { dst; lut }) -> f "r%d = lookup lut=%d" dst lut
  | Memo (Update { src; lut }) -> f "update %a, lut=%d" pp_operand src lut
  | Memo (Invalidate { lut }) -> f "invalidate lut=%d" lut

let pp_term ppf = function
  | Jmp l -> Format.fprintf ppf "jmp %s" l
  | Br { cond; if_true; if_false } ->
      Format.fprintf ppf "br %a, %s, %s" pp_operand cond if_true if_false
  | Br_memo { on_hit; on_miss } -> Format.fprintf ppf "br_memo %s, %s" on_hit on_miss
  | Ret ops ->
      Format.fprintf ppf "ret %s"
        (String.concat ", " (Array.to_list ops |> List.map (Format.asprintf "%a" pp_operand)))

let pp_func ppf fn =
  Format.fprintf ppf "@[<v>%s %s(%s) -> (%s) [regs=%d]@,"
    (if fn.pure then "pure func" else "func")
    fn.fname
    (String.concat ", "
       (Array.to_list fn.params
       |> List.map (fun (r, ty) -> Printf.sprintf "r%d:%s" r (string_of_ty ty))))
    (String.concat ", " (Array.to_list fn.ret_tys |> List.map string_of_ty))
    fn.nregs;
  Array.iter
    (fun b ->
      Format.fprintf ppf "%s:@," b.label;
      Array.iter (fun i -> Format.fprintf ppf "  %a@," pp_instr i) b.instrs;
      Format.fprintf ppf "  %a@," pp_term b.term)
    fn.blocks;
  Format.fprintf ppf "@]"

let pp_program ppf p =
  Array.iter (fun f -> Format.fprintf ppf "%a@." pp_func f) p.funcs

let static_count p =
  Array.fold_left
    (fun acc f ->
      Array.fold_left (fun acc b -> acc + Array.length b.instrs) acc f.blocks)
    0 p.funcs
