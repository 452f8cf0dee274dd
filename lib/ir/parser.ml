type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse of int * string

let fail line fmt = Format.kasprintf (fun m -> raise (Parse (line, m))) fmt

(* --- lexical helpers --- *)

let strip s = String.trim s

let split_on_string ~sep s =
  let seplen = String.length sep in
  let rec go start acc =
    match
      let rec find i =
        if i + seplen > String.length s then None
        else if String.sub s i seplen = sep then Some i
        else find (i + 1)
      in
      find start
    with
    | Some i -> go (i + seplen) (String.sub s start (i - start) :: acc)
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
  in
  go 0 []

let split_commas s =
  if strip s = "" then []
  else List.map strip (String.split_on_char ',' s)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let drop_prefix ~prefix s = String.sub s (String.length prefix) (String.length s - String.length prefix)

(* --- atoms --- *)

let parse_ty line = function
  | "i32" -> Ir.I32
  | "i64" -> Ir.I64
  | "f32" -> Ir.F32
  | "f64" -> Ir.F64
  | other -> fail line "unknown type %S" other

let parse_reg line s =
  let s = strip s in
  if String.length s >= 2 && s.[0] = 'r' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some r -> r
    | None -> fail line "bad register %S" s
  else fail line "expected a register, got %S" s

let is_reg s =
  String.length s >= 2
  && s.[0] = 'r'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 1 (String.length s - 1))

let parse_operand line s =
  let s = strip s in
  if is_reg s then Ir.Reg (parse_reg line s)
  else
    let lower = String.lowercase_ascii s in
    let looks_float =
      String.contains lower '.' || String.contains lower 'p'
      || lower = "nan" || lower = "inf" || lower = "-inf"
      || (String.contains lower 'x' && String.contains lower 'p')
    in
    if looks_float && String.contains lower 'x' || lower = "nan" || lower = "inf"
       || lower = "-inf" then
      match float_of_string_opt s with
      | Some f -> Ir.Imm (VF f)
      | None -> fail line "bad float immediate %S" s
    else
      match Int64.of_string_opt s with
      | Some v -> Ir.Imm (VI v)
      | None -> (
          (* decimal floats also acceptable *)
          match float_of_string_opt s with
          | Some f -> Ir.Imm (VF f)
          | None -> fail line "bad operand %S" s)

(* [base + off] or [base + -off] *)
let parse_addr line s =
  let s = strip s in
  if not (starts_with ~prefix:"[" s && String.length s > 1 && s.[String.length s - 1] = ']')
  then fail line "expected [base + offset], got %S" s;
  let inner = String.sub s 1 (String.length s - 2) in
  match split_on_string ~sep:" + " inner with
  | [ base; off ] -> (
      match int_of_string_opt (strip off) with
      | Some o -> (parse_operand line base, o)
      | None -> fail line "bad offset %S" off)
  | _ -> fail line "expected [base + offset], got %S" s

(* "lut=3" / "n=8" *)
let parse_kv line key s =
  let s = strip s in
  let prefix = key ^ "=" in
  if starts_with ~prefix s then
    match int_of_string_opt (drop_prefix ~prefix s) with
    | Some v -> v
    | None -> fail line "bad %s value in %S" key s
  else fail line "expected %s=<int>, got %S" key s

(* --- opcode tables (inverse of the printer's string functions) --- *)

let binops =
  [
    ("add", Ir.Add); ("sub", Ir.Sub); ("mul", Ir.Mul); ("div", Ir.Div); ("rem", Ir.Rem);
    ("and", Ir.And); ("or", Ir.Or); ("xor", Ir.Xor); ("shl", Ir.Shl); ("lshr", Ir.Lshr);
    ("ashr", Ir.Ashr);
  ]

let fbinops = [ ("fadd", Ir.Fadd); ("fsub", Ir.Fsub); ("fmul", Ir.Fmul); ("fdiv", Ir.Fdiv) ]

let funops =
  [
    ("fneg", Ir.Fneg); ("fabs", Ir.Fabs); ("fsqrt", Ir.Fsqrt); ("fsin", Ir.Fsin);
    ("fcos", Ir.Fcos); ("fexp", Ir.Fexp); ("flog", Ir.Flog); ("ffloor", Ir.Ffloor);
    ("fround", Ir.Fround);
  ]

let icmps =
  [ ("eq", Ir.Ieq); ("ne", Ir.Ine); ("lt", Ir.Ilt); ("le", Ir.Ile); ("gt", Ir.Igt);
    ("ge", Ir.Ige) ]

let fcmps =
  [ ("feq", Ir.Feq); ("fne", Ir.Fne); ("flt", Ir.Flt); ("fle", Ir.Fle); ("fgt", Ir.Fgt);
    ("fge", Ir.Fge) ]

let casts =
  [
    ("i2f", Ir.I_to_f); ("f2i", Ir.F_to_i); ("f32.of.f64", Ir.F32_of_f64);
    ("f64.of.f32", Ir.F64_of_f32); ("bits.of.f32", Ir.Bits_of_f32);
    ("f32.of.bits", Ir.F32_of_bits); ("bits.of.f64", Ir.Bits_of_f64);
    ("f64.of.bits", Ir.F64_of_bits); ("sext", Ir.Sext_32_64); ("trunc", Ir.Trunc_64_32);
  ]

(* --- instruction parsing --- *)

(* Split "mnemonic rest" at the first space. *)
let cut_mnemonic line s =
  match String.index_opt s ' ' with
  | Some i -> (String.sub s 0 i, strip (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> (s, "")
  |> fun r -> ignore line; r

(* Parse the right-hand side of "rX = <rhs>". *)
let parse_rhs line dst rhs =
  let mnemonic, rest = cut_mnemonic line rhs in
  let with_ty name =
    match String.split_on_char '.' name with
    | [ op; ty ] -> Some (op, parse_ty line ty)
    | _ -> None
  in
  match mnemonic with
  | "mov" -> Ir.Mov { dst; src = parse_operand line rest }
  | "select" -> (
      match split_commas rest with
      | [ c; a; b ] ->
          Ir.Select
            {
              dst;
              cond = parse_operand line c;
              if_true = parse_operand line a;
              if_false = parse_operand line b;
            }
      | _ -> fail line "select expects 3 operands")
  | "lookup" -> Ir.Memo (Lookup { dst; lut = parse_kv line "lut" rest })
  | _ when List.mem_assoc mnemonic casts ->
      Ir.Cast { op = List.assoc mnemonic casts; dst; src = parse_operand line rest }
  | _ -> (
      (* typed mnemonics *)
      match with_ty mnemonic with
      | Some ("const", ty) ->
          let value =
            match parse_operand line rest with
            | Ir.Imm v -> v
            | Ir.Reg _ -> fail line "const expects an immediate"
          in
          Ir.Const { dst; ty; value }
      | Some ("load", ty) ->
          let base, offset = parse_addr line rest in
          Ir.Load { ty; dst; base; offset }
      | Some ("ld_crc", ty) -> (
          (* [addr + off], lut=N, n=M *)
          match split_on_string ~sep:", lut=" rest with
          | [ addr_part; tail ] -> (
              let base, offset = parse_addr line addr_part in
              match split_on_string ~sep:", n=" tail with
              | [ lut_s; n_s ] -> (
                  match (int_of_string_opt (strip lut_s), int_of_string_opt (strip n_s)) with
                  | Some lut, Some trunc ->
                      Ir.Memo (Ld_crc { dst; ty; base; offset; lut; trunc })
                  | _ -> fail line "bad ld_crc fields")
              | _ -> fail line "ld_crc expects , n=")
          | _ -> fail line "ld_crc expects , lut=")
      | Some (op, ty) when List.mem_assoc op binops -> (
          match split_commas rest with
          | [ a; b ] ->
              Ir.Binop
                {
                  op = List.assoc op binops;
                  ty;
                  dst;
                  a = parse_operand line a;
                  b = parse_operand line b;
                }
          | _ -> fail line "binary op expects 2 operands")
      | Some (op, ty) when List.mem_assoc op fbinops -> (
          match split_commas rest with
          | [ a; b ] ->
              Ir.Fbinop
                {
                  op = List.assoc op fbinops;
                  ty;
                  dst;
                  a = parse_operand line a;
                  b = parse_operand line b;
                }
          | _ -> fail line "fp binary op expects 2 operands")
      | Some (op, ty) when List.mem_assoc op funops ->
          Ir.Funop { op = List.assoc op funops; ty; dst; a = parse_operand line rest }
      | _ -> (
          (* icmp.<op>.<ty> / fcmp.<op>.<ty> *)
          match String.split_on_char '.' mnemonic with
          | [ "icmp"; op; ty ] -> (
              match split_commas rest with
              | [ a; b ] when List.mem_assoc op icmps ->
                  Ir.Icmp
                    {
                      op = List.assoc op icmps;
                      ty = parse_ty line ty;
                      dst;
                      a = parse_operand line a;
                      b = parse_operand line b;
                    }
              | _ -> fail line "bad icmp")
          | [ "fcmp"; op; ty ] -> (
              match split_commas rest with
              | [ a; b ] when List.mem_assoc op fcmps ->
                  Ir.Fcmp
                    {
                      op = List.assoc op fcmps;
                      ty = parse_ty line ty;
                      dst;
                      a = parse_operand line a;
                      b = parse_operand line b;
                    }
              | _ -> fail line "bad fcmp")
          | _ -> fail line "unknown instruction %S" rhs))

let parse_call line lhs rest =
  (* rest: "name(arg, arg)" *)
  match String.index_opt rest '(' with
  | None -> fail line "call expects arguments"
  | Some i ->
      let callee = strip (String.sub rest 0 i) in
      let args_s = String.sub rest (i + 1) (String.length rest - i - 2) in
      if rest.[String.length rest - 1] <> ')' then fail line "call missing )";
      let dsts =
        Array.of_list (List.map (parse_reg line) (split_commas lhs))
      in
      let args = Array.of_list (List.map (parse_operand line) (split_commas args_s)) in
      Ir.Call { callee; dsts; args }

(* One body line: instruction or terminator. *)
type parsed_line =
  | Instr of Ir.instr
  | Term of Ir.terminator

let parse_body_line line s =
  if starts_with ~prefix:"call " s then
    Instr (parse_call line "" (drop_prefix ~prefix:"call " s))
  else
  match split_on_string ~sep:" = " s with
  | [ lhs; rhs ] when strip rhs <> "" ->
      let rhs = strip rhs in
      if starts_with ~prefix:"call " rhs then
        Instr (parse_call line (strip lhs) (drop_prefix ~prefix:"call " rhs))
      else begin
        match split_commas lhs with
        | [ one ] -> Instr (parse_rhs line (parse_reg line one) rhs)
        | _ -> fail line "multiple destinations are only valid for call"
      end
  | _ -> (
      let mnemonic, rest = cut_mnemonic line s in
      match mnemonic with
      | "jmp" -> Term (Ir.Jmp (strip rest))
      | "br" -> (
          match split_commas rest with
          | [ c; l1; l2 ] -> Term (Ir.Br { cond = parse_operand line c; if_true = l1; if_false = l2 })
          | _ -> fail line "br expects cond, label, label")
      | "br_memo" -> (
          match split_commas rest with
          | [ l1; l2 ] -> Term (Ir.Br_memo { on_hit = l1; on_miss = l2 })
          | _ -> fail line "br_memo expects two labels")
      | "ret" ->
          Term (Ir.Ret (Array.of_list (List.map (parse_operand line) (split_commas rest))))
      | "store" -> fail line "store needs a type suffix"
      | "invalidate" -> Instr (Ir.Memo (Invalidate { lut = parse_kv line "lut" rest }))
      | "update" -> (
          match split_on_string ~sep:", lut=" rest with
          | [ src; lut_s ] -> (
              match int_of_string_opt (strip lut_s) with
              | Some lut -> Instr (Ir.Memo (Update { src = parse_operand line src; lut }))
              | None -> fail line "bad update lut")
          | _ -> fail line "update expects src, lut=N")
      | m when starts_with ~prefix:"store." m ->
          let ty = parse_ty line (drop_prefix ~prefix:"store." m) in
          (* rest: "src, [base + off]" *)
          (match split_on_string ~sep:", [" rest with
          | [ src; addr_tail ] ->
              let base, offset = parse_addr line ("[" ^ addr_tail) in
              Instr (Ir.Store { ty; src = parse_operand line src; base; offset })
          | _ -> fail line "store expects src, [base + off]")
      | m when starts_with ~prefix:"reg_crc." m -> (
          let ty = parse_ty line (drop_prefix ~prefix:"reg_crc." m) in
          match split_on_string ~sep:", lut=" rest with
          | [ src; tail ] -> (
              match split_on_string ~sep:", n=" tail with
              | [ lut_s; n_s ] -> (
                  match (int_of_string_opt (strip lut_s), int_of_string_opt (strip n_s)) with
                  | Some lut, Some trunc ->
                      Instr (Ir.Memo (Reg_crc { src = parse_operand line src; ty; lut; trunc }))
                  | _ -> fail line "bad reg_crc fields")
              | _ -> fail line "reg_crc expects , n=")
          | _ -> fail line "reg_crc expects , lut=")
      | _ -> fail line "cannot parse %S" s)

(* --- function / program structure --- *)

(* "pure func name(r0:f32) -> (f32) [regs=5]" *)
let parse_header line s =
  let pure, s =
    if starts_with ~prefix:"pure func " s then (true, drop_prefix ~prefix:"pure func " s)
    else if starts_with ~prefix:"func " s then (false, drop_prefix ~prefix:"func " s)
    else fail line "expected a function header, got %S" s
  in
  match String.index_opt s '(' with
  | None -> fail line "header missing ("
  | Some i -> (
      let fname = strip (String.sub s 0 i) in
      match String.index_opt s ')' with
      | None -> fail line "header missing )"
      | Some j ->
          let params_s = String.sub s (i + 1) (j - i - 1) in
          let params =
            split_commas params_s
            |> List.map (fun p ->
                   match String.split_on_char ':' p with
                   | [ r; ty ] -> (parse_reg line r, parse_ty line (strip ty))
                   | _ -> fail line "bad parameter %S" p)
            |> Array.of_list
          in
          let rest = strip (String.sub s (j + 1) (String.length s - j - 1)) in
          let rest =
            if starts_with ~prefix:"-> (" rest then drop_prefix ~prefix:"-> (" rest
            else fail line "header missing -> ("
          in
          (match String.index_opt rest ')' with
          | None -> fail line "header missing return )"
          | Some k ->
              let rets_s = String.sub rest 0 k in
              let ret_tys =
                Array.of_list (List.map (parse_ty line) (split_commas rets_s))
              in
              let tail = strip (String.sub rest (k + 1) (String.length rest - k - 1)) in
              let nregs =
                if starts_with ~prefix:"[regs=" tail && String.length tail > 7 then
                  match
                    int_of_string_opt (String.sub tail 6 (String.length tail - 7))
                  with
                  | Some n -> n
                  | None -> fail line "bad regs count"
                else fail line "header missing [regs=N]"
              in
              (pure, fname, params, ret_tys, nregs)))

type numbered = { num : int; text : string }

let parse_functions text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> { num = i + 1; text = l })
    |> List.filter (fun { text; _ } ->
           let t = strip text in
           t <> "" && not (starts_with ~prefix:"#" t))
  in
  let close_block num = function
    | None -> None
    | Some (label, instrs, Some term) ->
        Some { Ir.label; instrs = Array.of_list (List.rev instrs); term }
    | Some (label, _, None) -> fail num "block %s has no terminator" label
  in
  let rec funcs acc = function
    | [] -> List.rev acc
    | { num; text } :: rest ->
        let t = strip text in
        if starts_with ~prefix:"func " t || starts_with ~prefix:"pure func " t then begin
          let pure, fname, params, ret_tys, nregs = parse_header num t in
          let rec blocks blk_acc cur = function
            | { num; text } :: more
              when not
                     (starts_with ~prefix:"func " (strip text)
                     || starts_with ~prefix:"pure func " (strip text)) -> (
                let t = strip text in
                if String.length t > 1 && t.[String.length t - 1] = ':' then begin
                  (* a new block label closes the current block *)
                  let label = String.sub t 0 (String.length t - 1) in
                  let blk_acc =
                    match close_block num cur with
                    | Some b -> b :: blk_acc
                    | None -> blk_acc
                  in
                  blocks blk_acc (Some (label, [], None)) more
                end
                else begin
                  match cur with
                  | None -> fail num "instruction outside any block: %S" t
                  | Some (label, instrs, None) -> (
                      match parse_body_line num t with
                      | Instr i -> blocks blk_acc (Some (label, i :: instrs, None)) more
                      | Term term -> blocks blk_acc (Some (label, instrs, Some term)) more)
                  | Some (label, _, Some _) ->
                      fail num "unreachable code after terminator in block %s" label
                end)
            | remaining ->
                let last_num =
                  match remaining with { num; _ } :: _ -> num | [] -> num
                in
                let blk_acc =
                  match close_block last_num cur with
                  | Some b -> b :: blk_acc
                  | None -> blk_acc
                in
                (List.rev blk_acc, remaining)
          in
          let body, remaining = blocks [] None rest in
          let fn =
            {
              Ir.fname;
              params;
              ret_tys;
              blocks = Array.of_list body;
              nregs;
              pure;
            }
          in
          funcs (fn :: acc) remaining
        end
        else fail num "expected a function header, got %S" t
  in
  funcs [] lines

let parse_program text =
  match parse_functions text with
  | [] -> Error { line = 1; message = "empty program" }
  | funcs -> (
      let program = { Ir.funcs = Array.of_list funcs } in
      match Ir.validate program with
      | Ok () -> Ok program
      | Error errs ->
          Error { line = 0; message = "validation: " ^ String.concat "; " errs })
  | exception Parse (line, message) -> Error { line; message }

let roundtrip p = parse_program (Format.asprintf "%a" Ir.pp_program p)
