(* Tests for the in-order pipeline timing model. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Interp = Axmemo_ir.Interp
module Machine = Axmemo_cpu.Machine
module Pipeline = Axmemo_cpu.Pipeline
module Hierarchy = Axmemo_cache.Hierarchy
module Timing = Axmemo_isa.Timing

let time ?lookup_level ?l2_lut_present fn args =
  let program = { Ir.funcs = [| fn |] } in
  let hierarchy = Hierarchy.(create hpi_default) in
  let pipe =
    Pipeline.create ?lookup_level ?l2_lut_present ~program ~hierarchy ()
  in
  let t = Interp.create ~hooks:(Pipeline.hooks pipe) ~program ~mem:(Memory.create ()) () in
  ignore (Interp.run t fn.Ir.fname args);
  Pipeline.stats pipe

let straightline name instrs nregs =
  {
    Ir.fname = name;
    params = [||];
    ret_tys = [||];
    nregs;
    pure = false;
    blocks = [| { Ir.label = "entry"; instrs = Array.of_list instrs; term = Ret [||] } |];
  }

let c0 = Ir.Const { dst = 0; ty = I32; value = VI 1L }

let test_dual_issue_independent () =
  (* 8 independent consts: at width 2 they issue in 4 cycles (+ ret). *)
  let instrs = List.init 8 (fun i -> Ir.Const { dst = i; ty = I32; value = VI 0L }) in
  let s = time (straightline "p" instrs 8) [||] in
  Alcotest.(check bool) "about 4-6 cycles" true (s.cycles >= 4 && s.cycles <= 6)

let test_dependent_chain_serializes () =
  (* A chain of 8 dependent adds must take at least 8 cycles. *)
  let instrs =
    c0
    :: List.init 8 (fun i ->
           Ir.Binop { op = Add; ty = I32; dst = i + 1; a = Reg i; b = Imm (VI 1L) })
  in
  let s = time (straightline "p" instrs 10) [||] in
  Alcotest.(check bool) "at least chain length" true (s.cycles >= 8)

let test_div_non_pipelined () =
  (* Two independent divisions on one divider: second waits for the first. *)
  let m = Machine.hpi in
  let instrs =
    [
      c0;
      Ir.Binop { op = Div; ty = I32; dst = 1; a = Imm (VI 100L); b = Reg 0 };
      Ir.Binop { op = Div; ty = I32; dst = 2; a = Imm (VI 200L); b = Reg 0 };
    ]
  in
  let s = time (straightline "p" instrs 3) [||] in
  Alcotest.(check bool) "at least 2x div latency" true (s.cycles >= 2 * m.lat_div)

let test_fp_pipelined () =
  (* Independent fp adds are pipelined: 8 of them take ~8 cycles, not 8x4. *)
  let instrs =
    List.init 8 (fun i ->
        Ir.Fbinop { op = Fadd; ty = F32; dst = i; a = Imm (VF 1.0); b = Imm (VF 2.0) })
  in
  let m = Machine.hpi in
  let s = time (straightline "p" instrs 8) [||] in
  Alcotest.(check bool) "pipelined" true (s.cycles < 8 * m.lat_fp)

let test_load_use_latency () =
  (* load followed by dependent add: cold DRAM miss dominates. *)
  let instrs =
    [
      Ir.Const { dst = 0; ty = I64; value = VI 0L };
      Ir.Load { ty = I32; dst = 1; base = Reg 0; offset = 0 };
      Ir.Binop { op = Add; ty = I32; dst = 2; a = Reg 1; b = Imm (VI 1L) };
    ]
  in
  let s = time (straightline "p" instrs 3) [||] in
  let cfg = Hierarchy.hpi_default in
  Alcotest.(check bool) "cold miss latency visible" true
    (s.cycles >= cfg.dram_latency)

let test_class_counts () =
  let instrs =
    [
      c0;
      Ir.Binop { op = Mul; ty = I32; dst = 1; a = Reg 0; b = Reg 0 };
      Ir.Fbinop { op = Fadd; ty = F32; dst = 2; a = Imm (VF 1.0); b = Imm (VF 1.0) };
      Ir.Store { ty = I32; src = Reg 0; base = Imm (VI 0L); offset = 0 };
    ]
  in
  let s = time (straightline "p" instrs 3) [||] in
  let count cls = List.assoc cls s.per_class in
  Alcotest.(check int) "ialu (const)" 1 (count Pipeline.C_ialu);
  Alcotest.(check int) "imul" 1 (count Pipeline.C_imul);
  Alcotest.(check int) "fp" 1 (count Pipeline.C_fp);
  Alcotest.(check int) "store" 1 (count Pipeline.C_store);
  Alcotest.(check int) "ret counted" 1 (count Pipeline.C_call_ret);
  Alcotest.(check int) "memo none" 0 (count Pipeline.C_memo_lookup)

let test_memo_instruction_accounting () =
  let instrs =
    [
      Ir.Memo (Reg_crc { src = Imm (VI 1L); ty = I32; lut = 0; trunc = 0 });
      Ir.Memo (Lookup { dst = 0; lut = 0 });
      Ir.Memo (Update { src = Imm (VI 0L); lut = 0 });
      Ir.Memo (Invalidate { lut = 0 });
    ]
  in
  let s = time (straightline "p" instrs 1) [||] in
  Alcotest.(check int) "memo dyn count" 4 s.dyn_memo;
  (* ret only *)
  Alcotest.(check int) "normal dyn count" 1 s.dyn_normal

let test_lookup_waits_for_crc () =
  (* Streaming many bytes then looking up: the lookup latency must cover the
     CRC drain time. *)
  let sends =
    List.init 16 (fun _ ->
        Ir.Memo (Reg_crc { src = Imm (VI 1L); ty = I64; lut = 0; trunc = 0 }))
  in
  let instrs = sends @ [ Ir.Memo (Lookup { dst = 0; lut = 0 }) ] in
  let s = time (straightline "p" instrs 1) [||] in
  (* 128 bytes at 4 B/cycle = 32 cycles minimum before lookup completes. *)
  Alcotest.(check bool) "crc throughput respected" true (s.cycles >= 32)

let test_lookup_latency_levels () =
  let mk level =
    let instrs =
      [
        Ir.Memo (Reg_crc { src = Imm (VI 1L); ty = I32; lut = 0; trunc = 0 });
        Ir.Memo (Lookup { dst = 0; lut = 0 });
        (* Dependent use forces the latency to be visible. *)
        Ir.Binop { op = Add; ty = I64; dst = 0; a = Reg 0; b = Imm (VI 1L) };
      ]
    in
    let s =
      time ~lookup_level:(fun () -> level) ~l2_lut_present:true
        (straightline "p" instrs 1) [||]
    in
    s.cycles
  in
  Alcotest.(check bool) "L2 hit slower than L1 hit" true (mk `L2 > mk `L1)

let test_crc_queue_backpressure () =
  (* At 1 B/cycle, flooding 16 x 8-byte sends overruns the 32-byte queue and
     must be recorded as stall cycles; at 4 B/cycle the same burst fits. *)
  let sends =
    List.init 16 (fun _ ->
        Ir.Memo (Reg_crc { src = Imm (VI 1L); ty = I64; lut = 0; trunc = 0 }))
  in
  let fn = straightline "p" sends 1 in
  let run bpc =
    let program = { Ir.funcs = [| fn |] } in
    let hierarchy = Hierarchy.(create hpi_default) in
    let pipe = Pipeline.create ~crc_bytes_per_cycle:bpc ~program ~hierarchy () in
    let t = Interp.create ~hooks:(Pipeline.hooks pipe) ~program ~mem:(Memory.create ()) () in
    ignore (Interp.run t "p" [||]);
    Pipeline.stats pipe
  in
  let serial = run 1 and unrolled = run 4 in
  Alcotest.(check bool) "serial unit stalls the core" true (serial.crc_stall_cycles > 0);
  Alcotest.(check bool) "unrolled unit stalls less" true
    (unrolled.crc_stall_cycles < serial.crc_stall_cycles);
  Alcotest.(check bool) "serial run is slower" true (serial.cycles > unrolled.cycles)

let test_call_ret_timing_and_count () =
  let callee =
    let b = B.create ~name:"g" ~pure:true ~params:[ Ir.I32 ] ~rets:[ Ir.I32 ] () in
    B.ret b [ B.addi b (B.param b 0) (B.i32 1) ];
    B.finish b
  in
  let main =
    let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.I32 ] () in
    match B.call b "g" ~rets:1 [ B.i32 1 ] with
    | [ r ] ->
        B.ret b [ r ];
        B.finish b
    | _ -> assert false
  in
  let program = { Ir.funcs = [| main; callee |] } in
  let hierarchy = Hierarchy.(create hpi_default) in
  let pipe = Pipeline.create ~program ~hierarchy () in
  let t = Interp.create ~hooks:(Pipeline.hooks pipe) ~program ~mem:(Memory.create ()) () in
  ignore (Interp.run t "main" [||]);
  let s = Pipeline.stats pipe in
  (* bl + two rets *)
  Alcotest.(check int) "call/ret events" 3 (List.assoc Pipeline.C_call_ret s.per_class);
  Alcotest.(check bool) "cycles positive" true (s.cycles > 0)

let test_seconds () =
  let s = time (straightline "p" [ c0 ] 1) [||] in
  ignore s;
  let program = { Ir.funcs = [| straightline "p" [ c0 ] 1 |] } in
  let hierarchy = Hierarchy.(create hpi_default) in
  let pipe = Pipeline.create ~program ~hierarchy () in
  let t = Interp.create ~hooks:(Pipeline.hooks pipe) ~program ~mem:(Memory.create ()) () in
  ignore (Interp.run t "p" [||]);
  Alcotest.(check bool) "seconds = cycles/freq" true
    (abs_float (Pipeline.seconds pipe -. (float_of_int (Pipeline.cycles pipe) /. 2e9))
     < 1e-12)

(* ---- exact timing reference ------------------------------------------

   One short program per arm of the timing model's instruction and
   terminator sites. Every expected cycle count is derived by hand from
   [Machine.hpi], [Hierarchy.hpi_default] and [Timing], never from a
   recorded run, and every case runs on both execution backends. The
   model's rules used below: an instruction issues once its sources are
   ready, at most [issue_width] per cycle, on the earliest-free unit of its
   pool, which stays busy for one cycle when pipelined and for the full
   latency when not; [cycles] is the later of the last issue cycle and the
   last completion. *)

let m = Machine.hpi
let cache = Hierarchy.hpi_default
let i64 v = Ir.Imm (VI (Int64.of_int v))
let f64 v = Ir.Imm (VF v)

let block label instrs term = { Ir.label; instrs = Array.of_list instrs; term }

(* returns as many I64 results as its first block's [Ret] names *)
let func ?(params = [||]) name nregs blocks =
  let ret_tys =
    List.find_map (fun (b : Ir.block) -> match b.term with Ret ops -> Some ops | _ -> None) blocks
    |> Option.fold ~none:[||] ~some:(Array.map (fun _ -> Ir.I64))
  in
  { Ir.fname = name; params; ret_tys; nregs; pure = false; blocks = Array.of_list blocks }

type timing_case = {
  name : string;
  funcs : Ir.func list;  (* the first one is run *)
  lookup_level : [ `L1 | `L2 | `L3 | `Miss ];
  l2_lut : bool;
  l3_cycles : int;  (* DRAM cost charged per lookup that reaches the tier *)
  l1_ways : int;
  cycles : int;
  counts : (Pipeline.instr_class * int) list;  (* every other class is 0 *)
}

let case ?(lookup_level = `Miss) ?(l2_lut = false) ?(l3_cycles = 0) ?(l1_ways = 4) name
    funcs ~cycles counts =
  { name; funcs; lookup_level; l2_lut; l3_cycles; l1_ways; cycles; counts }

(* Two independent instances of a functional-unit instruction, then a
   return reading both results. The second issues in cycle 0 when the pool
   has a second unit, otherwise once the first frees the unit ([busy]);
   it completes [latency] later, and the return issues then. *)
let fu_pair name mk cls ~units ~latency ~busy =
  let second = if units >= 2 then 0 else busy in
  case name
    [ func "p" 2 [ block "entry" [ mk 0; mk 1 ] (Ret [| Reg 0; Reg 1 |]) ] ]
    ~cycles:(second + latency)
    [ (cls, 2); (Pipeline.C_call_ret, 1) ]

let fu_cases =
  let ialu = Pipeline.C_ialu and fp = Pipeline.C_fp in
  let bin op dst = Ir.Binop { op; ty = I64; dst; a = i64 84; b = i64 2 } in
  let fbin op dst = Ir.Fbinop { op; ty = F64; dst; a = f64 9.0; b = f64 2.0 } in
  let fun1 op dst = Ir.Funop { op; ty = F64; dst; a = f64 0.5 } in
  let alu = fu_pair ~units:m.n_alu ~latency:m.lat_alu ~busy:1 in
  let fpu = fu_pair ~units:m.n_fpu ~latency:m.lat_fp ~busy:1 in
  [
    alu "const" (fun dst -> Ir.Const { dst; ty = I64; value = VI 1L }) ialu;
    alu "mov" (fun dst -> Ir.Mov { dst; src = i64 1 }) ialu;
    alu "select"
      (fun dst -> Ir.Select { dst; cond = i64 1; if_true = i64 2; if_false = i64 3 })
      ialu;
    alu "add" (bin Add) ialu;
    alu "icmp" (fun dst -> Ir.Icmp { op = Ilt; ty = I64; dst; a = i64 1; b = i64 2 }) ialu;
    alu "bit cast" (fun dst -> Ir.Cast { op = Bits_of_f64; dst; src = f64 1.0 }) ialu;
    fu_pair "mul" (bin Mul) Pipeline.C_imul ~units:m.n_mul ~latency:m.lat_mul ~busy:1;
    (* the divider is not pipelined *)
    fu_pair "div" (bin Div) Pipeline.C_idiv ~units:m.n_div ~latency:m.lat_div
      ~busy:m.lat_div;
    fu_pair "rem" (bin Rem) Pipeline.C_idiv ~units:m.n_div ~latency:m.lat_div
      ~busy:m.lat_div;
    fpu "fadd" (fbin Fadd) fp;
    fpu "fneg" (fun1 Fneg) fp;
    fpu "fcmp" (fun dst -> Ir.Fcmp { op = Flt; ty = F64; dst; a = f64 1.0; b = f64 2.0 }) fp;
    fpu "int to float" (fun dst -> Ir.Cast { op = I_to_f; dst; src = i64 3 }) fp;
    (* fdiv, fsqrt and the transcendental unit hold the FPU for their whole
       latency *)
    fu_pair "fdiv" (fbin Fdiv) Pipeline.C_fdiv_sqrt ~units:m.n_fpu ~latency:m.lat_fdiv
      ~busy:m.lat_fdiv;
    fu_pair "fsqrt" (fun1 Fsqrt) Pipeline.C_fdiv_sqrt ~units:m.n_fpu
      ~latency:m.lat_fsqrt ~busy:m.lat_fsqrt;
    fu_pair "fsin" (fun1 Fsin) Pipeline.C_ftrig ~units:m.n_fpu ~latency:m.lat_ftrig
      ~busy:m.lat_ftrig;
    fu_pair "fexp" (fun1 Fexp) Pipeline.C_ftrig ~units:m.n_fpu ~latency:m.lat_ftrig
      ~busy:m.lat_ftrig;
  ]

(* A cold read misses both cache levels; the line is then an L1 hit. *)
let cold_read = cache.l1_latency + cache.l2_latency + cache.dram_latency

(* The store-buffer cost the hierarchy charges a store, hit or miss. *)
let store_cost = Hierarchy.write (Hierarchy.create cache) ~addr:64

let crc_cycles bytes = (bytes + Timing.crc_bytes_per_cycle - 1) / Timing.crc_bytes_per_cycle

let memory_cases =
  [
    (* The second load's base is the first load's result (0 in fresh
       memory), so it issues when the cold miss completes and hits L1. *)
    case "load"
      [
        func "p" 2
          [
            block "entry"
              [
                Ir.Load { ty = I64; dst = 0; base = i64 64; offset = 0 };
                Ir.Load { ty = I64; dst = 1; base = Reg 0; offset = 64 };
              ]
              (Ret [| Reg 1 |]);
          ];
      ]
      ~cycles:(cold_read + cache.l1_latency)
      [ (C_load, 2); (C_call_ret, 1) ];
    (* One load/store unit, held by each store for its store-buffer cost. *)
    case "store"
      [
        func "p" 0
          [
            block "entry"
              [
                Ir.Store { ty = I64; src = i64 1; base = i64 64; offset = 0 };
                Ir.Store { ty = I64; src = i64 2; base = i64 128; offset = 0 };
              ]
              (Ret [||]);
          ];
      ]
      ~cycles:(2 * store_cost)
      [ (C_store, 2); (C_call_ret, 1) ];
    (* The call issues once its argument is ready; the callee's registers
       are ready from then on, and the caller's result is ready when the
       callee's return has its operand. *)
    case "call"
      [
        func "main" 2
          [
            block "entry"
              [
                Ir.Binop { op = Mul; ty = I64; dst = 0; a = i64 2; b = i64 3 };
                Ir.Call { callee = "g"; dsts = [| 1 |]; args = [| Reg 0 |] };
              ]
              (Ret [| Reg 1 |]);
          ];
        func "g" 2 ~params:[| (0, Ir.I64) |]
          [
            block "entry"
              [ Ir.Binop { op = Mul; ty = I64; dst = 1; a = Reg 0; b = Reg 0 } ]
              (Ret [| Reg 1 |]);
          ];
      ]
      ~cycles:(2 * m.lat_mul)
      [ (C_imul, 2); (C_call_ret, 3) ];
  ]

(* A reg_crc of one I64, then a lookup reading the result: the bytes reach
   the CRC queue one cycle after issue and drain at [crc_bytes_per_cycle];
   the lookup waits for the drain, then takes its level's latency. *)
let lookup_case ?l2_lut ?l3_cycles level name ~latency =
  case ~lookup_level:level ?l2_lut ?l3_cycles name
    [
      func "p" 1
        [
          block "entry"
            [
              Ir.Memo (Reg_crc { src = i64 7; ty = I64; lut = 0; trunc = 0 });
              Ir.Memo (Lookup { dst = 0; lut = 0 });
            ]
            (Ret [| Reg 0 |]);
        ];
    ]
    ~cycles:(1 + crc_cycles 8 + latency)
    [ (C_memo_send, 1); (C_memo_lookup, 1); (C_call_ret, 1) ]

let memo_cases =
  let l1 = Timing.lookup_l1_cycles and l2 = Timing.lookup_l2_cycles in
  let dram = Timing.l3_row_hit_cycles in
  [
    lookup_case `L1 "lookup L1 hit" ~latency:l1;
    lookup_case ~l2_lut:true `L2 "lookup L2 hit" ~latency:(l1 + l2);
    lookup_case ~l2_lut:true ~l3_cycles:dram `L3 "lookup L3 hit" ~latency:(l1 + l2 + dram);
    lookup_case `Miss "lookup miss, L1 only" ~latency:l1;
    lookup_case ~l2_lut:true `Miss "lookup miss, L1+L2" ~latency:(l1 + l2);
    lookup_case ~l2_lut:true ~l3_cycles:dram `Miss "lookup miss through the tier"
      ~latency:(l1 + l2 + dram);
    (* ld_crc is a load whose value enters the CRC queue when it arrives *)
    case ~lookup_level:`L1 "ld_crc"
      [
        func "p" 2
          [
            block "entry"
              [
                Ir.Memo
                  (Ld_crc { dst = 0; ty = I32; base = i64 64; offset = 0; lut = 0; trunc = 0 });
                Ir.Memo (Lookup { dst = 1; lut = 0 });
              ]
              (Ret [| Reg 1 |]);
          ];
      ]
      ~cycles:(cold_read + crc_cycles 4 + l1)
      [ (C_load, 1); (C_memo_lookup, 1); (C_call_ret, 1) ];
    (* each update holds the memo port for [update_cycles] *)
    case "update"
      [
        func "p" 0
          [
            block "entry"
              [
                Ir.Memo (Update { src = i64 1; lut = 0 });
                Ir.Memo (Update { src = i64 2; lut = 0 });
              ]
              (Ret [||]);
          ];
      ]
      ~cycles:(2 * Timing.update_cycles)
      [ (C_memo_update, 2); (C_call_ret, 1) ];
    (* an invalidate walks every L1 LUT way and stalls issue meanwhile *)
    case ~l1_ways:8 "invalidate"
      [
        func "p" 1
          [
            block "entry"
              [
                Ir.Memo (Invalidate { lut = 0 });
                Ir.Const { dst = 0; ty = I64; value = VI 1L };
              ]
              (Ret [| Reg 0 |]);
          ];
      ]
      ~cycles:((8 * Timing.invalidate_cycles_per_way) + m.lat_alu)
      [ (C_memo_invalidate, 1); (C_ialu, 1); (C_call_ret, 1) ];
  ]

let term_cases =
  [
    (* three terminators share issue slots: the third issues in cycle 1 *)
    case "jmp"
      [
        func "p" 0
          [
            block "a" [] (Jmp "b");
            block "b" [] (Jmp "c");
            block "c" [] (Ret [||]);
          ];
      ]
      ~cycles:((3 - 1) / m.issue_width)
      [ (C_branch, 2); (C_call_ret, 1) ];
    (* a branch issues once its condition is ready; what follows it waits *)
    case "br on a register"
      [
        func "p" 2
          [
            block "entry"
              [ Ir.Binop { op = Mul; ty = I64; dst = 0; a = i64 2; b = i64 3 } ]
              (Br { cond = Reg 0; if_true = "t"; if_false = "f" });
            block "t" [ Ir.Const { dst = 1; ty = I64; value = VI 1L } ] (Ret [| Reg 1 |]);
            block "f" [ Ir.Const { dst = 1; ty = I64; value = VI 2L } ] (Ret [| Reg 1 |]);
          ];
      ]
      ~cycles:(m.lat_mul + m.lat_alu)
      [ (C_imul, 1); (C_branch, 1); (C_ialu, 1); (C_call_ret, 1) ];
    (* a branch on an immediate is ready at once: it shares cycle 0 *)
    case "br on an immediate"
      [
        func "p" 2
          [
            block "entry"
              [ Ir.Const { dst = 0; ty = I64; value = VI 1L } ]
              (Br { cond = i64 1; if_true = "t"; if_false = "f" });
            block "t" [ Ir.Const { dst = 1; ty = I64; value = VI 1L } ] (Ret [| Reg 1 |]);
            block "f" [ Ir.Const { dst = 1; ty = I64; value = VI 2L } ] (Ret [| Reg 1 |]);
          ];
      ]
      ~cycles:(1 + m.lat_alu)
      [ (C_ialu, 2); (C_branch, 1); (C_call_ret, 1) ];
    (* the memo branch consumes the lookup's condition code *)
    case ~lookup_level:`L2 ~l2_lut:true "br_memo"
      [
        func "p" 2
          [
            block "entry"
              [ Ir.Memo (Lookup { dst = 0; lut = 0 }) ]
              (Br_memo { on_hit = "hit"; on_miss = "miss" });
            block "hit" [ Ir.Const { dst = 1; ty = I64; value = VI 1L } ] (Ret [| Reg 1 |]);
            block "miss" [ Ir.Const { dst = 1; ty = I64; value = VI 2L } ] (Ret [| Reg 1 |]);
          ];
      ]
      ~cycles:(Timing.lookup_l1_cycles + Timing.lookup_l2_cycles + m.lat_alu)
      [ (C_memo_lookup, 1); (C_memo_branch, 1); (C_ialu, 1); (C_call_ret, 1) ];
    (* a return issues once its operands are ready *)
    case "ret"
      [
        func "p" 1
          [
            block "entry"
              [ Ir.Binop { op = Mul; ty = I64; dst = 0; a = i64 2; b = i64 3 } ]
              (Ret [| Reg 0 |]);
          ];
      ]
      ~cycles:m.lat_mul
      [ (C_imul, 1); (C_call_ret, 1) ];
    (* eight independent instructions fill four cycles at width 2; the
       return takes the next slot *)
    case "dual issue"
      [
        func "p" 8
          [
            block "entry"
              (List.init 8 (fun dst -> Ir.Const { dst; ty = I64; value = VI 0L }))
              (Ret [||]);
          ];
      ]
      ~cycles:(8 / m.issue_width)
      [ (C_ialu, 8); (C_call_ret, 1) ];
  ]

let is_memo_class (c : Pipeline.instr_class) =
  match c with
  | C_memo_send | C_memo_lookup | C_memo_update | C_memo_invalidate | C_memo_branch -> true
  | _ -> false

let check_exact c backend () =
  let program = { Ir.funcs = Array.of_list c.funcs } in
  let pipe =
    Pipeline.create
      ~lookup_level:(fun () -> c.lookup_level)
      ~l2_lut_present:c.l2_lut
      ~l3_lookup_cycles:(fun () -> c.l3_cycles)
      ~l1_lut_ways:c.l1_ways ~program ~hierarchy:(Hierarchy.create cache) ()
  in
  let t =
    Interp.create ~backend ~hooks:(Pipeline.hooks pipe) ~program ~mem:(Memory.create ()) ()
  in
  ignore (Interp.run t (List.hd c.funcs).fname [||]);
  let s = Pipeline.stats pipe in
  let expected =
    List.map
      (fun cls -> (Pipeline.class_name cls, Option.value ~default:0 (List.assoc_opt cls c.counts)))
      Pipeline.all_classes
  in
  Alcotest.(check int) "cycles" c.cycles s.cycles;
  Alcotest.(check (list (pair string int)))
    "per-class counts" expected
    (List.map (fun (cls, n) -> (Pipeline.class_name cls, n)) s.per_class);
  let sum memo =
    List.fold_left (fun acc (cls, n) -> if is_memo_class cls = memo then acc + n else acc) 0 c.counts
  in
  Alcotest.(check int) "dyn_normal" (sum false) s.dyn_normal;
  Alcotest.(check int) "dyn_memo" (sum true) s.dyn_memo;
  Alcotest.(check int) "no crc stall" 0 s.crc_stall_cycles

let exact_suite =
  List.concat_map
    (fun c ->
      List.map
        (fun (tag, backend) ->
          Alcotest.test_case (Printf.sprintf "%s (%s)" c.name tag) `Quick (check_exact c backend))
        [ ("compiled", `Compiled); ("interp", `Interp) ])
    (fu_cases @ memory_cases @ memo_cases @ term_cases)

let prop_cycles_monotone_in_work =
  QCheck.Test.make ~name:"more instructions never reduce cycles" ~count:50
    (QCheck.int_range 1 50) (fun n ->
      let mk n =
        let instrs =
          c0
          :: List.init n (fun i ->
                 Ir.Binop { op = Add; ty = I32; dst = 0; a = Reg 0; b = Imm (VI (Int64.of_int i)) })
        in
        (time (straightline "p" instrs 1) [||]).cycles
      in
      mk (n + 1) >= mk n)

let prop_dyn_counts_match_instruction_count =
  QCheck.Test.make ~name:"dyn_normal counts every instruction" ~count:50
    (QCheck.int_range 0 40) (fun n ->
      let instrs = List.init n (fun i -> Ir.Const { dst = 0; ty = I32; value = VI (Int64.of_int i) }) in
      let s = time (straightline "p" instrs 1) [||] in
      (* n consts + 1 ret *)
      s.dyn_normal = n + 1 && s.dyn_memo = 0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cycles_monotone_in_work; prop_dyn_counts_match_instruction_count ]

let () =
  Alcotest.run "cpu"
    [
      ( "issue",
        [
          Alcotest.test_case "dual issue" `Quick test_dual_issue_independent;
          Alcotest.test_case "dependent chain" `Quick test_dependent_chain_serializes;
          Alcotest.test_case "div non-pipelined" `Quick test_div_non_pipelined;
          Alcotest.test_case "fp pipelined" `Quick test_fp_pipelined;
          Alcotest.test_case "load-use latency" `Quick test_load_use_latency;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "class counts" `Quick test_class_counts;
          Alcotest.test_case "memo accounting" `Quick test_memo_instruction_accounting;
          Alcotest.test_case "call/ret" `Quick test_call_ret_timing_and_count;
          Alcotest.test_case "seconds" `Quick test_seconds;
        ] );
      ( "memo timing",
        [
          Alcotest.test_case "lookup waits for crc" `Quick test_lookup_waits_for_crc;
          Alcotest.test_case "queue backpressure" `Quick test_crc_queue_backpressure;
          Alcotest.test_case "lookup latency levels" `Quick test_lookup_latency_levels;
        ] );
      ("exact timing", exact_suite);
      ("properties", qsuite);
    ]
