(* Tests for the in-order pipeline timing model. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Memory = Axmemo_ir.Memory
module Interp = Axmemo_ir.Interp
module Machine = Axmemo_cpu.Machine
module Pipeline = Axmemo_cpu.Pipeline
module Hierarchy = Axmemo_cache.Hierarchy

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
      ("properties", qsuite);
    ]
