(* Backend equivalence: the compiled closure-chain backend must be pinned
   bit-identical to the reference interpreter — same outputs, same [steps],
   same event sequence, and byte-identical telemetry/profile reports — on
   every field except [sim_wall_seconds]. *)

module Ir = Axmemo_ir.Ir
module B = Axmemo_ir.Builder
module Interp = Axmemo_ir.Interp
module Memory = Axmemo_ir.Memory
module Rng = Axmemo_util.Rng
module Json = Axmemo_util.Json
module W = Axmemo_workloads
module Runner = Axmemo.Runner
module Registry = Axmemo_telemetry.Registry
module Profile = Axmemo_obs.Profile
module Pipeline = Axmemo_cpu.Pipeline
module Hierarchy = Axmemo_cache.Hierarchy

(* ---- random Builder programs -------------------------------------------

   Programs mix integer arithmetic, comparisons, selects, loads/stores at
   small immediate addresses, a helper call, and structured control flow
   (if_/for_loop) — every construct both backends must agree on, minus the
   partial ones (division, floats are covered by the workload suite). *)

let safe_ops = [| Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Shl |]
let cmps = [| Ir.Ieq; Ir.Ine; Ir.Ilt; Ir.Ile; Ir.Igt; Ir.Ige |]

(* Pick a previously defined value (or a constant when asked for spice). *)
let operand rng pool =
  if Rng.int rng 4 = 0 then B.i32 (Rng.int rng 2000 - 1000)
  else pool.(Rng.int rng (Array.length pool))

let build_helper rng =
  let b = B.create ~name:"helper" ~pure:true ~params:[ Ir.I32; Ir.I32 ] ~rets:[ Ir.I32 ] () in
  let v = ref (B.binop b (Rng.choose rng safe_ops) I32 (B.param b 0) (B.param b 1)) in
  for _ = 1 to Rng.int rng 4 do
    v := B.binop b (Rng.choose rng safe_ops) I32 !v (operand rng [| B.param b 0; B.param b 1 |])
  done;
  B.ret b [ !v ];
  B.finish b

let build_main rng =
  let b = B.create ~name:"main" ~params:[ Ir.I32 ] ~rets:[ Ir.I32 ] () in
  let pool = ref [| B.param b 0 |] in
  let push v = pool := Array.append !pool [| v |] in
  let emit_random () =
    let a = operand rng !pool and c = operand rng !pool in
    push (B.binop b (Rng.choose rng safe_ops) I32 a c)
  in
  (* seed a few values and a few memory cells *)
  for _ = 1 to 2 + Rng.int rng 3 do
    emit_random ()
  done;
  for i = 0 to 3 do
    B.store b I32 ~src:(operand rng !pool) ~base:(B.i32 (i * 8)) ~offset:0
  done;
  push (B.load b I32 (B.i32 (8 * Rng.int rng 4)) 0);
  (* a conditional: both arms write the same fresh register *)
  let cond = B.icmp b (Rng.choose rng cmps) I32 (operand rng !pool) (operand rng !pool) in
  let merged = B.fresh b in
  B.if_ b cond
    ~then_:(fun () -> B.mov b merged (B.binop b Add I32 (operand rng !pool) (B.i32 7)))
    ~else_:(fun () -> B.mov b merged (B.binop b Xor I32 (operand rng !pool) (B.i32 13)));
  push (B.rv merged);
  push (B.select b cond (operand rng !pool) (operand rng !pool));
  (* a counted loop accumulating through memory *)
  let acc = B.fresh b in
  B.mov b acc (operand rng !pool);
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 (1 + Rng.int rng 6)) (fun i ->
      let base = B.binop b Mul I32 i (B.i32 8) in
      let m = B.load b I32 base 0 in
      B.mov b acc (B.binop b Add I32 (B.rv acc) m);
      B.store b I32 ~src:(B.rv acc) ~base ~offset:0);
  push (B.rv acc);
  (* call the helper and fold its result in *)
  (match B.call b "helper" ~rets:1 [ operand rng !pool; operand rng !pool ] with
  | [ r ] -> push r
  | _ -> assert false);
  let ret = B.binop b Xor I32 (operand rng !pool) (operand rng !pool) in
  B.ret b [ ret ];
  B.finish b

let build_program seed =
  let rng = Rng.create seed in
  let helper = build_helper rng in
  let main = build_main rng in
  { Ir.funcs = [| main; helper |] }

(* Everything an observer sees, one constructor per hook callback. *)
type event =
  | Enter of string
  | Leave of string
  | Exec of string * int * int * Ir.instr * int
  | Term of string * int * Ir.terminator

(* A static site: instruction [iidx] of block [bidx], or its terminator. *)
type site = Instr of string * int * int | Terminator of string * int

(* Records every executed event in order and, in [compiled], every site
   compilation. *)
let recording ?(compiled = ref []) events =
  let push e = events := e :: !events in
  {
    Interp.on_enter = (fun f -> push (Enter f));
    on_leave = (fun f -> push (Leave f));
    exec_site =
      (fun f bidx iidx instr ->
        compiled := Instr (f, bidx, iidx) :: !compiled;
        fun addr -> push (Exec (f, bidx, iidx, instr, addr)));
    term_site =
      (fun f bidx term ->
        compiled := Terminator (f, bidx) :: !compiled;
        fun () -> push (Term (f, bidx, term)));
  }

(* One backend's view of a run: results, step count, full event trace. *)
let observe backend program arg =
  let events = ref [] in
  let mem = Memory.create () in
  let i = Interp.create ~backend ~hooks:(recording events) ~program ~mem () in
  let out = Interp.run i "main" [| Ir.VI (Int64.of_int arg) |] in
  (out, Interp.steps i, List.rev !events)

let prop_backends_agree =
  QCheck.Test.make ~name:"compiled = interp on random programs" ~count:150
    QCheck.(pair int64 (int_bound 10_000))
    (fun (seed, arg) ->
      let program = build_program seed in
      observe `Compiled program arg = observe `Interp program arg)

(* ---- site resolution ---------------------------------------------------

   Both backends compile every hook site at [create], exactly once per
   static instruction and terminator, and running compiles nothing more —
   also through [combine_hooks], which must resolve each side once. *)

let static_sites (program : Ir.program) =
  Array.to_list program.funcs
  |> List.concat_map (fun (f : Ir.func) ->
         Array.to_list f.blocks
         |> List.mapi (fun bidx (b : Ir.block) ->
                Terminator (f.fname, bidx)
                :: List.init (Array.length b.instrs) (fun iidx -> Instr (f.fname, bidx, iidx)))
         |> List.concat)
  |> List.sort compare

let prop_sites_resolved_once =
  QCheck.Test.make ~name:"each site compiled once, at create" ~count:40
    QCheck.(pair int64 (int_bound 10_000))
    (fun (seed, arg) ->
      let program = build_program seed in
      let expected = static_sites program in
      List.for_all
        (fun backend ->
          let first = ref [] and second = ref [] and events = ref [] in
          let hooks =
            Interp.combine_hooks
              (recording ~compiled:first events)
              (recording ~compiled:second (ref []))
          in
          let i = Interp.create ~backend ~hooks ~program ~mem:(Memory.create ()) () in
          let at_create = (List.sort compare !first, List.sort compare !second) in
          ignore (Interp.run i "main" [| Ir.VI (Int64.of_int arg) |]);
          at_create = (expected, expected)
          && List.length !first = List.length expected
          && List.length !second = List.length expected
          && !events <> [])
        [ `Compiled; `Interp ])

(* ---- failure parity ---------------------------------------------------- *)

let outcome f =
  match f () with
  | _ -> "no failure"
  | exception Failure msg -> "Failure: " ^ msg
  | exception Invalid_argument msg -> "Invalid_argument: " ^ msg

(* One run to the failure: its outcome, [Interp.steps], the events an
   observer saw and, on a hooked run, the timing model's stats. A hooked
   run attaches [Pipeline.hooks] ahead of the recorder, so a site the
   timing model fails on is never recorded. *)
let failing_run ?max_steps ~hooked backend program =
  let events = ref [] in
  let pipe =
    if hooked then
      Some (Pipeline.create ~program ~hierarchy:(Hierarchy.create Hierarchy.hpi_default) ())
    else None
  in
  let hooks =
    Option.map
      (fun p -> Interp.combine_hooks (Pipeline.hooks p) (recording events))
      pipe
  in
  let i = Interp.create ?hooks ?max_steps ~backend ~program ~mem:(Memory.create ()) () in
  let o = outcome (fun () -> Interp.run i "main" [||]) in
  (o, Interp.steps i, List.rev !events, Option.map Pipeline.stats pipe)

let check_failure_parity ?max_steps name expected program =
  List.iter
    (fun hooked ->
      let ((oc, sc, _, _) as c) = failing_run ?max_steps ~hooked `Compiled program
      and i = failing_run ?max_steps ~hooked `Interp program in
      Alcotest.(check bool) (name ^ ": same failure, step, events and timing") true (c = i);
      Alcotest.(check string) (name ^ ": message") expected oc;
      Alcotest.(check bool) (name ^ ": fails after the prelude") true (sc > 2))
    [ false; true ]

(* Two instructions of prelude, so the failing step is not the first. *)
let prelude b = B.addi b (B.addi b (B.i32 1) (B.i32 2)) (B.i32 3)

let test_division_by_zero_parity () =
  let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.I32 ] () in
  let x = B.addi b (B.i32 5) (B.i32 5) in
  B.ret b [ B.binop b Div I32 x (B.subi b x x) ];
  check_failure_parity "division by zero" "Failure: Interp: division by zero"
    { Ir.funcs = [| B.finish b |] }

let test_step_limit_parity () =
  let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.I32 ] () in
  let acc = B.fresh b in
  B.mov b acc (B.i32 0);
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 1000) (fun i ->
      B.mov b acc (B.addi b (B.rv acc) i));
  B.ret b [ B.rv acc ];
  check_failure_parity ~max_steps:100 "step limit" "Failure: Interp: step limit exceeded"
    { Ir.funcs = [| B.finish b |] }

(* ---- full-suite bit-identity ------------------------------------------

   Every registered workload, simulated end to end under telemetry and under
   the profiled matrix, must produce byte-identical reports across backends
   — [sim_wall_seconds] is the one field outside the contract. *)

let norm (r : Runner.result) = { r with Runner.sim_wall_seconds = 0.0 }

let test_workloads_telemetry_identical () =
  List.iter
    (fun ((m : W.Workload.meta), make) ->
      let run backend =
        let reg = Registry.create () in
        let r = Runner.run ~backend ~metrics:reg Runner.l1_8k (make W.Workload.Sample) in
        (r, Registry.snapshot reg)
      in
      let rc, sc = run `Compiled and ri, si = run `Interp in
      Alcotest.(check bool) (m.name ^ ": result bit-identical") true (norm rc = norm ri);
      Alcotest.(check string)
        (m.name ^ ": telemetry byte-identical")
        (Json.to_string (Registry.to_json si))
        (Json.to_string (Registry.to_json sc)))
    W.Registry.all

let test_workloads_matrix_profiled_identical () =
  let cells backend =
    let cs =
      List.concat_map
        (fun ((_ : W.Workload.meta), make) ->
          [ (Runner.Baseline, make W.Workload.Sample);
            (Runner.software_default, make W.Workload.Sample) ])
        W.Registry.all
    in
    List.map
      (fun (config, (inst : W.Workload.instance)) ->
        let reg = Registry.create () in
        let prof = Profile.create ~regions:(Runner.profile_regions inst) in
        let r = Runner.run ~backend ~metrics:reg ~profile:prof config inst in
        (r, Registry.snapshot reg, Profile.snapshot prof))
      cs
  in
  let compiled = cells `Compiled and interp = cells `Interp in
  List.iter2
    (fun (rc, sc, pc) (ri, si, pi) ->
      Alcotest.(check bool) (rc.Runner.label ^ ": result") true (norm rc = norm ri);
      Alcotest.(check string) (rc.Runner.label ^ ": telemetry")
        (Json.to_string (Registry.to_json si))
        (Json.to_string (Registry.to_json sc));
      Alcotest.(check string) (rc.Runner.label ^ ": profile")
        (Json.to_string (Profile.to_json pi))
        (Json.to_string (Profile.to_json pc)))
    compiled interp

(* ---- failure semantics -------------------------------------------------

   Typed register reads, store kinds and register bounds are checked when an
   instruction executes: both backends raise the same exception, with the
   same message, at the same step, and an observer sees the same events up
   to the failure. *)

let test_int_op_on_float () =
  let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.I64 ] () in
  ignore (prelude b);
  let x = B.fadd b F64 (B.f64 1.5) (B.f64 2.0) in
  B.ret b [ B.binop b Add I64 (B.i64 1L) x ];
  check_failure_parity "int op on float" "Failure: Interp: expected integer value"
    { Ir.funcs = [| B.finish b |] }

let test_float_op_on_int () =
  let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.F64 ] () in
  let x = prelude b in
  B.ret b [ B.fmul b F64 x (B.f64 2.0) ];
  check_failure_parity "float op on int" "Failure: Interp: expected float value"
    { Ir.funcs = [| B.finish b |] }

let test_f64_store_of_int () =
  let b = B.create ~name:"main" ~params:[] ~rets:[] () in
  let x = prelude b in
  B.store b F64 ~src:x ~base:(B.i64 16L) ~offset:0;
  B.ret b [];
  check_failure_parity "F64 store of an int"
    "Invalid_argument: Memory.store: value kind does not match type"
    { Ir.funcs = [| B.finish b |] }

(* Register indices past [nregs] are built directly: [Ir.validate] would
   reject them, the backends must still fail at the offending step. *)
let bad_register_program last =
  let instrs =
    [|
      Ir.Const { dst = 0; ty = I64; value = VI 4L };
      Ir.Binop { op = Add; ty = I64; dst = 1; a = Reg 0; b = Imm (VI 1L) };
      Ir.Binop { op = Mul; ty = I64; dst = 1; a = Reg 1; b = Reg 0 };
      last;
    |]
  in
  let main =
    {
      Ir.fname = "main";
      params = [||];
      ret_tys = [| Ir.I64 |];
      blocks = [| { Ir.label = "entry"; instrs; term = Ret [| Reg 1 |] } |];
      nregs = 2;
      pure = false;
    }
  in
  { Ir.funcs = [| main |] }

let test_bad_source_register () =
  check_failure_parity "source register >= nregs" "Invalid_argument: index out of bounds"
    (bad_register_program (Ir.Binop { op = Sub; ty = I64; dst = 0; a = Reg 1; b = Reg 2 }))

let test_bad_destination_register () =
  check_failure_parity "destination register >= nregs"
    "Invalid_argument: index out of bounds"
    (bad_register_program (Ir.Mov { dst = 5; src = Reg 1 }))

(* The timing model reuses call frames by depth. A narrow callee that runs
   at the depth a wider one ran at before must still fail inside
   [Pipeline] on a branch past its own [nregs], before the branch is
   charged or recorded, as it does in a fresh frame. *)
let test_bad_register_in_reused_frame () =
  let func fname nregs blocks =
    { Ir.fname; params = [||]; ret_tys = [| Ir.I64 |]; blocks; nregs; pure = false }
  in
  let block label instrs term = { Ir.label; instrs; term } in
  let wide =
    func "wide" 8
      [| block "entry" [| Ir.Const { dst = 7; ty = I64; value = VI 9L } |] (Ret [| Reg 7 |]) |]
  in
  let narrow =
    func "narrow" 2
      [|
        block "entry"
          [| Ir.Const { dst = 0; ty = I64; value = VI 1L } |]
          (Br { cond = Reg 5; if_true = "out"; if_false = "out" });
        block "out" [||] (Ret [| Reg 0 |]);
      |]
  in
  let main =
    func "main" 2
      [|
        block "entry"
          [|
            Ir.Call { callee = "wide"; dsts = [| 0 |]; args = [||] };
            Ir.Call { callee = "narrow"; dsts = [| 1 |]; args = [||] };
          |]
          (Ret [| Reg 1 |]);
      |]
  in
  let program = { Ir.funcs = [| main; wide; narrow |] } in
  check_failure_parity "branch past nregs in a reused frame"
    "Invalid_argument: index out of bounds" program;
  List.iter
    (fun backend ->
      match failing_run ~hooked:true backend program with
      | _, _, events, Some st ->
          Alcotest.(check int) "the failing branch is not charged" 0
            (List.assoc Pipeline.C_branch st.per_class);
          Alcotest.(check bool) "nor recorded" false
            (List.exists (function Term ("narrow", _, _) -> true | _ -> false) events)
      | _ -> assert false)
    [ `Compiled; `Interp ]

(* A callee's registers start at [VI 0L] on every call, also when the
   compiled backend reuses the frame of an earlier call that wrote them. *)
let test_fresh_registers_per_call () =
  let h = B.create ~name:"h" ~params:[ Ir.I64 ] ~rets:[ Ir.I64; Ir.F64 ] () in
  let ri = B.fresh h and rf = B.fresh h in
  B.if_ h (B.param h 0)
    ~then_:(fun () ->
      B.mov h ri (B.i64 7L);
      B.mov h rf (B.f64 2.5))
    ~else_:(fun () -> ());
  B.ret h [ B.rv ri; B.rv rf ];
  let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.I64; Ir.F64 ] () in
  ignore (B.call b "h" ~rets:2 [ B.i64 1L ]);
  B.ret b (B.call b "h" ~rets:2 [ B.i64 0L ]);
  let program = { Ir.funcs = [| B.finish b; B.finish h |] } in
  List.iter
    (fun backend ->
      let i = Interp.create ~backend ~program ~mem:(Memory.create ()) () in
      Alcotest.(check bool) "second call reads zeroed registers" true
        (Interp.run i "main" [||] = [| Ir.VI 0L; Ir.VI 0L |]))
    [ `Compiled; `Interp ]

(* ---- allocation contract -----------------------------------------------

   The compiled backend's frames hold unboxed slots and the timing model's
   call frames come from an arena, so a steady-state step allocates nothing:
   a loop over every kind of arithmetic, memory access, select, cast and a
   two-result call stays far under a tenth of a minor word per step. *)

let alloc_program () =
  let h = B.create ~name:"pair" ~params:[ Ir.I64; Ir.F64 ] ~rets:[ Ir.I64; Ir.F64 ] () in
  B.ret h [ B.binop h Add I64 (B.param h 0) (B.i64 3L); B.fmul h F64 (B.param h 1) (B.f64 0.5) ];
  let helper = B.finish h in
  let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.I64; Ir.F64 ] () in
  let acc = B.fresh b and facc = B.fresh b in
  B.mov b acc (B.i64 0L);
  B.mov b facc (B.f64 1.0);
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 10_000) (fun i ->
      let base = B.muli b (B.binop b And I32 i (B.i32 7)) (B.i32 8) in
      let x = B.cast b Sext_32_64 i in
      let f = B.cast b I_to_f x in
      B.store b I32 ~src:i ~base ~offset:0;
      B.store b I64 ~src:(B.binop b Shl I64 x (B.i64 3L)) ~base ~offset:64;
      B.store b F32 ~src:(B.cast b F32_of_f64 f) ~base ~offset:128;
      B.store b F64 ~src:(B.fsub b F64 f (B.f64 0.25)) ~base ~offset:192;
      let li = B.load b I32 base 0 and ll = B.load b I64 base 64 in
      let ls = B.load b F32 base 128 and lf = B.load b F64 base 192 in
      let s = B.fadd b F64 lf (B.cast b F64_of_f32 ls) in
      match B.call b "pair" ~rets:2 [ B.binop b Xor I64 ll (B.cast b Sext_32_64 li); s ] with
      | [ r; g ] ->
          let small = B.icmp b Ilt I64 r (B.i64 40_000L) in
          B.mov b acc
            (B.binop b Add I64 (B.rv acc) (B.select b small r (B.cast b F_to_i g)));
          B.mov b facc (B.fadd b F64 (B.rv facc) (B.fdiv b F64 g (B.f64 3.0)))
      | _ -> assert false);
  B.ret b [ B.rv acc; B.rv facc ];
  { Ir.funcs = [| B.finish b; helper |] }

(* Minor words per step of the second run on one interpreter. *)
let words_per_step ?hooks program =
  let i = Interp.create ?hooks ~program ~mem:(Memory.create ()) () in
  let first = Interp.run i "main" [||] in
  let s0 = Interp.steps i and w0 = Gc.minor_words () in
  let second = Interp.run i "main" [||] in
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "second run repeats the first" true (first = second);
  w /. float_of_int (Interp.steps i - s0)

let test_compiled_allocation () =
  let program = alloc_program () in
  let hook_free = words_per_step program in
  let pipe =
    Axmemo_cpu.Pipeline.create ~program
      ~hierarchy:(Axmemo_cache.Hierarchy.create Axmemo_cache.Hierarchy.hpi_default)
      ()
  in
  let timed = words_per_step ~hooks:(Axmemo_cpu.Pipeline.hooks pipe) program in
  Alcotest.(check bool)
    (Printf.sprintf "hook-free %.3f words/step < 0.1" hook_free)
    true (hook_free < 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "with Pipeline.hooks %.3f words/step < 0.1" timed)
    true (timed < 0.1)

let () =
  Alcotest.run "backend"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_backends_agree;
          QCheck_alcotest.to_alcotest prop_sites_resolved_once;
          Alcotest.test_case "division-by-zero parity" `Quick test_division_by_zero_parity;
          Alcotest.test_case "step-limit parity" `Quick test_step_limit_parity;
          Alcotest.test_case "fresh registers per call" `Quick test_fresh_registers_per_call;
        ] );
      ( "failure-parity",
        [
          Alcotest.test_case "int op on a float register" `Quick test_int_op_on_float;
          Alcotest.test_case "float op on an int register" `Quick test_float_op_on_int;
          Alcotest.test_case "F64 store of an int register" `Quick test_f64_store_of_int;
          Alcotest.test_case "source register past nregs" `Quick test_bad_source_register;
          Alcotest.test_case "destination register past nregs" `Quick
            test_bad_destination_register;
          Alcotest.test_case "branch register past nregs in a reused frame" `Quick
            test_bad_register_in_reused_frame;
        ] );
      ( "allocation",
        [ Alcotest.test_case "compiled steps allocate nothing" `Quick test_compiled_allocation ]
      );
      ( "suite-identity",
        [
          Alcotest.test_case "telemetry identical on every workload" `Slow
            test_workloads_telemetry_identical;
          Alcotest.test_case "profiled matrix identical on every workload" `Slow
            test_workloads_matrix_profiled_identical;
        ] );
    ]
