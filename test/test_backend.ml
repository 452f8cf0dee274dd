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

let run_failing backend program =
  let mem = Memory.create () in
  let i = Interp.create ~backend ~program ~mem () in
  match Interp.run i "main" [||] with
  | _ -> ("no failure", Interp.steps i)
  | exception Failure msg -> (msg, Interp.steps i)

let test_division_by_zero_parity () =
  let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.I32 ] () in
  let x = B.addi b (B.i32 5) (B.i32 5) in
  B.ret b [ B.binop b Div I32 x (B.subi b x x) ];
  let program = { Ir.funcs = [| B.finish b |] } in
  let mc = run_failing `Compiled program and mi = run_failing `Interp program in
  Alcotest.(check (pair string int)) "same failure, same step" mi mc;
  Alcotest.(check string) "message" "Interp: division by zero" (fst mc)

let test_step_limit_parity () =
  let b = B.create ~name:"main" ~params:[] ~rets:[ Ir.I32 ] () in
  let acc = B.fresh b in
  B.mov b acc (B.i32 0);
  B.for_loop b ~from:(B.i32 0) ~below:(B.i32 1000) (fun i ->
      B.mov b acc (B.addi b (B.rv acc) i));
  B.ret b [ B.rv acc ];
  let program = { Ir.funcs = [| B.finish b |] } in
  let go backend =
    let mem = Memory.create () in
    let i = Interp.create ~backend ~max_steps:100 ~program ~mem () in
    match Interp.run i "main" [||] with
    | _ -> ("no failure", Interp.steps i)
    | exception Failure msg -> (msg, Interp.steps i)
  in
  let mc = go `Compiled and mi = go `Interp in
  Alcotest.(check (pair string int)) "same failure, same step" mi mc;
  Alcotest.(check string) "message" "Interp: step limit exceeded" (fst mc)

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

let () =
  Alcotest.run "backend"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_backends_agree;
          QCheck_alcotest.to_alcotest prop_sites_resolved_once;
          Alcotest.test_case "division-by-zero parity" `Quick test_division_by_zero_parity;
          Alcotest.test_case "step-limit parity" `Quick test_step_limit_parity;
        ] );
      ( "suite-identity",
        [
          Alcotest.test_case "telemetry identical on every workload" `Slow
            test_workloads_telemetry_identical;
          Alcotest.test_case "profiled matrix identical on every workload" `Slow
            test_workloads_matrix_profiled_identical;
        ] );
    ]
