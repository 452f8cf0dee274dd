module Ir = Axmemo_ir.Ir
module Rng = Axmemo_util.Rng

let sampled_bytes = 8

let imm v = Ir.Imm (Ir.VI v)

(* djb2-style mixing over the sampled bytes. *)
let emit_sample_hash ~rng ~fresh ~inputs ~table_mask =
  let positions =
    List.concat
      (List.mapi
         (fun j (_, width) -> List.init width (fun k -> (j, k)))
         inputs)
  in
  let arr = Array.of_list positions in
  Rng.shuffle rng arr;
  let take = min sampled_bytes (Array.length arr) in
  let chosen = Array.sub arr 0 take in
  let regs = Array.of_list (List.map fst inputs) in
  let instrs = ref [] in
  let emit i = instrs := i :: !instrs in
  let h = fresh () in
  emit (Ir.Const { dst = h; ty = I64; value = VI 5381L });
  Array.iter
    (fun (j, k) ->
      let sh = fresh () and byte = fresh () and m = fresh () in
      emit
        (Ir.Binop
           { op = Lshr; ty = I64; dst = sh; a = Reg regs.(j); b = imm (Int64.of_int (8 * k)) });
      emit (Ir.Binop { op = And; ty = I64; dst = byte; a = Reg sh; b = imm 0xFFL });
      emit (Ir.Binop { op = Mul; ty = I64; dst = m; a = Reg h; b = imm 33L });
      emit (Ir.Binop { op = Xor; ty = I64; dst = h; a = Reg m; b = Reg byte }))
    chosen;
  let idx = fresh () in
  emit (Ir.Binop { op = And; ty = I64; dst = idx; a = Reg h; b = imm table_mask });
  (List.rev !instrs, idx)

(* Task bookkeeping: write an 8-word descriptor, read it back (enqueue /
   dequeue), plus a dependent ALU chain standing in for the runtime's
   scheduling and dependence management. Tiny tasks are exactly where
   task-level memoization pays its price: the paper measures ATM slowdowns
   of 0.3-0.7x on the small-kernel benchmarks, which corresponds to an
   overhead in the low hundreds of cycles per task. *)
let emit_task_overhead ~fresh ~scratch_base =
  let instrs = ref [] in
  let emit i = instrs := i :: !instrs in
  let base = imm (Int64.of_int scratch_base) in
  let v = fresh () in
  emit (Ir.Const { dst = v; ty = I64; value = VI 1L });
  for k = 0 to 7 do
    emit (Ir.Store { ty = I64; src = Reg v; base; offset = 8 * k })
  done;
  let acc = fresh () in
  emit (Ir.Const { dst = acc; ty = I64; value = VI 0L });
  for k = 0 to 7 do
    let l = fresh () and a = fresh () in
    emit (Ir.Load { ty = I64; dst = l; base; offset = 8 * k });
    emit (Ir.Binop { op = Add; ty = I64; dst = a; a = Reg acc; b = Reg l });
    emit (Ir.Mov { dst = acc; src = Reg a })
  done;
  for _ = 1 to 36 do
    let a = fresh () in
    emit (Ir.Binop { op = Add; ty = I64; dst = a; a = Reg acc; b = imm 7L });
    emit (Ir.Mov { dst = acc; src = Reg a })
  done;
  List.rev !instrs

(* One fixed index shuffle (seed 1337), so every build samples the same
   input bytes. *)
let hasher () : Sw_engine.hasher =
  let rng = Rng.create 1337L in
  {
    name = "atm-sampling";
    emit_hash = (fun ~fresh ~inputs ~table_mask -> emit_sample_hash ~rng ~fresh ~inputs ~table_mask);
    emit_overhead = emit_task_overhead;
  }

let memoize ~mem ~table_log2 ~entry ?barrier program regions =
  Sw_engine.memoize ~hasher:(hasher ()) ~mem ~table_log2 ~entry ?barrier program regions
