(** The software memoization contender of Section 6.2.

    Same memoization scheme as AxMemo but entirely in software: a
    table-driven CRC-32 computed with ordinary instructions (at least three
    per hashed byte: extract, table load, xor), a tagless array LUT indexed
    by [CRC mod 2^N], and ordinary loads/stores for the probe and update.
    Discarding the upper CRC bits gives the scheme its non-zero collision
    rate — and hence its higher output error (Figure 10). *)

val memoize :
  mem:Axmemo_ir.Memory.t ->
  table_log2:int ->
  entry:string ->
  ?barrier:string ->
  Axmemo_ir.Ir.program ->
  Axmemo_compiler.Transform.region list ->
  Axmemo_ir.Ir.program
(** Allocates the 256-entry CRC step table (filled with the real CRC-32
    constants) and one [2^table_log2]-entry LUT per region inside [mem],
    then rewrites all call sites. *)
