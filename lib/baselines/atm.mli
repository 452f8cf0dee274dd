(** Approximate Task Memoization (Brumar et al., IPDPS 2017), re-implemented
    from its description as the paper did (Section 6.2).

    ATM concatenates a task's inputs into a byte vector, shuffles an index
    vector once, and hashes only the bytes selected by the first [n]
    indices — a cheap but sampling-based key that misses input bits
    entirely (its collision-induced error is the price of the cheaper
    hash). Being a runtime-system technique, every task invocation also
    pays bookkeeping overhead (descriptor write/read plus scheduling
    logic), modelled as a short dependent instruction sequence touching a
    task-descriptor buffer. *)

val sampled_bytes : int
(** Number of input bytes the hash samples (8). *)

val memoize :
  mem:Axmemo_ir.Memory.t ->
  table_log2:int ->
  entry:string ->
  ?barrier:string ->
  Axmemo_ir.Ir.program ->
  Axmemo_compiler.Transform.region list ->
  Axmemo_ir.Ir.program
(** The index shuffle is fixed (seed 1337), so every build samples the
    same input bytes. *)
