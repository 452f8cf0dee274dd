(** Event-based energy model (McPAT/CACTI stand-in).

    Total energy = dynamic pipeline energy (per-instruction front-end cost
    plus a functional-unit cost per class) + cache and DRAM access energy +
    memoization-unit energy (Table 5 constants) + leakage proportional to
    run time. Only {e relative} energy matters for the reproduction; the
    constants are representative 32 nm figures. *)

type constants = {
  base_instr_pj : float;  (** fetch/decode/issue/commit per instruction *)
  ialu_pj : float;
  imul_pj : float;
  idiv_pj : float;
  fp_pj : float;
  fdiv_sqrt_pj : float;
  ftrig_pj : float;
  l1_access_pj : float;
  l2_access_pj : float;
  dram_access_pj : float;
  l3_cas_pj : float;  (** column access into an open DRAM-LUT row *)
  l3_activate_pj : float;  (** DRAM-LUT row activation (precharge+activate) *)
  leakage_pj_per_cycle : float;
  net_hop_pj : float;  (** one interconnect message leg traversing one hop *)
  net_msg_cycles : int;  (** per-hop link latency for one LUT message *)
}

val default_constants : constants

type breakdown = {
  pipeline_pj : float;  (** front-end + FU dynamic energy *)
  cache_pj : float;
  dram_pj : float;
      (** reported, but {e not} part of [total_pj]: the paper's McPAT totals
          are processor energy only *)
  l3_pj : float;
      (** DRAM-LUT tier traffic (pLUTo column accesses + row activations);
          like [dram_pj], reported but excluded from [total_pj] *)
  memo_pj : float;
  protection_pj : float;
      (** modeled ECC checks/encodes on the LUT arrays
          ({!Axmemo_faults.Protection}); 0 for unprotected runs *)
  leakage_pj : float;
  total_pj : float;
}

val of_run :
  ?protection_pj:float ->
  ?l3_row_hits:int ->
  ?l3_activations:int ->
  pipeline:Axmemo_cpu.Pipeline.stats ->
  hierarchy:Axmemo_cache.Hierarchy.t ->
  memo:Axmemo_memo.Memo_unit.stats option ->
  l1_lut_bytes:int ->
  unit ->
  breakdown
(** [of_run ~pipeline ~hierarchy ~memo ~l1_lut_bytes ()] aggregates one
    run's events. [memo = None] models the baseline core (no memoization
    hardware active). [?protection_pj] (default 0) adds the LUT protection
    charge computed by {!Axmemo_faults.Protection.energy_pj} into the
    total. [?l3_row_hits]/[?l3_activations] (default 0) bill DRAM-LUT tier
    traffic into [l3_pj]; with no tier attached the breakdown is
    bit-identical to the two-level model. All charges use
    {!default_constants}. *)
