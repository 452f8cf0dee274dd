module Ir = Axmemo_ir.Ir
module Interp = Axmemo_ir.Interp
module Hierarchy = Axmemo_cache.Hierarchy
module Timing = Axmemo_isa.Timing
module Registry = Axmemo_telemetry.Registry

type instr_class =
  | C_ialu
  | C_imul
  | C_idiv
  | C_fp
  | C_fdiv_sqrt
  | C_ftrig
  | C_load
  | C_store
  | C_branch
  | C_call_ret
  | C_memo_send
  | C_memo_lookup
  | C_memo_update
  | C_memo_invalidate
  | C_memo_branch

type stats = {
  cycles : int;
  dyn_normal : int;
  dyn_memo : int;
  per_class : (instr_class * int) list;
  crc_stall_cycles : int;
}

(* Telemetry attachment: live CRC back-pressure samples plus per-class
   occupancy-cycle attribution, mirrored into counters by [flush_metrics].
   Purely observational — timing results are bit-identical either way. *)
type telem = {
  class_cycles : int array;  (* occupancy cycles charged per class *)
  count_c : Registry.counter array;  (* pipeline.class.<name>.count *)
  cycles_c : Registry.counter array;  (* pipeline.class.<name>.cycles *)
  total_cycles_c : Registry.counter;
  crc_stall_c : Registry.counter;
  dyn_normal_c : Registry.counter;
  dyn_memo_c : Registry.counter;
  crc_stall_s : Registry.series;  (* stall magnitude over issue cycles *)
}

(* Attribution-profiler attachment (lib/obs): wall-clock cycle deltas and
   instruction counts charged to (static region, instruction class). The
   collector outlives any one pipeline — a co-run reuses it across the
   per-request pipelines — so it is created standalone ({!profile}) and
   handed to [create]. Purely observational. *)
type profile = {
  p_nregions : int;  (* region ids are 0..n-1; index n is the program body *)
  p_region_of_func : string -> int;  (* kernel name -> region id, -1 = inherit *)
  p_region_of_lut : int -> int;  (* logical LUT id -> region id, -1 = current *)
  mutable p_stack : int list;  (* region of each live frame, innermost first *)
  mutable p_last : int;  (* pipeline clock at the previous charge *)
  p_counts : int array array;  (* (nregions+1) x (nclasses+1) instructions *)
  p_cycles : int array array;  (* (nregions+1) x (nclasses+1) wall cycles *)
}

let nclasses = 15
let drain_class = nclasses  (* synthetic column: end-of-run pipeline drain *)

let profile ~nregions ~region_of_func ~region_of_lut =
  {
    p_nregions = nregions;
    p_region_of_func = region_of_func;
    p_region_of_lut = region_of_lut;
    p_stack = [];
    p_last = 0;
    p_counts = Array.make_matrix (nregions + 1) (nclasses + 1) 0;
    p_cycles = Array.make_matrix (nregions + 1) (nclasses + 1) 0;
  }

let profile_counts p = Array.map Array.copy p.p_counts
let profile_cycles p = Array.map Array.copy p.p_cycles

(* One function's timing frames: a ready array per call depth it has run
   at, each exactly [nregs] long, so a site that names a register past its
   function's count fails on the read, as a fresh frame would. *)
type fn_frames = { nregs : int; mutable by_depth : int array array }

type t = {
  machine : Machine.t;
  hier : Hierarchy.t;
  lookup_level : unit -> [ `L1 | `L2 | `L3 | `Miss ];
  l2_lut_present : bool;
  (* DRAM cost of the most recent lookup's L3 probe (0 when no DRAM tier is
     attached or no probe was issued) — row-buffer dependent, so a closure
     read per lookup rather than a constant. *)
  l3_lookup_cycles : unit -> int;
  l1_lut_ways : int;
  crc_bytes_per_cycle : int;
  fns : (string, fn_frames) Hashtbl.t;
  mutable slot_cycle : int;
  mutable slot_used : int;
  mutable horizon : int;  (* latest completion seen *)
  alu : int array;
  mul : int array;
  div : int array;
  fpu : int array;
  lsu : int array;
  (* Call frames, a depth-indexed arena: [frames.(d)] holds the
     per-register ready cycles of the frame at depth [d] (its function's
     array for that depth, see [fn_frames]), [bindings.(d)] the destination
     registers its call site fills in the caller, one level down, at Leave
     ([||] for the outermost frame). [ready] is the innermost frame's
     array, [||] outside any frame. *)
  mutable frames : int array array;
  mutable bindings : int array array;
  mutable depth : int;
  mutable ready : int array;
  mutable pending_dsts : int array;  (* the issued call's destinations *)
  mutable pending_args_ready : int;
  mutable last_ret_ready : int;
  mutable crc_done : int;
  mutable memo_port_free : int;
  mutable crc_stalls : int;
  counts : int array;  (* indexed by class *)
  mutable dyn_normal : int;
  mutable dyn_memo : int;
  telem : telem option;
  profile : profile option;
}

let class_index = function
  | C_ialu -> 0
  | C_imul -> 1
  | C_idiv -> 2
  | C_fp -> 3
  | C_fdiv_sqrt -> 4
  | C_ftrig -> 5
  | C_load -> 6
  | C_store -> 7
  | C_branch -> 8
  | C_call_ret -> 9
  | C_memo_send -> 10
  | C_memo_lookup -> 11
  | C_memo_update -> 12
  | C_memo_invalidate -> 13
  | C_memo_branch -> 14

let all_classes =
  [
    C_ialu; C_imul; C_idiv; C_fp; C_fdiv_sqrt; C_ftrig; C_load; C_store; C_branch;
    C_call_ret; C_memo_send; C_memo_lookup; C_memo_update; C_memo_invalidate;
    C_memo_branch;
  ]

let class_name = function
  | C_ialu -> "ialu"
  | C_imul -> "imul"
  | C_idiv -> "idiv"
  | C_fp -> "fp"
  | C_fdiv_sqrt -> "fdiv_sqrt"
  | C_ftrig -> "ftrig"
  | C_load -> "load"
  | C_store -> "store"
  | C_branch -> "branch"
  | C_call_ret -> "call_ret"
  | C_memo_send -> "memo_send"
  | C_memo_lookup -> "memo_lookup"
  | C_memo_update -> "memo_update"
  | C_memo_invalidate -> "memo_invalidate"
  | C_memo_branch -> "memo_branch"

let make_telem reg =
  (* [all_classes] lists classes in [class_index] order, so these arrays
     index the same way as [counts]. *)
  let classes = Array.of_list all_classes in
  let counter = Registry.counter reg in
  {
    class_cycles = Array.make (Array.length classes) 0;
    count_c =
      Array.map (fun c -> counter ("pipeline.class." ^ class_name c ^ ".count")) classes;
    cycles_c =
      Array.map (fun c -> counter ("pipeline.class." ^ class_name c ^ ".cycles")) classes;
    total_cycles_c = counter "pipeline.cycles";
    crc_stall_c = counter "pipeline.crc_stall_cycles";
    dyn_normal_c = counter "pipeline.dyn_normal";
    dyn_memo_c = counter "pipeline.dyn_memo";
    crc_stall_s = Registry.series reg "pipeline.crc_stall" ();
  }

let create ?metrics ?profile:prof ?(machine = Machine.hpi) ?lookup_level
    ?(l2_lut_present = false) ?(l3_lookup_cycles = fun () -> 0) ?(l1_lut_ways = 4)
    ?(crc_bytes_per_cycle = Timing.crc_bytes_per_cycle) ~program ~hierarchy () =
  let fns = Hashtbl.create 16 in
  Array.iter
    (fun (f : Ir.func) -> Hashtbl.replace fns f.fname { nregs = f.nregs; by_depth = [||] })
    (program : Ir.program).funcs;
  (* A reattached collector keeps its accumulated matrices but restarts its
     clock and frame stack with this pipeline. *)
  (match prof with
  | Some p ->
      p.p_last <- 0;
      p.p_stack <- []
  | None -> ());
  {
    machine;
    hier = hierarchy;
    lookup_level = (match lookup_level with Some f -> f | None -> fun () -> `Miss);
    l2_lut_present;
    l3_lookup_cycles;
    l1_lut_ways;
    crc_bytes_per_cycle;
    fns;
    slot_cycle = 0;
    slot_used = 0;
    horizon = 0;
    alu = Array.make machine.n_alu 0;
    mul = Array.make machine.n_mul 0;
    div = Array.make machine.n_div 0;
    fpu = Array.make machine.n_fpu 0;
    lsu = Array.make machine.n_lsu 0;
    frames = [||];
    bindings = [||];
    depth = 0;
    ready = [||];
    pending_dsts = [||];
    pending_args_ready = 0;
    last_ret_ready = 0;
    crc_done = 0;
    memo_port_free = 0;
    crc_stalls = 0;
    counts = Array.make 15 0;
    dyn_normal = 0;
    dyn_memo = 0;
    telem = Option.map make_telem metrics;
    profile = prof;
  }

(* Issue one instruction no earlier than [ready]; returns the issue cycle,
   respecting in-order dual-issue. *)
let[@inline] issue t ready =
  let c = Int.max ready t.slot_cycle in
  if c > t.slot_cycle then begin
    t.slot_cycle <- c;
    t.slot_used <- 1;
    c
  end
  else if t.slot_used < t.machine.issue_width then begin
    t.slot_used <- t.slot_used + 1;
    c
  end
  else begin
    t.slot_cycle <- c + 1;
    t.slot_used <- 1;
    c + 1
  end

(* Earliest-available unit in a pool; returns its index. *)
let pool_min (pool : int array) =
  let best = ref 0 in
  for i = 1 to Array.length pool - 1 do
    if pool.(i) < pool.(!best) then best := i
  done;
  !best

(* Sends to the CRC unit: the queue drains one byte per cycle; the core
   stalls only when the queue is full (Table 4). [avail] is when the bytes
   become available to the queue relative to the issue cycle. *)
let crc_send t ~issue_cycle ~bytes ~avail_delay =
  let start = Int.max t.crc_done (issue_cycle + avail_delay) in
  let cycles = Int.max 1 ((bytes + t.crc_bytes_per_cycle - 1) / t.crc_bytes_per_cycle) in
  t.crc_done <- start + cycles

let crc_queue_constraint t ~bytes =
  (* Issue must wait until the projected backlog fits the queue. *)
  t.crc_done + bytes - Timing.input_queue_bytes

let on_enter t fname =
  let fn =
    try Hashtbl.find t.fns fname
    with Not_found ->
      let fn = { nregs = 64; by_depth = [||] } in
      Hashtbl.replace t.fns fname fn;
      fn
  in
  let d = t.depth in
  if d = Array.length t.frames then begin
    let n = Int.max 4 (2 * d) in
    let grow a = Array.append a (Array.make (n - d) [||]) in
    t.frames <- grow t.frames;
    t.bindings <- grow t.bindings
  end;
  let len = Array.length fn.by_depth in
  if d >= len then
    fn.by_depth <- Array.append fn.by_depth (Array.make (Int.max (d + 1) (2 * len) - len) [||]);
  let nregs = fn.nregs in
  let ready =
    let r = fn.by_depth.(d) in
    if Array.length r = nregs then r
    else begin
      let r = Array.make nregs 0 in
      fn.by_depth.(d) <- r;
      r
    end
  in
  let at = Int.max t.pending_args_ready t.slot_cycle in
  for r = 0 to nregs - 1 do
    Array.unsafe_set ready r at
  done;
  t.frames.(d) <- ready;
  t.bindings.(d) <- t.pending_dsts;
  t.pending_dsts <- [||];
  t.depth <- d + 1;
  t.ready <- ready

let on_leave t _fname =
  if t.depth > 0 then begin
    let d = t.depth - 1 in
    t.depth <- d;
    if d = 0 then t.ready <- [||]
    else begin
      let caller = t.frames.(d - 1) in
      let dsts = t.bindings.(d) in
      for i = 0 to Array.length dsts - 1 do
        caller.(dsts.(i)) <- t.last_ret_ready
      done;
      t.ready <- caller
    end
  end

let cycles t = Int.max t.slot_cycle t.horizon

(* ------------------------------------------------------------------ *)
(* The timing model, as site compilers: everything static about an
   instruction — source/destination register sets, class index,
   functional-unit pool, latency, occupancy — is resolved once per static
   site, so the per-execution closure touches no lists and matches no
   constructors. *)

let is_memo_class = function
  | C_memo_send | C_memo_lookup | C_memo_update | C_memo_invalidate | C_memo_branch ->
      true
  | C_ialu | C_imul | C_idiv | C_fp | C_fdiv_sqrt | C_ftrig | C_load | C_store
  | C_branch | C_call_ret ->
      false

let[@inline] count_k t k memo =
  t.counts.(k) <- t.counts.(k) + 1;
  if memo then t.dyn_memo <- t.dyn_memo + 1 else t.dyn_normal <- t.dyn_normal + 1

let[@inline] attr_k t k cyc =
  match t.telem with
  | Some tl -> tl.class_cycles.(k) <- tl.class_cycles.(k) + cyc
  | None -> ()

(* latest ready cycle over a precomputed register array (0 when empty) *)
let[@inline] ready_of (ready : int array) (rs : int array) =
  let r = ref 0 in
  for i = 0 to Array.length rs - 1 do
    let v = ready.(Array.unsafe_get rs i) in
    if v > !r then r := v
  done;
  !r

let[@inline] complete_arr t (ready : int array) (dsts : int array) at =
  for i = 0 to Array.length dsts - 1 do
    ready.(Array.unsafe_get dsts i) <- at
  done;
  if at > t.horizon then t.horizon <- at

let srcs_arr instr = Array.of_list (Ir.instr_srcs instr)
let dsts_arr instr = Array.of_list (Ir.instr_dst instr)

let reg_operands ops =
  Array.of_list
    (List.filter_map
       (function Ir.Reg r -> Some r | Ir.Imm _ -> None)
       (Array.to_list ops))

let site_fu t instr pool ~latency ~busy cls =
  let srcs = srcs_arr instr in
  let dsts = dsts_arr instr in
  let k = class_index cls in
  let memo = is_memo_class cls in
  (* Telemetry attachment is fixed at pipeline creation, so sites compiled
     without it drop the attribution branch from the per-execution path. *)
  if t.telem = None then
    fun (_addr : int) ->
      let regs = t.ready in
      let ready = ready_of regs srcs in
      let u = pool_min pool in
      let c = issue t (Int.max ready pool.(u)) in
      pool.(u) <- c + busy;
      complete_arr t regs dsts (c + latency);
      count_k t k memo
  else
    fun (_addr : int) ->
      let regs = t.ready in
      let ready = ready_of regs srcs in
      let u = pool_min pool in
      let c = issue t (Int.max ready pool.(u)) in
      pool.(u) <- c + busy;
      complete_arr t regs dsts (c + latency);
      count_k t k memo;
      attr_k t k latency

let exec_site t (_fname : string) (_bidx : int) (_iidx : int) (instr : Ir.instr) :
    int -> unit =
  let mc = t.machine in
  match instr with
  | Const _ | Mov _ | Select _ ->
      site_fu t instr t.alu ~latency:mc.lat_alu ~busy:1 C_ialu
  | Binop { op; _ } -> (
      match op with
      | Mul -> site_fu t instr t.mul ~latency:mc.lat_mul ~busy:1 C_imul
      | Div | Rem ->
          site_fu t instr t.div ~latency:mc.lat_div ~busy:mc.lat_div C_idiv
      | Add | Sub | And | Or | Xor | Shl | Lshr | Ashr ->
          site_fu t instr t.alu ~latency:mc.lat_alu ~busy:1 C_ialu)
  | Fbinop { op; _ } -> (
      match op with
      | Fdiv ->
          site_fu t instr t.fpu ~latency:mc.lat_fdiv ~busy:mc.lat_fdiv
            C_fdiv_sqrt
      | Fadd | Fsub | Fmul -> site_fu t instr t.fpu ~latency:mc.lat_fp ~busy:1 C_fp)
  | Funop { op; _ } -> (
      match op with
      | Fsqrt ->
          site_fu t instr t.fpu ~latency:mc.lat_fsqrt ~busy:mc.lat_fsqrt
            C_fdiv_sqrt
      | Fsin | Fcos | Fexp | Flog ->
          site_fu t instr t.fpu ~latency:mc.lat_ftrig ~busy:mc.lat_ftrig C_ftrig
      | Fneg | Fabs | Ffloor | Fround ->
          site_fu t instr t.fpu ~latency:mc.lat_fp ~busy:1 C_fp)
  | Icmp _ -> site_fu t instr t.alu ~latency:mc.lat_alu ~busy:1 C_ialu
  | Fcmp _ -> site_fu t instr t.fpu ~latency:mc.lat_fp ~busy:1 C_fp
  | Cast { op; _ } -> (
      match op with
      | I_to_f | F_to_i | F32_of_f64 | F64_of_f32 ->
          site_fu t instr t.fpu ~latency:mc.lat_fp ~busy:1 C_fp
      | Bits_of_f32 | F32_of_bits | Bits_of_f64 | F64_of_bits | Sext_32_64 | Trunc_64_32
        ->
          site_fu t instr t.alu ~latency:mc.lat_alu ~busy:1 C_ialu)
  | Load _ ->
      let srcs = srcs_arr instr in
      let dsts = dsts_arr instr in
      let k = class_index C_load in
      fun addr ->
        let regs = t.ready in
        let ready = ready_of regs srcs in
        let u = pool_min t.lsu in
        let c = issue t (Int.max ready t.lsu.(u)) in
        t.lsu.(u) <- c + 1;
        let latency = Hierarchy.read t.hier ~addr in
        complete_arr t regs dsts (c + latency);
        count_k t k false;
        attr_k t k latency
  | Store _ ->
      let srcs = srcs_arr instr in
      let k = class_index C_store in
      fun addr ->
        let regs = t.ready in
        let ready = ready_of regs srcs in
        let u = pool_min t.lsu in
        let c = issue t (Int.max ready t.lsu.(u)) in
        let latency = Hierarchy.write t.hier ~addr in
        t.lsu.(u) <- c + latency;
        if c + latency > t.horizon then t.horizon <- c + latency;
        count_k t k false;
        attr_k t k latency
  | Call { args; dsts; _ } ->
      (* The bl instruction: a branch-class issue slot. *)
      let arg_regs = reg_operands args in
      let k = class_index C_call_ret in
      fun _addr ->
        let regs = t.ready in
        let ready = ready_of regs arg_regs in
        let c = issue t ready in
        t.pending_args_ready <- Int.max ready c;
        t.pending_dsts <- dsts;
        count_k t k false;
        attr_k t k 1
  | Memo mi -> (
      match mi with
      | Ld_crc { ty; _ } ->
          let srcs = srcs_arr instr in
          let dsts = dsts_arr instr in
          let bytes = Ir.ty_size ty in
          let k = class_index C_load in
          fun addr ->
            let regs = t.ready in
            let ready = ready_of regs srcs in
            let u = pool_min t.lsu in
            let queue_ok = crc_queue_constraint t ~bytes in
            let unconstrained = Int.max ready t.lsu.(u) in
            let c = issue t (Int.max unconstrained queue_ok) in
            if queue_ok > unconstrained then begin
              let stall = queue_ok - unconstrained in
              t.crc_stalls <- t.crc_stalls + stall;
              match t.telem with
              | Some tl -> Registry.sample tl.crc_stall_s ~at:c (float_of_int stall)
              | None -> ()
            end;
            t.lsu.(u) <- c + 1;
            let latency = Hierarchy.read t.hier ~addr in
            complete_arr t regs dsts (c + latency);
            crc_send t ~issue_cycle:c ~bytes ~avail_delay:latency;
            count_k t k false;
            attr_k t k latency
      | Reg_crc { ty; _ } ->
          let srcs = srcs_arr instr in
          let bytes = Ir.ty_size ty in
          let k = class_index C_memo_send in
          fun _addr ->
            let regs = t.ready in
            let ready = ready_of regs srcs in
            let queue_ok = crc_queue_constraint t ~bytes in
            let c = issue t (Int.max ready queue_ok) in
            if queue_ok > ready then begin
              let stall = Int.max 0 (queue_ok - ready) in
              t.crc_stalls <- t.crc_stalls + stall;
              match t.telem with
              | Some tl -> Registry.sample tl.crc_stall_s ~at:c (float_of_int stall)
              | None -> ()
            end;
            crc_send t ~issue_cycle:c ~bytes ~avail_delay:1;
            count_k t k true;
            attr_k t k 1
      | Lookup _ ->
          let srcs = srcs_arr instr in
          let dsts = dsts_arr instr in
          let k = class_index C_memo_lookup in
          fun _addr ->
            let regs = t.ready in
            let ready =
              Int.max (ready_of regs srcs) (Int.max t.crc_done t.memo_port_free)
            in
            let c = issue t ready in
            let latency =
              match t.lookup_level () with
              | `L1 -> Timing.lookup_l1_cycles
              | `L2 -> Timing.lookup_l1_cycles + Timing.lookup_l2_cycles
              | `L3 ->
                  Timing.lookup_l1_cycles + Timing.lookup_l2_cycles
                  + t.l3_lookup_cycles ()
              | `Miss ->
                  (if t.l2_lut_present then
                     Timing.lookup_l1_cycles + Timing.lookup_l2_cycles
                   else Timing.lookup_l1_cycles)
                  + t.l3_lookup_cycles ()
            in
            t.memo_port_free <- c + latency;
            complete_arr t regs dsts (c + latency);
            count_k t k true;
            attr_k t k latency
      | Update _ ->
          let srcs = srcs_arr instr in
          let k = class_index C_memo_update in
          fun _addr ->
            let regs = t.ready in
            let ready = Int.max (ready_of regs srcs) t.memo_port_free in
            let c = issue t ready in
            t.memo_port_free <- c + Timing.update_cycles;
            if c + Timing.update_cycles > t.horizon then
              t.horizon <- c + Timing.update_cycles;
            count_k t k true;
            attr_k t k Timing.update_cycles
      | Invalidate _ ->
          let k = class_index C_memo_invalidate in
          let penalty = t.l1_lut_ways * Timing.invalidate_cycles_per_way in
          fun _addr ->
            let c = issue t t.memo_port_free in
            t.memo_port_free <- c + penalty;
            t.slot_cycle <- c + penalty;
            t.slot_used <- 0;
            count_k t k true;
            attr_k t k penalty)

let term_site t (_fname : string) (_bidx : int) (term : Ir.terminator) : unit -> unit
    =
  match term with
  | Jmp _ ->
      let k = class_index C_branch in
      fun () ->
        let _c = issue t t.slot_cycle in
        count_k t k false;
        attr_k t k 1
  | Br { cond; _ } -> (
      let k = class_index C_branch in
      match cond with
      | Ir.Reg r ->
          fun () ->
            ignore (issue t t.ready.(r));
            count_k t k false;
            attr_k t k 1
      | Ir.Imm _ ->
          fun () ->
            ignore (issue t 0);
            count_k t k false;
            attr_k t k 1)
  | Br_memo _ ->
      let k = class_index C_memo_branch in
      fun () ->
        ignore (issue t t.memo_port_free);
        count_k t k true;
        attr_k t k 1
  | Ret ops ->
      let srcs = reg_operands ops in
      let k = class_index C_call_ret in
      fun () ->
        let ready = ready_of t.ready srcs in
        let c = issue t ready in
        t.last_ret_ready <- Int.max ready c;
        count_k t k false;
        attr_k t k 1

(* Static classification, mirroring the class each [exec_site] /
   [term_site] arm charges — used by the profiler to label work without
   touching the timing paths. *)
let classify_instr : Ir.instr -> instr_class = function
  | Const _ | Mov _ | Select _ | Icmp _ -> C_ialu
  | Binop { op; _ } -> (
      match op with
      | Mul -> C_imul
      | Div | Rem -> C_idiv
      | Add | Sub | And | Or | Xor | Shl | Lshr | Ashr -> C_ialu)
  | Fbinop { op; _ } -> (
      match op with Fdiv -> C_fdiv_sqrt | Fadd | Fsub | Fmul -> C_fp)
  | Funop { op; _ } -> (
      match op with
      | Fsqrt -> C_fdiv_sqrt
      | Fsin | Fcos | Fexp | Flog -> C_ftrig
      | Fneg | Fabs | Ffloor | Fround -> C_fp)
  | Fcmp _ -> C_fp
  | Cast { op; _ } -> (
      match op with
      | I_to_f | F_to_i | F32_of_f64 | F64_of_f32 -> C_fp
      | Bits_of_f32 | F32_of_bits | Bits_of_f64 | F64_of_bits | Sext_32_64
      | Trunc_64_32 ->
          C_ialu)
  | Load _ -> C_load
  | Store _ -> C_store
  | Call _ -> C_call_ret
  | Memo (Ld_crc _) -> C_load
  | Memo (Reg_crc _) -> C_memo_send
  | Memo (Lookup _) -> C_memo_lookup
  | Memo (Update _) -> C_memo_update
  | Memo (Invalidate _) -> C_memo_invalidate

let classify_term : Ir.terminator -> instr_class = function
  | Jmp _ | Br _ -> C_branch
  | Br_memo _ -> C_memo_branch
  | Ret _ -> C_call_ret

let memo_lut_of : Ir.memo_instr -> int = function
  | Ld_crc { lut; _ } | Reg_crc { lut; _ } | Lookup { lut; _ } | Update { lut; _ }
  | Invalidate { lut } ->
      lut

let p_current p = match p.p_stack with r :: _ -> r | [] -> p.p_nregions

(* Charge the wall-cycle delta since the previous charge to (region, class).
   Every advance of the pipeline clock lands in exactly one cell, so the
   matrix total equals [cycles t] at all times. *)
let p_charge t p r k =
  let c = cycles t in
  if c > p.p_last then begin
    p.p_cycles.(r).(k) <- p.p_cycles.(r).(k) + (c - p.p_last);
    p.p_last <- c
  end

(* A profiled site runs the base site, then charges its (region, class)
   cell. The class and a memo instruction's LUT region are static; any
   other instruction belongs to the innermost frame's region, read per
   execution. *)
let profiled_hooks t p : Interp.hooks =
  let charge r k =
    p.p_counts.(r).(k) <- p.p_counts.(r).(k) + 1;
    p_charge t p r k
  in
  {
    Interp.on_enter =
      (fun fname ->
        on_enter t fname;
        let r = p.p_region_of_func fname in
        let r = if r < 0 then p_current p else r in
        p.p_stack <- r :: p.p_stack);
    on_leave =
      (fun fname ->
        on_leave t fname;
        match p.p_stack with [] -> () | _ :: rest -> p.p_stack <- rest);
    exec_site =
      (fun fname bidx iidx instr ->
        let site = exec_site t fname bidx iidx instr in
        let k = class_index (classify_instr instr) in
        let lut_region =
          match instr with Ir.Memo mi -> p.p_region_of_lut (memo_lut_of mi) | _ -> -1
        in
        fun addr ->
          site addr;
          charge (if lut_region < 0 then p_current p else lut_region) k);
    term_site =
      (fun fname bidx term ->
        let site = term_site t fname bidx term in
        let k = class_index (classify_term term) in
        fun () ->
          site ();
          charge (p_current p) k);
  }

let hooks t : Interp.hooks =
  match t.profile with
  | Some p -> profiled_hooks t p
  | None ->
      {
        Interp.on_enter = on_enter t;
        on_leave = on_leave t;
        exec_site = exec_site t;
        term_site = term_site t;
      }

let profile_close t =
  match t.profile with
  | None -> ()
  | Some p ->
      (* Whatever the clock advanced past the last retired instruction is
         in-flight completion (the drain): charge it to the program body so
         the matrix still sums to [cycles t]. *)
      let c = cycles t in
      if c > p.p_last then begin
        p.p_cycles.(p.p_nregions).(drain_class) <-
          p.p_cycles.(p.p_nregions).(drain_class) + (c - p.p_last);
        p.p_last <- c
      end

let stats t =
  {
    cycles = cycles t;
    dyn_normal = t.dyn_normal;
    dyn_memo = t.dyn_memo;
    per_class = List.map (fun c -> (c, t.counts.(class_index c))) all_classes;
    crc_stall_cycles = t.crc_stalls;
  }

let seconds t = float_of_int (cycles t) /. (t.machine.freq_ghz *. 1e9)

let flush_metrics t =
  match t.telem with
  | None -> ()
  | Some tl ->
      Array.iteri (fun i n -> Registry.set_count tl.count_c.(i) n) t.counts;
      Array.iteri (fun i n -> Registry.set_count tl.cycles_c.(i) n) tl.class_cycles;
      Registry.set_count tl.total_cycles_c (cycles t);
      Registry.set_count tl.crc_stall_c t.crc_stalls;
      Registry.set_count tl.dyn_normal_c t.dyn_normal;
      Registry.set_count tl.dyn_memo_c t.dyn_memo
