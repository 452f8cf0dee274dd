module Crc = Axmemo_crc
module Payload = Axmemo_ir.Payload
module Interp = Axmemo_ir.Interp
module Registry = Axmemo_telemetry.Registry
module Fault_model = Axmemo_faults.Fault_model
module Injector = Axmemo_faults.Injector

type adaptive_config = {
  profile_period : int;
  profile_length : int;
  target_error : float;
  bad_fraction : float;
  max_extra_bits : int;
}

let default_adaptive =
  {
    profile_period = 1500;
    profile_length = 100;
    target_error = 0.01;
    bad_fraction = 0.05;
    max_extra_bits = 20;
  }

type rounding = Truncate | Nearest

type config = {
  l1_bytes : int;
  l2_bytes : int option;
  payload_bytes : int;
  crc : Crc.Poly.t;
  monitor : bool;
  collision_tracking : bool;
  policy : Lut.policy;
  rounding : rounding;
  adaptive : adaptive_config option;
  faults : Fault_model.spec option;
}

let default_config =
  {
    l1_bytes = 8 * 1024;
    l2_bytes = None;
    payload_bytes = 8;
    crc = Crc.Poly.crc32;
    monitor = true;
    collision_tracking = true;
    policy = Lut.Lru;
    rounding = Truncate;
    adaptive = None;
    faults = None;
  }

type lut_decl = { lut_id : int; payload : Payload.kind }

(* External next-level LUT (the multi-core shared L2). The unit treats it
   exactly like its private L2 — probe on an L1 miss, fill on update, drop a
   logical LUT on invalidate — but the storage, partitioning and arbitration
   all live with the caller. *)
type shared_l2 = {
  sl_lookup : lut_id:int -> key:int64 -> int64 option;
  sl_insert : lut_id:int -> key:int64 -> payload:int64 -> unit;
  sl_invalidate : lut_id:int -> unit;
}

type level = Hit_l1 | Hit_l2 | Hit_l3 | Miss

(* External DRAM LUT tier (lib/tier's Dram_lut, owned by the cluster).
   Another neutral closure record, like [shared_l2]: probed after the last
   SRAM level misses, filled by the spill chain, never written by [update]
   directly. [t3_cycles] reads the cost of the probe just issued so the
   pipeline can charge DRAM latency on the lookup path. *)
type l3_port = {
  t3_lookup : lut_id:int -> key:int64 -> int64 option;
  t3_cycles : unit -> int;
  t3_spill : lut_id:int -> key:int64 -> payload:int64 -> unit;
  t3_invalidate : lut_id:int -> unit;
  t3_decay : unit -> (int64 * int64) option;
      (* (clean, as-read) payload pair when the lookup just issued returned a
         payload whose relaxed low bits had decayed; None on an exact read.
         Feeds the quality monitor's observed-error window. *)
}

(* Profiling attachment (the attribution profiler in lib/obs). Like
   [shared_l2] this is a neutral closure record so the unit does not depend
   on the observability layer: the collector classifies misses by replaying
   residency from these events. Purely observational. *)
type profile_hooks = {
  pr_lookup :
    lut:int -> key:int64 -> fp:int64 option -> level:level -> forced:bool -> unit;
      (* every lookup outcome, after all monitor/adaptive overrides *)
  pr_insert : lev:[ `L1 | `L2 ] -> lut:int -> key:int64 -> fp:int64 option -> unit;
      (* a level gained [key]; [fp] only on a real update (fills pass None) *)
  pr_evict : lev:[ `L1 | `L2 ] -> lut:int -> key:int64 -> full:bool -> unit;
      (* a level displaced [key]; [full] = the whole level was at capacity,
         separating capacity evictions from set-conflict evictions *)
  pr_invalidate : lut:int -> unit;  (* a logical LUT was dropped everywhere *)
  pr_error : lut:int -> err:float -> unit;
      (* one shadow-exact comparison (monitor or adaptive window): worst
         relative error between the LUT payload and the recomputed value *)
  pr_collision : lut:int -> unit;  (* fingerprint mismatch on a tag hit *)
}

type stats = {
  sends : int;
  bytes_hashed : int;
  lookups : int;
  l1_hits : int;
  l2_hits : int;
  l3_hits : int;
  misses : int;
  forced_misses : int;
  updates : int;
  invalidations : int;
  collisions : int;
  monitor_comparisons : int;
}

(* Quality monitor (Section 6): 1 in [sample_interval] hits is forced to miss;
   the recomputed value is compared against the LUT payload. Per
   [window] comparisons, if more than [fraction_threshold] of the relative
   errors exceed [error_threshold], memoization is disabled. *)
let sample_interval = 100
let window = 100
let error_threshold = 0.10
let fraction_threshold = 0.10

(* Adaptive-truncation state (Section 3.1's dynamic approach). *)
type adapt_state = {
  mutable countdown : int;  (* lookups until the phase flips *)
  mutable profiling : bool;
  mutable norm_lookups : int;  (* activity during the normal phase *)
  mutable norm_hits : int;
  deltas : (int, int) Hashtbl.t;  (* per-LUT extra truncation *)
  pending_cmp : (int, int64 * int64) Hashtbl.t;  (* lut -> key, lut payload *)
  samples : (int, float list ref) Hashtbl.t;  (* per-LUT window errors *)
}

type monitor_state = {
  mutable hits_seen : int;
  mutable pending : (int * int64 * int64) option;  (* lut_id, key, lut payload *)
  mutable window_count : int;
  mutable window_bad : int;
  mutable comparisons : int;
  mutable tripped : bool;
  mutable trip_at : int option;  (* lookup count at which the monitor tripped *)
  (* Cumulative twins of the window counters (never reset by window close):
     the timeline's per-window quality deltas are differences of these. *)
  mutable total_samples : int;
  mutable total_bad : int;
}

(* Telemetry attachment. All instruments are created once at [create]; the
   hot path only mutates them behind a single [match] on [telem], so an
   unattached unit pays one pattern match per site and an attached unit
   never allocates. Observation cannot change simulation results. *)
type telem = {
  reg : Registry.t;
  trunc_hist : Registry.histogram;  (* effective truncation per send *)
  trunc_counts : int array;
      (* sends per truncation level, folded into [trunc_hist] by
         [flush_metrics]: observing the histogram directly would box a float
         per send. The levels are integers, so the histogram's float sum
         comes out the same in any order. *)
  l1_occ : Registry.histogram;  (* per-set valid entries, at flush *)
  l2_occ : Registry.histogram option;
  l1_evictions : Registry.counter;
  l2_evictions : Registry.counter;
  l1_spills : Registry.counter;
      (* L1 victims displaced while an inclusive L2 LUT holds them *)
  l1_evict_opt : (lut_id:int -> key:int64 -> payload:int64 -> unit) option;
  l2_evict_opt : (lut_id:int -> key:int64 -> payload:int64 -> unit) option;
      (* pre-wrapped [Some hook] so insert sites pass them without allocating *)
  adapt_delta : Registry.series;  (* extra-truncation decisions, at = lookups *)
  adapt_windows : Registry.counter;
  mon_windows : Registry.counter;
  mon_bad : Registry.counter;
  hit_rate_g : Registry.gauge;
  tripped_g : Registry.gauge;
  (* End-of-run mirrors of the simulator's own stats, written by
     [flush_metrics]. *)
  sends_c : Registry.counter;
  bytes_hashed_c : Registry.counter;
  lookups_c : Registry.counter;
  l1_hits_c : Registry.counter;
  l2_hits_c : Registry.counter;
  misses_c : Registry.counter;
  forced_misses_c : Registry.counter;
  updates_c : Registry.counter;
  invalidations_c : Registry.counter;
  collisions_c : Registry.counter;
  mon_comparisons_c : Registry.counter;
}

(* Fault instruments are registered only when BOTH a registry and an injector
   are attached, so the metrics snapshot of a fault-free run stays
   byte-identical to one taken before this subsystem existed. *)
type fault_telem = {
  injected_c : Registry.counter;
  by_site : (Fault_model.site * Registry.counter) list;
  parity_detected_c : Registry.counter;
  secded_corrected_c : Registry.counter;
  secded_detected_c : Registry.counter;
  sdc_hits_c : Registry.counter;
  tag_aliases_c : Registry.counter;
  trip_lookup_g : Registry.gauge;
}

(* One hash value register, addressed by {LUT_ID, TID} (Section 3.2): the
   in-flight CRC of the inputs sent since the last lookup, and the key that
   lookup latched for [update]. The engines are started once and reset in
   place whenever the register is consumed or dropped. *)
type slot = {
  tag : Crc.Engine.t;
  fp_engine : Crc.Engine.t option;
      (* 64-bit fingerprint of the same byte stream, for collision
         measurement (present iff [collision_tracking]) *)
  mutable latched : bool;  (* a lookup has latched [key] since the last reset *)
  mutable key : int64;
  mutable fp : int64;  (* the fingerprint latched with [key] *)
}

module Fp_table = Hashtbl.Make (Int64)

type t = {
  cfg : config;
  decls : (int, lut_decl) Hashtbl.t;
  l1 : Lut.t;
  l2 : Lut.t option;
  shared_l2 : shared_l2 option;
  mutable slots : slot option array;
      (* slot of {LUT_ID, TID} at [lut + 8 * tid]; grows on a TID's first use *)
  fingerprints : int64 Fp_table.t option array;
      (* per logical LUT: key -> fingerprint of the inputs that last wrote
         it; made on the LUT's first fingerprinted update *)
  monitor : monitor_state;
  adapt : adapt_state option;
  (* DRAM tier attachment ([attach_l3]); [last_l3_cycles] is the DRAM cost
     of the most recent lookup's L3 probe (0 when no probe was issued), read
     by the pipeline's latency charge. *)
  mutable l3 : l3_port option;
  mutable last_l3_cycles : int;
  mutable l3_hits_c : Registry.counter option;
  (* Registered lazily on the first decayed L3 read, so fault-free (and
     L3-less) snapshots stay byte-identical. *)
  mutable decay_samples_c : Registry.counter option;
  mutable last_level : level;
  mutable sends : int;
  mutable bytes_hashed : int;
  mutable lookups : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable misses : int;
  mutable forced_misses : int;
  mutable updates : int;
  mutable invalidations : int;
  mutable collisions : int;
  mutable telem : telem option;
  profile : profile_hooks option;
  (* scratch for the profiler: was the in-flight miss forced by the adaptive
     profiling window? (plain field, so the unprofiled path stays
     allocation-free) *)
  mutable pr_forced : bool;
  (* evict observers, pre-combined (telemetry counters + profiler) at
     [create] so insert sites pass one option without allocating; mutable
     only so [attach_l3] can extend the last SRAM level's hook with the
     spill into the DRAM tier *)
  mutable l1_evict_opt : (lut_id:int -> key:int64 -> payload:int64 -> unit) option;
  mutable l2_evict_opt : (lut_id:int -> key:int64 -> payload:int64 -> unit) option;
  injector : Injector.t option;
  crc_fault : (int -> int64) option;
      (* the injector's datapath hook, resolved once so [engines] can pass it
         straight to [Crc.Engine.start] *)
  fault_telem : fault_telem option;
}

let make_telem reg ~has_l2 ~private_l2 =
  let occ_bounds nways = Array.init (nways + 1) float_of_int in
  let counter = Registry.counter reg in
  let l1_evictions = counter "memo.l1.evictions" in
  let l2_evictions = counter "memo.l2.evictions" in
  let l1_spills = counter "memo.l1.spills" in
  let l1_evict_hook ~lut_id:_ ~key:_ ~payload:_ =
    Registry.incr l1_evictions;
    if has_l2 then Registry.incr l1_spills
  in
  let l2_evict_hook ~lut_id:_ ~key:_ ~payload:_ = Registry.incr l2_evictions in
  {
    reg;
    trunc_hist =
      Registry.histogram reg "memo.trunc_bits" ~bounds:(Array.init 33 float_of_int);
    trunc_counts = Array.make 64 0;
    l1_occ = Registry.histogram reg "memo.l1.set_occupancy" ~bounds:(occ_bounds 8);
    (* A shared next level keeps its own occupancy instruments on the cluster
       registry; only a private L2 histograms here. *)
    l2_occ =
      (if private_l2 then
         Some (Registry.histogram reg "memo.l2.set_occupancy" ~bounds:(occ_bounds 8))
       else None);
    l1_evictions;
    l2_evictions;
    l1_spills;
    l1_evict_opt = Some l1_evict_hook;
    l2_evict_opt = Some l2_evict_hook;
    adapt_delta = Registry.series reg "memo.adaptive.delta" ();
    adapt_windows = counter "memo.adaptive.windows";
    mon_windows = counter "memo.monitor.windows";
    mon_bad = counter "memo.monitor.bad_samples";
    hit_rate_g = Registry.gauge reg "memo.hit_rate";
    tripped_g = Registry.gauge reg "memo.monitor.tripped";
    sends_c = counter "memo.sends";
    bytes_hashed_c = counter "memo.bytes_hashed";
    lookups_c = counter "memo.lookups";
    l1_hits_c = counter "memo.l1.hits";
    l2_hits_c = counter "memo.l2.hits";
    misses_c = counter "memo.misses";
    forced_misses_c = counter "memo.forced_misses";
    updates_c = counter "memo.updates";
    invalidations_c = counter "memo.invalidations";
    collisions_c = counter "memo.collisions";
    mon_comparisons_c = counter "memo.monitor.comparisons";
  }

let create ?metrics ?shared_l2 ?profile cfg decls =
  (match (cfg.l2_bytes, shared_l2) with
  | Some _, Some _ ->
      invalid_arg "Memo_unit.create: a unit cannot have both a private and a shared L2 LUT"
  | _ -> ());
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun d ->
      if d.lut_id < 0 || d.lut_id > 7 then invalid_arg "Memo_unit.create: LUT id must be 0..7";
      if Hashtbl.mem tbl d.lut_id then invalid_arg "Memo_unit.create: duplicate LUT id";
      if Payload.width d.payload > cfg.payload_bytes then
        invalid_arg
          (Printf.sprintf
             "Memo_unit.create: LUT %d needs %d-byte entries but the unit is configured for %d"
             d.lut_id (Payload.width d.payload) cfg.payload_bytes);
      Hashtbl.replace tbl d.lut_id d)
    decls;
  let injector = Option.map Injector.create cfg.faults in
  let lut_faults sites = Option.map (fun inj -> (inj, sites)) injector in
  let l1 =
    Lut.create ~payload_bytes:cfg.payload_bytes ~policy:cfg.policy
      ?faults:(lut_faults Fault_model.l1_sites) ~size_bytes:cfg.l1_bytes ()
  in
  let l2 =
    Option.map
      (fun b ->
        Lut.create ~payload_bytes:cfg.payload_bytes ~policy:cfg.policy
          ?faults:(lut_faults Fault_model.l2_sites) ~size_bytes:b ())
      cfg.l2_bytes
  in
  let telem =
    Option.map
      (fun reg ->
        make_telem reg
          ~has_l2:(cfg.l2_bytes <> None || Option.is_some shared_l2)
          ~private_l2:(cfg.l2_bytes <> None))
      metrics
  in
  (* Pre-combine the eviction observers: telemetry counters and the
     profiler's residency events share one closure per level, chosen once
     here so the hot insert sites stay a single option pass. *)
  let combine_evict lut lev telem_hook =
    match (telem_hook, profile) with
    | None, None -> None
    | Some f, None -> Some f
    | _ ->
        Some
          (fun ~lut_id ~key ~payload ->
            (match telem_hook with Some f -> f ~lut_id ~key ~payload | None -> ());
            match profile with
            | Some pr ->
                pr.pr_evict ~lev ~lut:lut_id ~key
                  ~full:(Lut.occupancy lut = Lut.capacity_entries lut)
            | None -> ())
  in
  let l1_evict_opt =
    combine_evict l1 `L1 (match telem with Some tl -> tl.l1_evict_opt | None -> None)
  in
  let l2_evict_opt =
    match l2 with
    | None -> None
    | Some l2lut ->
        combine_evict l2lut `L2
          (match telem with Some tl -> tl.l2_evict_opt | None -> None)
  in
  {
    cfg;
    decls = tbl;
    l1;
    l2;
    shared_l2;
    slots = [||];
    fingerprints = Array.make 8 None;
    monitor =
      {
        hits_seen = 0;
        pending = None;
        window_count = 0;
        window_bad = 0;
        comparisons = 0;
        tripped = false;
        trip_at = None;
        total_samples = 0;
        total_bad = 0;
      };
    adapt =
      Option.map
        (fun (a : adaptive_config) ->
          {
            countdown = a.profile_period;
            profiling = false;
            norm_lookups = 0;
            norm_hits = 0;
            deltas = Hashtbl.create 8;
            pending_cmp = Hashtbl.create 8;
            samples = Hashtbl.create 8;
          })
        cfg.adaptive;
    l3 = None;
    last_l3_cycles = 0;
    l3_hits_c = None;
    decay_samples_c = None;
    last_level = Miss;
    sends = 0;
    bytes_hashed = 0;
    lookups = 0;
    l1_hits = 0;
    l2_hits = 0;
    l3_hits = 0;
    misses = 0;
    forced_misses = 0;
    updates = 0;
    invalidations = 0;
    collisions = 0;
    telem;
    profile;
    pr_forced = false;
    l1_evict_opt;
    l2_evict_opt;
    injector;
    crc_fault = (match injector with Some inj -> Injector.crc_hook inj | None -> None);
    fault_telem =
      (match (metrics, injector, cfg.faults) with
      | Some reg, Some _, Some spec ->
          Some
            {
              injected_c = Registry.counter reg "faults.injected";
              by_site =
                List.map
                  (fun site ->
                    ( site,
                      Registry.counter reg
                        ("faults.injected." ^ Fault_model.site_name site) ))
                  (List.filter (fun s -> List.mem s spec.sites) Fault_model.all_sites);
              parity_detected_c = Registry.counter reg "faults.parity_detected";
              secded_corrected_c = Registry.counter reg "faults.secded_corrected";
              secded_detected_c = Registry.counter reg "faults.secded_detected";
              sdc_hits_c = Registry.counter reg "faults.sdc_hits";
              tag_aliases_c = Registry.counter reg "faults.tag_aliases";
              trip_lookup_g = Registry.gauge reg "faults.monitor.trip_lookup";
            }
      | _ -> None);
  }

let disabled t = t.monitor.tripped
let trip_lookup t = t.monitor.trip_at
let monitor_observed t = (t.monitor.total_samples, t.monitor.total_bad)
let injector t = t.injector

(* Attach the DRAM tier. The spill chain extends the *last SRAM level*: a
   private L2's victims (or, with neither an L2 nor a shared one, the L1's)
   flow into [t3_spill]. Units backed by a cluster-shared L2 spill at the
   cluster layer instead (the shared LUT's eviction hook), so nothing is
   wrapped here. The [memo.l3.hits] counter is registered only now — an
   L3-less unit's metrics snapshot stays byte-identical to one taken before
   this tier existed. *)
let attach_l3 t port =
  if t.l3 <> None then invalid_arg "Memo_unit.attach_l3: already attached";
  t.l3 <- Some port;
  (match t.telem with
  | Some tl -> t.l3_hits_c <- Some (Registry.counter tl.reg "memo.l3.hits")
  | None -> ());
  let wrap prev =
    Some
      (fun ~lut_id ~key ~payload ->
        (match prev with Some f -> f ~lut_id ~key ~payload | None -> ());
        port.t3_spill ~lut_id ~key ~payload)
  in
  match (t.l2, t.shared_l2) with
  | Some _, _ -> t.l2_evict_opt <- wrap t.l2_evict_opt
  | None, Some _ -> ()
  | None, None -> t.l1_evict_opt <- wrap t.l1_evict_opt

let last_l3_cycles t = t.last_l3_cycles

(* The slot of {LUT_ID, TID}, if it was ever used. *)
let existing_slot t ~tid lut =
  let i = lut + (8 * tid) in
  if lut >= 0 && lut < 8 && tid >= 0 && i < Array.length t.slots then t.slots.(i) else None

let slot t ~tid lut =
  if lut < 0 || lut > 7 || tid < 0 then
    invalid_arg "Memo_unit: LUT id must be 0..7 and TID non-negative";
  let i = lut + (8 * tid) in
  if i >= Array.length t.slots then begin
    let grown = Array.make (8 * (tid + 1)) None in
    Array.blit t.slots 0 grown 0 (Array.length t.slots);
    t.slots <- grown
  end;
  match t.slots.(i) with
  | Some s -> s
  | None ->
      let s =
        {
          (* Only the tag hash is real hardware; the fingerprint engine is a
             measurement aid and stays fault-free. *)
          tag = Crc.Engine.start ?fault:t.crc_fault t.cfg.crc;
          fp_engine =
            (if t.cfg.collision_tracking then Some (Crc.Engine.start Crc.Poly.crc64_xz)
             else None);
          latched = false;
          key = 0L;
          fp = 0L;
        }
      in
      t.slots.(i) <- Some s;
      s

(* Drop the in-flight hash: the next send starts a fresh one. *)
let clear_register s =
  Crc.Engine.reset s.tag;
  match s.fp_engine with Some e -> Crc.Engine.reset e | None -> ()

(* [Bits.truncate_int64] and [Bits.round_int64], restated here so that they
   inline into [send] and the cell never leaves a register. *)
let[@inline] clamp_bits hi bits = if bits < 0 then 0 else if bits > hi then hi else bits

let[@inline] truncate64 bits v =
  let bits = clamp_bits 63 bits in
  if bits = 0 then v else Int64.logand v (Int64.shift_left (-1L) bits)

let[@inline] round64 bits v =
  let bits = clamp_bits 62 bits in
  if bits = 0 then v else truncate64 bits (Int64.add v (Int64.shift_left 1L (bits - 1)))

let[@inline] f32_word b = Int64.logand (Int64.of_int32 b) 0xFFFFFFFFL

(* The bytes [send] hashes, as a little-endian word: the input mapped into
   its truncation (or rounding) cell exactly as [Bits.truncate_*] and
   [Bits.round_*] map it. *)
let[@inline] cell_bits rounding (ty : Axmemo_ir.Ir.ty) trunc (v : Axmemo_ir.Ir.value) =
  match (ty, v) with
  | F32, VF x ->
      let b = Int32.bits_of_float x in
      let cell =
        match rounding with
        | Truncate ->
            let bits = clamp_bits 31 trunc in
            if bits = 0 then b else Int32.logand b (Int32.shift_left (-1l) bits)
        | Nearest ->
            let bits = clamp_bits 22 trunc in
            if bits = 0 then b
            else Int64.to_int32 (Int64.logand (round64 bits (f32_word b)) 0xFFFFFFFFL)
      in
      (* back through a float as [Bits] goes: that quiets a signalling NaN *)
      f32_word (Int32.bits_of_float (Int32.float_of_bits cell))
  | F64, VF x -> (
      (* a binary64 pattern survives [Int64.float_of_bits] unchanged *)
      let b = Int64.bits_of_float x in
      match rounding with
      | Truncate -> truncate64 trunc b
      | Nearest ->
          let bits = clamp_bits 51 trunc in
          if bits = 0 then b else round64 bits b)
  | I32, VI x -> (
      match rounding with
      | Truncate -> Int64.logand (truncate64 trunc x) 0xFFFFFFFFL
      | Nearest -> Int64.logand (round64 trunc x) 0xFFFFFFFFL)
  | I64, VI x -> ( match rounding with Truncate -> truncate64 trunc x | Nearest -> round64 trunc x)
  | (F32 | F64), VI _ | (I32 | I64), VF _ ->
      invalid_arg "Memo_unit.send: value kind does not match declared type"

(* [Crc.Engine.feed_int] takes at most seven bytes as an immediate, so an
   8-byte cell goes in as two 4-byte halves, which hash as one 8-byte step. *)
let[@inline] feed_cell e ~width cell =
  Crc.Engine.feed_int e ~width:4 (Int64.to_int cell land 0xFFFFFFFF);
  if width = 8 then
    Crc.Engine.feed_int e ~width:4 (Int64.to_int (Int64.shift_right_logical cell 32))

let extra_truncation t ~lut_id =
  match t.adapt with
  | None -> 0
  | Some a -> Option.value ~default:0 (Hashtbl.find_opt a.deltas lut_id)

let l1_evict_hook t = t.l1_evict_opt
let l2_evict_hook t = t.l2_evict_opt

let send_tid t ~tid ~lut ~(ty : Axmemo_ir.Ir.ty) ~trunc v =
  if not t.monitor.tripped then begin
    let trunc = trunc + extra_truncation t ~lut_id:lut in
    let width = match ty with F32 | I32 -> 4 | F64 | I64 -> 8 in
    let cell = cell_bits t.cfg.rounding ty trunc v in
    let hvr = slot t ~tid lut in
    feed_cell hvr.tag ~width cell;
    (match hvr.fp_engine with Some e -> feed_cell e ~width cell | None -> ());
    t.sends <- t.sends + 1;
    t.bytes_hashed <- t.bytes_hashed + width;
    match t.telem with
    | Some tl ->
        if trunc >= 0 && trunc < Array.length tl.trunc_counts then
          tl.trunc_counts.(trunc) <- tl.trunc_counts.(trunc) + 1
        else Registry.observe tl.trunc_hist (float_of_int trunc)
    | None -> ()
  end

let send ?(tid = 0) t ~lut ~ty ~trunc v = send_tid t ~tid ~lut ~ty ~trunc v

(* Phase machine for the adaptive mode: normal -> profiling -> adjust. *)
let adapt_tick t =
  match (t.adapt, t.cfg.adaptive) with
  | Some a, Some cfg ->
      a.countdown <- a.countdown - 1;
      if a.countdown <= 0 then
        if a.profiling then begin
          (* Window over: adjust every declared LUT's extra truncation. The
             rule has hysteresis so the level settles instead of oscillating
             (every change invalidates the LUT): back off on errors, explore
             upward only while hits are scarce, otherwise hold. *)
          let norm_hit_rate =
            if a.norm_lookups = 0 then 0.0
            else float_of_int a.norm_hits /. float_of_int a.norm_lookups
          in
          Hashtbl.iter
            (fun lut _decl ->
              let samples =
                match Hashtbl.find_opt a.samples lut with Some r -> !r | None -> []
              in
              let delta = Option.value ~default:0 (Hashtbl.find_opt a.deltas lut) in
              let errors_bad =
                match samples with
                | [] -> false
                | s ->
                    let bad = List.length (List.filter (fun e -> e > cfg.target_error) s) in
                    float_of_int bad > cfg.bad_fraction *. float_of_int (List.length s)
              in
              let fresh =
                if errors_bad then max 0 (delta - 2)
                else if norm_hit_rate < 0.4 then min cfg.max_extra_bits (delta + 3)
                else delta
              in
              if fresh <> delta then begin
                Hashtbl.replace a.deltas lut fresh;
                (* A different truncation changes every hash: drop the now
                   unreachable entries. *)
                Lut.invalidate_lut t.l1 ~lut_id:lut;
                Option.iter (fun l2 -> Lut.invalidate_lut l2 ~lut_id:lut) t.l2;
                (match t.shared_l2 with
                | Some s -> s.sl_invalidate ~lut_id:lut
                | None -> ());
                match t.profile with
                | Some pr -> pr.pr_invalidate ~lut
                | None -> ()
              end;
              match t.telem with
              | Some tl ->
                  Registry.sample tl.adapt_delta ~at:t.lookups (float_of_int fresh)
              | None -> ())
            t.decls;
          (match t.telem with
          | Some tl -> Registry.incr tl.adapt_windows
          | None -> ());
          a.profiling <- false;
          a.countdown <- cfg.profile_period;
          a.norm_lookups <- 0;
          a.norm_hits <- 0
        end
        else begin
          Hashtbl.reset a.samples;
          Hashtbl.reset a.pending_cmp;
          a.profiling <- true;
          a.countdown <- cfg.profile_length
        end
  | _ -> ()

let monitor_should_force t =
  t.cfg.monitor
  && t.monitor.hits_seen mod sample_interval = 0

(* The fingerprint a lookup on [s] latched, as the profiler's option. *)
let latched_fp s = match s.fp_engine with Some _ -> Some s.fp | None -> None

let record_hit_fingerprint t ~lut ~key s =
  match (s.fp_engine, t.fingerprints.(lut)) with
  | Some _, Some tbl -> (
      match Fp_table.find tbl key with
      | stored ->
          if not (Int64.equal stored s.fp) then begin
            t.collisions <- t.collisions + 1;
            match t.profile with Some pr -> pr.pr_collision ~lut | None -> ()
          end
      | exception Not_found -> ())
  | _ -> ()

(* One observed-error sample entering the monitor's window, from either
   source: a forced-miss shadow comparison ([monitor_compare]) or a decayed
   L3 payload read ([probe_l3]). Closes the window and evaluates the trip
   rule exactly as before the decay source existed. *)
let monitor_note t ~bad =
  let m = t.monitor in
  m.window_count <- m.window_count + 1;
  m.total_samples <- m.total_samples + 1;
  if bad then begin
    m.window_bad <- m.window_bad + 1;
    m.total_bad <- m.total_bad + 1
  end;
  if m.window_count >= window then begin
    if float_of_int m.window_bad > fraction_threshold *. float_of_int m.window_count
    then begin
      if not m.tripped then m.trip_at <- Some t.lookups;
      m.tripped <- true
    end;
    (match t.telem with
    | Some tl ->
        Registry.incr tl.mon_windows;
        Registry.add tl.mon_bad m.window_bad
    | None -> ());
    m.window_count <- 0;
    m.window_bad <- 0
  end

(* A decayed L3 payload is a quality observation the monitor gets for free:
   the DRAM tier knows both the clean and the as-read bits, so the relative
   error is exact — no forced recompute needed. Enough decayed reads over
   the error threshold trip the unit exactly like bad shadow comparisons
   (ROADMAP item 3's leftover). Only runs when the tier actually decayed
   the read, i.e. an injector with the L3_payload site is attached — so
   fault-free runs are untouched, counters included. *)
let note_l3_decay t ~lut ~clean ~read =
  if t.cfg.monitor && clean <> read then begin
    let kind =
      match Hashtbl.find_opt t.decls lut with
      | Some d -> d.payload
      | None -> Payload.Pi64
    in
    let errs = Payload.relative_errors kind ~expected:clean ~actual:read in
    let bad = Array.exists (fun e -> e > error_threshold) errs in
    (match t.profile with
    | Some pr -> pr.pr_error ~lut ~err:(Array.fold_left Float.max 0.0 errs)
    | None -> ());
    (match (t.decay_samples_c, t.telem) with
    | None, Some tl ->
        let c = Registry.counter tl.reg "memo.monitor.decay_samples" in
        Registry.incr c;
        t.decay_samples_c <- Some c
    | Some c, _ -> Registry.incr c
    | None, None -> ());
    monitor_note t ~bad
  end

(* The SRAM tiers all missed: probe the DRAM tier (when attached). A hit
   refills the inclusive SRAM hierarchy on the way up, exactly like an
   L2 hit refills the L1; either way the probe's DRAM cost is latched for
   the pipeline's latency charge. *)
let probe_l3 t ~lut ~key =
  match t.l3 with
  | None ->
      t.last_level <- Miss;
      None
  | Some p -> (
      match p.t3_lookup ~lut_id:lut ~key with
      | Some payload ->
          t.last_l3_cycles <- p.t3_cycles ();
          t.last_level <- Hit_l3;
          (match p.t3_decay () with
          | Some (clean, read) -> note_l3_decay t ~lut ~clean ~read
          | None -> ());
          Lut.insert t.l1 ~lut_id:lut ~key ~payload (l1_evict_hook t);
          (match t.profile with
          | Some pr -> pr.pr_insert ~lev:`L1 ~lut ~key ~fp:None
          | None -> ());
          (match t.l2 with
          | Some l2 ->
              Lut.insert l2 ~lut_id:lut ~key ~payload (l2_evict_hook t);
              (match t.profile with
              | Some pr -> pr.pr_insert ~lev:`L2 ~lut ~key ~fp:None
              | None -> ())
          | None -> (
              match t.shared_l2 with
              | Some s ->
                  s.sl_insert ~lut_id:lut ~key ~payload;
                  (match t.profile with
                  | Some pr -> pr.pr_insert ~lev:`L2 ~lut ~key ~fp:None
                  | None -> ())
              | None -> ()));
          Some payload
      | None ->
          t.last_l3_cycles <- p.t3_cycles ();
          t.last_level <- Miss;
          None)

let lookup_tid t ~tid ~lut =
  t.lookups <- t.lookups + 1;
  t.last_l3_cycles <- 0;
  adapt_tick t;
  if t.monitor.tripped then begin
    t.last_level <- Miss;
    t.misses <- t.misses + 1;
    (* Tripped units never compute a key; the profiler sees a forced miss. *)
    (match t.profile with
    | Some pr -> pr.pr_lookup ~lut ~key:0L ~fp:None ~level:Miss ~forced:true
    | None -> ());
    None
  end
  else begin
    t.pr_forced <- false;
    let hvr = slot t ~tid lut in
    let key = Crc.Engine.value hvr.tag in
    (* The HVR holds the in-flight hash; an upset there corrupts the key the
       probe and a subsequent update both use. *)
    let key =
      match t.injector with
      | None -> key
      | Some inj -> Injector.corrupt inj Fault_model.Hvr ~width:t.cfg.crc.Crc.Poly.width key
    in
    (match hvr.fp_engine with Some e -> hvr.fp <- Crc.Engine.value e | None -> ());
    (* The hash register is consumed: the next send starts a fresh hash. *)
    clear_register hvr;
    hvr.latched <- true;
    hvr.key <- key;
    let result =
      match Lut.lookup t.l1 ~lut_id:lut ~key with
      | Some _ as hit ->
          t.last_level <- Hit_l1;
          hit
      | None -> (
          match t.l2 with
          | None -> (
              match t.shared_l2 with
              | None -> probe_l3 t ~lut ~key
              | Some s -> (
                  match s.sl_lookup ~lut_id:lut ~key with
                  | Some payload as hit ->
                      t.last_level <- Hit_l2;
                      (* The shared level is inclusive too: fill the L1 LUT. *)
                      Lut.insert t.l1 ~lut_id:lut ~key ~payload (l1_evict_hook t);
                      (match t.profile with
                      | Some pr -> pr.pr_insert ~lev:`L1 ~lut ~key ~fp:None
                      | None -> ());
                      hit
                  | None -> probe_l3 t ~lut ~key))
          | Some l2 -> (
              match Lut.lookup l2 ~lut_id:lut ~key with
              | Some payload as hit ->
                  t.last_level <- Hit_l2;
                  (* Fill the L1 LUT on an L2 hit (inclusive hierarchy). *)
                  Lut.insert t.l1 ~lut_id:lut ~key ~payload (l1_evict_hook t);
                  (match t.profile with
                  | Some pr -> pr.pr_insert ~lev:`L1 ~lut ~key ~fp:None
                  | None -> ());
                  hit
              | None -> probe_l3 t ~lut ~key))
    in
    let result =
      match (t.adapt, result) with
      | Some a, Some payload when a.profiling ->
          Hashtbl.replace a.pending_cmp lut (key, payload);
          t.forced_misses <- t.forced_misses + 1;
          t.last_level <- Miss;
          t.pr_forced <- true;
          None
      | Some a, r ->
          a.norm_lookups <- a.norm_lookups + 1;
          if r <> None then a.norm_hits <- a.norm_hits + 1;
          r
      | None, r -> r
    in
    match result with
    | None ->
        t.misses <- t.misses + 1;
        (match t.profile with
        | Some pr -> pr.pr_lookup ~lut ~key ~fp:(latched_fp hvr) ~level:Miss ~forced:t.pr_forced
        | None -> ());
        None
    | Some payload as hit ->
        t.monitor.hits_seen <- t.monitor.hits_seen + 1;
        record_hit_fingerprint t ~lut ~key hvr;
        if monitor_should_force t then begin
          (* Forced miss: the program recomputes; [update] will compare. *)
          t.monitor.pending <- Some (lut, key, payload);
          t.forced_misses <- t.forced_misses + 1;
          t.misses <- t.misses + 1;
          t.last_level <- Miss;
          (match t.profile with
          | Some pr -> pr.pr_lookup ~lut ~key ~fp:(latched_fp hvr) ~level:Miss ~forced:true
          | None -> ());
          None
        end
        else begin
          (match t.last_level with
          | Hit_l1 -> t.l1_hits <- t.l1_hits + 1
          | Hit_l2 -> t.l2_hits <- t.l2_hits + 1
          | Hit_l3 -> t.l3_hits <- t.l3_hits + 1
          | Miss -> ());
          (match t.profile with
          | Some pr ->
              pr.pr_lookup ~lut ~key ~fp:(latched_fp hvr) ~level:t.last_level ~forced:false
          | None -> ());
          hit
        end
  end

let lookup ?(tid = 0) t ~lut = lookup_tid t ~tid ~lut

let monitor_compare t ~lut ~expected_payload ~actual_payload =
  let m = t.monitor in
  m.comparisons <- m.comparisons + 1;
  let kind =
    match Hashtbl.find_opt t.decls lut with
    | Some d -> d.payload
    | None -> Payload.Pi64
  in
  let errs =
    Payload.relative_errors kind ~expected:actual_payload ~actual:expected_payload
  in
  let bad = Array.exists (fun e -> e > error_threshold) errs in
  (match t.profile with
  | Some pr -> pr.pr_error ~lut ~err:(Array.fold_left Float.max 0.0 errs)
  | None -> ());
  monitor_note t ~bad

(* Whether the slot (if any) latched [key] at its last lookup. *)
let latches sl key =
  match sl with Some s -> s.latched && Int64.equal s.key key | None -> false

let fp_table t lut =
  match t.fingerprints.(lut) with
  | Some tbl -> tbl
  | None ->
      let tbl = Fp_table.create 256 in
      t.fingerprints.(lut) <- Some tbl;
      tbl

let update_tid t ~tid ~lut payload =
  if not t.monitor.tripped then begin
    t.updates <- t.updates + 1;
    let sl = existing_slot t ~tid lut in
    (match t.adapt with
    | Some a -> (
        match Hashtbl.find_opt a.pending_cmp lut with
        | Some (pkey, lut_payload) when latches sl pkey ->
            let kind =
              match Hashtbl.find_opt t.decls lut with
              | Some d -> d.payload
              | None -> Payload.Pi64
            in
            let errs = Payload.relative_errors kind ~expected:payload ~actual:lut_payload in
            let worst = Array.fold_left Float.max 0.0 errs in
            let bucket =
              match Hashtbl.find_opt a.samples lut with
              | Some r -> r
              | None ->
                  let r = ref [] in
                  Hashtbl.add a.samples lut r;
                  r
            in
            bucket := worst :: !bucket;
            (match t.profile with
            | Some pr -> pr.pr_error ~lut ~err:worst
            | None -> ());
            Hashtbl.remove a.pending_cmp lut
        | Some _ | None -> ())
    | None -> ());
    (match t.monitor.pending with
    | Some (plut, pkey, lut_payload) when plut = lut && latches sl pkey ->
        monitor_compare t ~lut ~expected_payload:lut_payload ~actual_payload:payload;
        t.monitor.pending <- None
    | Some _ | None -> ());
    match sl with
    | Some s when s.latched ->
        let key = s.key in
        Lut.insert t.l1 ~lut_id:lut ~key ~payload (l1_evict_hook t);
        (match t.l2 with
        | Some l2 -> Lut.insert l2 ~lut_id:lut ~key ~payload (l2_evict_hook t)
        | None -> (
            match t.shared_l2 with
            | Some s -> s.sl_insert ~lut_id:lut ~key ~payload
            | None -> ()));
        (match t.profile with
        | Some pr ->
            let fp = latched_fp s in
            pr.pr_insert ~lev:`L1 ~lut ~key ~fp;
            if Option.is_some t.l2 || Option.is_some t.shared_l2 then
              pr.pr_insert ~lev:`L2 ~lut ~key ~fp
        | None -> ());
        if t.cfg.collision_tracking then Fp_table.replace (fp_table t lut) key s.fp
    | Some _ | None -> ()  (* update without a preceding lookup: drop, as hardware would *)
  end

let update ?(tid = 0) t ~lut payload = update_tid t ~tid ~lut payload

let invalidate t ~lut =
  t.invalidations <- t.invalidations + 1;
  Lut.invalidate_lut t.l1 ~lut_id:lut;
  Option.iter (fun l2 -> Lut.invalidate_lut l2 ~lut_id:lut) t.l2;
  (match t.shared_l2 with Some s -> s.sl_invalidate ~lut_id:lut | None -> ());
  (match t.l3 with Some p -> p.t3_invalidate ~lut_id:lut | None -> ());
  (match t.profile with Some pr -> pr.pr_invalidate ~lut | None -> ());
  (* Every thread's in-flight hash for [lut] is dropped; latched keys stay. *)
  for tid = 0 to (Array.length t.slots / 8) - 1 do
    match existing_slot t ~tid lut with Some s -> clear_register s | None -> ()
  done

(* Receiver side of the cross-core invalidate broadcast: another core retired
   an [invalidate] for [lut], so this core's private L1 copies are stale. Only
   the storage is dropped — in-flight hashes, latched keys and the local
   invalidation count belong to this core's own instruction stream. *)
let invalidate_external t ~lut =
  Lut.invalidate_lut t.l1 ~lut_id:lut;
  match t.profile with Some pr -> pr.pr_invalidate ~lut | None -> ()

(* Receiver side of a cross-NODE point-to-point invalidation: the same L1
   drop as [invalidate_external], but miss-reason attribution stays with the
   caller — the cluster layer marks its collectors with the remote reason so
   directory traffic is distinguishable in miss attribution. *)
let invalidate_remote t ~lut = Lut.invalidate_lut t.l1 ~lut_id:lut

let l1_holds t ~lut = Lut.holds_lut t.l1 ~lut_id:lut

let hooks ?(tid = 0) t : Interp.memo_hooks =
  {
    send = (fun ~lut ~ty ~trunc v -> send_tid t ~tid ~lut ~ty ~trunc v);
    lookup = (fun ~lut -> lookup_tid t ~tid ~lut);
    update = (fun ~lut payload -> update_tid t ~tid ~lut payload);
    invalidate = (fun ~lut -> invalidate t ~lut);
  }

let last_lookup_level t = t.last_level

let stats t =
  {
    sends = t.sends;
    bytes_hashed = t.bytes_hashed;
    lookups = t.lookups;
    l1_hits = t.l1_hits;
    l2_hits = t.l2_hits;
    l3_hits = t.l3_hits;
    misses = t.misses;
    forced_misses = t.forced_misses;
    updates = t.updates;
    invalidations = t.invalidations;
    collisions = t.collisions;
    monitor_comparisons = t.monitor.comparisons;
  }

let hit_rate t =
  if t.lookups = 0 then 0.0
  else float_of_int (t.l1_hits + t.l2_hits + t.l3_hits) /. float_of_int t.lookups

let flush_metrics t =
  match t.telem with
  | None -> ()
  | Some tl ->
      Array.iteri
        (fun trunc n ->
          if n > 0 then begin
            Registry.observe_n tl.trunc_hist (float_of_int trunc) n;
            tl.trunc_counts.(trunc) <- 0
          end)
        tl.trunc_counts;
      Registry.set_count tl.sends_c t.sends;
      Registry.set_count tl.bytes_hashed_c t.bytes_hashed;
      Registry.set_count tl.lookups_c t.lookups;
      Registry.set_count tl.l1_hits_c t.l1_hits;
      Registry.set_count tl.l2_hits_c t.l2_hits;
      (match t.l3_hits_c with
      | Some c -> Registry.set_count c t.l3_hits
      | None -> ());
      Registry.set_count tl.misses_c t.misses;
      Registry.set_count tl.forced_misses_c t.forced_misses;
      Registry.set_count tl.updates_c t.updates;
      Registry.set_count tl.invalidations_c t.invalidations;
      Registry.set_count tl.collisions_c t.collisions;
      Registry.set_count tl.mon_comparisons_c t.monitor.comparisons;
      Array.iter
        (fun n -> Registry.observe tl.l1_occ (float_of_int n))
        (Lut.set_occupancies t.l1);
      (match (tl.l2_occ, t.l2) with
      | Some h, Some l2 ->
          Array.iter (fun n -> Registry.observe h (float_of_int n)) (Lut.set_occupancies l2)
      | _ -> ());
      Registry.set tl.hit_rate_g (hit_rate t);
      Registry.set tl.tripped_g (if t.monitor.tripped then 1.0 else 0.0);
      match (t.fault_telem, t.injector) with
      | Some ft, Some inj ->
          let s = Injector.stats inj in
          Registry.set_count ft.injected_c s.injected_total;
          List.iter
            (fun (site, c) -> Registry.set_count c (Injector.injected_at inj site))
            ft.by_site;
          Registry.set_count ft.parity_detected_c s.parity_detected;
          Registry.set_count ft.secded_corrected_c s.secded_corrected;
          Registry.set_count ft.secded_detected_c s.secded_detected;
          Registry.set_count ft.sdc_hits_c s.sdc_hits;
          Registry.set_count ft.tag_aliases_c s.tag_aliases;
          Registry.set ft.trip_lookup_g
            (match t.monitor.trip_at with Some n -> float_of_int n | None -> -1.0)
      | _ -> ()

let l1_ways t = Lut.ways t.l1
let l1_lut t = t.l1

let lut_entries t =
  Lut.entries t.l1 @ (match t.l2 with Some l2 -> Lut.entries l2 | None -> [])

let reset t =
  Lut.invalidate_all t.l1;
  Option.iter Lut.invalidate_all t.l2;
  Array.iter
    (function
      | Some s ->
          clear_register s;
          s.latched <- false
      | None -> ())
    t.slots;
  Array.iter (function Some tbl -> Fp_table.reset tbl | None -> ()) t.fingerprints;
  t.monitor.hits_seen <- 0;
  t.monitor.pending <- None;
  t.monitor.window_count <- 0;
  t.monitor.window_bad <- 0;
  t.monitor.comparisons <- 0;
  t.monitor.tripped <- false;
  t.monitor.trip_at <- None;
  t.monitor.total_samples <- 0;
  t.monitor.total_bad <- 0;
  (match (t.adapt, t.cfg.adaptive) with
  | Some a, Some cfg ->
      a.countdown <- cfg.profile_period;
      a.profiling <- false;
      a.norm_lookups <- 0;
      a.norm_hits <- 0;
      Hashtbl.reset a.deltas;
      Hashtbl.reset a.pending_cmp;
      Hashtbl.reset a.samples
  | _ -> ());
  t.last_level <- Miss;
  t.last_l3_cycles <- 0;
  t.sends <- 0;
  t.bytes_hashed <- 0;
  t.lookups <- 0;
  t.l1_hits <- 0;
  t.l2_hits <- 0;
  t.l3_hits <- 0;
  t.misses <- 0;
  t.forced_misses <- 0;
  t.updates <- 0;
  t.invalidations <- 0;
  t.collisions <- 0
