module Injector = Axmemo_faults.Injector
module Fault_model = Axmemo_faults.Fault_model
module Registry = Axmemo_telemetry.Registry
module Timing = Axmemo_isa.Timing

(* A stored entry models an 8-byte tag word (valid bit + LUT_ID + full CRC
   key) plus an 8-byte payload word: 16 bytes, so one DRAM row holds
   [row_bytes / 16] entries. *)
let entry_bytes = 16

type config = {
  size_bytes : int;
  row_bytes : int;
  row_hit_cycles : int;
  activate_cycles : int;
  exact_high_bits : int;
}

let default =
  {
    size_bytes = 16 * 1024 * 1024;
    row_bytes = 1024;
    row_hit_cycles = Timing.l3_row_hit_cycles;
    activate_cycles = Timing.l3_activate_cycles;
    exact_high_bits = 48;
  }

type stats = {
  probes : int;
  hits : int;
  misses : int;
  inserts : int;
  evictions : int;
  row_activations : int;
  row_hits : int;
  invalidations : int;
  corrupted_reads : int;
}

let zero_stats =
  {
    probes = 0;
    hits = 0;
    misses = 0;
    inserts = 0;
    evictions = 0;
    row_activations = 0;
    row_hits = 0;
    invalidations = 0;
    corrupted_reads = 0;
  }

type counters = {
  c_probes : Registry.counter;
  c_hits : Registry.counter;
  c_misses : Registry.counter;
  c_spills : Registry.counter;
  c_evictions : Registry.counter;
  c_row_activations : Registry.counter;
  c_row_hits : Registry.counter;
  c_corrupted : Registry.counter;
}

type t = {
  cfg : config;
  nrows : int;
  slots : int;  (* entries per row *)
  valid : bool array;
  lut_ids : int array;
  keys : int64 array;
  payloads : int64 array;
  stamp : int array;  (* global insertion tick, for snapshot age order *)
  fifo : int array;  (* per-row FIFO eviction cursor *)
  mutable tick : int;
  mutable open_row : int;  (* -1 = all banks precharged *)
  mutable occupied : int;
  mutable last_probe_cycles : int;
  mutable last_decay : (int64 * int64) option;
      (* (clean, as-read) of the most recent probe's payload when its relaxed
         low bits had decayed; None on exact reads and misses *)
  injector : Injector.t option;
  counters : counters option;
  mutable s : stats;
}

let create ?metrics ?injector cfg =
  if cfg.row_bytes <= 0 || cfg.row_bytes mod entry_bytes <> 0 then
    invalid_arg "Dram_lut.create: row_bytes must be a positive multiple of 16";
  if cfg.size_bytes <= 0 || cfg.size_bytes mod cfg.row_bytes <> 0 then
    invalid_arg "Dram_lut.create: size_bytes must be a positive multiple of row_bytes";
  if cfg.exact_high_bits < 0 || cfg.exact_high_bits > 64 then
    invalid_arg "Dram_lut.create: exact_high_bits must be within [0, 64]";
  if cfg.row_hit_cycles < 0 || cfg.activate_cycles < 0 then
    invalid_arg "Dram_lut.create: cycle costs must be non-negative";
  let nrows = cfg.size_bytes / cfg.row_bytes in
  let slots = cfg.row_bytes / entry_bytes in
  let n = nrows * slots in
  let counters =
    Option.map
      (fun m ->
        {
          c_probes = Registry.counter m "lut.l3.probes";
          c_hits = Registry.counter m "lut.l3.hits";
          c_misses = Registry.counter m "lut.l3.misses";
          c_spills = Registry.counter m "lut.l3.spills";
          c_evictions = Registry.counter m "lut.l3.evictions";
          c_row_activations = Registry.counter m "lut.l3.row_activations";
          c_row_hits = Registry.counter m "lut.l3.row_hits";
          c_corrupted = Registry.counter m "lut.l3.corrupted_reads";
        })
      metrics
  in
  {
    cfg;
    nrows;
    slots;
    valid = Array.make n false;
    lut_ids = Array.make n 0;
    keys = Array.make n 0L;
    payloads = Array.make n 0L;
    stamp = Array.make n 0;
    fifo = Array.make nrows 0;
    tick = 0;
    open_row = -1;
    occupied = 0;
    last_probe_cycles = 0;
    last_decay = None;
    injector;
    counters;
    s = zero_stats;
  }

let config t = t.cfg
let rows t = t.nrows
let slots_per_row t = t.slots
let capacity_entries t = t.nrows * t.slots
let occupancy t = t.occupied
let stats t = t.s
let last_probe_cycles t = t.last_probe_cycles
let last_decay t = t.last_decay

let bump c f = match c with Some cs -> Registry.incr (f cs) | None -> ()

let row_of_key t key =
  Int64.to_int
    (Int64.rem (Int64.logand key 0x7FFFFFFFFFFFFFFFL) (Int64.of_int t.nrows))

(* Row-buffer model (pLUTo): touching the open row costs one column access;
   switching rows adds a precharge + activate. Writes go through the same
   row buffer (they dirty activation state and burn activation energy) but
   are posted — the pipeline never waits on them. *)
let touch_row t row =
  if t.open_row = row then begin
    t.s <- { t.s with row_hits = t.s.row_hits + 1 };
    bump t.counters (fun c -> c.c_row_hits);
    t.cfg.row_hit_cycles
  end
  else begin
    t.open_row <- row;
    t.s <- { t.s with row_activations = t.s.row_activations + 1 };
    bump t.counters (fun c -> c.c_row_activations);
    t.cfg.activate_cycles + t.cfg.row_hit_cycles
  end

let find_in_row t row ~lut_id ~key =
  let base = row * t.slots in
  let rec go s =
    if s >= t.slots then -1
    else
      let idx = base + s in
      if t.valid.(idx) && t.lut_ids.(idx) = lut_id && t.keys.(idx) = key then idx
      else go (s + 1)
  in
  go 0

(* Approximate payload memory (Akiyama-style criticality split): the high
   [exact_high_bits] live in nominally-refreshed cells, the low bits in
   relaxed cells that may have decayed since the last write. A decayed bit
   is exposed at read time and persists in the array — retention failures
   stay until the cell is rewritten. The [L3_payload] site must be listed
   in the injector's spec for any opportunity to be drawn; otherwise the
   read is exact and perturbs nothing (not even the fault RNG stream). *)
let read_payload t idx =
  let relaxed = 64 - t.cfg.exact_high_bits in
  match t.injector with
  | Some inj when relaxed > 0 ->
      let v = t.payloads.(idx) in
      let v' = Injector.corrupt inj Fault_model.L3_payload ~width:relaxed v in
      if v' <> v then begin
        t.payloads.(idx) <- v';
        t.s <- { t.s with corrupted_reads = t.s.corrupted_reads + 1 };
        bump t.counters (fun c -> c.c_corrupted);
        t.last_decay <- Some (v, v');
        Injector.note_sdc inj
      end;
      v'
  | _ -> t.payloads.(idx)

let probe t ~lut_id ~key =
  t.last_decay <- None;
  t.s <- { t.s with probes = t.s.probes + 1 };
  bump t.counters (fun c -> c.c_probes);
  let row = row_of_key t key in
  let idx = find_in_row t row ~lut_id ~key in
  if idx >= 0 then begin
    t.s <- { t.s with hits = t.s.hits + 1 };
    bump t.counters (fun c -> c.c_hits);
    Some (read_payload t idx)
  end
  else begin
    t.s <- { t.s with misses = t.s.misses + 1 };
    bump t.counters (fun c -> c.c_misses);
    None
  end

let lookup t ~lut_id ~key =
  let row = row_of_key t key in
  t.last_probe_cycles <- touch_row t row;
  probe t ~lut_id ~key

let bulk_lookup t pairs =
  let n = Array.length pairs in
  let order = Array.init n (fun i -> i) in
  (* Stable sort by row so every key sharing a row rides one activation —
     the pLUTo bulk-probe amortisation. *)
  let row_of i =
    let _, key = pairs.(i) in
    row_of_key t key
  in
  Array.sort
    (fun a b ->
      let c = compare (row_of a) (row_of b) in
      if c <> 0 then c else compare a b)
    order;
  let results = Array.make n None in
  let total = ref 0 in
  Array.iter
    (fun i ->
      let lut_id, key = pairs.(i) in
      total := !total + touch_row t (row_of_key t key);
      results.(i) <- probe t ~lut_id ~key)
    order;
  (results, !total)

let write_entry t idx ~lut_id ~key ~payload =
  if not t.valid.(idx) then t.occupied <- t.occupied + 1;
  t.valid.(idx) <- true;
  t.lut_ids.(idx) <- lut_id;
  t.keys.(idx) <- key;
  t.payloads.(idx) <- payload;
  t.tick <- t.tick + 1;
  t.stamp.(idx) <- t.tick

(* Victim slot for a row: first invalid slot, else the FIFO cursor (rows are
   huge, so plain FIFO replacement loses almost nothing over LRU and needs
   no per-access recency writes in DRAM). *)
let victim_slot t row =
  let base = row * t.slots in
  let rec hole s = if s >= t.slots then -1 else if not t.valid.(base + s) then s else hole (s + 1) in
  match hole 0 with
  | -1 ->
      let s = t.fifo.(row) in
      t.fifo.(row) <- (s + 1) mod t.slots;
      (s, true)
  | s -> (s, false)

let insert t ~lut_id ~key ~payload =
  t.s <- { t.s with inserts = t.s.inserts + 1 };
  bump t.counters (fun c -> c.c_spills);
  let row = row_of_key t key in
  ignore (touch_row t row : int);
  let idx = find_in_row t row ~lut_id ~key in
  if idx >= 0 then write_entry t idx ~lut_id ~key ~payload
  else begin
    let slot, evicted = victim_slot t row in
    if evicted then begin
      t.s <- { t.s with evictions = t.s.evictions + 1 };
      bump t.counters (fun c -> c.c_evictions)
    end;
    write_entry t (row * t.slots + slot) ~lut_id ~key ~payload
  end

let invalidate_lut t ~lut_id =
  t.s <- { t.s with invalidations = t.s.invalidations + 1 };
  for i = 0 to Array.length t.valid - 1 do
    if t.valid.(i) && t.lut_ids.(i) = lut_id then begin
      t.valid.(i) <- false;
      t.occupied <- t.occupied - 1
    end
  done

let iter_entries t f =
  for row = 0 to t.nrows - 1 do
    let base = row * t.slots in
    for s = 0 to t.slots - 1 do
      let idx = base + s in
      if t.valid.(idx) then
        f ~row ~slot:s ~lut_id:t.lut_ids.(idx) ~key:t.keys.(idx)
          ~payload:t.payloads.(idx) ~stamp:t.stamp.(idx)
    done
  done

let entries t =
  let acc = ref [] in
  iter_entries t (fun ~row:_ ~slot:_ ~lut_id ~key ~payload ~stamp:_ ->
      acc := (lut_id, key, payload) :: !acc);
  List.rev !acc

(* Restore port: a snapshot replay is a bulk DMA fill, not a probe stream —
   no fault opportunities, no telemetry, no row-buffer perturbation. Replayed
   oldest-first it reproduces the captured per-row FIFO order. *)
let restore_entry t ~lut_id ~key ~payload =
  let row = row_of_key t key in
  let idx = find_in_row t row ~lut_id ~key in
  if idx >= 0 then write_entry t idx ~lut_id ~key ~payload
  else begin
    let slot, _evicted = victim_slot t row in
    write_entry t (row * t.slots + slot) ~lut_id ~key ~payload
  end

(* Row-sorted bulk fill — the batch-warming policy driving the pLUTo
   amortisation [bulk_lookup] models: entries land row-major so each touched
   row pays one activation, while recency stamps are pre-assigned in input
   order so the final array state is bit-identical to a serial
   [restore_entry] replay of the same array (per-row FIFO cursors only see
   their own row's entries, and a stable sort keeps within-row order).
   Returns [(amortised, serial)] row-activation counts: what the sorted
   batch costs vs what the same entries replayed in input order would have
   cost from a precharged bank. Like [restore_entry] the fill itself is a
   DMA-style transfer — no fault opportunities, no telemetry, no row-buffer
   perturbation; callers decide how to bill the returned counts. *)
let bulk_fill t entries =
  let n = Array.length entries in
  let rows =
    Array.map (fun (_, key, _) -> row_of_key t key) entries
  in
  let serial = ref 0 in
  let prev = ref (-1) in
  Array.iter
    (fun r ->
      if r <> !prev then begin
        incr serial;
        prev := r
      end)
    rows;
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare rows.(a) rows.(b) in
      if c <> 0 then c else compare a b)
    order;
  let amortised = ref 0 in
  let prev = ref (-1) in
  let base_tick = t.tick in
  Array.iter
    (fun i ->
      let lut_id, key, payload = entries.(i) in
      let row = rows.(i) in
      if row <> !prev then begin
        incr amortised;
        prev := row
      end;
      let idx = find_in_row t row ~lut_id ~key in
      let idx =
        if idx >= 0 then idx
        else
          let slot, _evicted = victim_slot t row in
          (row * t.slots) + slot
      in
      if not t.valid.(idx) then t.occupied <- t.occupied + 1;
      t.valid.(idx) <- true;
      t.lut_ids.(idx) <- lut_id;
      t.keys.(idx) <- key;
      t.payloads.(idx) <- payload;
      t.stamp.(idx) <- base_tick + i + 1)
    order;
  t.tick <- base_tick + n;
  (!amortised, !serial)
