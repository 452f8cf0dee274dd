module Injector = Axmemo_faults.Injector
module Fault_model = Axmemo_faults.Fault_model
module Protection = Axmemo_faults.Protection
module Bits = Axmemo_util.Bits
module Rng = Axmemo_util.Rng

(* One set always occupies one 64-byte line: 8 ways with 4-byte payloads or
   4 ways with 8-byte payloads (Section 3.3). *)
let set_bytes = 64

type policy = Lru | Fifo | Random

(* Shadow fault state. The true arrays in [t] keep what the simulator wrote;
   faults accumulate as XOR deltas against them, so what the "hardware" reads
   is [stored lxor err]. Rewriting an entry rewrites the cell and clears its
   delta. Keeping the deltas beside the truth is what lets modeled SECDED
   undo a flip exactly and lets the campaign count silent corruptions. *)
type fault_port = {
  inj : Injector.t;
  sites : Fault_model.lut_sites;
  key_err : int64 array;
  payload_err : int64 array;
  valid_err : bool array;
}

type t = {
  policy : policy;
  mutable rand_state : int64;
  nsets : int;
  nways : int;
  payload_bytes : int;
  valid : bool array;
  lut_ids : int array;
  keys : int64 array;  (* full CRC key; hardware stores only the upper bits *)
  payloads : int64 array;
  lru : int array;
  mutable clock : int;
  (* live count of set [valid] bits, so [occupancy] is O(1) — eviction
     observers (telemetry, the attribution profiler) read it per spill *)
  mutable occupied : int;
  faults : fault_port option;
}

let create ?(payload_bytes = 8) ?(policy = Lru) ?faults ~size_bytes () =
  let nways =
    match payload_bytes with
    | 4 -> 8
    | 8 -> 4
    | _ -> invalid_arg "Lut.create: payload_bytes must be 4 or 8"
  in
  if size_bytes <= 0 || size_bytes mod set_bytes <> 0 then
    invalid_arg "Lut.create: size must be a positive multiple of 64 bytes";
  let nsets = size_bytes / set_bytes in
  let n = nsets * nways in
  {
    policy;
    rand_state = Rng.derive_stream 0x9E3779B97F4A7C15L;
    nsets;
    nways;
    payload_bytes;
    valid = Array.make n false;
    lut_ids = Array.make n 0;
    keys = Array.make n 0L;
    payloads = Array.make n 0L;
    lru = Array.make n 0;
    clock = 0;
    occupied = 0;
    faults =
      Option.map
        (fun (inj, sites) ->
          {
            inj;
            sites;
            key_err = Array.make n 0L;
            payload_err = Array.make n 0L;
            valid_err = Array.make n false;
          })
        faults;
  }

let sets t = t.nsets
let ways t = t.nways
let payload_bytes t = t.payload_bytes
let capacity_entries t = t.nsets * t.nways

let set_of_key t key = Int64.to_int (Int64.rem (Int64.logand key 0x7FFFFFFFFFFFFFFFL) (Int64.of_int t.nsets))

let touch t idx =
  t.clock <- t.clock + 1;
  t.lru.(idx) <- t.clock

(* Only LRU tracks recency: FIFO keeps insertion order (refreshes on hit are
   skipped) and Random never reads the clock at all. *)
let touch_on_hit t idx = match t.policy with Lru -> touch t idx | Fifo | Random -> ()

let next_rand t =
  let x = t.rand_state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.rand_state <- x;
  Int64.to_int (Int64.logand x 0x3FFFFFFFL)

(* ---- fault plumbing -------------------------------------------------- *)

(* Tag faults strike the stored 4-byte tag field, so flips stay in the low
   32 bits of the key delta; LRU counters are modeled as 16-bit fields. *)
let tag_width = 32
let lru_width = 16

let clear_err fp idx =
  fp.key_err.(idx) <- 0L;
  fp.payload_err.(idx) <- 0L;
  fp.valid_err.(idx) <- false

let eff_valid_fp fp t idx = t.valid.(idx) <> fp.valid_err.(idx)

(* the valid bit the victim scan sees *)
let is_valid t idx =
  match t.faults with None -> t.valid.(idx) | Some fp -> eff_valid_fp fp t idx

let eff_key_fp fp t idx = Int64.logxor t.keys.(idx) fp.key_err.(idx)
let eff_payload_fp fp t idx = Int64.logxor t.payloads.(idx) fp.payload_err.(idx)

(* Draw one fault opportunity per site per way of the probed set — what one
   set read exposes to upsets. Ordering (tag, payload, valid, lru per way,
   ways ascending) is fixed so a seeded stream replays bit-identically. *)
let inject_set fp t set =
  let base = set * t.nways in
  for w = 0 to t.nways - 1 do
    let idx = base + w in
    let eff = eff_key_fp fp t idx in
    let eff' = Injector.corrupt fp.inj fp.sites.tag ~width:tag_width eff in
    if eff' <> eff then fp.key_err.(idx) <- Int64.logxor eff' t.keys.(idx);
    let eff = eff_payload_fp fp t idx in
    let eff' =
      Injector.corrupt fp.inj fp.sites.payload ~width:(8 * t.payload_bytes) eff
    in
    if eff' <> eff then fp.payload_err.(idx) <- Int64.logxor eff' t.payloads.(idx);
    let eff = if eff_valid_fp fp t idx then 1L else 0L in
    let eff' = Injector.corrupt fp.inj fp.sites.valid ~width:1 eff in
    if eff' <> eff then fp.valid_err.(idx) <- not fp.valid_err.(idx);
    let eff = Int64.of_int t.lru.(idx) in
    let eff' = Injector.corrupt fp.inj fp.sites.lru ~width:lru_width eff in
    if eff' <> eff then t.lru.(idx) <- Int64.to_int eff'
  done

let inject_probe t key =
  match t.faults with
  | None -> ()
  | Some fp -> inject_set fp t (set_of_key t key)

let error_bits fp idx =
  Bits.popcount64 fp.key_err.(idx)
  + Bits.popcount64 fp.payload_err.(idx)
  + if fp.valid_err.(idx) then 1 else 0

let invalidate_entry fp t idx =
  if t.valid.(idx) then t.occupied <- t.occupied - 1;
  t.valid.(idx) <- false;
  clear_err fp idx

(* A way matched the probe; decide what the protected read returns. Parity
   catches odd-weight errors and turns them into a miss; SECDED corrects a
   single flip (a corrected tag or valid bit un-matches the probe, so those
   corrections surface as misses), detects doubles, and silently miscorrects
   triples and worse. Anything corrupted that reaches the program is counted
   as an SDC hit. *)
let faulty_hit fp t idx =
  let n = error_bits fp idx in
  if fp.key_err.(idx) <> 0L then Injector.note_alias fp.inj;
  let corrupted_hit () =
    if n > 0 then Injector.note_sdc fp.inj;
    let payload = eff_payload_fp fp t idx in
    touch_on_hit t idx;
    Some payload
  in
  match Injector.protection fp.inj with
  | Protection.Unprotected -> corrupted_hit ()
  | Protection.Parity ->
      if n = 0 then corrupted_hit ()
      else if n land 1 = 1 then begin
        Injector.note_parity_detected fp.inj;
        invalidate_entry fp t idx;
        None
      end
      else corrupted_hit ()
  | Protection.Secded ->
      if n = 0 then corrupted_hit ()
      else if n = 1 then begin
        Injector.note_secded_corrected fp.inj;
        if fp.key_err.(idx) <> 0L || fp.valid_err.(idx) then begin
          (* restoring the true tag / valid bit un-matches the probe *)
          clear_err fp idx;
          None
        end
        else begin
          fp.payload_err.(idx) <- 0L;
          touch_on_hit t idx;
          Some t.payloads.(idx)
        end
      end
      else if n = 2 then begin
        Injector.note_secded_detected fp.inj;
        invalidate_entry fp t idx;
        None
      end
      else corrupted_hit ()

(* ---------------------------------------------------------------------- *)

(* The index of the way holding [(lut_id, key)] in its set, or -1. A loop
   rather than a local recursive function, which would allocate a closure
   per probe. *)
let find t ~lut_id ~key =
  let base = set_of_key t key * t.nways in
  let found = ref (-1) in
  let w = ref 0 in
  (match t.faults with
  | None ->
      while !found < 0 && !w < t.nways do
        let idx = base + !w in
        if t.valid.(idx) && t.lut_ids.(idx) = lut_id && t.keys.(idx) = key then found := idx;
        incr w
      done
  | Some fp ->
      (* the hardware comparators see the (possibly corrupted) stored bits *)
      while !found < 0 && !w < t.nways do
        let idx = base + !w in
        if eff_valid_fp fp t idx && t.lut_ids.(idx) = lut_id && eff_key_fp fp t idx = key
        then found := idx;
        incr w
      done);
  !found

let lookup t ~lut_id ~key =
  inject_probe t key;
  let idx = find t ~lut_id ~key in
  if idx < 0 then None
  else
    match t.faults with
    | None ->
        touch_on_hit t idx;
        Some t.payloads.(idx)
    | Some fp -> faulty_hit fp t idx

let insert ?ways t ~lut_id ~key ~payload evict_hook =
  inject_probe t key;
  (* Allocation may be confined to a way range (shared-LUT partitioning, CAT
     style): hits and in-place refreshes still match any way, but the victim
     for a new entry comes only from [lo..hi]. The full range reproduces the
     unrestricted scan exactly. *)
  let lo, hi =
    match ways with
    | None -> (0, t.nways - 1)
    | Some (lo, hi) ->
        if lo < 0 || hi >= t.nways || lo > hi then
          invalid_arg "Lut.insert: way range out of bounds";
        (lo, hi)
  in
  match find t ~lut_id ~key with
  | idx when idx >= 0 ->
      t.payloads.(idx) <- payload;
      (match t.faults with
      | Some fp -> fp.payload_err.(idx) <- 0L  (* the cell was rewritten *)
      | None -> ());
      touch_on_hit t idx
  | _ ->
      let set = set_of_key t key in
      let base = set * t.nways in
      let victim = ref (base + lo) in
      (try
         for w = lo to hi do
           if not (is_valid t (base + w)) then begin
             victim := base + w;
             raise Exit
           end
         done;
         match t.policy with
         | Lru | Fifo ->
             for w = lo + 1 to hi do
               if t.lru.(base + w) < t.lru.(!victim) then victim := base + w
             done
         | Random -> victim := base + lo + (next_rand t mod (hi - lo + 1))
       with Exit -> ());
      let idx = !victim in
      if is_valid t idx then begin
        match evict_hook with
        | Some f -> (
            match t.faults with
            | None -> f ~lut_id:t.lut_ids.(idx) ~key:t.keys.(idx) ~payload:t.payloads.(idx)
            | Some fp ->
                (* the spill reads the same bits the comparators saw *)
                f ~lut_id:t.lut_ids.(idx) ~key:(eff_key_fp fp t idx)
                  ~payload:(eff_payload_fp fp t idx))
        | None -> ()
      end;
      if not t.valid.(idx) then t.occupied <- t.occupied + 1;
      t.valid.(idx) <- true;
      t.lut_ids.(idx) <- lut_id;
      t.keys.(idx) <- key;
      t.payloads.(idx) <- payload;
      (match t.faults with Some fp -> clear_err fp idx | None -> ());
      (match t.policy with Lru | Fifo -> touch t idx | Random -> ())

let invalidate_lut t ~lut_id =
  for i = 0 to Array.length t.valid - 1 do
    if t.valid.(i) && t.lut_ids.(i) = lut_id then begin
      t.valid.(i) <- false;
      t.occupied <- t.occupied - 1;
      match t.faults with
      | Some fp -> fp.valid_err.(i) <- false  (* the valid bit was rewritten *)
      | None -> ()
    end
  done

(* Directory-driven drop of one entry (a remote write invalidating a stale
   replica): clears every way holding (lut_id, key) in the entry's set,
   reading the true stored bits like [invalidate_lut]. *)
let invalidate_entry t ~lut_id ~key =
  let set = set_of_key t key in
  let base = set * t.nways in
  let dropped = ref false in
  for w = 0 to t.nways - 1 do
    let idx = base + w in
    if t.valid.(idx) && t.lut_ids.(idx) = lut_id && t.keys.(idx) = key then begin
      t.valid.(idx) <- false;
      t.occupied <- t.occupied - 1;
      (match t.faults with
      | Some fp -> fp.valid_err.(idx) <- false
      | None -> ());
      dropped := true
    end
  done;
  !dropped

let holds_lut t ~lut_id =
  let n = Array.length t.valid in
  let rec go i =
    if i >= n then false
    else (t.valid.(i) && t.lut_ids.(i) = lut_id) || go (i + 1)
  in
  go 0

let invalidate_all t =
  Array.fill t.valid 0 (Array.length t.valid) false;
  t.occupied <- 0;
  match t.faults with
  | Some fp -> Array.fill fp.valid_err 0 (Array.length fp.valid_err) false
  | None -> ()

let entries t =
  let acc = ref [] in
  for i = 0 to Array.length t.valid - 1 do
    if t.valid.(i) then acc := (t.lut_ids.(i), t.keys.(i), t.payloads.(i)) :: !acc
  done;
  !acc

(* Deterministic enumeration for snapshots: set-major, way-minor, valid
   entries only. Reads the true stored bits (not the fault-shadowed view) —
   a snapshot records what the simulator wrote, and draws no fault
   opportunities. Allocation-free: plain nested loops over the flat arrays. *)
let iter_entries t f =
  for set = 0 to t.nsets - 1 do
    let base = set * t.nways in
    for w = 0 to t.nways - 1 do
      let idx = base + w in
      if t.valid.(idx) then
        f ~set ~way:w ~lut_id:t.lut_ids.(idx) ~key:t.keys.(idx)
          ~payload:t.payloads.(idx) ~lru:t.lru.(idx)
    done
  done

(* Snapshot restore port. Deliberately NOT [insert]: it must not draw fault
   opportunities ([inject_probe]), must not fire the evict hook (a restore is
   not a spill), and must rebuild recency deterministically — each call
   advances the clock, so replaying entries oldest-first reproduces the
   captured LRU order. A full set silently evicts its min-recency way
   (regardless of policy; the scan never perturbs the Random stream). *)
let restore_entry t ~lut_id ~key ~payload =
  let set = set_of_key t key in
  let base = set * t.nways in
  let idx =
    match find t ~lut_id ~key with
    | idx when idx >= 0 -> idx
    | _ ->
        let victim = ref (-1) in
        (try
           for w = 0 to t.nways - 1 do
             if not (t.valid.(base + w)) then begin
               victim := base + w;
               raise Exit
             end
           done;
           victim := base;
           for w = 1 to t.nways - 1 do
             if t.lru.(base + w) < t.lru.(!victim) then victim := base + w
           done
         with Exit -> ());
        !victim
  in
  if not t.valid.(idx) then t.occupied <- t.occupied + 1;
  t.valid.(idx) <- true;
  t.lut_ids.(idx) <- lut_id;
  t.keys.(idx) <- key;
  t.payloads.(idx) <- payload;
  (match t.faults with Some fp -> clear_err fp idx | None -> ());
  touch t idx

let occupancy t = t.occupied

let set_occupancies t =
  Array.init t.nsets (fun set ->
      let base = set * t.nways in
      let n = ref 0 in
      for w = 0 to t.nways - 1 do
        if t.valid.(base + w) then incr n
      done;
      !n)
