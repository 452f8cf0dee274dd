module Lut = Axmemo_memo.Lut
module Registry = Axmemo_telemetry.Registry
module Injector = Axmemo_faults.Injector
module Fault_model = Axmemo_faults.Fault_model

type partition =
  | Free_for_all
  | Static
  | Utility of { period : int }

let partition_name = function
  | Free_for_all -> "free-for-all"
  | Static -> "static"
  | Utility _ -> "utility"

let parse_partition = function
  | "free-for-all" | "ffa" -> Some Free_for_all
  | "static" -> Some Static
  | "utility" -> Some (Utility { period = 2048 })
  | _ -> None

type telem = {
  lookups_c : Registry.counter;
  hits_c : Registry.counter;
  inserts_c : Registry.counter;
  evictions_c : Registry.counter;
  invalidations_c : Registry.counter;
  repartitions_c : Registry.counter;
  occupancy_g : Registry.gauge;
}

type t = {
  lut : Lut.t;
  ncores : int;
  partition : partition;
  (* Current allocation window per core, inclusive way range. Lookups hit in
     any way (CAT semantics); only victim selection is confined. *)
  ranges : (int * int) array;
  window_hits : int array;  (* shadow hit counters since the last repartition *)
  window_lookups : int array;
  shadow_hits : int array;  (* cumulative, for the report *)
  mutable accesses : int;  (* lookups since the last repartition *)
  mutable repartitions : int;
  mutable evict_opt : (lut_id:int -> key:int64 -> payload:int64 -> unit) option;
  telem : telem option;
}

(* The static split: contiguous, near-equal way ranges in core order —
   core i owns ways [i*W/N .. (i+1)*W/N - 1]. *)
let static_ranges ~ncores ~nways =
  Array.init ncores (fun i ->
      let lo = i * nways / ncores and hi = ((i + 1) * nways / ncores) - 1 in
      (lo, hi))

let full_ranges ~ncores ~nways = Array.make ncores (0, nways - 1)

let create ?metrics ?faults ?(payload_bytes = 8) ?(policy = Lut.Lru) ~ncores ~size_bytes
    ~partition () =
  if ncores < 1 then invalid_arg "Shared_lut.create: need at least one core";
  let lut = Lut.create ~payload_bytes ~policy ?faults ~size_bytes () in
  let nways = Lut.ways lut in
  (match partition with
  | Free_for_all -> ()
  | Static | Utility _ ->
      if ncores > nways then
        invalid_arg
          (Printf.sprintf
             "Shared_lut.create: %d cores cannot each own a way of a %d-way LUT" ncores
             nways));
  (match partition with
  | Utility { period } ->
      if period < 1 then invalid_arg "Shared_lut.create: utility period must be positive"
  | Free_for_all | Static -> ());
  let ranges =
    match partition with
    | Free_for_all -> full_ranges ~ncores ~nways
    | Static | Utility _ -> static_ranges ~ncores ~nways
  in
  let telem =
    Option.map
      (fun reg ->
        let counter = Registry.counter reg in
        {
          lookups_c = counter "sharedlut.lookups";
          hits_c = counter "sharedlut.hits";
          inserts_c = counter "sharedlut.inserts";
          evictions_c = counter "sharedlut.evictions";
          invalidations_c = counter "sharedlut.invalidations";
          repartitions_c = counter "sharedlut.repartitions";
          occupancy_g = Registry.gauge reg "sharedlut.occupancy";
        })
      metrics
  in
  let evict_opt =
    Option.map (fun tl ~lut_id:_ ~key:_ ~payload:_ -> Registry.incr tl.evictions_c) telem
  in
  {
    lut;
    ncores;
    partition;
    ranges;
    window_hits = Array.make ncores 0;
    window_lookups = Array.make ncores 0;
    shadow_hits = Array.make ncores 0;
    accesses = 0;
    repartitions = 0;
    evict_opt;
    telem;
  }

(* The profiler's residency feed. The combined hook replaces [evict_opt]
   wholesale, so the telemetry counter keeps firing and the hot path still
   pays a single option match per eviction. [full] is computed while the
   victim is still counted, mirroring the private levels' convention. *)
let set_evict_observer t f =
  let base = t.evict_opt in
  t.evict_opt <-
    Some
      (fun ~lut_id ~key ~payload ->
        (match base with Some g -> g ~lut_id ~key ~payload | None -> ());
        f ~lut_id ~key ~full:(Lut.occupancy t.lut = Lut.capacity_entries t.lut))

(* The DRAM tier's spill feed. Same wholesale-replacement discipline as
   [set_evict_observer]: the previous hook (telemetry, profiler) keeps
   firing, and the victim's payload rides along so the L3 can absorb it. *)
let set_spill t f =
  let base = t.evict_opt in
  t.evict_opt <-
    Some
      (fun ~lut_id ~key ~payload ->
        (match base with Some g -> g ~lut_id ~key ~payload | None -> ());
        f ~lut_id ~key ~payload)

let lut t = t.lut
let way_range t ~core = t.ranges.(core)
let ways t = Lut.ways t.lut
let set_of_key t key = Lut.set_of_key t.lut key
let repartitions t = t.repartitions
let shadow_hits t = Array.copy t.shadow_hits
let occupancy t = Lut.occupancy t.lut
let entries t = Lut.entries t.lut

(* Utility-based repartition (the shadow-counter scheme): every [period]
   shared-LUT lookups, redistribute the ways in proportion to each core's
   hits in the elapsed window. Every core keeps at least one way; the
   remainder is shared out by largest-remainder with ties broken by core
   index, so the outcome is a pure function of the counters. Entries are
   never moved or flushed — like CAT, a shrunk allocation only steers
   future victim choices. *)
let repartition t =
  let nways = Lut.ways t.lut in
  let spare = nways - t.ncores in
  let total = Array.fold_left ( + ) 0 t.window_hits in
  let quota = Array.make t.ncores 1 in
  if total = 0 then begin
    (* No evidence this window: fall back to the static split. *)
    let st = static_ranges ~ncores:t.ncores ~nways in
    Array.iteri (fun i (lo, hi) -> quota.(i) <- hi - lo + 1) st
  end
  else begin
    let exact =
      Array.map (fun h -> float_of_int (spare * h) /. float_of_int total) t.window_hits
    in
    let floors = Array.map int_of_float exact in
    Array.iteri (fun i f -> quota.(i) <- 1 + f) floors;
    let assigned = Array.fold_left ( + ) 0 quota in
    let rest = nways - assigned in
    (* Largest fractional remainder first; ties go to the lower core index. *)
    let order = Array.init t.ncores (fun i -> i) in
    Array.sort
      (fun a b ->
        let fa = exact.(a) -. float_of_int floors.(a)
        and fb = exact.(b) -. float_of_int floors.(b) in
        if fa = fb then compare a b else compare fb fa)
      order;
    for k = 0 to rest - 1 do
      let i = order.(k mod t.ncores) in
      quota.(i) <- quota.(i) + 1
    done
  end;
  let lo = ref 0 in
  Array.iteri
    (fun i q ->
      t.ranges.(i) <- (!lo, !lo + q - 1);
      lo := !lo + q)
    quota;
  Array.fill t.window_hits 0 t.ncores 0;
  Array.fill t.window_lookups 0 t.ncores 0;
  t.repartitions <- t.repartitions + 1;
  match t.telem with Some tl -> Registry.incr tl.repartitions_c | None -> ()

let lookup t ~core ~lut_id ~key =
  t.window_lookups.(core) <- t.window_lookups.(core) + 1;
  (match t.telem with Some tl -> Registry.incr tl.lookups_c | None -> ());
  let r = Lut.lookup t.lut ~lut_id ~key in
  (match r with
  | Some _ ->
      t.shadow_hits.(core) <- t.shadow_hits.(core) + 1;
      t.window_hits.(core) <- t.window_hits.(core) + 1;
      (match t.telem with Some tl -> Registry.incr tl.hits_c | None -> ())
  | None -> ());
  (match t.partition with
  | Utility { period } ->
      t.accesses <- t.accesses + 1;
      if t.accesses mod period = 0 then repartition t
  | Free_for_all | Static -> ());
  r

let insert t ~core ~lut_id ~key ~payload =
  (match t.telem with Some tl -> Registry.incr tl.inserts_c | None -> ());
  Lut.insert ~ways:t.ranges.(core) t.lut ~lut_id ~key ~payload t.evict_opt

let invalidate_lut t ~lut_id =
  (match t.telem with Some tl -> Registry.incr tl.invalidations_c | None -> ());
  Lut.invalidate_lut t.lut ~lut_id

(* Directory-driven drop of one stale replica after a remote write; counted
   as an invalidation only when an entry was actually dropped, so idle
   directories leave the telemetry untouched. *)
let invalidate_entry t ~lut_id ~key =
  let dropped = Lut.invalidate_entry t.lut ~lut_id ~key in
  (if dropped then
     match t.telem with Some tl -> Registry.incr tl.invalidations_c | None -> ());
  dropped

let flush_metrics t =
  match t.telem with
  | None -> ()
  | Some tl -> Registry.set tl.occupancy_g (float_of_int (Lut.occupancy t.lut))
