(* One co-run node: N cores, each with a private pipeline, data-cache
   hierarchy and L1 LUT, over one shared L2 LUT carved from the LLC, a bank
   arbiter and an optional DRAM L3 tier. The sharded cluster composes these
   nodes and drives every request stream; a 1-node cluster is the co-run. *)

module Interp = Axmemo_ir.Interp
module Hierarchy = Axmemo_cache.Hierarchy
module Pipeline = Axmemo_cpu.Pipeline
module Machine = Axmemo_cpu.Machine
module Memo_unit = Axmemo_memo.Memo_unit
module Transform = Axmemo_compiler.Transform
module Workload = Axmemo_workloads.Workload
module Workloads = Axmemo_workloads.Registry
module Registry = Axmemo_telemetry.Registry
module Timing = Axmemo_isa.Timing
module Fault_model = Axmemo_faults.Fault_model
module Injector = Axmemo_faults.Injector
module Runner = Axmemo.Runner
module Profile = Axmemo_obs.Profile
module Dram_lut = Axmemo_tier.Dram_lut
module Snapshot = Axmemo_tier.Snapshot

type config = {
  ncores : int;
  l1_bytes : int;
  shared_l2_bytes : int;
  partition : Shared_lut.partition;
  banks : int;
  ports : int;
  workloads : string list;
  requests : int;
  variant : Workload.variant;
  retain_luts : bool;
  faults : Fault_model.spec option;  (* strikes the shared LUT's storage *)
  l3 : Dram_lut.config option;  (* DRAM LUT tier behind the shared level *)
}

let default =
  {
    ncores = 2;
    l1_bytes = 8 * 1024;
    shared_l2_bytes = 512 * 1024;
    partition = Shared_lut.Free_for_all;
    banks = 8;
    ports = 1;
    workloads = [ "blackscholes" ];
    requests = 8;
    variant = Workload.Sample;
    retain_luts = true;
    faults = None;
    l3 = None;
  }

(* The l3 suffix appears only when the tier is configured, so every
   pre-existing label — and everything keyed off it (baselines, arrival
   seeds) — is untouched by tier-less runs. *)
let label cfg =
  Printf.sprintf "corun(%dcore,%s,%s%s)" cfg.ncores
    (Shared_lut.partition_name cfg.partition)
    (String.concat "+" cfg.workloads)
    (match cfg.l3 with
    | None -> ""
    | Some c -> Printf.sprintf ",l3=%dKB" (c.Dram_lut.size_bytes / 1024))

let machine = Machine.hpi

(* ---- workload mix ----------------------------------------------------- *)

(* One co-run mixes programs that each number their logical LUTs from zero,
   while the per-core unit and the shared level serve a single LUT_ID
   namespace. Each workload therefore gets its regions renumbered onto a
   disjoint id range (in mix order, region order preserved), which leaves a
   single-workload mix — and hence the 1-core Runner.run equivalence —
   untouched, since every benchmark already numbers its regions 0..n-1. *)
type mix_entry = {
  wname : string;
  make : Workload.variant -> Workload.instance;
  offset : int;
  regions : Transform.region list;  (* the probe instance's, renumbered *)
  decls : Memo_unit.lut_decl list;  (* their LUT declarations *)
}

let remap_regions ~offset regions =
  if offset = 0 then regions
  else
    List.map
      (fun (r : Transform.region) -> { r with Transform.lut_id = r.Transform.lut_id + offset })
      regions

(* One probe instance per workload gives its renumbered regions and their
   LUT declarations. *)
let resolve_mix cfg =
  (match cfg.workloads with
  | [] -> invalid_arg "Corun: empty workload mix"
  | _ -> ());
  let next = ref 0 in
  let mix =
    List.map
      (fun name ->
        match Workloads.find name with
        | None -> invalid_arg (Printf.sprintf "Corun: unknown benchmark %S" name)
        | Some (_meta, make) ->
            let probe = make cfg.variant in
            let regions = remap_regions ~offset:!next probe.Workload.regions in
            let decls = Transform.lut_decls probe.Workload.program regions in
            let e = { wname = name; make; offset = !next; regions; decls } in
            next := !next + List.length regions;
            e)
      cfg.workloads
  in
  if !next > 8 then
    invalid_arg
      (Printf.sprintf
         "Corun: the workload mix needs %d logical LUTs but LUT_ID is 3 bits (max 8)"
         !next);
  mix

(* ---- cluster ---------------------------------------------------------- *)

type core_timing = { mutable base : int; mutable clock : unit -> int }

type core = {
  id : int;
  timing : core_timing;
  unit_ : Memo_unit.t;
  hierarchy : Hierarchy.t;
  metrics : Registry.t option;
}

type cluster = {
  cfg : config;
  mix : mix_entry list;
  shared : Shared_lut.t;
  l3 : Dram_lut.t option;  (* DRAM tier absorbing shared-level spills *)
  arbiter : Arbiter.t;
  cores : core array;
  cluster_metrics : Registry.t option;
  injector : Injector.t option;
  active : core_timing ref;
  profiles : Profile.t array option;  (* one collector per core *)
  on_invalidate : (core:int -> lut:int -> at:int -> unit) option;
      (* cross-node directory hook, fired after the local broadcast *)
  inv_counters : (string, Registry.counter) Hashtbl.t;
      (* lazily-created corun.invalidate.* family (see [memo_hooks]) *)
}

type l2_port_maker =
  core:int -> now:(unit -> int) -> local:Memo_unit.shared_l2 -> Memo_unit.shared_l2

(* Every core serves the whole mix's LUT namespace, so every collector is
   declared over the same remapped region list — which is what lets the
   per-core snapshots merge into one cluster profile. *)
let mix_regions mix =
  List.concat_map
    (fun e -> List.map (fun (r : Transform.region) -> (r.kernel, r.lut_id)) e.regions)
    mix

let create_cluster ?(metrics = false) ?(profile = false) ?l2_port ?on_invalidate cfg =
  if cfg.ncores < 1 then invalid_arg "Corun: need at least one core";
  let mix = resolve_mix cfg in
  (* The union of every workload's (renumbered) LUT declarations — what
     each core's unit is built to serve. *)
  let decls = List.concat_map (fun e -> e.decls) mix in
  let profiles =
    if profile then
      let regions = mix_regions mix in
      Some (Array.init cfg.ncores (fun _ -> Profile.create ~regions))
    else None
  in
  let injector = Option.map Injector.create cfg.faults in
  let cluster_metrics = if metrics then Some (Registry.create ()) else None in
  let shared =
    Shared_lut.create ?metrics:cluster_metrics
      ?faults:(Option.map (fun inj -> (inj, Fault_model.l2_sites)) injector)
      ~payload_bytes:Memo_unit.default_config.Memo_unit.payload_bytes
      ~policy:Memo_unit.default_config.Memo_unit.policy ~ncores:cfg.ncores
      ~size_bytes:cfg.shared_l2_bytes ~partition:cfg.partition ()
  in
  let arbiter =
    Arbiter.create ~banks:cfg.banks ~ports:cfg.ports ~window:Timing.lookup_l2_cycles ()
  in
  (* A shared-level eviction drops the key for every core at once, so the
     residency event is broadcast to each collector. *)
  (match profiles with
  | Some ps ->
      Shared_lut.set_evict_observer shared (fun ~lut_id ~key ~full ->
          Array.iter (fun p -> Profile.shared_evict p ~lut:lut_id ~key ~full) ps)
  | None -> ());
  (* The DRAM tier sits behind the shared level: its only fill path is the
     shared LUT's victim stream (an exclusive-ish spill chain), installed on
     top of the telemetry/profiler eviction hooks. *)
  let l3 = Option.map (fun c -> Dram_lut.create ?metrics:cluster_metrics ?injector c) cfg.l3 in
  (match l3 with
  | Some d ->
      Shared_lut.set_spill shared (fun ~lut_id ~key ~payload ->
          Dram_lut.insert d ~lut_id ~key ~payload)
  | None -> ());
  let active = ref { base = 0; clock = (fun () -> 0) } in
  (* Per-cycle fault bases integrate over the clock of whichever core is
     currently executing (requests run one at a time). *)
  (match injector with
  | Some inj ->
      Injector.set_clock inj (fun () ->
          let t = !active in
          t.base + t.clock ())
  | None -> ());
  let mk_core id =
    let timing = { base = 0; clock = (fun () -> 0) } in
    let shared_l2 =
      {
        Memo_unit.sl_lookup =
          (fun ~lut_id ~key ->
            Arbiter.record ~tag:lut_id arbiter ~core:id
              ~set:(Shared_lut.set_of_key shared key)
              ~at:(timing.base + timing.clock ());
            Shared_lut.lookup shared ~core:id ~lut_id ~key);
        sl_insert =
          (fun ~lut_id ~key ~payload ->
            Arbiter.record ~tag:lut_id arbiter ~core:id
              ~set:(Shared_lut.set_of_key shared key)
              ~at:(timing.base + timing.clock ());
            Shared_lut.insert shared ~core:id ~lut_id ~key ~payload);
        sl_invalidate = (fun ~lut_id -> Shared_lut.invalidate_lut shared ~lut_id);
      }
    in
    (* The cluster layer interposes shard routing here: probes and inserts
       whose key homes on another node are redirected over the modeled
       interconnect, everything else falls through to [local]. Absent, the
       unit talks to the node-local shared level exactly as before. *)
    let shared_l2 =
      match l2_port with
      | None -> shared_l2
      | Some make ->
          make ~core:id
            ~now:(fun () -> timing.base + timing.clock ())
            ~local:shared_l2
    in
    let core_metrics = if metrics then Some (Registry.create ()) else None in
    let unit_ =
      Memo_unit.create ?metrics:core_metrics
        ?profile:(Option.map (fun ps -> Profile.memo_hooks ps.(id)) profiles)
        ~shared_l2
        { Memo_unit.default_config with l1_bytes = cfg.l1_bytes }
        decls
    in
    let hierarchy =
      Hierarchy.create (Hierarchy.carve_l2 Hierarchy.hpi_default ~lut_bytes:cfg.shared_l2_bytes)
    in
    { id; timing; unit_; hierarchy; metrics = core_metrics }
  in
  let cores = Array.init cfg.ncores mk_core in
  (* Each unit probes the same DRAM tier on an SRAM miss; the port closures
     close over the cluster's single [Dram_lut.t], so the refill/invalidate
     traffic of every core lands in one structure. *)
  (match l3 with
  | Some d ->
      Array.iter
        (fun c ->
          Memo_unit.attach_l3 c.unit_
            {
              Memo_unit.t3_lookup =
                (fun ~lut_id ~key -> Dram_lut.lookup d ~lut_id ~key);
              t3_cycles = (fun () -> Dram_lut.last_probe_cycles d);
              t3_spill =
                (fun ~lut_id ~key ~payload -> Dram_lut.insert d ~lut_id ~key ~payload);
              t3_invalidate = (fun ~lut_id -> Dram_lut.invalidate_lut d ~lut_id);
              t3_decay = (fun () -> Dram_lut.last_decay d);
            })
        cores
  | None -> ());
  {
    cfg;
    mix;
    shared;
    l3;
    arbiter;
    cores;
    cluster_metrics;
    injector;
    active;
    profiles;
    on_invalidate;
    inv_counters = Hashtbl.create 8;
  }

let core_unit cluster ~core = cluster.cores.(core).unit_
let shared_lut cluster = cluster.shared

(* Cumulative quality-monitor observations across the whole cluster:
   (samples, bad, tripped-core count). Read at request boundaries by the
   serve-path timeline sampler, so the counts only ever grow. *)
let monitor_observed cluster =
  Array.fold_left
    (fun (s, b, t) c ->
      let s', b' = Memo_unit.monitor_observed c.unit_ in
      (s + s', b + b', t + if Memo_unit.disabled c.unit_ then 1 else 0))
    (0, 0, 0) cluster.cores

let dram_lut cluster = cluster.l3
let fault_stats cluster = Option.map Injector.stats cluster.injector
let collectors cluster = cluster.profiles

(* The corun.invalidate.* counter family is created on first use, so a run
   that never retires an [invalidate] (most mixes under [retain_luts]) keeps
   its metrics snapshot byte-identical to pre-counter reports. *)
let bump_inv cluster name =
  match cluster.cluster_metrics with
  | None -> ()
  | Some reg ->
      let c =
        match Hashtbl.find_opt cluster.inv_counters name with
        | Some c -> c
        | None ->
            let c = Registry.counter reg name in
            Hashtbl.add cluster.inv_counters name c;
            c
      in
      Registry.incr c

(* A core's memo hooks, wrapped so a retired [invalidate] broadcasts to
   every other core's private L1 (Section 3.4's cross-core visibility: the
   shared level is dropped by the issuing unit itself, the peers' stale L1
   copies are dropped here). Every peer receives the broadcast, but only
   peers actually holding the LUT do any work — the delivered/filtered
   split is the measured baseline a cluster directory has to beat. *)
let memo_hooks cluster ~core =
  let own = Memo_unit.hooks cluster.cores.(core).unit_ in
  {
    own with
    Interp.invalidate =
      (fun ~lut ->
        own.Interp.invalidate ~lut;
        bump_inv cluster "corun.invalidate.broadcasts";
        Array.iter
          (fun o ->
            if o.id <> core then begin
              let held = Memo_unit.l1_holds o.unit_ ~lut in
              bump_inv cluster
                (Printf.sprintf "corun.invalidate.%s.core%d"
                   (if held then "delivered" else "filtered")
                   o.id);
              Memo_unit.invalidate_external o.unit_ ~lut
            end)
          cluster.cores;
        match cluster.on_invalidate with
        | Some f ->
            let t = cluster.cores.(core).timing in
            f ~core ~lut ~at:(t.base + t.clock ())
        | None -> ());
  }

(* ---- per-request execution -------------------------------------------- *)

module Ir = Axmemo_ir.Ir

(* [Transform.memoize] ends the entry function with one [Invalidate] per
   region — right for a standalone run, but it would wipe the LUTs after
   every request and nothing could stay warm across the stream. Under
   [retain_luts] those trailing drops are stripped (mid-program invalidates,
   e.g. kmeans' phase barrier, are untouched); with it off, requests keep
   the standalone epilogue and a 1-core co-run replays [Runner.run] bit for
   bit. *)
let strip_trailing_invalidates ~entry (program : Ir.program) =
  let strip_block (b : Ir.block) =
    match b.term with
    | Ir.Ret _ ->
        let rec drop = function
          | Ir.Memo (Ir.Invalidate _) :: rest -> drop rest
          | l -> l
        in
        {
          b with
          Ir.instrs =
            Array.of_list (List.rev (drop (List.rev (Array.to_list b.instrs))));
        }
    | Ir.Jmp _ | Ir.Br _ | Ir.Br_memo _ -> b
  in
  {
    Ir.funcs =
      Array.map
        (fun (fn : Ir.func) ->
          if fn.Ir.fname <> entry then fn
          else { fn with Ir.blocks = Array.map strip_block fn.Ir.blocks })
        program.Ir.funcs;
  }

let stats_delta (a : Memo_unit.stats) (b : Memo_unit.stats) : Memo_unit.stats =
  {
    sends = b.sends - a.sends;
    bytes_hashed = b.bytes_hashed - a.bytes_hashed;
    lookups = b.lookups - a.lookups;
    l1_hits = b.l1_hits - a.l1_hits;
    l2_hits = b.l2_hits - a.l2_hits;
    l3_hits = b.l3_hits - a.l3_hits;
    misses = b.misses - a.misses;
    forced_misses = b.forced_misses - a.forced_misses;
    updates = b.updates - a.updates;
    invalidations = b.invalidations - a.invalidations;
    collisions = b.collisions - a.collisions;
    monitor_comparisons = b.monitor_comparisons - a.monitor_comparisons;
  }

let run_request cluster ~core ~start (entry : mix_entry) =
  let wall_start = Unix.gettimeofday () in
  let cfg = cluster.cfg in
  let c = cluster.cores.(core) in
  let instance = entry.make cfg.variant in
  let regions = remap_regions ~offset:entry.offset instance.Workload.regions in
  let program =
    Transform.memoize ?barrier:instance.Workload.barrier ~entry:instance.Workload.entry
      instance.Workload.program regions
  in
  let program =
    if cfg.retain_luts then
      strip_trailing_invalidates ~entry:instance.Workload.entry program
    else program
  in
  (* The data caches stay warm across requests (they model the core's own
     hierarchy), but their counters restart so the request's energy bill
     covers only its own accesses. *)
  Hierarchy.reset_stats c.hierarchy;
  c.timing.base <- start;
  let pipe =
    Pipeline.create
      ?profile:
        (Option.map
           (fun ps -> Profile.pipeline_profile ps.(core))
           cluster.profiles)
      ~machine ~lookup_level:(Runner.lookup_level c.unit_) ~l2_lut_present:true
      ~l3_lookup_cycles:(fun () -> Memo_unit.last_l3_cycles c.unit_)
      ~l1_lut_ways:(Memo_unit.l1_ways c.unit_)
      ~crc_bytes_per_cycle:Timing.crc_bytes_per_cycle ~program ~hierarchy:c.hierarchy ()
  in
  c.timing.clock <- (fun () -> Pipeline.cycles pipe);
  cluster.active := c.timing;
  let before = Memo_unit.stats c.unit_ in
  let l3_before = Option.map Dram_lut.stats cluster.l3 in
  let interp =
    Interp.create ~memo:(memo_hooks cluster ~core) ~hooks:(Pipeline.hooks pipe) ~program
      ~mem:instance.Workload.mem ()
  in
  let crashed = Runner.execute ~due:(cluster.injector <> None) pipe interp instance in
  (* This request's share of the DRAM tier's row traffic (the tier is a
     cluster-wide structure; requests run one at a time, so the delta is
     exactly this request's). *)
  let l3_rows =
    match (l3_before, cluster.l3) with
    | Some b, Some d ->
        let s = Dram_lut.stats d in
        ( s.Dram_lut.row_hits - b.Dram_lut.row_hits,
          s.Dram_lut.row_activations - b.Dram_lut.row_activations )
    | _ -> (0, 0)
  in
  Runner.finish ~l3_rows ?crashed ~label:(label cfg) ~wall_start
    ~luts:
      (Runner.Unit
         {
           unit = c.unit_;
           stats = stats_delta before (Memo_unit.stats c.unit_);
           l1_bytes = cfg.l1_bytes;
         })
    pipe c.hierarchy instance

(* ---- driver access -----------------------------------------------------

   The node runs no request stream of its own: the cluster drives it one
   request at a time (closed streams and open-loop serving alike), then
   settles its arbiter and flushes and snapshots its registries. *)

let exec_request cluster ~workload ~core ~start =
  match List.find_opt (fun e -> e.wname = workload) cluster.mix with
  | Some entry -> run_request cluster ~core ~start entry
  | None ->
      invalid_arg
        (Printf.sprintf "Corun.exec_request: %S is not in the cluster's mix" workload)

let settle_arbiter cluster = Arbiter.settle cluster.arbiter ~ncores:cluster.cfg.ncores

(* Flush before snapshotting: per-core registries mirror the unit's
   cumulative stats, the cluster registry the shared structure's. *)
let flush_metrics cluster =
  Array.iter (fun c -> Memo_unit.flush_metrics c.unit_) cluster.cores;
  Shared_lut.flush_metrics cluster.shared

let cluster_snapshots cluster =
  List.concat
    (Array.to_list
       (Array.map
          (fun c ->
            match c.metrics with
            | Some reg -> [ (Printf.sprintf "core%d" c.id, Registry.snapshot reg) ]
            | None -> [])
          cluster.cores))
  @
  match cluster.cluster_metrics with
  | Some reg -> [ ("cluster", Registry.snapshot reg) ]
  | None -> []

(* ---- warm-LUT snapshots ------------------------------------------------

   Section naming: "l1.<core>" per private level, "l2" the shared level,
   "l3" the DRAM tier. Restore replays whatever sections match the target
   cluster's shape and reports how many entries landed, so a snapshot from
   a wider configuration degrades gracefully instead of failing. *)

let capture_snapshot (cluster : cluster) =
  let l1s =
    Array.to_list
      (Array.mapi
         (fun i c ->
           Snapshot.capture_lut
             ~name:(Printf.sprintf "l1.%d" i)
             (Memo_unit.l1_lut c.unit_))
         cluster.cores)
  in
  let l2 = Snapshot.capture_lut ~name:"l2" (Shared_lut.lut cluster.shared) in
  let l3 =
    match cluster.l3 with
    | Some d -> [ Snapshot.capture_dram ~name:"l3" d ]
    | None -> []
  in
  { Snapshot.sections = l1s @ (l2 :: l3) }

let restore_snapshot_stats (cluster : cluster) (snap : Snapshot.t) =
  let restored = ref 0 in
  Array.iteri
    (fun i c ->
      match Snapshot.section snap (Printf.sprintf "l1.%d" i) with
      | Some s -> restored := !restored + Snapshot.restore_lut s (Memo_unit.l1_lut c.unit_)
      | None -> ())
    cluster.cores;
  (match Snapshot.section snap "l2" with
  | Some s -> restored := !restored + Snapshot.restore_lut s (Shared_lut.lut cluster.shared)
  | None -> ());
  let amortised = ref 0 and serial = ref 0 in
  (match (Snapshot.section snap "l3", cluster.l3) with
  | Some s, Some d ->
      let n, a, sr = Snapshot.restore_dram_batched s d in
      restored := !restored + n;
      amortised := a;
      serial := sr
  | _ -> ());
  (!restored, !amortised, !serial)
