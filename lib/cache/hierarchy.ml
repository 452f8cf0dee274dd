type config = {
  l1_size : int;
  l1_ways : int;
  l1_latency : int;
  l2_size : int;
  l2_ways : int;
  l2_latency : int;
  line_bytes : int;
  dram_latency : int;
}

let hpi_default =
  {
    l1_size = 32 * 1024;
    l1_ways = 4;
    l1_latency = 1;
    l2_size = 1024 * 1024;
    l2_ways = 16;
    l2_latency = 13;
    line_bytes = 64;
    dram_latency = 160;
  }

let carve_l2 c ~lut_bytes =
  if lut_bytes = 0 then c
  else begin
    let way_bytes = c.l2_size / c.l2_ways in
    let ways_needed = (lut_bytes + way_bytes - 1) / way_bytes in
    if ways_needed > c.l2_ways / 2 then
      invalid_arg "Hierarchy.carve_l2: L2 LUT may use at most half the last-level cache";
    let remaining = c.l2_ways - ways_needed in
    { c with l2_ways = remaining; l2_size = remaining * way_bytes }
  end

module Registry = Axmemo_telemetry.Registry

(* Telemetry attachment: a read-latency histogram (one bucket per service
   level) plus end-of-run mirrors of both caches' stats. Reads are counted
   per service level in [reads] and folded into the histogram by
   [flush_metrics]; latencies are integers, so the folded sum is exact.
   Purely observational — latencies returned are bit-identical either
   way. *)
type level_counters = {
  accesses_c : Registry.counter;
  hits_c : Registry.counter;
  misses_c : Registry.counter;
  evictions_c : Registry.counter;
  writes_c : Registry.counter;
}

type telem = {
  read_lat : Registry.histogram;
  reads : int array;  (* reads served per level (L1, L2, DRAM) since the last flush *)
  l1_c : level_counters;
  l2_c : level_counters;
}

let make_level_counters reg prefix =
  let counter suffix = Registry.counter reg (prefix ^ suffix) in
  {
    accesses_c = counter ".accesses";
    hits_c = counter ".hits";
    misses_c = counter ".misses";
    evictions_c = counter ".evictions";
    writes_c = counter ".writes";
  }

let flush_level (c : level_counters) (s : Sa_cache.stats) =
  Registry.set_count c.accesses_c s.accesses;
  Registry.set_count c.hits_c s.hits;
  Registry.set_count c.misses_c s.misses;
  Registry.set_count c.evictions_c s.evictions;
  Registry.set_count c.writes_c s.writes

type t = { cfg : config; l1 : Sa_cache.t; l2 : Sa_cache.t; telem : telem option }

(* Load latency of each service level: L1 hit, L2 hit, DRAM. *)
let level_latency cfg = function
  | 0 -> cfg.l1_latency
  | 1 -> cfg.l1_latency + cfg.l2_latency
  | _ -> cfg.l1_latency + cfg.l2_latency + cfg.dram_latency

let make_telem cfg reg =
  {
    read_lat =
      Registry.histogram reg "cache.read_latency"
        ~bounds:(Array.init 3 (fun level -> float_of_int (level_latency cfg level)));
    reads = Array.make 3 0;
    l1_c = make_level_counters reg "cache.l1";
    l2_c = make_level_counters reg "cache.l2";
  }

let create ?metrics cfg =
  {
    cfg;
    l1 =
      Sa_cache.create ~name:"L1D" ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways
        ~line_bytes:cfg.line_bytes;
    l2 =
      Sa_cache.create ~name:"L2" ~size_bytes:cfg.l2_size ~ways:cfg.l2_ways
        ~line_bytes:cfg.line_bytes;
    telem = Option.map (make_telem cfg) metrics;
  }

let config t = t.cfg

(* Degree-2 next-line prefetch, as the HPI's stride prefetcher would do for
   the streaming accesses these kernels make: fills happen off the critical
   path and are not charged latency. *)
let prefetch t addr =
  for k = 1 to 2 do
    let a = addr + (k * t.cfg.line_bytes) in
    if not (Sa_cache.probe t.l1 ~addr:a) then begin
      ignore (Sa_cache.access t.l1 ~addr:a ~write:false);
      ignore (Sa_cache.access t.l2 ~addr:a ~write:false)
    end
  done

let read t ~addr =
  let level =
    match Sa_cache.access t.l1 ~addr ~write:false with
    | `Hit -> 0
    | `Miss -> (
        let l2 = Sa_cache.access t.l2 ~addr ~write:false in
        prefetch t addr;
        match l2 with `Hit -> 1 | `Miss -> 2)
  in
  (match t.telem with Some tl -> tl.reads.(level) <- tl.reads.(level) + 1 | None -> ());
  level_latency t.cfg level

let write t ~addr =
  (* Write-allocate: bring the line in on a miss, but the core only sees the
     store-buffer cost; the fill happens off the critical path. *)
  (match Sa_cache.access t.l1 ~addr ~write:true with
  | `Hit -> ()
  | `Miss -> ignore (Sa_cache.access t.l2 ~addr ~write:true));
  1

let l1 t = t.l1
let l2 t = t.l2

let reset_stats t =
  Sa_cache.reset_stats t.l1;
  Sa_cache.reset_stats t.l2

let flush_metrics t =
  match t.telem with
  | None -> ()
  | Some tl ->
      Array.iteri
        (fun level n ->
          if n > 0 then begin
            Registry.observe_n tl.read_lat (float_of_int (level_latency t.cfg level)) n;
            tl.reads.(level) <- 0
          end)
        tl.reads;
      flush_level tl.l1_c (Sa_cache.stats t.l1);
      flush_level tl.l2_c (Sa_cache.stats t.l2)
