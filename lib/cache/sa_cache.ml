type stats = { accesses : int; hits : int; misses : int; evictions : int; writes : int }

type t = {
  cname : string;
  nsets : int;
  set_mask : int;  (* nsets - 1 when nsets is a power of two, else 0 *)
  nways : int;
  line : int;
  line_shift : int;
  tags : int array;  (* nsets * nways; -1 = invalid *)
  lru : int array;  (* nsets * nways; lower = older *)
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writes : int;
}

let log2_exact n =
  let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Sa_cache: not a power of two"
  else go 0 n

let create ~name ~size_bytes ~ways ~line_bytes =
  if ways <= 0 || line_bytes <= 0 || size_bytes <= 0 then
    invalid_arg "Sa_cache.create: non-positive geometry";
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Sa_cache.create: size not divisible by ways*line";
  let nsets = size_bytes / (ways * line_bytes) in
  {
    cname = name;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else 0);
    nways = ways;
    line = line_bytes;
    line_shift = log2_exact line_bytes;
    tags = Array.make (nsets * ways) (-1);
    lru = Array.make (nsets * ways) 0;
    clock = 0;
    accesses = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writes = 0;
  }

let name t = t.cname
let sets t = t.nsets
let ways t = t.nways
let line_bytes t = t.line

(* The power-of-two mask dodges an integer division on the hottest path of
   the whole simulator (every modelled load and store lands here). *)
let[@inline] set_of t line_addr =
  if t.set_mask <> 0 then line_addr land t.set_mask else line_addr mod t.nsets

let touch t set w =
  t.clock <- t.clock + 1;
  t.lru.((set * t.nways) + w) <- t.clock

(* Lowest-indexed invalid way if any, else least recently used (ties to the
   lowest index). Single pass: this runs on every miss, and the wide L2 makes
   a multi-pass scan measurable on LUT-heavy workloads. A loop, not a local
   recursive function, so a miss allocates no closure. *)
let victim_way t set =
  let base = set * t.nways in
  let best = ref 0 and invalid = ref (if Array.unsafe_get t.tags base = -1 then 0 else -1) in
  let w = ref 1 in
  while !invalid < 0 && !w < t.nways do
    let i = base + !w in
    if Array.unsafe_get t.tags i = -1 then invalid := !w
    else if Array.unsafe_get t.lru i < Array.unsafe_get t.lru (base + !best) then best := !w;
    incr w
  done;
  if !invalid >= 0 then !invalid else !best

(* Allocation-free way lookup for the access hot path: the way index, or -1
   when the tag is absent. *)
let find_way_idx t base tag =
  let w = ref 0 and found = ref (-1) in
  while !found < 0 && !w < t.nways do
    if Array.unsafe_get t.tags (base + !w) = tag then found := !w;
    incr w
  done;
  !found

let access t ~addr ~write =
  t.accesses <- t.accesses + 1;
  if write then t.writes <- t.writes + 1;
  let line_addr = addr lsr t.line_shift in
  let set = set_of t line_addr in
  let tag = line_addr in
  let base = set * t.nways in
  let w = find_way_idx t base tag in
  if w >= 0 then begin
    t.hits <- t.hits + 1;
    touch t set w;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let w = victim_way t set in
    if t.tags.(base + w) <> -1 then t.evictions <- t.evictions + 1;
    t.tags.(base + w) <- tag;
    touch t set w;
    `Miss
  end

let probe t ~addr =
  let line_addr = addr lsr t.line_shift in
  let set = set_of t line_addr in
  find_way_idx t (set * t.nways) line_addr >= 0

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0

let stats t =
  {
    accesses = t.accesses;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    writes = t.writes;
  }

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writes <- 0

let hit_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.hits /. float_of_int t.accesses
