(* Fixed-width cycle windows over a run's simulated time.

   Events are fed in any order (the serve layer replays them post hoc from
   the dispatch schedule) and bucketed by cycle into windows of the current
   width. The buffer is bounded: when an event lands past the last window,
   adjacent window pairs merge and the width doubles — the same
   stride-doubling idiom the Registry uses to decimate series — so the
   structure holds at most [cap] windows no matter how long the run is,
   and the merge is a pure function of the event stream (serial and
   parallel matrices produce byte-identical timelines). Window deltas are
   conserved by construction: every event lands in exactly one window, so
   the per-window counters sum exactly to the end-of-run aggregates. *)

module Registry = Axmemo_telemetry.Registry
module Stats = Axmemo_util.Stats
module Json = Axmemo_util.Json

(* Cumulative cluster-side totals sampled around each request execution;
   the difference across one request is that request's attributed share. *)
type traffic = {
  remote_probes : int;
  inv_sent : int;
  net_messages : int;
  quality_samples : int;
  quality_bad : int;
  monitor_trips : int;
}

let traffic_zero =
  {
    remote_probes = 0;
    inv_sent = 0;
    net_messages = 0;
    quality_samples = 0;
    quality_bad = 0;
    monitor_trips = 0;
  }

let traffic_sub a b =
  {
    remote_probes = a.remote_probes - b.remote_probes;
    inv_sent = a.inv_sent - b.inv_sent;
    net_messages = a.net_messages - b.net_messages;
    quality_samples = a.quality_samples - b.quality_samples;
    quality_bad = a.quality_bad - b.quality_bad;
    monitor_trips = a.monitor_trips - b.monitor_trips;
  }

let traffic_add a b =
  {
    remote_probes = a.remote_probes + b.remote_probes;
    inv_sent = a.inv_sent + b.inv_sent;
    net_messages = a.net_messages + b.net_messages;
    quality_samples = a.quality_samples + b.quality_samples;
    quality_bad = a.quality_bad + b.quality_bad;
    monitor_trips = a.monitor_trips + b.monitor_trips;
  }

type completion = {
  at : int;  (* finish cycle; the window this completion lands in *)
  node : int;
  total_cycles : int;
  queue_wait_cycles : int;
  slo_ok : bool;
  cold : bool;
  lookups : int;
  hits : int;
  energy_pj : float;
  traffic : traffic;
}

type node_slot = { mutable ns_remote : int; mutable ns_inv : int }

type window = {
  mutable w_admitted : int;
  mutable w_shed : int;
  mutable w_completed : int;
  mutable w_slo_violations : int;
  mutable w_cold : int;
  mutable w_lookups : int;
  mutable w_hits : int;
  mutable w_cold_lookups : int;
  mutable w_cold_hits : int;
  mutable w_energy_pj : float;
  mutable w_max_depth : int;
  mutable w_traffic : traffic;
  w_lat : int array;  (* total-latency histogram counts (bounds + overflow) *)
  w_nodes : node_slot array;
}

type t = {
  requested_window : int;
  cap : int;
  nnodes : int;
  mutable width : int;
  mutable windows : window array;  (* always [cap] long; [nwin] touched *)
  mutable nwin : int;
  mutable merges : int;
}

let default_cap = 64

(* The latency bounds the serve histograms use, so window-local percentiles
   and end-of-run percentiles are bucketed identically. *)
let bounds = Registry.log_bounds ~lo:1.0 ~hi:1e8 ~per_decade:8

let fresh_window ~nnodes () =
  {
    w_admitted = 0;
    w_shed = 0;
    w_completed = 0;
    w_slo_violations = 0;
    w_cold = 0;
    w_lookups = 0;
    w_hits = 0;
    w_cold_lookups = 0;
    w_cold_hits = 0;
    w_energy_pj = 0.0;
    w_max_depth = 0;
    w_traffic = traffic_zero;
    w_lat = Array.make (Array.length bounds + 1) 0;
    w_nodes = Array.init nnodes (fun _ -> { ns_remote = 0; ns_inv = 0 });
  }

let create ?(cap = default_cap) ~window ~nodes () =
  if window <= 0 then invalid_arg "Timeline.create: window must be positive";
  if nodes < 1 then invalid_arg "Timeline.create: need at least one node";
  if cap < 2 || cap mod 2 <> 0 then
    invalid_arg "Timeline.create: cap must be even and at least 2";
  {
    requested_window = window;
    cap;
    nnodes = nodes;
    width = window;
    windows = Array.init cap (fun _ -> fresh_window ~nnodes:nodes ());
    nwin = 0;
    merges = 0;
  }

(* Merge [b] into [a]: counters add, depth maxes. *)
let absorb a b =
  a.w_admitted <- a.w_admitted + b.w_admitted;
  a.w_shed <- a.w_shed + b.w_shed;
  a.w_completed <- a.w_completed + b.w_completed;
  a.w_slo_violations <- a.w_slo_violations + b.w_slo_violations;
  a.w_cold <- a.w_cold + b.w_cold;
  a.w_lookups <- a.w_lookups + b.w_lookups;
  a.w_hits <- a.w_hits + b.w_hits;
  a.w_cold_lookups <- a.w_cold_lookups + b.w_cold_lookups;
  a.w_cold_hits <- a.w_cold_hits + b.w_cold_hits;
  a.w_energy_pj <- a.w_energy_pj +. b.w_energy_pj;
  a.w_max_depth <- max a.w_max_depth b.w_max_depth;
  a.w_traffic <- traffic_add a.w_traffic b.w_traffic;
  Array.iteri (fun i c -> a.w_lat.(i) <- a.w_lat.(i) + c) b.w_lat;
  Array.iteri
    (fun i (s : node_slot) ->
      a.w_nodes.(i).ns_remote <- a.w_nodes.(i).ns_remote + s.ns_remote;
      a.w_nodes.(i).ns_inv <- a.w_nodes.(i).ns_inv + s.ns_inv)
    b.w_nodes

(* Halve the resolution: window k absorbs windows 2k and 2k+1. The upper
   half of the (fixed-size) buffer is replaced with fresh windows. *)
let merge_pairs t =
  let half = t.cap / 2 in
  let nw =
    Array.init t.cap (fun k ->
        if k < half then begin
          let a = t.windows.(2 * k) and b = t.windows.((2 * k) + 1) in
          absorb a b;
          a
        end
        else fresh_window ~nnodes:t.nnodes ())
  in
  t.windows <- nw;
  t.nwin <- (t.nwin + 1) / 2;
  t.width <- t.width * 2;
  t.merges <- t.merges + 1

let window_at t ~at =
  if at < 0 then invalid_arg "Timeline: negative cycle";
  while at / t.width >= t.cap do
    merge_pairs t
  done;
  let idx = at / t.width in
  if idx + 1 > t.nwin then t.nwin <- idx + 1;
  t.windows.(idx)

let admit t ~at =
  let w = window_at t ~at in
  w.w_admitted <- w.w_admitted + 1

let shed t ~at =
  let w = window_at t ~at in
  w.w_shed <- w.w_shed + 1

let depth t ~at d =
  let w = window_at t ~at in
  if d > w.w_max_depth then w.w_max_depth <- d

let complete t (c : completion) =
  let w = window_at t ~at:c.at in
  w.w_completed <- w.w_completed + 1;
  if not c.slo_ok then w.w_slo_violations <- w.w_slo_violations + 1;
  if c.cold then begin
    w.w_cold <- w.w_cold + 1;
    w.w_cold_lookups <- w.w_cold_lookups + c.lookups;
    w.w_cold_hits <- w.w_cold_hits + c.hits
  end;
  w.w_lookups <- w.w_lookups + c.lookups;
  w.w_hits <- w.w_hits + c.hits;
  w.w_energy_pj <- w.w_energy_pj +. c.energy_pj;
  w.w_traffic <- traffic_add w.w_traffic c.traffic;
  if c.node >= 0 && c.node < t.nnodes then begin
    let s = w.w_nodes.(c.node) in
    s.ns_remote <- s.ns_remote + c.traffic.remote_probes;
    s.ns_inv <- s.ns_inv + c.traffic.inv_sent
  end;
  let nb = Array.length bounds in
  let v = float_of_int c.total_cycles in
  let rec bucket i =
    if i >= nb then nb else if v <= bounds.(i) then i else bucket (i + 1)
  in
  let b = bucket 0 in
  w.w_lat.(b) <- w.w_lat.(b) + 1

(* ---- accessors --------------------------------------------------------- *)

let width t = t.width
let requested_window t = t.requested_window
let window_count t = t.nwin
let merges t = t.merges
let nth_window t i =
  if i < 0 || i >= t.nwin then invalid_arg "Timeline.nth_window: out of range";
  t.windows.(i)

let iteri t f =
  for i = 0 to t.nwin - 1 do
    f i t.windows.(i)
  done

type totals = {
  total_admitted : int;
  total_shed : int;
  total_completed : int;
  total_slo_violations : int;
  total_cold : int;
  total_lookups : int;
  total_hits : int;
  total_energy_pj : float;
  total_traffic : traffic;
}

let totals t =
  let acc =
    ref
      {
        total_admitted = 0;
        total_shed = 0;
        total_completed = 0;
        total_slo_violations = 0;
        total_cold = 0;
        total_lookups = 0;
        total_hits = 0;
        total_energy_pj = 0.0;
        total_traffic = traffic_zero;
      }
  in
  iteri t (fun _ w ->
      let a = !acc in
      acc :=
        {
          total_admitted = a.total_admitted + w.w_admitted;
          total_shed = a.total_shed + w.w_shed;
          total_completed = a.total_completed + w.w_completed;
          total_slo_violations = a.total_slo_violations + w.w_slo_violations;
          total_cold = a.total_cold + w.w_cold;
          total_lookups = a.total_lookups + w.w_lookups;
          total_hits = a.total_hits + w.w_hits;
          total_energy_pj = a.total_energy_pj +. w.w_energy_pj;
          total_traffic = traffic_add a.total_traffic w.w_traffic;
        });
  !acc

(* ---- derived per-window scalars ---------------------------------------- *)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let percentile w p =
  match Stats.percentile_of_histogram_opt ~bounds ~counts:w.w_lat p with
  | None -> 0.0  (* empty window: documented 0.0, never NaN *)
  | Some v -> v

let violation_rate w = ratio w.w_slo_violations w.w_completed
let shed_rate w = ratio w.w_shed (w.w_admitted + w.w_shed)
let quality_bad_rate w = ratio w.w_traffic.quality_bad w.w_traffic.quality_samples

let warm_hit_rate w =
  ratio (w.w_hits - w.w_cold_hits) (w.w_lookups - w.w_cold_lookups)

let cold_hit_rate w = ratio w.w_cold_hits w.w_cold_lookups

(* ---- report section ----------------------------------------------------
   Every per-window scalar is a leaf under timeline.w<i>.*, so Obs.Diff's
   tree flattening gates each of them exactly, per-node slots included. *)

let window_json t i w =
  (* One node has no per-node slots: its one slot would only repeat the
     window's own remote_probes/inv_sent. *)
  let node_fields =
    if t.nnodes <= 1 then []
    else
      Array.to_list
        (Array.mapi
           (fun j (s : node_slot) ->
             ( Printf.sprintf "n%d" j,
               Json.Obj
                 [
                   ("remote_probes", Json.Int s.ns_remote);
                   ("inv_sent", Json.Int s.ns_inv);
                 ] ))
           w.w_nodes)
  in
  Json.Obj
    ([
       ("start_cycle", Json.Int (i * t.width));
       ("admitted", Json.Int w.w_admitted);
       ("shed", Json.Int w.w_shed);
       ("completed", Json.Int w.w_completed);
       ("slo_violations", Json.Int w.w_slo_violations);
       ("violation_rate", Json.Float (violation_rate w));
       ("shed_rate", Json.Float (shed_rate w));
       ("cold_completions", Json.Int w.w_cold);
       ("lookups", Json.Int w.w_lookups);
       ("hits", Json.Int w.w_hits);
       ("warm_hit_rate", Json.Float (warm_hit_rate w));
       ("cold_hit_rate", Json.Float (cold_hit_rate w));
       ("p50", Json.Float (percentile w 50.0));
       ("p99", Json.Float (percentile w 99.0));
       ("max_queue_depth", Json.Int w.w_max_depth);
       ("energy_pj", Json.Float w.w_energy_pj);
       ("remote_probes", Json.Int w.w_traffic.remote_probes);
       ("inv_sent", Json.Int w.w_traffic.inv_sent);
       ("net_messages", Json.Int w.w_traffic.net_messages);
       ("quality_samples", Json.Int w.w_traffic.quality_samples);
       ("quality_bad", Json.Int w.w_traffic.quality_bad);
       ("monitor_trips", Json.Int w.w_traffic.monitor_trips);
     ]
    @ node_fields)

let to_json t =
  let windows = ref [] in
  iteri t (fun i w ->
      windows := (Printf.sprintf "w%d" i, window_json t i w) :: !windows);
  Json.Obj
    ([
       ("window_cycles", Json.Int t.width);
       ("requested_window_cycles", Json.Int t.requested_window);
       ("windows", Json.Int t.nwin);
       ("merges", Json.Int t.merges);
       ("nodes", Json.Int t.nnodes);
     ]
    @ List.rev !windows)
