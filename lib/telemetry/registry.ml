module Json = Axmemo_util.Json

type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  bounds : float array;
  counts : int array;  (* length bounds + 1; last = overflow *)
  mutable total : int;
  mutable sum : float;
}

type series = {
  mutable stride : int;  (* keep every stride-th observation *)
  cap : int;
  mutable seen : int;  (* observations offered since creation *)
  mutable n : int;  (* samples held *)
  ats : int array;  (* cap slots *)
  vs : float array;
}

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of histogram
  | I_series of series

type t = { instruments : (string, instrument) Hashtbl.t }

let create () = { instruments = Hashtbl.create 64 }

let register t name i =
  if Hashtbl.mem t.instruments name then
    invalid_arg (Printf.sprintf "Registry: duplicate metric %S" name);
  Hashtbl.replace t.instruments name i

let counter t name =
  let c = { c = 0 } in
  register t name (I_counter c);
  c

let gauge t name =
  let g = { g = 0.0 } in
  register t name (I_gauge g);
  g

let histogram t name ~bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Registry.histogram: empty bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Registry.histogram: bounds must be strictly increasing"
  done;
  let h = { bounds = Array.copy bounds; counts = Array.make (n + 1) 0; total = 0; sum = 0.0 } in
  register t name (I_histogram h);
  h

(* Geometric bucket ladder for latency-style distributions: [per_decade]
   bounds per power of ten from [lo] up to (and including) [hi]. The ratio
   between adjacent bounds is 10^(1/per_decade), so a percentile read back
   from the histogram is exact to within that factor at ANY rank — which is
   what makes p99.9 trustworthy where a decimated series would have lost
   the tail samples. *)
let log_bounds ~lo ~hi ~per_decade =
  if lo <= 0.0 || hi <= lo then invalid_arg "Registry.log_bounds: need 0 < lo < hi";
  if per_decade < 1 then invalid_arg "Registry.log_bounds: non-positive per_decade";
  let ratio = 10.0 ** (1.0 /. float_of_int per_decade) in
  let rec go acc v =
    if v >= hi then List.rev (hi :: acc) else go (v :: acc) (v *. ratio)
  in
  Array.of_list (go [] lo)

let series t name ?(cap = 512) () =
  if cap <= 0 then invalid_arg "Registry.series: non-positive cap";
  let s =
    { stride = 1; cap; seen = 0; n = 0; ats = Array.make cap 0; vs = Array.make cap 0.0 }
  in
  register t name (I_series s);
  s

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let set_count c n = c.c <- n
let count c = c.c

let set g v = g.g <- v
let value g = g.g

(* First bucket whose upper bound is >= v; binary search keeps wide latency
   histograms cheap. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  !lo  (* = n when v exceeds every bound: the overflow bucket *)

let observe_n h v n =
  let b = bucket_index h.bounds v in
  h.counts.(b) <- h.counts.(b) + n;
  h.total <- h.total + n;
  h.sum <- h.sum +. (v *. float_of_int n)

let observe h v = observe_n h v 1

let sample s ~at v =
  s.seen <- s.seen + 1;
  if s.seen mod s.stride = 0 then begin
    if s.n = s.cap then begin
      (* Decimate: keep every other held sample, double the stride. Held
         sample i was offered at seen = stride*(i+1), so keeping the odd
         indices leaves exactly the multiples of the doubled stride. *)
      let m = s.cap / 2 in
      for i = 0 to m - 1 do
        s.ats.(i) <- s.ats.((2 * i) + 1);
        s.vs.(i) <- s.vs.((2 * i) + 1)
      done;
      s.n <- m;
      s.stride <- s.stride * 2
    end;
    if s.seen mod s.stride = 0 then begin
      s.ats.(s.n) <- at;
      s.vs.(s.n) <- v;
      s.n <- s.n + 1
    end
  end

type hist_data = { bounds : float array; counts : int array; total : int; sum : float }

type data =
  | Counter of int
  | Gauge of float
  | Histogram of hist_data
  | Series of { stride : int; samples : (int * float) array }

type snapshot = (string * data) list

let snapshot t =
  Hashtbl.fold
    (fun name i acc ->
      let data =
        match i with
        | I_counter c -> Counter c.c
        | I_gauge g -> Gauge g.g
        | I_histogram h ->
            Histogram
              {
                bounds = Array.copy h.bounds;
                counts = Array.copy h.counts;
                total = h.total;
                sum = h.sum;
              }
        | I_series s ->
            Series
              {
                stride = s.stride;
                samples = Array.init s.n (fun i -> (s.ats.(i), s.vs.(i)));
              }
      in
      (name, data) :: acc)
    t.instruments []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Post-hoc series bounding for report emitters. Applies the exact halving
   rule the live sampler uses (keep odd indices, double the stride), so a
   decimated snapshot is indistinguishable from one taken with a smaller
   [cap] — and the operation is deterministic and idempotent. *)
let decimate ~cap snap =
  if cap <= 0 then invalid_arg "Registry.decimate: non-positive cap";
  List.map
    (fun (name, data) ->
      match data with
      | Series { stride; samples } when Array.length samples > cap ->
          let stride = ref stride and samples = ref samples in
          while Array.length !samples > cap do
            let m = Array.length !samples / 2 in
            samples := Array.init m (fun i -> !samples.((2 * i) + 1));
            stride := !stride * 2
          done;
          (name, Series { stride = !stride; samples = !samples })
      | _ -> (name, data))
    snap

let merge snaps =
  let acc : (string, data) Hashtbl.t = Hashtbl.create 64 in
  let combine name a b =
    match (a, b) with
    | Counter x, Counter y -> Some (Counter (x + y))
    | Gauge _, Gauge y -> Some (Gauge y)
    | Histogram x, Histogram y ->
        if x.bounds <> y.bounds then
          invalid_arg
            (Printf.sprintf "Registry.merge: histogram %S bounds differ" name);
        Some
          (Histogram
             {
               bounds = x.bounds;
               counts = Array.map2 ( + ) x.counts y.counts;
               total = x.total + y.total;
               sum = x.sum +. y.sum;
             })
    | Series _, Series _ -> None
    | _ -> invalid_arg (Printf.sprintf "Registry.merge: metric %S kind mismatch" name)
  in
  List.iter
    (fun snap ->
      List.iter
        (fun (name, data) ->
          match data with
          | Series _ -> ()
          | _ -> (
              match Hashtbl.find_opt acc name with
              | None -> Hashtbl.replace acc name data
              | Some prev -> (
                  match combine name prev data with
                  | Some merged -> Hashtbl.replace acc name merged
                  | None -> ())))
        snap)
    snaps;
  Hashtbl.fold (fun name data l -> (name, data) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json (snap : snapshot) =
  let pick f = List.filter_map f snap in
  let counters = pick (function n, Counter c -> Some (n, Json.Int c) | _ -> None) in
  let gauges = pick (function n, Gauge g -> Some (n, Json.Float g) | _ -> None) in
  let histograms =
    pick (function
      | n, Histogram h ->
          Some
            ( n,
              Json.Obj
                [
                  ("bounds", Json.Arr (Array.to_list (Array.map (fun b -> Json.Float b) h.bounds)));
                  ("counts", Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
                  ("total", Json.Int h.total);
                  ("sum", Json.Float h.sum);
                ] )
      | _ -> None)
  in
  let series =
    pick (function
      | n, Series { stride; samples } ->
          Some
            ( n,
              Json.Obj
                [
                  ("stride", Json.Int stride);
                  ( "samples",
                    Json.Arr
                      (Array.to_list
                         (Array.map
                            (fun (at, v) -> Json.Arr [ Json.Int at; Json.Float v ])
                            samples)) );
                ] )
      | _ -> None)
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
      ("series", Json.Obj series);
    ]
