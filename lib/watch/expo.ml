(* Exposition surfaces for the timeline: Prometheus-style text, a JSONL
   window log, and the `axmemo top` table/sparkline renderer.

   The Prometheus text and the window log render straight from a live
   Timeline.t (the serve path). The top renderer instead reads the
   "timeline"/"alerts" sections back out of a saved report JSON, so
   `axmemo top REPORT.json` works on any report artifact — including
   committed baselines — without re-running anything. *)

module Json = Axmemo_util.Json

(* ---- Prometheus text exposition ---------------------------------------- *)

let fmt_float f =
  (* Prometheus has no reader for OCaml's "1." style; %.17g round-trips. *)
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let prometheus ?(namespace = "axmemo") timeline alerts =
  let b = Buffer.create 4096 in
  let metric ~name ~help ~typ rows =
    Buffer.add_string b (Printf.sprintf "# HELP %s_%s %s\n" namespace name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s_%s %s\n" namespace name typ);
    List.iter
      (fun (labels, v) ->
        let l =
          match labels with
          | [] -> ""
          | ls ->
              "{"
              ^ String.concat ","
                  (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) ls)
              ^ "}"
        in
        Buffer.add_string b
          (Printf.sprintf "%s_%s%s %s\n" namespace name l (fmt_float v)))
      rows
  in
  let per_window f =
    let rows = ref [] in
    Timeline.iteri timeline (fun i w ->
        rows := ([ ("window", string_of_int i) ], f i w) :: !rows);
    List.rev !rows
  in
  metric ~name:"window_cycles" ~help:"effective timeline window width"
    ~typ:"gauge"
    [ ([], float_of_int (Timeline.width timeline)) ];
  metric ~name:"window_admitted" ~help:"requests admitted per window"
    ~typ:"counter"
    (per_window (fun _ w -> float_of_int w.Timeline.w_admitted));
  metric ~name:"window_shed" ~help:"requests shed per window" ~typ:"counter"
    (per_window (fun _ w -> float_of_int w.Timeline.w_shed));
  metric ~name:"window_completed" ~help:"requests completed per window"
    ~typ:"counter"
    (per_window (fun _ w -> float_of_int w.Timeline.w_completed));
  metric ~name:"window_slo_violations" ~help:"SLO violations per window"
    ~typ:"counter"
    (per_window (fun _ w -> float_of_int w.Timeline.w_slo_violations));
  metric ~name:"window_p99_cycles" ~help:"window-local p99 total latency"
    ~typ:"gauge"
    (per_window (fun _ w -> Timeline.percentile timeline w 99.0));
  metric ~name:"window_p50_cycles" ~help:"window-local p50 total latency"
    ~typ:"gauge"
    (per_window (fun _ w -> Timeline.percentile timeline w 50.0));
  metric ~name:"window_queue_depth_max" ~help:"max queue depth per window"
    ~typ:"gauge"
    (per_window (fun _ w -> float_of_int w.Timeline.w_max_depth));
  metric ~name:"window_energy_pj" ~help:"energy per window (pJ)" ~typ:"counter"
    (per_window (fun _ w -> w.Timeline.w_energy_pj));
  metric ~name:"window_remote_probes" ~help:"remote shard probes per window"
    ~typ:"counter"
    (per_window (fun _ w -> float_of_int w.Timeline.w_traffic.Timeline.remote_probes));
  metric ~name:"window_inv_sent" ~help:"invalidations delivered per window"
    ~typ:"counter"
    (per_window (fun _ w -> float_of_int w.Timeline.w_traffic.Timeline.inv_sent));
  metric ~name:"window_quality_bad"
    ~help:"bad quality-monitor samples per window" ~typ:"counter"
    (per_window (fun _ w -> float_of_int w.Timeline.w_traffic.Timeline.quality_bad));
  metric ~name:"alert_fired_total" ~help:"fire transitions per alert rule"
    ~typ:"counter"
    (List.map
       (fun (r : Alert.result) ->
         ([ ("rule", r.Alert.name) ], float_of_int r.Alert.fired))
       alerts);
  metric ~name:"alert_windows_active" ~help:"windows spent firing per rule"
    ~typ:"gauge"
    (List.map
       (fun (r : Alert.result) ->
         ([ ("rule", r.Alert.name) ], float_of_int r.Alert.windows_active))
       alerts);
  Buffer.contents b

let write_prometheus ?namespace path timeline alerts =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (prometheus ?namespace timeline alerts))

(* ---- JSONL window log --------------------------------------------------- *)

let window_log timeline =
  let b = Buffer.create 4096 in
  Timeline.iteri timeline (fun i w ->
      let row =
        match Timeline.window_json timeline i w with
        | Json.Obj fields -> Json.Obj (("window", Json.Int i) :: fields)
        | other -> other
      in
      Buffer.add_string b (Json.to_string row);
      Buffer.add_char b '\n');
  Buffer.contents b

let write_window_log path timeline =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (window_log timeline))

(* ---- sparklines and the top table --------------------------------------- *)

let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                      "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                      "\xe2\x96\x87"; "\xe2\x96\x88" |]
(* U+2581..U+2588, ▁▂▃▄▅▆▇█ *)

let sparkline values =
  let n = Array.length values in
  if n = 0 then ""
  else begin
    let hi = Array.fold_left Float.max 0.0 values in
    let b = Buffer.create (n * 3) in
    Array.iter
      (fun v ->
        let lvl =
          if hi <= 0.0 || v <= 0.0 then 0
          else
            min (Array.length spark_levels - 1)
              (int_of_float (v /. hi *. float_of_int (Array.length spark_levels - 1)))
        in
        Buffer.add_string b spark_levels.(lvl))
      values;
    Buffer.contents b
  end

(* A section [render_timeline] cannot render faithfully is rejected, never
   drawn as zeros: raised inside the renderer, returned as its [Error]. *)
exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* A numeric leaf of [obj] (named [path] in messages): it must be present,
   numeric and finite. *)
let num path k obj =
  match Json.member k obj with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) when Float.is_finite f -> f
  | Some _ -> malformed "%s.%s is not a finite number" path k
  | None -> malformed "%s.%s is missing" path k

(* The window members [windows] counts: w0 .. w<n-1>, each present. A count
   beyond the members stops at the first missing one. *)
let windows_of timeline =
  let n = num "timeline" "windows" timeline in
  if not (Float.is_integer n && n >= 0.0) then
    malformed "timeline.windows is not a window count";
  let rec collect i acc =
    if float_of_int i >= n then List.rev acc
    else
      let name = Printf.sprintf "w%d" i in
      match Json.member name timeline with
      | Some w -> collect (i + 1) ((Printf.sprintf "timeline.%s" name, w) :: acc)
      | None -> malformed "timeline.%s is missing (windows = %.0f)" name n
  in
  collect 0 []

let render_exn ?alerts ~label timeline =
  let b = Buffer.create 4096 in
  let windows = windows_of timeline in
  (* Every window leaf is read before anything renders. *)
  let col k = Array.of_list (List.map (fun (path, w) -> num path k w) windows) in
  let admitted = col "admitted" and shed = col "shed" and completed = col "completed"
  and viol = col "slo_violations" and p50 = col "p50" and p99 = col "p99"
  and depth = col "max_queue_depth" and qbad = col "quality_bad"
  and inv = col "inv_sent" in
  let merges = int_of_float (num "timeline" "merges" timeline) in
  Buffer.add_string b
    (Printf.sprintf "%s — %d windows x %.0f cycles%s\n" label (List.length windows)
       (num "timeline" "window_cycles" timeline)
       (if merges > 0 then Printf.sprintf " (%d merges)" merges else ""));
  Buffer.add_string b
    "  win   admit   shed   done  viol     p50     p99  depth  q.bad\n";
  Array.iteri
    (fun i admit ->
      Buffer.add_string b
        (Printf.sprintf "  %3d %7.0f %6.0f %6.0f %5.0f %7.0f %7.0f %6.0f %6.0f\n"
           i admit shed.(i) completed.(i) viol.(i) p50.(i) p99.(i) depth.(i) qbad.(i)))
    admitted;
  let spark name values =
    Buffer.add_string b (Printf.sprintf "  %-12s %s\n" name (sparkline values))
  in
  spark "admitted" admitted;
  spark "shed" shed;
  spark "p99" p99;
  spark "depth" depth;
  spark "inv_sent" inv;
  (match alerts with
  | None -> ()
  | Some (Json.Obj fields) ->
      Buffer.add_string b "  alerts:\n";
      List.iter
        (fun (name, v) ->
          if name <> "rules" then
            let path = "alerts." ^ name in
            let fired = int_of_float (num path "fired" v) in
            let active = int_of_float (num path "windows_active" v) in
            let first = int_of_float (num path "first_fire_window" v) in
            Buffer.add_string b
              (if fired > 0 then
                 Printf.sprintf
                   "    %-18s FIRED x%d (first window %d, active %d windows)\n"
                   name fired first active
               else Printf.sprintf "    %-18s quiet\n" name))
        fields
  | Some _ -> malformed "alerts is not an object");
  Buffer.contents b

(* Render one run's "timeline" (+ optional "alerts") section as the
   per-window table plus sparkline summary. *)
let render_timeline ?alerts ~label timeline =
  match render_exn ?alerts ~label timeline with
  | s -> Ok s
  | exception Malformed msg -> Error msg

(* `axmemo top REPORT.json`: render every run row carrying a timeline. *)
let top_of_report report =
  match report with
  | Json.Obj _ -> (
      match Json.member "runs" report with
      | Some (Json.Arr runs) ->
          let rec render acc = function
            | [] -> Ok (List.rev acc)
            | run :: rest -> (
                match Json.member "timeline" run with
                | None -> render acc rest
                | Some tl -> (
                    let label =
                      match (Json.member "benchmark" run, Json.member "config" run) with
                      | Some (Json.Str bm), Some (Json.Str cfg) ->
                          Printf.sprintf "%s / %s" bm cfg
                      | _ -> "run"
                    in
                    match render_timeline ?alerts:(Json.member "alerts" run) ~label tl with
                    | Ok s -> render (s :: acc) rest
                    | Error msg -> Error (label ^ ": " ^ msg)))
          in
          (match render [] runs with
          | Ok [] -> Error "report has no \"timeline\" sections (run serve with --watch)"
          | Ok rendered -> Ok (String.concat "\n" rendered)
          | Error _ as e -> e)
      | _ -> Error "not a run report: missing \"runs\" array")
  | _ -> Error "not a run report: top-level value is not an object"
