module Json = Axmemo_util.Json

let schema_version = 1

type run = {
  benchmark : string;
  config : string;
  summary : (string * Json.t) list;
  metrics : Registry.snapshot;
  sections : (string * Json.t) list;
}

(* Sections render in order after the metrics, so a row without any is
   byte-identical to pre-section schema-v1 output — additive fields never
   bump the schema version. *)
let run_json r =
  Json.Obj
    ([
       ("benchmark", Json.Str r.benchmark);
       ("config", Json.Str r.config);
       ("summary", Json.Obj r.summary);
       ("metrics", Registry.to_json r.metrics);
     ]
    @ r.sections)

(* Duplicate (benchmark, config) keys would make the report ambiguous for
   every aligning consumer (Obs.Diff, CSV pivots), so they are a caller
   bug, not a representable state. *)
let check_distinct runs =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = (r.benchmark, r.config) in
      if Hashtbl.mem seen key then
        invalid_arg
          (Printf.sprintf "Report.make: duplicate run (%s, %s)" r.benchmark r.config);
      Hashtbl.replace seen key ())
    runs

let make ?(extra = []) runs =
  check_distinct runs;
  let aggregate = Registry.merge (List.map (fun r -> r.metrics) runs) in
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("generator", Json.Str "axmemo");
       ("runs", Json.Arr (List.map run_json runs));
       ("aggregate", Registry.to_json aggregate);
     ]
    @ extra)

let write ?extra path runs = Json.write_file path (make ?extra runs)

(* RFC 4180: quote when the field contains a comma, quote, or newline;
   quotes double inside. *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_value = function
  | Json.Int i -> string_of_int i
  | Json.Float f ->
      if Float.is_nan f || Float.abs f = Float.infinity then ""
      else Json.to_string (Json.Float f)
  | Json.Bool b -> string_of_bool b
  | Json.Str s -> csv_field s
  | Json.Null -> ""
  | Json.Arr _ | Json.Obj _ -> ""

let float_str f = csv_value (Json.Float f)

let to_csv runs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "benchmark,config,metric,value\r\n";
  let row b c m v =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s\r\n" (csv_field b) (csv_field c) (csv_field m) v)
  in
  List.iter
    (fun r ->
      List.iter (fun (k, v) -> row r.benchmark r.config k (csv_value v)) r.summary;
      List.iter
        (fun (name, data) ->
          match (data : Registry.data) with
          | Registry.Counter c -> row r.benchmark r.config name (string_of_int c)
          | Registry.Gauge g -> row r.benchmark r.config name (float_str g)
          | Registry.Histogram h ->
              Array.iteri
                (fun i b ->
                  row r.benchmark r.config
                    (Printf.sprintf "%s.le_%s" name (float_str b))
                    (string_of_int h.counts.(i)))
                h.bounds;
              row r.benchmark r.config (name ^ ".overflow")
                (string_of_int h.counts.(Array.length h.bounds));
              row r.benchmark r.config (name ^ ".total") (string_of_int h.total);
              row r.benchmark r.config (name ^ ".sum") (float_str h.sum)
          | Registry.Series _ -> ())
        r.metrics)
    runs;
  Buffer.contents buf

let write_csv path runs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv runs))
