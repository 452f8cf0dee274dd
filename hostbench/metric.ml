(* Named metrics and the one-line JSON result the benchmark ends with. *)

module Json = Axmemo_util.Json

type t = { name : string; unit_ : string; value : float }

let name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* [A-Za-z0-9_.-], at most 64 characters, starting with a letter or digit. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all name_char s

let make name unit_ value =
  if not (valid_name name) then invalid_arg (Printf.sprintf "Metric.make: bad name %S" name);
  { name; unit_; value }

(* A non-finite value has no JSON number form; it is written as 0. *)
let finite v = if Float.is_finite v then v else 0.0

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Json.Obj
                      [ ("value", Json.Float (finite m.value)); ("unit", Json.Str m.unit_) ] ))
                metrics) );
       ])

let print_human m = Printf.printf "%-28s %14.6g %s\n" m.name m.value m.unit_
