(* Correctness of the simulated outputs. Every op (one cell or one request)
   carries a fingerprint of what the simulator computed; it must match the
   fingerprint recorded for the same seed, and the op must pass its
   workload's invariants. A mismatch is counted, never raised. *)

module Runner = Axmemo.Runner
module Workload = Axmemo_workloads.Workload

type op = {
  id : string;  (* stable for a given seed and workload *)
  fp : string;  (* "" when the op raised *)
  ok : bool;  (* false when the op raised or an invariant on it failed *)
  host_s : float;  (* the library's own [sim_wall_seconds] stamp *)
  instrs : int;  (* simulated dyn_normal + dyn_memo *)
}

let float_bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let outputs_digest = function
  | Workload.Floats a ->
      let b = Buffer.create (Array.length a * 17) in
      Array.iter (fun f -> Buffer.add_string b (float_bits f); Buffer.add_char b ',') a;
      Digest.to_hex (Digest.string (Buffer.contents b))
  | Workload.Bools a ->
      Digest.to_hex (Digest.string (String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')))

(* Cycles, dynamic counts, LUT traffic, energy, the outputs and, for a
   request, where the schedule put it. Floats enter by their bits. *)
let fingerprint ?(placement = "") (r : Runner.result) =
  let s =
    Printf.sprintf "%d|%d|%d|%d|%d|%s|%s|%s" r.Runner.cycles r.dyn_normal r.dyn_memo r.lookups
      r.hits
      (float_bits r.energy.Axmemo_energy.Model.total_pj)
      (outputs_digest r.outputs) placement
  in
  String.sub (Digest.to_hex (Digest.string s)) 0 16

let instrs (r : Runner.result) = r.Runner.dyn_normal + r.dyn_memo

let of_result ?placement ~id ?(ok = true) (r : Runner.result) =
  { id; fp = fingerprint ?placement r; ok; host_s = r.Runner.sim_wall_seconds; instrs = instrs r }

let raised id = { id; fp = ""; ok = false; host_s = 0.0; instrs = 0 }
let total_instrs ops = List.fold_left (fun a op -> a + op.instrs) 0 ops

(* One timed pass over a workload's set-up output, and what it produced. *)
type round = {
  wall_s : float;  (* the timed region *)
  busy_s : float;  (* library-stamped host seconds of the region's cells or requests *)
  steps : (string * float) list;  (* serial parts of the timed region, host s each *)
  ops : op list;
  layers : Metric.t list;  (* this workload's own layer metrics *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* A round's steps plus "rest", the part of [wall_s] they leave uncovered. *)
let all_steps r =
  ("rest", Float.max 0.0 (r.wall_s -. List.fold_left (fun a (_, s) -> a +. s) 0.0 r.steps)) :: r.steps

(* Per id, the least of its values: [(id, seconds)] pairs pooled from
   repeats of the same deterministic work, in first-seen order. *)
let fastest pairs =
  let t = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (id, s) ->
      match Hashtbl.find_opt t id with
      | Some best -> if s < best then Hashtbl.replace t id s
      | None ->
          Hashtbl.replace t id s;
          order := id :: !order)
    pairs;
  List.rev_map (fun id -> (id, Hashtbl.find t id)) !order

(* A round's timed region with every step at its fastest over [rounds]:
   the work's time with the host's short stalls left out. *)
let floor_wall rounds =
  List.fold_left (fun a (_, s) -> a +. s) 0.0 (fastest (List.concat_map all_steps rounds))

(* Each op's fastest host time over [rounds]; failed ops are left out. *)
let op_floors rounds =
  fastest
    (List.concat_map
       (fun r -> List.filter_map (fun op -> if op.ok then Some (op.id, op.host_s) else None) r.ops)
       rounds)
  |> List.map snd

(* Failed ops of [ops] against [reference] (op id -> fingerprint): raised,
   invariant broken, or fingerprint differs. An op unknown to the reference
   fails unless [strict] is false. *)
let failures ?(strict = true) ~reference ops =
  List.fold_left
    (fun n op ->
      match Hashtbl.find_opt reference op.id with
      | Some fp when op.ok && fp = op.fp -> n
      | None when op.ok && not strict -> n
      | _ -> n + 1)
    0 ops

(* Ops of the traced run's ablation carry this prefix; they are recorded
   beside a round's ops but are not part of one. *)
let ablation_prefix = "ablate/"

(* Reference round ops that [ops] does not contain: attempted, and failed. *)
let missing ~reference ops =
  let seen = Hashtbl.create (List.length ops) in
  List.iter (fun op -> Hashtbl.replace seen op.id ()) ops;
  Hashtbl.fold
    (fun id _ n ->
      if Hashtbl.mem seen id || String.starts_with ~prefix:ablation_prefix id then n else n + 1)
    reference 0

let table_of_ops ops =
  let t = Hashtbl.create (List.length ops) in
  List.iter (fun op -> Hashtbl.replace t op.id op.fp) ops;
  t

(* Recorded fingerprints: lines "<seed> <op id> <fingerprint>" in
   [dir/<workload>.txt]; [None] when the seed has none. *)
let load_recorded ~dir ~workload ~seed =
  let path = Filename.concat dir (workload ^ ".txt") in
  let t = Hashtbl.create 64 in
  if Sys.file_exists path then
    List.iter
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ s; id; fp ] when int_of_string_opt s = Some seed -> Hashtbl.replace t id fp
        | _ -> ())
      (String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all));
  if Hashtbl.length t = 0 then None else Some t

let record_lines ~seed ops =
  List.map (fun op -> Printf.sprintf "%d %s %s" seed op.id op.fp) ops
