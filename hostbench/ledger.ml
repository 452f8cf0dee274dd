(* Host-time spans recorded by the benchmark around its calls into the
   simulator's public functions. Spans stay in memory and are reduced to
   per-layer self times when the run ends. A disabled ledger only calls the
   wrapped function, so the untraced run pays one branch per span site.

   Spans nest by call order, so a ledger must only be fed from one domain;
   the traced round therefore runs serially. *)

type span = { id : int; name : string; parent : int; start : float; mutable stop : float }

type t = {
  enabled : bool;
  mutable next : int;
  mutable current : int;  (* id of the innermost open span; -1 at top level *)
  mutable spans : span list;  (* closed spans, most recent first *)
}

let create ~enabled = { enabled; next = 0; current = -1; spans = [] }
let now = Unix.gettimeofday

let span t name f =
  if not t.enabled then f ()
  else begin
    let s = { id = t.next; name; parent = t.current; start = now (); stop = nan } in
    t.next <- t.next + 1;
    t.current <- s.id;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        t.current <- s.parent;
        t.spans <- s :: t.spans)
      f
  end

let duration s = s.stop -. s.start

(* Total duration of every span called [name], wherever it sits. *)
let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0.0 t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let sorted = List.sort compare (List.map (fun (a, b) -> (Float.max a lo, Float.min b hi)) intervals) in
  let acc, last =
    List.fold_left
      (fun (acc, (cs, ce)) (a, b) ->
        if b <= a then (acc, (cs, ce))
        else if ce < a then (acc +. (ce -. cs), (a, b))
        else (acc, (cs, Float.max ce b)))
      (0.0, (lo, lo))
      sorted
  in
  acc +. (snd last -. fst last)

(* A span's self time: its duration minus the part of it that its child
   spans cover. *)
let self_time t s =
  let children =
    List.filter_map (fun c -> if c.parent = s.id then Some (c.start, c.stop) else None) t.spans
  in
  duration s -. covered ~lo:s.start ~hi:s.stop children

type breakdown = {
  wall : float;  (* the root span's duration *)
  layers : (string * float) list;  (* self time per span name below the root *)
  unattributed : float;  (* [wall] minus the layers' self times *)
}

(* Self times of every span below the most recent span called [root], summed
   per name. [unattributed] is defined so that the layers plus it sum to
   [wall]: it is the root's own self time, the benchmark glue and any layer
   the spans miss. *)
let breakdown t ~root =
  match List.find_opt (fun s -> s.name = root) t.spans with
  | None -> invalid_arg (Printf.sprintf "Ledger.breakdown: no span %S" root)
  | Some r ->
      let rec under s =
        s.parent = r.id
        || (s.parent >= 0
           && match List.find_opt (fun p -> p.id = s.parent) t.spans with
              | Some p -> under p
              | None -> false)
      in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun s ->
          if under s then
            Hashtbl.replace tbl s.name
              (self_time t s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name)))
        t.spans;
      let layers = List.sort compare (List.of_seq (Hashtbl.to_seq tbl)) in
      let wall = duration r in
      { wall; layers; unattributed = List.fold_left (fun acc (_, v) -> acc -. v) wall layers }
