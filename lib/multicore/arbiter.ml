(* Bank/port arbitration for the shared LUT, settled after the fact.

   Cores in a co-run are simulated one request at a time (the shared LUT is
   one mutable structure, so a canonical execution order is what makes runs
   reproducible), which means contention cannot be charged while a core
   runs — the colliding accesses of its neighbours have not happened yet.
   Instead every shared-LUT access is logged with its absolute issue cycle
   (the core's request start plus its pipeline-local clock), and once all
   cores are done the log is settled: accesses are binned by (bank, service
   window), each window serves [ports] accesses per bank, and every access
   beyond that charges its core one full window of stall cycles.

   The model is deliberately coarse — it does not re-time a core's later
   accesses after a stall — but it is deterministic, order-independent
   (per-core charges are sums over independent bins), and monotone: more
   overlap means more charged cycles. *)

type t = {
  banks : int;
  ports : int;
  window : int;
  bins : (int * int, (int * int * int * int) list ref) Hashtbl.t;
      (* (bank, slot) -> (at, core, seq, tag) accesses, newest first *)
  mutable seq : int;  (* global log order, the final tie-breaker *)
}

let create ~banks ~ports ~window =
  if banks < 1 || ports < 1 || window < 1 then
    invalid_arg "Arbiter.create: banks, ports and window must be positive";
  { banks; ports; window; bins = Hashtbl.create 256; seq = 0 }

let banks t = t.banks
let ports t = t.ports
let window t = t.window

let record ~tag t ~core ~set ~at =
  let bank = set mod t.banks in
  let slot = at / t.window in
  let key = (bank, slot) in
  let cell =
    match Hashtbl.find_opt t.bins key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add t.bins key r;
        r
  in
  cell := (at, core, t.seq, tag) :: !cell;
  t.seq <- t.seq + 1

type settlement = {
  accesses : int;
  contended : int;  (* accesses that lost arbitration somewhere *)
  stall_cycles : int array;  (* per core *)
  retried : int array;  (* per core *)
  tag_stalls : (int * int * int) list;  (* (core, tag, cycles), sorted *)
}

let settle t ~ncores =
  let stall = Array.make ncores 0 and retried = Array.make ncores 0 in
  let contended = ref 0 in
  let by_tag : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  (* Bins are independent, so per-core sums do not depend on the hash
     iteration order; the per-(core, tag) table is extracted sorted for the
     same reason. *)
  Hashtbl.iter
    (fun _key cell ->
      let n = List.length !cell in
      if n > t.ports then begin
        let sorted = List.sort compare !cell in
        List.iteri
          (fun rank (_at, core, _seq, tag) ->
            if rank >= t.ports then begin
              (* Losing arbitration costs a full re-issued probe window. *)
              stall.(core) <- stall.(core) + t.window;
              retried.(core) <- retried.(core) + 1;
              let k = (core, tag) in
              Hashtbl.replace by_tag k
                (Option.value ~default:0 (Hashtbl.find_opt by_tag k) + t.window);
              incr contended
            end)
          sorted
      end)
    t.bins;
  let tag_stalls =
    Hashtbl.fold (fun (core, tag) c acc -> (core, tag, c) :: acc) by_tag []
    |> List.sort compare
  in
  { accesses = t.seq; contended = !contended; stall_cycles = stall; retried; tag_stalls }
