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
  (* The log as flat columns, entry [i] being the [i]-th access recorded
     (its log order, the final tie-breaker). The columns grow by doubling,
     so recording allocates nothing per access. *)
  mutable bank : int array;
  mutable at : int array;
  mutable core : int array;
  mutable tag : int array;
  mutable n : int;
}

let create ~banks ~ports ~window =
  if banks < 1 || ports < 1 || window < 1 then
    invalid_arg "Arbiter.create: banks, ports and window must be positive";
  { banks; ports; window; bank = [||]; at = [||]; core = [||]; tag = [||]; n = 0 }

let banks t = t.banks
let ports t = t.ports
let window t = t.window

let record ~tag t ~core ~set ~at =
  let i = t.n in
  if i = Array.length t.at then begin
    let grow a =
      let b = Array.make (Int.max 256 (2 * i)) 0 in
      Array.blit a 0 b 0 i;
      b
    in
    t.bank <- grow t.bank;
    t.at <- grow t.at;
    t.core <- grow t.core;
    t.tag <- grow t.tag
  end;
  t.bank.(i) <- set mod t.banks;
  t.at.(i) <- at;
  t.core.(i) <- core;
  t.tag.(i) <- tag;
  t.n <- i + 1

type settlement = {
  accesses : int;
  contended : int;  (* accesses that lost arbitration somewhere *)
  stall_cycles : int array;  (* per core *)
  retried : int array;  (* per core *)
  tag_stalls : (int * int * int) list;  (* (core, tag, cycles), sorted *)
}

(* Log indices in arbitration order: by bank, cycle, core, then log order.
   Each (bank, slot) bin is a contiguous run of it, because the slot
   [at / window] never decreases as [at] grows. The sort is an LSD radix
   sort, one stable pass per 11 bits of each field's range, least
   significant field first; a field's keys are taken relative to its
   minimum and read as unsigned, so any int range sorts, and they travel
   with the indices so every pass reads its arrays in order. *)
let arbitration_order t =
  let n = t.n in
  let idx = ref (Array.init n Fun.id) and idx' = ref (Array.make n 0) in
  let keys = ref (Array.make n 0) and keys' = ref (Array.make n 0) in
  let count = Array.make 2048 0 in
  let sort_by field =
    let lo = ref max_int and hi = ref min_int in
    for j = 0 to n - 1 do
      lo := Int.min !lo field.(j);
      hi := Int.max !hi field.(j)
    done;
    let k = !keys and i = !idx in
    for j = 0 to n - 1 do
      k.(j) <- field.(i.(j)) - !lo
    done;
    let shift = ref 0 in
    while !shift < Sys.int_size && (!hi - !lo) lsr !shift <> 0 do
      let k = !keys and i = !idx and k' = !keys' and i' = !idx' and sh = !shift in
      Array.fill count 0 2048 0;
      for j = 0 to n - 1 do
        let b = (k.(j) lsr sh) land 2047 in
        count.(b) <- count.(b) + 1
      done;
      let sum = ref 0 in
      for b = 0 to 2047 do
        let c = count.(b) in
        count.(b) <- !sum;
        sum := !sum + c
      done;
      for j = 0 to n - 1 do
        let b = (k.(j) lsr sh) land 2047 in
        let at = count.(b) in
        k'.(at) <- k.(j);
        i'.(at) <- i.(j);
        count.(b) <- at + 1
      done;
      keys := k';
      idx := i';
      keys' := k;
      idx' := i;
      shift := sh + 11
    done
  in
  sort_by t.core;
  sort_by t.at;
  sort_by t.bank;
  !idx

let settle t ~ncores =
  let stall = Array.make ncores 0 and retried = Array.make ncores 0 in
  let contended = ref 0 in
  let by_tag : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let order = arbitration_order t in
  (* Bins are independent, so per-core sums do not depend on the order
     bins are visited; the per-(core, tag) table is extracted sorted for
     the same reason. *)
  let first = ref 0 in
  while !first < t.n do
    let e = order.(!first) in
    let bank = t.bank.(e) and slot = t.at.(e) / t.window in
    let last = ref !first in
    while
      !last + 1 < t.n
      &&
      let f = order.(!last + 1) in
      t.bank.(f) = bank && t.at.(f) / t.window = slot
    do
      incr last
    done;
    for rank = t.ports to !last - !first do
      (* Losing arbitration costs a full re-issued probe window. *)
      let e = order.(!first + rank) in
      let core = t.core.(e) in
      stall.(core) <- stall.(core) + t.window;
      retried.(core) <- retried.(core) + 1;
      let k = (core, t.tag.(e)) in
      Hashtbl.replace by_tag k
        (Option.value ~default:0 (Hashtbl.find_opt by_tag k) + t.window);
      incr contended
    done;
    first := !last + 1
  done;
  let tag_stalls =
    Hashtbl.fold (fun (core, tag) c acc -> (core, tag, c) :: acc) by_tag []
    |> List.sort compare
  in
  { accesses = t.n; contended = !contended; stall_cycles = stall; retried; tag_stalls }
