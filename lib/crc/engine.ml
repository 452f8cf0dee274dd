let reflect ~bits v =
  let r = ref 0L in
  for i = 0 to bits - 1 do
    if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
      r := Int64.logor !r (Int64.shift_left 1L (bits - 1 - i))
  done;
  !r

(* Step tables are memoized per parameterisation: building one models loading
   the constants RAM of the parallel hardware unit. The cache is per-domain
   (Domain.DLS), so Axmemo_util.Pool workers starting engines concurrently
   never serialize on a shared lock — each domain rebuilds the 256-entry
   table at most once per parameterisation, which is far cheaper than
   contending for a process-wide mutex on every [start]. *)
let table_cache_key : (string, int64 array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let build_table (p : Poly.t) =
  let mask = Poly.mask p in
  let table = Array.make 256 0L in
  if p.refin then begin
    let poly_r = reflect ~bits:p.width p.poly in
    for i = 0 to 255 do
      let t = ref (Int64.of_int i) in
      for _ = 0 to 7 do
        if Int64.logand !t 1L = 1L then
          t := Int64.logxor (Int64.shift_right_logical !t 1) poly_r
        else t := Int64.shift_right_logical !t 1
      done;
      table.(i) <- Int64.logand !t mask
    done
  end
  else
    for i = 0 to 255 do
      let t = ref (Int64.shift_left (Int64.of_int i) (p.width - 8)) in
      for _ = 0 to 7 do
        let top = Int64.logand (Int64.shift_right_logical !t (p.width - 1)) 1L in
        t := Int64.logand (Int64.shift_left !t 1) mask;
        if top = 1L then t := Int64.logxor !t p.poly
      done;
      table.(i) <- Int64.logand !t mask
    done;
  table

let table (p : Poly.t) =
  let cache = Domain.DLS.get table_cache_key in
  match Hashtbl.find_opt cache p.name with
  | Some t -> t
  | None ->
      let t = build_table p in
      Hashtbl.add cache p.name t;
      t

(* Slice-by-8 tables: a flat [8 * 256] array where slot [k*256 + i] is the
   register contribution of byte value [i] fed [k] zero-byte steps ago.
   T0 is the ordinary step table; T_{k+1}[i] is one zero-input step applied
   to T_k[i]. Eight bytes then fold into the register with eight lookups
   and no per-byte shift chain. *)
let slice_cache_key : (string, int64 array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let build_slices (p : Poly.t) t0 =
  let mask = Poly.mask p in
  let slices = Array.make (8 * 256) 0L in
  Array.blit t0 0 slices 0 256;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let prev = slices.(((k - 1) * 256) + i) in
      let next =
        if p.refin then
          Int64.logxor
            (Int64.shift_right_logical prev 8)
            t0.(Int64.to_int (Int64.logand prev 0xFFL))
        else
          Int64.logand
            (Int64.logxor
               (Int64.shift_left prev 8)
               t0.(Int64.to_int
                     (Int64.logand (Int64.shift_right_logical prev (p.width - 8)) 0xFFL)))
            mask
      in
      slices.((k * 256) + i) <- next
    done
  done;
  slices

let slices (p : Poly.t) =
  let cache = Domain.DLS.get slice_cache_key in
  match Hashtbl.find_opt cache p.name with
  | Some t -> t
  | None ->
      let t = build_slices p (table p) in
      Hashtbl.add cache p.name t;
      t

(* The shift register lives in an 8-byte [Bytes] read and written through
   the unboxed 64-bit primitives: a [mutable int64] field would allocate a
   fresh box on every step. *)
external get_reg : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_reg : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = {
  poly : Poly.t;
  mask : int64;  (* [Poly.mask poly], computed once *)
  init : int64;  (* the register at [start], in the register's domain *)
  step_table : int64 array;
  slice_table : int64 array;
  sliceable : bool;
      (* the multi-byte fold requires a whole number of register bytes on
         the MSB-first path, and the fault hook is a per-byte contract *)
  reg : Bytes.t;  (* reflected domain iff poly.refin *)
  mutable fed : int;
  fault : (int -> int64) option;
      (* datapath upset hook: called once per byte step with the register
         width, returns an XOR mask (0L = clean step) *)
}

let start ?fault (p : Poly.t) =
  (* The internal register lives in the reflected domain when the
     parameterisation reflects its input, so the initial value must be
     carried into that domain too. *)
  let init = if p.refin then reflect ~bits:p.width p.init else p.init in
  let sliceable = fault = None && (p.refin || (p.width >= 8 && p.width mod 8 = 0)) in
  let reg = Bytes.create 8 in
  set_reg reg 0 init;
  {
    poly = p;
    mask = Poly.mask p;
    init;
    step_table = table p;
    slice_table = slices p;
    sliceable;
    reg;
    fed = 0;
    fault;
  }

let reset t =
  set_reg t.reg 0 t.init;
  t.fed <- 0

let copy t = { t with reg = Bytes.copy t.reg }

let feed_byte t b =
  let b = b land 0xFF in
  t.fed <- t.fed + 1;
  let p = t.poly in
  let r = get_reg t.reg 0 in
  let r =
    if p.refin then
      let idx = Int64.to_int (Int64.logand (Int64.logxor r (Int64.of_int b)) 0xFFL) in
      Int64.logxor (Int64.shift_right_logical r 8) t.step_table.(idx)
    else
      let idx =
        Int64.to_int
          (Int64.logand
             (Int64.logxor (Int64.shift_right_logical r (p.width - 8)) (Int64.of_int b))
             0xFFL)
      in
      Int64.logand (Int64.logxor (Int64.shift_left r 8) t.step_table.(idx)) t.mask
  in
  set_reg t.reg 0 r;
  match t.fault with
  | None -> ()
  | Some f ->
      let mask = f p.width in
      if mask <> 0L then set_reg t.reg 0 (Int64.logand (Int64.logxor r mask) t.mask)

(* Fold the low [m] bytes of [v] (little-endian) into the register in one
   step: each byte k is combined with the register byte it would have met on
   the per-byte path and looked up in the table that accounts for the
   [m-1-k] zero-byte steps still to come; the register bits that survive all
   [m] shifts contribute the residual term. Requires [t.sliceable] and
   [1 <= m <= 8]. Inlined, so a caller's unboxed [v] stays unboxed. *)
let[@inline] feed_chunk_le t v m =
  let p = t.poly in
  let sl = t.slice_table in
  let r = get_reg t.reg 0 in
  let acc = ref 0L in
  if p.refin then begin
    for k = 0 to m - 1 do
      let rb = Int64.shift_right_logical r (8 * k) in
      let b = Int64.shift_right_logical v (8 * k) in
      let idx = Int64.to_int (Int64.logand (Int64.logxor rb b) 0xFFL) in
      acc := Int64.logxor !acc sl.(((m - 1 - k) * 256) + idx)
    done;
    (* shifting an int64 by >= 64 is unspecified, so the full-width case
       must produce the zero residual explicitly *)
    let residual = if 8 * m >= 64 then 0L else Int64.shift_right_logical r (8 * m) in
    set_reg t.reg 0 (Int64.logxor residual !acc)
  end
  else begin
    let w = p.width in
    for k = 0 to m - 1 do
      let rb =
        if 8 * (k + 1) <= w then Int64.shift_right_logical r (w - (8 * (k + 1))) else 0L
      in
      let b = Int64.shift_right_logical v (8 * k) in
      let idx = Int64.to_int (Int64.logand (Int64.logxor rb b) 0xFFL) in
      acc := Int64.logxor !acc sl.(((m - 1 - k) * 256) + idx)
    done;
    let residual =
      if 8 * m >= w then 0L else Int64.logand (Int64.shift_left r (8 * m)) t.mask
    in
    set_reg t.reg 0 (Int64.logand (Int64.logxor residual !acc) t.mask)
  end;
  t.fed <- t.fed + m

let feed_string t s =
  if not t.sliceable then String.iter (fun c -> feed_byte t (Char.code c)) s
  else begin
    let n = String.length s in
    let i = ref 0 in
    while n - !i >= 8 do
      let j = !i in
      let v = ref (Int64.of_int (Char.code (String.unsafe_get s (j + 7)))) in
      for k = 6 downto 0 do
        v :=
          Int64.logor (Int64.shift_left !v 8)
            (Int64.of_int (Char.code (String.unsafe_get s (j + k))))
      done;
      feed_chunk_le t !v 8;
      i := j + 8
    done;
    while !i < n do
      feed_byte t (Char.code (String.unsafe_get s !i));
      incr i
    done
  end

let feed_int64 t ~width v =
  if t.sliceable && width >= 1 && width <= 8 then feed_chunk_le t v width
  else
    for i = 0 to width - 1 do
      feed_byte t (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
    done

let feed_int t ~width v =
  if t.sliceable && width >= 1 && width <= 7 then feed_chunk_le t (Int64.of_int v) width
  else
    for i = 0 to width - 1 do
      feed_byte t ((v lsr (8 * i)) land 0xFF)
    done

let value t =
  let p = t.poly in
  let r = get_reg t.reg 0 in
  let r = if p.refout = p.refin then r else reflect ~bits:p.width r in
  Int64.logand (Int64.logxor r p.xorout) t.mask

let bytes_fed t = t.fed

let digest_string p s =
  let t = start p in
  feed_string t s;
  value t

(* Bit-serial engine (the LFSR structure of Figure 3): the register lives in
   the normal domain; input bytes are fed MSB-first, or LSB-first when the
   parameterisation reflects its input. *)
let digest_serial (p : Poly.t) s =
  let mask = Poly.mask p in
  let reg = ref p.init in
  let feed_bit b =
    let top = Int64.logand (Int64.shift_right_logical !reg (p.width - 1)) 1L in
    reg := Int64.logand (Int64.shift_left !reg 1) mask;
    if Int64.logxor top (Int64.of_int b) = 1L then reg := Int64.logxor !reg p.poly
  in
  String.iter
    (fun c ->
      let byte = Char.code c in
      for i = 0 to 7 do
        let bit = if p.refin then (byte lsr i) land 1 else (byte lsr (7 - i)) land 1 in
        feed_bit bit
      done)
    s;
  let r = if p.refout then reflect ~bits:p.width !reg else !reg in
  Int64.logand (Int64.logxor r p.xorout) mask

let self_test p =
  let msg = "123456789" in
  (* a string long enough to exercise the slice-by-8 fold plus a ragged
     tail, cross-checked against the bit-serial reference *)
  let long = String.init 67 (fun i -> Char.chr ((i * 37 + 11) land 0xFF)) in
  let int64_feeds_match =
    let sliced = start p in
    feed_int64 sliced ~width:8 0x0123456789ABCDEFL;
    feed_int64 sliced ~width:4 0xCAFEBABEL;
    feed_int64 sliced ~width:1 0x5AL;
    let byte_at_a_time = start p in
    List.iter
      (fun (width, v) ->
        for i = 0 to width - 1 do
          feed_byte byte_at_a_time
            (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
        done)
      [ (8, 0x0123456789ABCDEFL); (4, 0xCAFEBABEL); (1, 0x5AL) ];
    value sliced = value byte_at_a_time && bytes_fed sliced = bytes_fed byte_at_a_time
  in
  digest_string p msg = p.check
  && digest_serial p msg = p.check
  && digest_string p long = digest_serial p long
  && int64_feeds_match
