type t = { mutable data : Bytes.t; mutable brk : int; limit : int }

let create ?(size_bytes = 512 * 1024 * 1024) () =
  { data = Bytes.make 4096 '\000'; brk = 0; limit = size_bytes }

let ensure t upto =
  if upto > Bytes.length t.data then begin
    if upto > t.limit then
      invalid_arg
        (Printf.sprintf "Memory: out of memory (%d bytes requested, limit %d)" upto
           t.limit);
    (* Double for amortized growth, but never overshoot a large request:
       a single huge allocation (e.g. a software-LUT table) should cost one
       right-sized buffer, not the next power of two beyond it. *)
    let old = Bytes.length t.data in
    let n = min (max (old * 2) ((upto + 0xFFFF) land lnot 0xFFFF)) t.limit in
    (* [Bytes.create] skips the memset; the old prefix is blitted over and
       only the fresh tail needs explicit zeroing. *)
    let fresh = Bytes.create n in
    Bytes.blit t.data 0 fresh 0 old;
    Bytes.fill fresh old (n - old) '\000';
    t.data <- fresh
  end

let alloc t ~bytes ~align =
  if align <= 0 || align land (align - 1) <> 0 then invalid_arg "Memory.alloc: align";
  let base = (t.brk + align - 1) land lnot (align - 1) in
  t.brk <- base + bytes;
  ensure t t.brk;
  base

let load_i32 t addr =
  ensure t (addr + 4);
  Bytes.get_int32_le t.data addr

let store_i32 t addr v =
  ensure t (addr + 4);
  Bytes.set_int32_le t.data addr v

let load_i64 t addr =
  ensure t (addr + 8);
  Bytes.get_int64_le t.data addr

let store_i64 t addr v =
  ensure t (addr + 8);
  Bytes.set_int64_le t.data addr v

let load_f32 t addr = Int32.float_of_bits (load_i32 t addr)
let store_f32 t addr v = store_i32 t addr (Int32.bits_of_float v)
let load_f64 t addr = Int64.float_of_bits (load_i64 t addr)
let store_f64 t addr v = store_i64 t addr (Int64.bits_of_float v)

let load t (ty : Ir.ty) addr : Ir.value =
  match ty with
  | I32 -> VI (Int64.of_int32 (load_i32 t addr))
  | I64 -> VI (load_i64 t addr)
  | F32 -> VF (load_f32 t addr)
  | F64 -> VF (load_f64 t addr)

let store t (ty : Ir.ty) addr (v : Ir.value) =
  match (ty, v) with
  | I32, VI x -> store_i32 t addr (Int64.to_int32 x)
  | I64, VI x -> store_i64 t addr x
  | F32, VF x -> store_f32 t addr x
  | F64, VF x -> store_f64 t addr x
  | (I32 | I64), VF _ | (F32 | F64), VI _ ->
      invalid_arg "Memory.store: value kind does not match type"

let backing t upto =
  ensure t upto;
  t.data
