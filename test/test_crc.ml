(* Tests for the CRC engines: published check values, serial/parallel
   agreement, incremental streaming. *)

module Poly = Axmemo_crc.Poly
module Engine = Axmemo_crc.Engine
module Cost = Axmemo_crc.Cost

let hex = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%LX" v) Int64.equal

let test_self_tests () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (p.Poly.name ^ " self test") true (Engine.self_test p))
    Poly.all

let test_known_vectors () =
  Alcotest.check hex "crc32(empty)" 0L (Engine.digest_string Poly.crc32 "");
  Alcotest.check hex "crc32(a)" 0xE8B7BE43L (Engine.digest_string Poly.crc32 "a");
  Alcotest.check hex "crc32(abc)" 0x352441C2L (Engine.digest_string Poly.crc32 "abc");
  Alcotest.check hex "crc32c(abc)" 0x364B3FB7L (Engine.digest_string Poly.crc32c "abc")

let test_serial_matches_table_driven () =
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          Alcotest.check hex
            (Printf.sprintf "%s of %S" p.Poly.name s)
            (Engine.digest_serial p s) (Engine.digest_string p s))
        [ ""; "x"; "hello world"; String.make 100 '\xFF'; "\x00\x01\x02\x03" ])
    Poly.all

let test_incremental_equals_oneshot () =
  let p = Poly.crc32 in
  let s = "the quick brown fox jumps over the lazy dog" in
  let t = Engine.start p in
  Engine.feed_string t (String.sub s 0 10);
  Engine.feed_string t (String.sub s 10 (String.length s - 10));
  Alcotest.check hex "split feed" (Engine.digest_string p s) (Engine.value t)

let test_value_non_destructive () =
  let t = Engine.start Poly.crc32 in
  Engine.feed_string t "abc";
  let v1 = Engine.value t in
  let v2 = Engine.value t in
  Alcotest.check hex "value is pure" v1 v2;
  Engine.feed_string t "d";
  Alcotest.check hex "continues correctly" (Engine.digest_string Poly.crc32 "abcd")
    (Engine.value t)

let test_copy_snapshots () =
  let t = Engine.start Poly.crc32 in
  Engine.feed_string t "ab";
  let snap = Engine.copy t in
  Engine.feed_string t "cd";
  Engine.feed_string snap "cd";
  Alcotest.check hex "copy diverges identically" (Engine.value t) (Engine.value snap)

let test_feed_int64_little_endian () =
  let t1 = Engine.start Poly.crc32 in
  Engine.feed_int64 t1 ~width:4 0x64636261L;
  (* "abcd" *)
  Alcotest.check hex "matches string bytes" (Engine.digest_string Poly.crc32 "abcd")
    (Engine.value t1)

let test_bytes_fed () =
  let t = Engine.start Poly.crc32 in
  Engine.feed_int64 t ~width:8 0L;
  Engine.feed_byte t 0xFF;
  Alcotest.(check int) "9 bytes" 9 (Engine.bytes_fed t)

let test_reset () =
  let t = Engine.start Poly.crc32 in
  Engine.feed_string t "stale input";
  Engine.reset t;
  Alcotest.(check int) "bytes fed cleared" 0 (Engine.bytes_fed t);
  Engine.feed_string t "abc";
  Alcotest.check hex "reset = fresh start" (Engine.digest_string Poly.crc32 "abc")
    (Engine.value t)

(* Minor-heap words one call of [f] allocates, averaged over [n] calls, net
   of the cost of reading the counter. *)
let minor_words_per_call ?(n = 10_000) f =
  let c0 = Gc.minor_words () in
  let c1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0 -. (c1 -. c0)) /. float_of_int n

(* The register is unboxed storage, so streaming an (already boxed) input
   allocates nothing; with a [mutable int64] register each feed boxed a
   fresh 3-word value. Measured here: 0 words for both engines. *)
let test_feed_int64_allocates_nothing () =
  let v = Sys.opaque_identity 0x0123456789ABCDEFL in
  List.iter
    (fun p ->
      let t = Engine.start p in
      let words = minor_words_per_call (fun () -> Engine.feed_int64 t ~width:8 v) in
      Alcotest.(check (float 0.01)) (p.Poly.name ^ " words per feed_int64") 0.0 words;
      let words = minor_words_per_call (fun () -> Engine.feed_int t ~width:4 0x7FEDCBA9) in
      Alcotest.(check (float 0.01)) (p.Poly.name ^ " words per feed_int") 0.0 words)
    [ Poly.crc32; Poly.crc64_xz ]

let test_table_structure () =
  let tbl = Engine.table Poly.crc32 in
  Alcotest.(check int) "256 entries" 256 (Array.length tbl);
  Alcotest.check hex "entry 0 is 0" 0L tbl.(0);
  (* table is cached *)
  Alcotest.(check bool) "cached" true (Engine.table Poly.crc32 == tbl)

let test_sensitivity_every_bit () =
  (* Flipping any single input bit changes the CRC (linearity of CRC). *)
  let p = Poly.crc32 in
  let base = Engine.digest_string p "AXMEMO" in
  String.iteri
    (fun i _ ->
      for bit = 0 to 7 do
        let flipped = Bytes.of_string "AXMEMO" in
        Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor (1 lsl bit)));
        Alcotest.(check bool) "bit flip changes CRC" false
          (Engine.digest_string p (Bytes.to_string flipped) = base)
      done)
    "AXMEMO"

let test_cost_model () =
  Alcotest.(check int) "3 per byte" 3 Cost.software_instructions_per_byte;
  Alcotest.(check bool) "at least 12 for 4 bytes (paper)" true
    (Cost.software_instructions ~input_bytes:4 >= 12)

(* properties *)

let gen_string = QCheck.string_of_size (QCheck.Gen.int_range 0 200)

let prop_serial_equals_parallel =
  QCheck.Test.make ~name:"serial = table-driven (all polys)" ~count:100 gen_string
    (fun s ->
      List.for_all (fun p -> Engine.digest_serial p s = Engine.digest_string p s) Poly.all)

let prop_incremental_any_split =
  QCheck.Test.make ~name:"incremental = one-shot at any split" ~count:200
    QCheck.(pair gen_string (int_bound 1000))
    (fun (s, k) ->
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let t = Engine.start Poly.crc32 in
      Engine.feed_string t (String.sub s 0 k);
      Engine.feed_string t (String.sub s k (String.length s - k));
      Engine.value t = Engine.digest_string Poly.crc32 s)

let prop_feed_string_equals_feed_byte =
  (* Pins the slice-by-8 feed_string path to the per-byte fold, for every
     polynomial, across an arbitrary split (so chunk boundaries land at
     every alignment). *)
  QCheck.Test.make ~name:"feed_string = per-byte feed_byte at any split" ~count:200
    QCheck.(pair gen_string (int_bound 1000))
    (fun (s, k) ->
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      List.for_all
        (fun p ->
          let sliced = Engine.start p in
          Engine.feed_string sliced (String.sub s 0 k);
          Engine.feed_string sliced (String.sub s k (String.length s - k));
          let byte_wise = Engine.start p in
          String.iter (fun c -> Engine.feed_byte byte_wise (Char.code c)) s;
          Engine.value sliced = Engine.value byte_wise
          && Engine.bytes_fed sliced = Engine.bytes_fed byte_wise)
        Poly.all)

let prop_feed_int_equals_feed_int64 =
  (* The immediate feed is the int64 feed of the same low bytes, and two
     4-byte halves hash as one 8-byte word, on the sliced path and on a
     fault-hooked (per-byte) engine alike. *)
  QCheck.Test.make ~name:"feed_int = feed_int64; two halves = one word" ~count:200
    QCheck.(pair (int_range 0 7) int64)
    (fun (width, v) ->
      List.for_all
        (fun p ->
          List.for_all
            (fun fault ->
              let a = Engine.start ?fault p and b = Engine.start ?fault p in
              Engine.feed_int a ~width (Int64.to_int v);
              Engine.feed_int64 b ~width v;
              let lo = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
              let hi = Int64.to_int (Int64.shift_right_logical v 32) in
              Engine.feed_int a ~width:4 lo;
              Engine.feed_int a ~width:4 hi;
              Engine.feed_int64 b ~width:8 v;
              Engine.value a = Engine.value b && Engine.bytes_fed a = Engine.bytes_fed b)
            [ None; Some (fun _ -> 0L) ])
        Poly.all)

let prop_width_mask =
  QCheck.Test.make ~name:"digest fits the declared width" ~count:200 gen_string
    (fun s ->
      List.for_all
        (fun p ->
          let v = Engine.digest_string p s in
          Int64.logand v (Int64.lognot (Poly.mask p)) = 0L)
        Poly.all)

let prop_distinct_inputs_rarely_collide =
  QCheck.Test.make ~name:"no trivial collisions on short strings" ~count:200
    QCheck.(pair gen_string gen_string)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      (* CRC-64 over short distinct strings: collision probability ~2^-64. *)
      Engine.digest_string Poly.crc64_xz a <> Engine.digest_string Poly.crc64_xz b)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_serial_equals_parallel; prop_incremental_any_split;
      prop_feed_string_equals_feed_byte; prop_feed_int_equals_feed_int64; prop_width_mask;
      prop_distinct_inputs_rarely_collide ]

let () =
  Alcotest.run "crc"
    [
      ( "engine",
        [
          Alcotest.test_case "self tests" `Quick test_self_tests;
          Alcotest.test_case "known vectors" `Quick test_known_vectors;
          Alcotest.test_case "serial = table" `Quick test_serial_matches_table_driven;
          Alcotest.test_case "incremental" `Quick test_incremental_equals_oneshot;
          Alcotest.test_case "value non destructive" `Quick test_value_non_destructive;
          Alcotest.test_case "copy" `Quick test_copy_snapshots;
          Alcotest.test_case "feed_int64" `Quick test_feed_int64_little_endian;
          Alcotest.test_case "bytes fed" `Quick test_bytes_fed;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "feed allocates nothing" `Quick test_feed_int64_allocates_nothing;
          Alcotest.test_case "table structure" `Quick test_table_structure;
          Alcotest.test_case "every bit matters" `Quick test_sensitivity_every_bit;
          Alcotest.test_case "software cost model" `Quick test_cost_model;
        ] );
      ("properties", qsuite);
    ]
