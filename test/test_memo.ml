(* Tests for the LUT storage and the memoization unit. *)

module Lut = Axmemo_memo.Lut
module MU = Axmemo_memo.Memo_unit
module Ir = Axmemo_ir.Ir
module Payload = Axmemo_ir.Payload

(* --- Lut --- *)

(* A lookup probes one set of [ways] entries, so its cost does not grow
   with LUT size: from 4 to 16 KB only the set count and capacity grow. *)
let test_lut_geometry () =
  List.iter
    (fun (payload_bytes, kb, ways, sets, entries) ->
      let l = Lut.create ~payload_bytes ~size_bytes:(kb * 1024) () in
      let name what = Printf.sprintf "%dB payloads, %d KB: %s" payload_bytes kb what in
      Alcotest.(check int) (name "ways") ways (Lut.ways l);
      Alcotest.(check int) (name "sets") sets (Lut.sets l);
      Alcotest.(check int) (name "entries") entries (Lut.capacity_entries l))
    [
      (8, 4, 4, 64, 256);
      (8, 8, 4, 128, 512);
      (8, 16, 4, 256, 1024);
      (4, 4, 8, 64, 512);
      (4, 8, 8, 128, 1024);
      (4, 16, 8, 256, 2048);
    ]

let test_lut_geometry_invalid () =
  Alcotest.(check bool) "bad payload width" true
    (try
       ignore (Lut.create ~payload_bytes:6 ~size_bytes:4096 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-multiple size" true
    (try
       ignore (Lut.create ~size_bytes:100 ());
       false
     with Invalid_argument _ -> true)

let test_lut_insert_lookup () =
  let l = Lut.create ~size_bytes:4096 () in
  Alcotest.(check (option int64)) "empty miss" None (Lut.lookup l ~lut_id:0 ~key:42L);
  Lut.insert l ~lut_id:0 ~key:42L ~payload:99L None;
  Alcotest.(check (option int64)) "hit" (Some 99L) (Lut.lookup l ~lut_id:0 ~key:42L);
  Alcotest.(check int) "occupancy" 1 (Lut.occupancy l)

let test_lut_id_discrimination () =
  let l = Lut.create ~size_bytes:4096 () in
  Lut.insert l ~lut_id:0 ~key:42L ~payload:1L None;
  Lut.insert l ~lut_id:1 ~key:42L ~payload:2L None;
  Alcotest.(check (option int64)) "lut 0" (Some 1L) (Lut.lookup l ~lut_id:0 ~key:42L);
  Alcotest.(check (option int64)) "lut 1" (Some 2L) (Lut.lookup l ~lut_id:1 ~key:42L)

let test_lut_update_in_place () =
  let l = Lut.create ~size_bytes:4096 () in
  Lut.insert l ~lut_id:0 ~key:7L ~payload:1L None;
  Lut.insert l ~lut_id:0 ~key:7L ~payload:2L None;
  Alcotest.(check (option int64)) "refreshed" (Some 2L) (Lut.lookup l ~lut_id:0 ~key:7L);
  Alcotest.(check int) "no duplicate" 1 (Lut.occupancy l)

let test_lut_lru_and_evict_hook () =
  (* One set: size 64 = 1 set of 4 ways (8B payloads). *)
  let l = Lut.create ~size_bytes:64 () in
  let evicted = ref [] in
  let hook ~lut_id:_ ~key ~payload:_ = evicted := key :: !evicted in
  for k = 0 to 3 do
    Lut.insert l ~lut_id:0 ~key:(Int64.of_int k) ~payload:0L (Some hook)
  done;
  (* touch key 0 so key 1 is LRU *)
  ignore (Lut.lookup l ~lut_id:0 ~key:0L);
  Lut.insert l ~lut_id:0 ~key:100L ~payload:0L (Some hook);
  Alcotest.(check (list int64)) "key 1 evicted" [ 1L ] !evicted;
  Alcotest.(check (option int64)) "key 0 survives" (Some 0L) (Lut.lookup l ~lut_id:0 ~key:0L)

let test_lut_invalidate_selective () =
  let l = Lut.create ~size_bytes:4096 () in
  Lut.insert l ~lut_id:0 ~key:1L ~payload:0L None;
  Lut.insert l ~lut_id:1 ~key:2L ~payload:0L None;
  Lut.invalidate_lut l ~lut_id:0;
  Alcotest.(check (option int64)) "lut 0 gone" None (Lut.lookup l ~lut_id:0 ~key:1L);
  Alcotest.(check (option int64)) "lut 1 kept" (Some 0L) (Lut.lookup l ~lut_id:1 ~key:2L)

(* --- Memo unit --- *)

let mk_unit ?(monitor = false) ?(l2 = None) () =
  MU.create
    { MU.default_config with monitor; l2_bytes = l2 }
    [ { MU.lut_id = 0; payload = Payload.Pf32 }; { MU.lut_id = 1; payload = Payload.Pf64 } ]

let send u ~lut v =
  (MU.hooks u).send ~lut ~ty:Ir.F32 ~trunc:0 (Ir.VF v)

let test_unit_miss_update_hit () =
  let u = mk_unit () in
  let h = MU.hooks u in
  send u ~lut:0 1.5;
  Alcotest.(check (option int64)) "first lookup misses" None (h.lookup ~lut:0);
  h.update ~lut:0 777L;
  send u ~lut:0 1.5;
  Alcotest.(check (option int64)) "same input hits" (Some 777L) (h.lookup ~lut:0);
  Alcotest.(check bool) "level L1" true (MU.last_lookup_level u = MU.Hit_l1)

let test_unit_different_inputs_miss () =
  let u = mk_unit () in
  let h = MU.hooks u in
  send u ~lut:0 1.5;
  ignore (h.lookup ~lut:0);
  h.update ~lut:0 777L;
  send u ~lut:0 2.5;
  Alcotest.(check (option int64)) "different input misses" None (h.lookup ~lut:0)

let test_unit_truncation_merges () =
  let u = mk_unit () in
  let h = MU.hooks u in
  let send_t v = h.send ~lut:0 ~ty:Ir.F32 ~trunc:12 (Ir.VF v) in
  send_t 1.0;
  ignore (h.lookup ~lut:0);
  h.update ~lut:0 5L;
  send_t 1.0000002;
  Alcotest.(check (option int64)) "nearby input hits after truncation" (Some 5L)
    (h.lookup ~lut:0)

let test_unit_luts_isolated () =
  let u = mk_unit () in
  let h = MU.hooks u in
  send u ~lut:0 1.5;
  ignore (h.lookup ~lut:0);
  h.update ~lut:0 1L;
  (* same value streamed to lut 1 must not hit lut 0's entry *)
  send u ~lut:1 1.5;
  Alcotest.(check (option int64)) "isolated" None (h.lookup ~lut:1)

let test_unit_multi_input_order_matters () =
  let u = mk_unit () in
  let h = MU.hooks u in
  send u ~lut:0 1.0;
  send u ~lut:0 2.0;
  ignore (h.lookup ~lut:0);
  h.update ~lut:0 9L;
  send u ~lut:0 2.0;
  send u ~lut:0 1.0;
  Alcotest.(check (option int64)) "swapped inputs do not alias" None (h.lookup ~lut:0)

let test_unit_invalidate () =
  let u = mk_unit () in
  let h = MU.hooks u in
  send u ~lut:0 1.5;
  ignore (h.lookup ~lut:0);
  h.update ~lut:0 1L;
  h.invalidate ~lut:0;
  send u ~lut:0 1.5;
  Alcotest.(check (option int64)) "invalidated" None (h.lookup ~lut:0)

let test_unit_l2_inclusive () =
  (* Tiny L1 (one set, 4 entries) + large L2: entries evicted from L1 are
     still found in the L2 LUT and refill L1. *)
  let u =
    MU.create
      { MU.default_config with l1_bytes = 64; l2_bytes = Some 65536; monitor = false }
      [ { MU.lut_id = 0; payload = Payload.Pf32 } ]
  in
  let h = MU.hooks u in
  let remember v payload =
    send u ~lut:0 v;
    ignore (h.lookup ~lut:0);
    h.update ~lut:0 payload
  in
  for k = 0 to 9 do
    remember (float_of_int k) (Int64.of_int (1000 + k))
  done;
  (* key 0 has surely been evicted from the 4-entry L1 by now *)
  send u ~lut:0 0.0;
  Alcotest.(check (option int64)) "L2 serves evicted entry" (Some 1000L) (h.lookup ~lut:0);
  Alcotest.(check bool) "level says L2" true (MU.last_lookup_level u = MU.Hit_l2);
  (* ...and it was refilled into L1 *)
  send u ~lut:0 0.0;
  ignore (h.lookup ~lut:0);
  Alcotest.(check bool) "refilled to L1" true (MU.last_lookup_level u = MU.Hit_l1)

let test_unit_stats_consistency () =
  let u = mk_unit () in
  let h = MU.hooks u in
  for k = 0 to 19 do
    send u ~lut:0 (float_of_int (k mod 5));
    ignore (h.lookup ~lut:0);
    h.update ~lut:0 (Int64.of_int k)
  done;
  let s = MU.stats u in
  Alcotest.(check int) "lookups" 20 s.lookups;
  Alcotest.(check int) "hits+misses = lookups" s.lookups (s.l1_hits + s.l2_hits + s.misses);
  Alcotest.(check int) "sends" 20 s.sends;
  Alcotest.(check int) "bytes" 80 s.bytes_hashed;
  Alcotest.(check bool) "hit rate matches" true
    (abs_float (MU.hit_rate u -. (float_of_int (s.l1_hits + s.l2_hits) /. 20.0)) < 1e-9)

let test_monitor_forces_misses_and_compares () =
  let u = mk_unit ~monitor:true () in
  let h = MU.hooks u in
  (* Same input every time: after the first update, every lookup hits except
     each 100th hit, which the monitor forces to miss and then compares at
     the next update. *)
  let forced = ref 0 in
  for k = 0 to 350 do
    send u ~lut:0 1.0;
    match h.lookup ~lut:0 with
    | Some _ -> ()
    | None ->
        incr forced;
        ignore k;
        h.update ~lut:0 (Payload.pack Payload.Pf32 [| Ir.VF 2.0 |])
  done;
  let s = MU.stats u in
  Alcotest.(check int) "forced misses happened" s.forced_misses (!forced - 1);
  Alcotest.(check bool) "comparisons recorded" true (s.monitor_comparisons >= 1);
  Alcotest.(check bool) "accurate values: not disabled" false (MU.disabled u)

let test_monitor_trips_on_bad_quality () =
  let u = mk_unit ~monitor:true () in
  let h = MU.hooks u in
  (* Two inputs land in the same truncation cell but compute wildly different
     outputs (an unsafe truncation choice). Half the forced-miss comparisons
     see the other input's stored payload -> >10% of a window exceeds 10%
     relative error -> the unit must disable itself. *)
  let disabled_seen = ref false in
  (try
     for k = 0 to 400_000 do
       (* period 3, coprime with the 1-in-100 sampling cadence *)
       let x, out =
         match k mod 3 with
         | 0 -> (1.0, 1.0)
         | 1 -> (1.0000001, 50.0)
         | _ -> (1.0000002, 100.0)
       in
       h.send ~lut:0 ~ty:Ir.F32 ~trunc:12 (Ir.VF x);
       (match h.lookup ~lut:0 with
       | Some _ -> ()
       | None -> h.update ~lut:0 (Payload.pack Payload.Pf32 [| Ir.VF out |]));
       if MU.disabled u then begin
         disabled_seen := true;
         raise Exit
       end
     done
   with Exit -> ());
  Alcotest.(check bool) "monitor tripped" true !disabled_seen;
  (* Once disabled, everything misses. *)
  send u ~lut:0 1.0;
  Alcotest.(check (option int64)) "disabled = miss" None (h.lookup ~lut:0)

let test_unit_reset () =
  let u = mk_unit () in
  let h = MU.hooks u in
  send u ~lut:0 1.0;
  ignore (h.lookup ~lut:0);
  h.update ~lut:0 1L;
  MU.reset u;
  Alcotest.(check int) "stats cleared" 0 (MU.stats u).lookups;
  send u ~lut:0 1.0;
  Alcotest.(check (option int64)) "storage cleared" None (h.lookup ~lut:0)

let test_duplicate_lut_ids_rejected () =
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore
         (MU.create MU.default_config
            [
              { MU.lut_id = 0; payload = Payload.Pf32 };
              { MU.lut_id = 0; payload = Payload.Pf64 };
            ]);
       false
     with Invalid_argument _ -> true)

(* --- replacement policies --- *)

let test_fifo_ignores_hits () =
  let l = Lut.create ~policy:Lut.Fifo ~size_bytes:64 () in
  for k = 0 to 3 do
    Lut.insert l ~lut_id:0 ~key:(Int64.of_int k) ~payload:0L None
  done;
  (* Touch key 0 repeatedly: under FIFO it is still the oldest. *)
  for _ = 1 to 10 do
    ignore (Lut.lookup l ~lut_id:0 ~key:0L)
  done;
  Lut.insert l ~lut_id:0 ~key:100L ~payload:0L None;
  Alcotest.(check (option int64)) "oldest evicted despite touches" None
    (Lut.lookup l ~lut_id:0 ~key:0L)

let test_random_policy_works () =
  let l = Lut.create ~policy:Lut.Random ~size_bytes:64 () in
  for k = 0 to 20 do
    Lut.insert l ~lut_id:0 ~key:(Int64.of_int k) ~payload:(Int64.of_int k) None
  done;
  Alcotest.(check int) "set stays full" 4 (Lut.occupancy l);
  (* Determinism: a second identical run evicts identically. *)
  let l2 = Lut.create ~policy:Lut.Random ~size_bytes:64 () in
  for k = 0 to 20 do
    Lut.insert l2 ~lut_id:0 ~key:(Int64.of_int k) ~payload:(Int64.of_int k) None
  done;
  for k = 0 to 20 do
    let k = Int64.of_int k in
    Alcotest.(check bool) "deterministic random stream" true
      (Lut.lookup l ~lut_id:0 ~key:k = Lut.lookup l2 ~lut_id:0 ~key:k)
  done

(* --- payload width check --- *)

let test_narrow_unit_rejects_wide_payloads () =
  Alcotest.(check bool) "Pf64 in a 4-byte unit rejected" true
    (try
       ignore
         (MU.create
            { MU.default_config with payload_bytes = 4 }
            [ { MU.lut_id = 0; payload = Payload.Pf64 } ]);
       false
     with Invalid_argument _ -> true);
  (* Pf32 fits. *)
  ignore
    (MU.create
       { MU.default_config with payload_bytes = 4 }
       [ { MU.lut_id = 0; payload = Payload.Pf32 } ])

(* --- adaptive truncation --- *)

let adaptive_cfg =
  {
    MU.profile_period = 50;
    profile_length = 10;
    target_error = 0.01;
    bad_fraction = 0.05;
    max_extra_bits = 20;
  }

let test_adaptive_raises_truncation () =
  (* Inputs jitter at the 1e-5 relative level around two centres whose
     outputs are equal per centre: with zero static truncation nothing hits;
     the adaptive unit must discover a level that merges the jitter. *)
  let u =
    MU.create
      { MU.default_config with monitor = false; adaptive = Some adaptive_cfg }
      [ { MU.lut_id = 0; payload = Payload.Pf32 } ]
  in
  let h = MU.hooks u in
  let rng = Axmemo_util.Rng.create 99L in
  for _ = 1 to 3000 do
    let centre = if Axmemo_util.Rng.bool rng then 1.0 else 2.0 in
    let x = centre *. (1.0 +. Axmemo_util.Rng.gaussian rng ~mean:0.0 ~stddev:1e-5) in
    h.send ~lut:0 ~ty:Ir.F32 ~trunc:0 (Ir.VF x);
    match h.lookup ~lut:0 with
    | Some _ -> ()
    | None -> h.update ~lut:0 (Payload.pack Payload.Pf32 [| Ir.VF (centre *. 10.0) |])
  done;
  Alcotest.(check bool) "extra truncation discovered" true
    (MU.extra_truncation u ~lut_id:0 >= 6);
  Alcotest.(check bool) "and hits happen" true (MU.hit_rate u > 0.3)

let test_adaptive_backs_off_on_errors () =
  (* Three inputs alias under heavy truncation but produce wildly different
     outputs: exploration must back off instead of settling high. *)
  let u =
    MU.create
      { MU.default_config with monitor = false; adaptive = Some adaptive_cfg }
      [ { MU.lut_id = 0; payload = Payload.Pf32 } ]
  in
  let h = MU.hooks u in
  for k = 0 to 20_000 do
    let x, out =
      match k mod 3 with
      | 0 -> (1.0, 1.0)
      | 1 -> (1.001, 100.0)
      | _ -> (1.002, 1000.0)
    in
    h.send ~lut:0 ~ty:Ir.F32 ~trunc:0 (Ir.VF x);
    match h.lookup ~lut:0 with
    | Some _ -> ()
    | None -> h.update ~lut:0 (Payload.pack Payload.Pf32 [| Ir.VF out |])
  done;
  (* Merging these needs ~13 truncated bits; the error feedback must keep the
     level below that. *)
  Alcotest.(check bool)
    (Printf.sprintf "level kept low (%d)" (MU.extra_truncation u ~lut_id:0))
    true
    (MU.extra_truncation u ~lut_id:0 < 13)

let test_adaptive_reset () =
  let u =
    MU.create
      { MU.default_config with monitor = false; adaptive = Some adaptive_cfg }
      [ { MU.lut_id = 0; payload = Payload.Pf32 } ]
  in
  let h = MU.hooks u in
  for k = 0 to 500 do
    h.send ~lut:0 ~ty:Ir.F32 ~trunc:0 (Ir.VF (float_of_int k));
    (match h.lookup ~lut:0 with
    | Some _ -> ()
    | None -> h.update ~lut:0 1L)
  done;
  MU.reset u;
  Alcotest.(check int) "delta cleared" 0 (MU.extra_truncation u ~lut_id:0)

(* --- rounding mode --- *)

let test_nearest_rounding_merges_across_boundary () =
  (* Two inputs straddling a truncation-cell boundary: truncation separates
     them, nearest-rounding maps both to the shared cell centre. *)
  let mk rounding =
    MU.create
      { MU.default_config with monitor = false; rounding }
      [ { MU.lut_id = 0; payload = Payload.Pf32 } ]
  in
  (* Find a pair of f32 values in adjacent truncate-cells but within half a
     round-cell of each other. *)
  let bits = 12 in
  let below = Axmemo_util.Bits.f32_of_bits (Int32.of_int ((0x3F800 lsl 12) - 1)) in
  let above = Axmemo_util.Bits.f32_of_bits (Int32.of_int (0x3F800 lsl 12)) in
  let run rounding =
    let u = mk rounding in
    let h = MU.hooks u in
    h.send ~lut:0 ~ty:Ir.F32 ~trunc:bits (Ir.VF below);
    ignore (h.lookup ~lut:0);
    h.update ~lut:0 7L;
    h.send ~lut:0 ~ty:Ir.F32 ~trunc:bits (Ir.VF above);
    h.lookup ~lut:0
  in
  Alcotest.(check (option int64)) "truncation separates" None (run MU.Truncate);
  Alcotest.(check (option int64)) "nearest merges" (Some 7L) (run MU.Nearest)

(* --- SMT thread contexts --- *)

let test_smt_interleaved_sends () =
  (* Two hardware threads stream inputs to the same logical LUT in an
     interleaved order; the {LUT_ID, TID}-addressed hash registers must keep
     the two in-flight hashes apart (Section 3.2). *)
  let u = mk_unit () in
  let s ~tid v = MU.send ~tid u ~lut:0 ~ty:Ir.F32 ~trunc:0 (Ir.VF v) in
  (* Thread 0 computes hash(1,2); thread 1 computes hash(3,4), interleaved. *)
  s ~tid:0 1.0;
  s ~tid:1 3.0;
  s ~tid:0 2.0;
  s ~tid:1 4.0;
  Alcotest.(check (option int64)) "t0 misses" None (MU.lookup ~tid:0 u ~lut:0);
  MU.update ~tid:0 u ~lut:0 12L;
  Alcotest.(check (option int64)) "t1 misses" None (MU.lookup ~tid:1 u ~lut:0);
  MU.update ~tid:1 u ~lut:0 34L;
  (* Non-interleaved replays find the right entries: storage is shared. *)
  s ~tid:1 1.0;
  s ~tid:1 2.0;
  Alcotest.(check (option int64)) "t1 hits t0's entry" (Some 12L) (MU.lookup ~tid:1 u ~lut:0);
  s ~tid:0 3.0;
  s ~tid:0 4.0;
  Alcotest.(check (option int64)) "t0 hits t1's entry" (Some 34L) (MU.lookup ~tid:0 u ~lut:0)

let test_smt_interleaving_would_corrupt_without_tid () =
  (* Sanity check of the test itself: the same interleaving pushed through a
     single thread id produces different (garbled) hashes. *)
  let u = mk_unit () in
  let s v = MU.send ~tid:0 u ~lut:0 ~ty:Ir.F32 ~trunc:0 (Ir.VF v) in
  s 1.0;
  s 3.0;
  s 2.0;
  s 4.0;
  ignore (MU.lookup ~tid:0 u ~lut:0);
  MU.update ~tid:0 u ~lut:0 99L;
  s 1.0;
  s 2.0;
  Alcotest.(check (option int64)) "garbled stream does not alias clean one" None
    (MU.lookup ~tid:0 u ~lut:0)

(* --- allocation contract --- *)

(* A fault-free unit with a registry attached, driven through its hooks
   the way the interpreter drives it: every send opens a fresh hash (the
   previous lookup consumed it), every lookup hits, and every update
   rewrites a key that is already fingerprinted. Only the lookup allocates:
   its [Some] result and the boxed key and fingerprint. Measured minor
   words per call: send 0, lookup 8.06, update 0.32 (the quality monitor's
   1-in-100 samples); the tuple-keyed register tables these bounds replaced
   measured 87, 45 and 28. *)
let test_hot_path_allocation () =
  let u =
    MU.create ~metrics:(Axmemo_telemetry.Registry.create ()) MU.default_config
      [ { MU.lut_id = 0; payload = Payload.Pf32 }; { MU.lut_id = 1; payload = Payload.Pf64 } ]
  in
  let h = MU.hooks u in
  let x = Ir.VF 1.5 and payload = Sys.opaque_identity 777L in
  let send () = h.send ~lut:0 ~ty:Ir.F32 ~trunc:4 x in
  let lookup () = ignore (Sys.opaque_identity (h.lookup ~lut:0)) in
  let update () = h.update ~lut:0 payload in
  for _ = 1 to 100 do
    send ();
    lookup ();
    update ()
  done;
  (* words per op, net of the cost of reading the counter *)
  let c0 = Gc.minor_words () in
  let overhead = Gc.minor_words () -. c0 in
  let words = Array.make 3 0.0 in
  let measure k op =
    let w0 = Gc.minor_words () in
    op ();
    words.(k) <- words.(k) +. (Gc.minor_words () -. w0 -. overhead)
  in
  let n = 10_000 in
  for _ = 1 to n do
    measure 0 send;
    measure 1 lookup;
    measure 2 update
  done;
  List.iteri
    (fun k (name, bound) ->
      let w = words.(k) /. float_of_int n in
      Alcotest.(check bool) (Printf.sprintf "%s: %.2f words <= %g" name w bound) true (w <= bound))
    [ ("send", 1.0); ("lookup", 12.0); ("update", 1.0) ];
  (* the quality monitor forces 1 in 100 hits to miss; everything else hits *)
  let st = MU.stats u in
  Alcotest.(check int) "every lookup hits or is sampled" st.lookups
    (st.l1_hits + st.forced_misses + 1)

(* A new-key insert into a full set scans for a victim and overwrites it;
   with the keys boxed up front and no eviction hook, nothing on that path
   allocates. *)
let test_lut_new_key_insert_allocation () =
  let lut = Lut.create ~size_bytes:1024 () in
  let n = 20_000 in
  let keys = Array.init (2 * n) (fun i -> Int64.of_int (i * 7919)) in
  let payload = Sys.opaque_identity 5L in
  for i = 0 to n - 1 do
    Lut.insert lut ~lut_id:0 ~key:keys.(i) ~payload None
  done;
  Alcotest.(check int) "sets full" (Lut.capacity_entries lut) (Lut.occupancy lut);
  let w0 = Gc.minor_words () in
  for i = n to (2 * n) - 1 do
    Lut.insert lut ~lut_id:0 ~key:keys.(i) ~payload None
  done;
  let w = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "insert: %.2f words <= 1" w) true (w <= 1.0)

(* --- HVR state machine against a byte-keyed spec --- *)

(* The spec keeps, per {LUT, TID}, the exact bytes streamed into the hash
   register since it was last consumed or dropped, computed with [Bits]
   (never the unit's CRC): a lookup consumes its register and latches what
   it held; [invalidate] drops the LUT's register for every TID but leaves
   latched keys; [reset] drops everything. An update must then leave the
   CRC-32 of the latched bytes, with its payload, in the unit's LUT; an
   update with nothing latched changes nothing. *)
type hvr_op =
  | Send of { lut : int; tid : int; ty : Ir.ty; trunc : int; v : Ir.value }
  | Lookup of { lut : int; tid : int }
  | Update of { lut : int; tid : int; payload : int64 }
  | Invalidate of int
  | Reset

let print_hvr_op = function
  | Send { lut; tid; ty; trunc; v } ->
      let ty = match ty with F32 -> "f32" | F64 -> "f64" | I32 -> "i32" | I64 -> "i64" in
      Printf.sprintf "send(lut=%d,tid=%d,%s,n=%d,%s)" lut tid ty trunc
        (match v with
        | Ir.VF x -> Printf.sprintf "%h" x
        | Ir.VI x -> Printf.sprintf "%LdL" x)
  | Lookup { lut; tid } -> Printf.sprintf "lookup(lut=%d,tid=%d)" lut tid
  | Update { lut; tid; payload } -> Printf.sprintf "update(lut=%d,tid=%d,%LdL)" lut tid payload
  | Invalidate lut -> Printf.sprintf "invalidate(lut=%d)" lut
  | Reset -> "reset"

let gen_hvr_op =
  let open QCheck.Gen in
  let lut = int_range 0 7 and tid = int_range 0 2 in
  let value : Ir.ty -> Ir.value t = function
    | F32 -> map (fun b -> Ir.VF (Int32.float_of_bits b)) ui32
    | F64 -> map (fun b -> Ir.VF (Int64.float_of_bits b)) ui64
    | I32 -> map (fun b -> Ir.VI (Int64.of_int32 b)) ui32
    | I64 -> map (fun b -> Ir.VI b) ui64
  in
  let send =
    oneofl [ Ir.F32; Ir.F64; Ir.I32; Ir.I64 ] >>= fun ty ->
    map4 (fun lut tid trunc v -> Send { lut; tid; ty; trunc; v }) lut tid (int_range 0 40) (value ty)
  in
  frequency
    [
      (6, send);
      (3, map2 (fun lut tid -> Lookup { lut; tid }) lut tid);
      (3, map3 (fun lut tid payload -> Update { lut; tid; payload }) lut tid ui64);
      (1, map (fun lut -> Invalidate lut) lut);
      (1, return Reset);
    ]

(* The bytes a send hashes, computed with [Bits] alone. *)
let spec_bytes rounding (ty : Ir.ty) trunc (v : Ir.value) =
  let module Bits = Axmemo_util.Bits in
  let tr_f32, tr_f64, tr_i64 =
    match rounding with
    | MU.Truncate -> (Bits.truncate_f32, Bits.truncate_f64, Bits.truncate_int64)
    | MU.Nearest -> (Bits.round_f32, Bits.round_f64, Bits.round_int64)
  in
  let bits, width =
    match (ty, v) with
    | F32, VF x ->
        (Int64.logand (Int64.of_int32 (Bits.f32_bits (tr_f32 ~bits:trunc x))) 0xFFFFFFFFL, 4)
    | F64, VF x -> (Bits.f64_bits (tr_f64 ~bits:trunc x), 8)
    | I32, VI x -> (Int64.logand (tr_i64 ~bits:trunc x) 0xFFFFFFFFL, 4)
    | I64, VI x -> (tr_i64 ~bits:trunc x, 8)
    | _ -> invalid_arg "spec_bytes"
  in
  Bits.bytes_of_int64 bits ~width

let prop_hvr_state_machine =
  QCheck.Test.make ~name:"HVR slots match a byte-keyed spec" ~count:300
    (QCheck.make
       ~print:(fun (rounding, ops) ->
         (if rounding = MU.Truncate then "truncate: " else "nearest: ")
         ^ String.concat "; " (List.map print_hvr_op ops))
       QCheck.Gen.(
         pair (oneofl [ MU.Truncate; MU.Nearest ]) (list_size (int_range 1 80) gen_hvr_op)))
    (fun (rounding, ops) ->
      let u =
        MU.create
          { MU.default_config with monitor = false; rounding }
          (List.init 8 (fun lut_id -> { MU.lut_id; payload = Payload.Pi64 }))
      in
      let pending = Hashtbl.create 8 and latched = Hashtbl.create 8 in
      let held key = Option.value ~default:"" (Hashtbl.find_opt pending key) in
      List.for_all
        (fun op ->
          match op with
          | Send { lut; tid; ty; trunc; v } ->
              MU.send ~tid u ~lut ~ty ~trunc v;
              Hashtbl.replace pending (lut, tid) (held (lut, tid) ^ spec_bytes rounding ty trunc v);
              true
          | Lookup { lut; tid } ->
              ignore (MU.lookup ~tid u ~lut);
              Hashtbl.replace latched (lut, tid) (held (lut, tid));
              Hashtbl.remove pending (lut, tid);
              true
          | Update { lut; tid; payload } -> (
              let before = MU.lut_entries u in
              MU.update ~tid u ~lut payload;
              match Hashtbl.find_opt latched (lut, tid) with
              | Some bytes ->
                  let key = Axmemo_crc.Engine.digest_string Axmemo_crc.Poly.crc32 bytes in
                  List.mem (lut, key, payload) (MU.lut_entries u)
              | None -> MU.lut_entries u = before)
          | Invalidate lut ->
              MU.invalidate u ~lut;
              for tid = 0 to 2 do
                Hashtbl.remove pending (lut, tid)
              done;
              true
          | Reset ->
              MU.reset u;
              Hashtbl.reset pending;
              Hashtbl.reset latched;
              true)
        ops)

(* --- properties --- *)

let prop_store_then_lookup =
  QCheck.Test.make ~name:"update followed by identical stream hits" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 6) (float_range (-100.) 100.)) int64)
    (fun (inputs, payload) ->
      let u = mk_unit () in
      let h = MU.hooks u in
      let stream () = List.iter (fun v -> send u ~lut:0 v) inputs in
      stream ();
      ignore (h.lookup ~lut:0);
      h.update ~lut:0 payload;
      stream ();
      h.lookup ~lut:0 = Some payload)

let prop_lut_occupancy_bounded =
  QCheck.Test.make ~name:"occupancy never exceeds capacity" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 300) (int_bound 10_000))
    (fun keys ->
      let l = Lut.create ~size_bytes:256 () in
      List.iter
        (fun k -> Lut.insert l ~lut_id:0 ~key:(Int64.of_int k) ~payload:0L None)
        keys;
      Lut.occupancy l <= Lut.capacity_entries l)

let policy_gen = QCheck.Gen.oneofl [ Lut.Lru; Lut.Fifo; Lut.Random ]

let policy_arb =
  QCheck.make policy_gen ~print:(function
    | Lut.Lru -> "lru"
    | Lut.Fifo -> "fifo"
    | Lut.Random -> "random")

let prop_lut_lookup_after_insert =
  QCheck.Test.make ~name:"lookup right after insert returns the payload" ~count:150
    QCheck.(
      pair policy_arb
        (list_of_size (QCheck.Gen.int_range 1 120) (pair (int_bound 5_000) int64)))
    (fun (policy, ops) ->
      let l = Lut.create ~policy ~size_bytes:256 () in
      List.for_all
        (fun (k, payload) ->
          let key = Int64.of_int k in
          Lut.insert l ~lut_id:0 ~key ~payload None;
          Lut.lookup l ~lut_id:0 ~key = Some payload)
        ops)

let prop_lut_invalidate_leaves_no_entry =
  QCheck.Test.make ~name:"invalidate_lut leaves no entry of that id" ~count:150
    QCheck.(
      pair policy_arb
        (list_of_size (QCheck.Gen.int_range 0 150) (pair (int_bound 2) (int_bound 5_000))))
    (fun (policy, ops) ->
      let l = Lut.create ~policy ~size_bytes:256 () in
      List.iter
        (fun (lut_id, k) -> Lut.insert l ~lut_id ~key:(Int64.of_int k) ~payload:1L None)
        ops;
      Lut.invalidate_lut l ~lut_id:0;
      List.for_all (fun (id, _, _) -> id <> 0) (Lut.entries l)
      && List.for_all
           (fun (lut_id, k) ->
             lut_id <> 0 || Lut.lookup l ~lut_id:0 ~key:(Int64.of_int k) = None)
           ops)

let prop_lut_evicts_only_when_set_full =
  (* A 64-byte LUT is one 4-way set: the evict hook must stay silent until
     the set holds [ways] live entries, and every eviction must balance the
     books (distinct inserts = occupancy + evictions). *)
  QCheck.Test.make ~name:"eviction only from a full set" ~count:150
    QCheck.(
      pair policy_arb (list_of_size (QCheck.Gen.int_range 0 60) (int_bound 1_000)))
    (fun (policy, keys) ->
      let l = Lut.create ~policy ~size_bytes:64 () in
      let ways = Lut.ways l in
      let evictions = ref 0 and fresh = ref 0 in
      let sound = ref true in
      let live = Hashtbl.create 16 in
      let hook ~lut_id:_ ~key ~payload:_ =
        incr evictions;
        if Lut.occupancy l < ways then sound := false;
        Hashtbl.remove live (Int64.to_int key)
      in
      List.iter
        (fun k ->
          if not (Hashtbl.mem live k) then incr fresh;
          Hashtbl.replace live k ();
          Lut.insert l ~lut_id:0 ~key:(Int64.of_int k) ~payload:0L (Some hook))
        keys;
      !sound
      && !fresh = Lut.occupancy l + !evictions
      && Lut.occupancy l = Hashtbl.length live
      && Lut.occupancy l <= ways)

(* Satellite regressions for the replacement-policy fixes. *)

let test_fifo_update_in_place_keeps_age () =
  (* Re-inserting an existing key updates the payload but must NOT refresh
     its age under FIFO — it stays the oldest and is evicted first. *)
  let l = Lut.create ~policy:Lut.Fifo ~size_bytes:64 () in
  for k = 0 to 3 do
    Lut.insert l ~lut_id:0 ~key:(Int64.of_int k) ~payload:0L None
  done;
  for _ = 1 to 10 do
    Lut.insert l ~lut_id:0 ~key:0L ~payload:7L None
  done;
  Alcotest.(check (option int64)) "payload updated" (Some 7L)
    (Lut.lookup l ~lut_id:0 ~key:0L);
  Lut.insert l ~lut_id:0 ~key:100L ~payload:0L None;
  Alcotest.(check (option int64)) "oldest evicted despite updates" None
    (Lut.lookup l ~lut_id:0 ~key:0L);
  Alcotest.(check (option int64)) "second-oldest survives" (Some 0L)
    (Lut.lookup l ~lut_id:0 ~key:1L)

let test_random_insensitive_to_hits () =
  (* Hits must not advance any replacement state under Random: a LUT that
     absorbs extra lookups between inserts evicts identically to one that
     does not. *)
  let fill extra_lookups =
    let l = Lut.create ~policy:Lut.Random ~size_bytes:64 () in
    for k = 0 to 20 do
      Lut.insert l ~lut_id:0 ~key:(Int64.of_int k) ~payload:(Int64.of_int k) None;
      if extra_lookups then
        for j = 0 to k do
          ignore (Lut.lookup l ~lut_id:0 ~key:(Int64.of_int j))
        done
    done;
    List.sort compare (Lut.entries l)
  in
  Alcotest.(check bool) "same survivors with and without hits" true
    (fill false = fill true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hvr_state_machine;
      prop_store_then_lookup;
      prop_lut_occupancy_bounded;
      prop_lut_lookup_after_insert;
      prop_lut_invalidate_leaves_no_entry;
      prop_lut_evicts_only_when_set_full;
    ]

let () =
  Alcotest.run "memo"
    [
      ( "lut",
        [
          Alcotest.test_case "geometry" `Quick test_lut_geometry;
          Alcotest.test_case "geometry invalid" `Quick test_lut_geometry_invalid;
          Alcotest.test_case "insert/lookup" `Quick test_lut_insert_lookup;
          Alcotest.test_case "lut id in tag" `Quick test_lut_id_discrimination;
          Alcotest.test_case "update in place" `Quick test_lut_update_in_place;
          Alcotest.test_case "lru + evict hook" `Quick test_lut_lru_and_evict_hook;
          Alcotest.test_case "selective invalidate" `Quick test_lut_invalidate_selective;
        ] );
      ( "unit",
        [
          Alcotest.test_case "miss/update/hit" `Quick test_unit_miss_update_hit;
          Alcotest.test_case "different inputs miss" `Quick test_unit_different_inputs_miss;
          Alcotest.test_case "truncation merges" `Quick test_unit_truncation_merges;
          Alcotest.test_case "luts isolated" `Quick test_unit_luts_isolated;
          Alcotest.test_case "input order matters" `Quick test_unit_multi_input_order_matters;
          Alcotest.test_case "invalidate" `Quick test_unit_invalidate;
          Alcotest.test_case "two-level inclusive" `Quick test_unit_l2_inclusive;
          Alcotest.test_case "stats consistency" `Quick test_unit_stats_consistency;
          Alcotest.test_case "reset" `Quick test_unit_reset;
          Alcotest.test_case "duplicate ids" `Quick test_duplicate_lut_ids_rejected;
        ] );
      ( "quality monitor",
        [
          Alcotest.test_case "forced misses" `Quick test_monitor_forces_misses_and_compares;
          Alcotest.test_case "trips on bad quality" `Quick test_monitor_trips_on_bad_quality;
        ] );
      ( "policies",
        [
          Alcotest.test_case "fifo ignores hits" `Quick test_fifo_ignores_hits;
          Alcotest.test_case "fifo update keeps age" `Quick
            test_fifo_update_in_place_keeps_age;
          Alcotest.test_case "random deterministic" `Quick test_random_policy_works;
          Alcotest.test_case "random ignores hits" `Quick test_random_insensitive_to_hits;
          Alcotest.test_case "payload width check" `Quick test_narrow_unit_rejects_wide_payloads;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "nearest merges across boundary" `Quick
            test_nearest_rounding_merges_across_boundary;
        ] );
      ( "smt",
        [
          Alcotest.test_case "interleaved sends" `Quick test_smt_interleaved_sends;
          Alcotest.test_case "tid separation matters" `Quick
            test_smt_interleaving_would_corrupt_without_tid;
        ] );
      ( "adaptive truncation",
        [
          Alcotest.test_case "raises truncation" `Quick test_adaptive_raises_truncation;
          Alcotest.test_case "backs off on errors" `Quick test_adaptive_backs_off_on_errors;
          Alcotest.test_case "reset" `Quick test_adaptive_reset;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "send/lookup/update hot path" `Quick test_hot_path_allocation;
          Alcotest.test_case "lut new-key insert" `Quick test_lut_new_key_insert_allocation;
        ] );
      ("properties", qsuite);
    ]
