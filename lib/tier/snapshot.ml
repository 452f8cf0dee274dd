module Lut = Axmemo_memo.Lut
module Engine = Axmemo_crc.Engine
module Poly = Axmemo_crc.Poly

(* Binary layout (all integers little-endian):

     magic    8 bytes   "AXMEMOSN"
     version  u32       1
     nsec     u32
     per section:
       nlen   u16, name bytes
       nent   u32
       per entry: lut_id u32, key u64, payload u64
     crc      u32       CRC-32 of every preceding byte

   Entries are written oldest-first (capture sorts by recency stamp), so a
   restore that replays them in file order rebuilds the same LRU/FIFO
   ordering the capture saw. *)

let magic = "AXMEMOSN"
let version = 1

type entry = { lut_id : int; key : int64; payload : int64 }
type section = { name : string; entries : entry array }
type t = { sections : section list }

let section t name = List.find_opt (fun s -> s.name = name) t.sections
let total_entries t =
  List.fold_left (fun acc s -> acc + Array.length s.entries) 0 t.sections

(* ---- capture / restore ------------------------------------------------ *)

let capture_lut ~name lut =
  let acc = ref [] in
  Lut.iter_entries lut (fun ~set ~way ~lut_id ~key ~payload ~lru ->
      acc := (lru, set, way, { lut_id; key; payload }) :: !acc);
  let l =
    List.sort
      (fun (a1, a2, a3, _) (b1, b2, b3, _) ->
        compare (a1, a2, a3) (b1, b2, b3))
      !acc
  in
  { name; entries = Array.of_list (List.map (fun (_, _, _, e) -> e) l) }

let restore_lut sec lut =
  Array.iter
    (fun e -> Lut.restore_entry lut ~lut_id:e.lut_id ~key:e.key ~payload:e.payload)
    sec.entries;
  Array.length sec.entries

let capture_dram ~name dram =
  let acc = ref [] in
  Dram_lut.iter_entries dram (fun ~row ~slot ~lut_id ~key ~payload ~stamp ->
      acc := (stamp, row, slot, { lut_id; key; payload }) :: !acc);
  let l =
    List.sort
      (fun (a1, a2, a3, _) (b1, b2, b3, _) ->
        compare (a1, a2, a3) (b1, b2, b3))
      !acc
  in
  { name; entries = Array.of_list (List.map (fun (_, _, _, e) -> e) l) }

(* DRAM sections restore through the row-sorted batch fill: same final tier
   state as an in-order replay (bulk_fill pre-assigns stamps in file order),
   but each touched row pays one activation — the counts report what the
   batch-warming policy saved. *)
let restore_dram_batched sec dram =
  let entries =
    Array.map (fun e -> (e.lut_id, e.key, e.payload)) sec.entries
  in
  let amortised, serial = Dram_lut.bulk_fill dram entries in
  (Array.length sec.entries, amortised, serial)

let restore_dram sec dram =
  let restored, _amortised, _serial = restore_dram_batched sec dram in
  restored

(* ---- serialisation ---------------------------------------------------- *)

let to_bytes t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int version);
  Buffer.add_int32_le b (Int32.of_int (List.length t.sections));
  List.iter
    (fun sec ->
      if String.length sec.name > 0xFFFF then
        invalid_arg "Snapshot.to_bytes: section name too long";
      Buffer.add_uint16_le b (String.length sec.name);
      Buffer.add_string b sec.name;
      Buffer.add_int32_le b (Int32.of_int (Array.length sec.entries));
      Array.iter
        (fun e ->
          Buffer.add_int32_le b (Int32.of_int e.lut_id);
          Buffer.add_int64_le b e.key;
          Buffer.add_int64_le b e.payload)
        sec.entries)
    t.sections;
  let body = Buffer.contents b in
  let crc = Engine.digest_string Poly.crc32 body in
  Buffer.add_int32_le b (Int64.to_int32 crc);
  Buffer.contents b

exception Truncated

let of_bytes s =
  let pos = ref 0 in
  let need n = if !pos + n > String.length s then raise Truncated in
  let u16 () = need 2; let v = String.get_uint16_le s !pos in pos := !pos + 2; v in
  let u32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_le s !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v
  in
  let u64 () = need 8; let v = String.get_int64_le s !pos in pos := !pos + 8; v in
  let str n = need n; let v = String.sub s !pos n in pos := !pos + n; v in
  try
    if String.length s < String.length magic + 4 then raise Truncated;
    if String.sub s 0 (String.length magic) <> magic then
      Error "not an axmemo snapshot (bad magic)"
    else begin
      pos := String.length magic;
      let v = u32 () in
      if v <> version then
        Error (Printf.sprintf "unsupported snapshot version %d (expected %d)" v version)
      else begin
        (* checksum covers everything up to the trailing u32 *)
        if String.length s < !pos + 4 + 4 then raise Truncated;
        let body = String.sub s 0 (String.length s - 4) in
        let stored =
          Int64.of_int32 (String.get_int32_le s (String.length s - 4))
        in
        let stored = Int64.logand stored 0xFFFFFFFFL in
        let crc = Int64.logand (Engine.digest_string Poly.crc32 body) 0xFFFFFFFFL in
        if crc <> stored then Error "snapshot checksum mismatch"
        else begin
          let nsec = u32 () in
          let sections = ref [] in
          for _ = 1 to nsec do
            let nlen = u16 () in
            let name = str nlen in
            let nent = u32 () in
            (* a count is only believed once its 20-byte entries fit before
               the trailer: the allocation below is sized by it *)
            if nent > (String.length s - 4 - !pos) / 20 then raise Truncated;
            let entries =
              Array.init nent (fun _ ->
                  let lut_id = u32 () in
                  let key = u64 () in
                  let payload = u64 () in
                  { lut_id; key; payload })
            in
            sections := { name; entries } :: !sections
          done;
          if !pos <> String.length s - 4 then
            Error "snapshot has trailing garbage"
          else Ok { sections = List.rev !sections }
        end
      end
    end
  with Truncated -> Error "truncated snapshot file"

let save t path =
  let data = to_bytes t in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error "truncated snapshot file"
  | data -> of_bytes data
