(** Warm-LUT snapshots: versioned, checksummed persistence of LUT contents.

    A snapshot is a list of named sections, one per LUT level ("l1.0",
    "l1.1", ..., "l2", "l3" by the cluster layer's convention). Capture
    enumerates a level deterministically and orders entries oldest-first by
    recency stamp, so restoring a section by replaying its entries in file
    order rebuilds the same LRU (SRAM tiers) or per-row FIFO (DRAM tier)
    ordering — a restored LUT answers every lookup bit-identically to the
    captured one.

    On disk: magic ["AXMEMOSN"], little-endian u32 version, section table,
    and a trailing CRC-32 over every preceding byte. {!load} returns a
    distinct one-line error for a missing file, bad magic, unsupported
    version, checksum mismatch, or truncation — never an exception — so the
    CLI can exit cleanly. *)

type entry = { lut_id : int; key : int64; payload : int64 }
type section = { name : string; entries : entry array }
type t = { sections : section list }

val version : int

val section : t -> string -> section option
val total_entries : t -> int

val capture_lut : name:string -> Axmemo_memo.Lut.t -> section
(** Entries ordered oldest-first by LRU stamp (ties by set, then way). *)

val restore_lut : section -> Axmemo_memo.Lut.t -> int
(** Replays entries in file order through {!Axmemo_memo.Lut.restore_entry};
    returns the number restored. *)

val capture_dram : name:string -> Dram_lut.t -> section
(** Entries ordered oldest-first by insertion tick (ties by row, then
    slot). *)

val restore_dram : section -> Dram_lut.t -> int
(** Pushes entries through {!Dram_lut.bulk_fill} (row-sorted batch,
    bit-identical final state to an in-order replay); returns the number
    restored. *)

val restore_dram_batched : section -> Dram_lut.t -> int * int * int
(** Like {!restore_dram} but also returns the activation accounting:
    [(restored, amortised, serial)] — row activations the row-sorted batch
    cost vs what an in-order replay would have cost. *)

val to_bytes : t -> string

val of_bytes : string -> (t, string) result
(** Decodes and validates a snapshot image. Memory is bounded by the input:
    a section's entry count is believed only if that many 20-byte entries
    fit before the CRC trailer, otherwise the file is truncated. *)

val save : t -> string -> unit
(** @raise Sys_error if the path cannot be written. *)

val load : string -> (t, string) result
(** Reads and validates a snapshot file; all failure modes (missing or
    unreadable file, bad magic, version mismatch, checksum failure,
    truncation) come back as [Error] with a one-line message. *)
