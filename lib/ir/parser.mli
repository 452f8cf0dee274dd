(** Parser for the textual IR format.

    Round-trips with {!Ir.pp_program}: programs can be dumped with the
    pretty-printer (e.g. [axmemo_cli ir -b sobel]), edited or generated
    externally, and loaded back. The grammar is exactly the printer's
    output:

    {v
    pure func name(r0:f32, r1:i64) -> (f32) [regs=7]
    entry:
      r2 = fadd.f32 r0, 0x1p+0
      r3 = load.f32 [r1 + 8]
      r4, r5 = call helper(r2, r3)
      reg_crc.f32 r2, lut=0, n=8
      r6 = lookup lut=0
      br_memo hit_0, miss_0
    hit_0:
      ret r6
    ...
    v}

    Integer immediates are decimal; float immediates use OCaml's hexadecimal
    float literals ([%h]), which are exact. Comments start with [#] and run
    to end of line; blank lines are ignored. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse_program : string -> (Ir.program, error) result
(** [parse_program text] parses a whole program (one or more functions). The
    result is structurally validated with {!Ir.validate}. *)

val roundtrip : Ir.program -> (Ir.program, error) result
(** [roundtrip p] prints and re-parses [p] — used by tests to pin the
    printer/parser correspondence. *)
