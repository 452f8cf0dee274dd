(** Cost models for CRC computation.

    The paper compares against a {e software} memoization implementation whose
    CRC runs on the CPU: the 8-bit table-driven algorithm needs at least three
    instructions per input byte (AND to extract the byte, LOAD from the step
    table, XOR into the register), i.e. 12 instructions for a 4-byte input
    (Section 6.2). The {e hardware} unit instead consumes one byte per cycle
    off the critical path. *)

val software_instructions_per_byte : int
(** Instructions the software CRC executes per hashed byte (3). *)

val software_instructions : input_bytes:int -> int
(** [software_instructions ~input_bytes] is the dynamic instruction cost of
    hashing [input_bytes] bytes in software, including loop/setup overhead. *)

val software_setup_instructions : int
(** Fixed per-invocation overhead (register init, final mask/index). *)
