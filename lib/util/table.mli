(** Plain-text table rendering for the benchmark harness.

    The harness prints the same rows/columns as the paper's tables and
    figures; this module handles alignment so the output is readable in a
    terminal and diffable across runs. *)

type align = Left | Right

val render : ?align:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays out [rows] under [header] with columns padded
    to the widest cell. [align] gives per-column alignment (default all
    [Left]; missing entries default to [Left]). Rows shorter than the header
    are padded with empty cells. *)

val print : ?align:align list -> header:string list -> string list list -> unit
(** [print] is [render] followed by [print_string]. *)

val fmt_float : float -> string
(** [fmt_float x] formats with two decimals. *)

val fmt_pct : float -> string
(** [fmt_pct x] formats the fraction [x] as a percentage with one decimal,
    e.g. [0.753] -> ["75.3%"]. *)

val fmt_x : float -> string
(** [fmt_x x] formats a ratio as a multiplier with two decimals, e.g.
    ["2.64x"]. *)
