(** A minimal JSON value type with a printer and a parser.

    Used by the Chrome [trace_event] exporter (escaping-safe emission) and
    by the trace schema validator and the golden-trace tests (round-trip
    parsing) — the toolchain has no JSON library baked in, so this small
    one is part of the observability layer. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. Integral floats print without a decimal point,
    other numbers with the fewest digits (15 to 17) that read back
    exactly, and NaN and the infinities as [null]; strings are escaped
    per RFC 8259. This is the one JSON printer: findings, optimizer
    reports, traces and the bench harnesses' result files all go
    through it. *)

val of_int : int -> t
(** [Num] of an integer. *)

val rounded : int -> float -> t
(** [rounded d x] is [Num x] rounded to [d] decimals, so a result file
    carries the digits its table prints. *)

val parse : string -> (t, string) result
(** Recursive-descent parser for the full value grammar (objects, arrays,
    strings with escapes incl. [\uXXXX], numbers, literals). Errors carry
    a byte offset. Trailing non-whitespace is an error. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else or a missing key. *)

val to_float : t -> float option
val to_int : t -> int option
(** [Num] with an integral value only. *)

val to_str : t -> string option
val to_list : t -> t list option
