(** Analysis findings, with positions, severities and JSON encoding.

    A finding locates a violation by method ([where], "Class.method"),
    basic-block index and instruction index within the block. [index] is
    [-1] for the block terminator or block-level findings; [block] is [-1]
    for method- or class-level findings (e.g. structural verifier errors
    wrapped for uniform CLI output). *)

type severity = Info | Warning | Error

type t = {
  analysis : string;  (** e.g. "def-assign", "monitors", "race" *)
  where : string;
  block : int;
  index : int;
  what : string;
  severity : severity;
}

val make :
  analysis:string ->
  where:string ->
  ?block:int ->
  ?index:int ->
  ?severity:severity ->
  string ->
  t
(** [severity] defaults to [Error] — the historical analyses all report
    definite invariant violations. *)

val of_verify_error : Jir.Verify.error -> t
(** Wrap a structural verifier error as an ["verify"] finding. *)

val severity_label : severity -> string
val severity_rank : severity -> int

val at_least : severity -> t -> bool
(** Is the finding at or above the given severity? *)

val compare : t -> t -> int
(** Deterministic CLI order: (method, block, index, analysis, message). *)

val sort : t list -> t list
(** [List.sort_uniq compare] — the canonical output order. *)

val to_string : t -> string

val to_json : t -> Obs.Json.t
(** [{"analysis", "severity", "where", "block", "index", "what"}]. *)

val list_to_json : ?file:string -> t list -> Obs.Json.t
(** A JSON object [{"file": ..., "count": n, "findings": [...]}]; the
    [file] key is omitted when not provided. *)
