(** Page-based references.

    In the generated program P′ every reference to a data object is replaced
    by a page reference (the paper's [long pageRef]). We pack a page id and
    a byte offset into a single OCaml [int]: 28 bits of offset (so oversize
    pages of up to 256 MiB are addressable) and the remaining bits of page
    id. The encoding is shifted by one so that {!null} is [0], matching
    Java's null. *)

type t = private int

val offset_bits : int
val offset_mask : int
(** The encoding: a non-null [a] holds page [(a - 1) lsr offset_bits]
    and offset [(a - 1) land offset_mask]. Exposed so hot decoders in
    other modules can inline it ({!page}/{!offset} are function calls
    there under dune's default [-opaque] build). *)

val null : t
val is_null : t -> bool

val make : page:int -> offset:int -> t
(** Requires [page >= 0] and [0 <= offset < 2^28]. *)

val page : t -> int
val offset : t -> int

val add : t -> int -> t
(** [add a k] is the reference [k] bytes further into the same page. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_int : t -> int
val of_int : int -> t
val pp : Format.formatter -> t -> unit
