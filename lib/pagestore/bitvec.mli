(** Atomic bit vector backing the shared lock pool.

    Each set bit marks a lock in use. Acquisition finds the first clear bit
    and sets it with a compare-and-swap, so it is safe under real parallel
    Domains, as the paper requires of its lock pool. *)

type t

val create : int -> t
(** [create n] is a vector of [n] clear bits. It costs O(1) whatever [n]:
    the atomic words behind the bits are created as acquisition reaches
    them. *)

val length : t -> int

val acquire_first_free : t -> int option
(** Atomically set the lowest clear bit, returning its index, or [None]
    when all bits are set. *)

val clear : t -> int -> unit
(** Atomically clear a bit. Clearing an already-clear bit is an error. *)

val is_set : t -> int -> bool
val count_set : t -> int

val lowest_clear : int -> limit:int -> int
(** Index of the lowest clear bit among the low [limit] (≤ 62) bits of a
    word, or [-1] if they are all set. Constant time (de Bruijn). *)

val lowest_clear_scan : int -> limit:int -> int
(** Reference linear-scan implementation of {!lowest_clear}, exposed so
    tests can pin the constant-time version against it. *)
