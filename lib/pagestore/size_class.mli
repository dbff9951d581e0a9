(** Size classes for page allocation (paper §3.6).

    Pages are segregated into classes by the size range of the records they
    hold, like a high-performance allocator, so small records do not
    fragment pages holding large ones. Records themselves are allocated at
    their exact size (continuous allocation ⇒ locality); the class only
    chooses the page family. *)

val boundaries : int array
(** Upper bound (inclusive) of each class's record size, ascending. *)

val count : int

val index : int -> int
(** Class index for a record of the given size, or [-1] when the record
    exceeds the largest class and must go to an oversize page. Allocates
    nothing: this is the record allocator's per-call class choice. *)
