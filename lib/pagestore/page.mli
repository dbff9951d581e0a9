(** A fixed-length block of native (off-OCaml-heap) memory.

    Pages are backed by [Bigarray], whose storage lives in malloc'd memory
    outside the garbage-collected heap — the same property the paper obtains
    from the JVM's native-memory support. All multi-byte accessors are
    little-endian and unchecked beyond bounds assertions.

    The representation is exposed so that hot callers in other modules
    can issue the bigstring load/store primitives themselves: those are
    compiler externals and inline at any call site, whereas the accessors
    below are ordinary functions, which dune's default (dev) profile —
    it compiles every module with [-opaque] — never inlines across a
    module boundary. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : bytes:int -> t
val capacity : t -> int

val sentinel : t
(** The unique zero-length page: every access to it raises, so it marks
    dead page-table slots without an option wrapper. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_i32 : t -> int -> int
(** Sign-extended 32-bit read. *)

val write_i32 : t -> int -> int -> unit
val read_i64 : t -> int -> int
(** 64-bit read, truncated to OCaml's 63-bit [int]; writers only ever store
    OCaml ints so no information is lost. *)

val write_i64 : t -> int -> int -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit
val read_f32 : t -> int -> float
val write_f32 : t -> int -> float -> unit

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Used by the runtime model of [System.arraycopy]. *)

val fill : t -> off:int -> len:int -> char -> unit
