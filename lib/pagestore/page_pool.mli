(** The global page table and free list.

    All pages live in one table indexed by page id (the id is the page half
    of an {!Addr.t}). Released 32 K pages are recycled through a free list;
    oversize pages are deallocated immediately, which is what lets the
    runtime return memory early when a data structure resizes (§3.6).

    Domain-safe: the recycle path (the hot path under many workers) is a
    lock-free Treiber stack over [Atomic]; only fresh allocation and
    oversize teardown take the table mutex. *)

type t = private {
  page_bytes : int;
  mutex : Mutex.t;
  mutable table : Page.t array;
      (** Page id → backing storage; unallocated and discarded ids hold
          {!Page.sentinel}. Exposed (read-only) so the tier-2 templates
          can resolve a page with an inline array load: {!page_unchecked}
          is a function call under dune's default [-opaque] build. *)
  mutable next_id : int;
  free : int list Atomic.t;
  live : int Atomic.t;
  mutable created : int;
  recycled : int Atomic.t;
  mutable native : int;
  mutable peak_native : int;
}

val create : ?page_bytes:int -> unit -> t
(** [page_bytes] defaults to 32 KiB, the paper's (database-style) page
    size. *)

val page_bytes : t -> int

val acquire : t -> int
(** A standard page: recycled from the free list when possible, freshly
    allocated otherwise. *)

val acquire_oversize : t -> bytes:int -> int
(** A dedicated page of exactly [bytes] (> standard page size). *)

val release : t -> int -> unit
(** Return a standard page to the free list. *)

val release_oversize : t -> int -> unit
(** Discard an oversize page, freeing its native memory. *)

val page : t -> int -> Page.t
(** The backing storage of a live page id. *)

val page_unchecked : t -> int -> Page.t
(** [page] without the liveness check, for the per-access hot path: a
    discarded id resolves to a zero-length sentinel page, so any actual
    access still raises (from the accessor's bounds check) rather than
    reading freed storage. *)

val live_pages : t -> int
(** Pages currently held by managers (excludes the free list). *)

val pages_created : t -> int
val pages_recycled : t -> int
val native_bytes : t -> int
(** All native bytes currently allocated, including the free list (the OS
    view of the process). *)

val peak_native_bytes : t -> int

val free_pages : t -> int
(** Length of the free list (racy snapshot; exact at quiescence). *)
