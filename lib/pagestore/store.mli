(** The FACADE runtime library (the generated code's [FacadeRuntime]).

    A store owns the global page pool and, per logical thread, a stack of
    page managers implementing nested iterations: the bottom manager is the
    thread's default ⟨⊥, t⟩ manager (records allocated before any iteration
    live until the thread terminates); {!iteration_start} pushes a child
    manager and {!iteration_end} pops and bulk-releases it, together with
    the managers of any threads registered inside that iteration. *)

type t

type thread = int
(** Logical thread id. Frameworks use deterministic logical threads; the
    runtime itself is also safe under real Domains because page managers
    are thread-local, the page pool recycles lock-free, and the thread
    registry is an immutable map that registration replaces atomically
    under a mutex, so allocation finds its thread without locking. A
    given logical thread must only ever be driven by one domain at a
    time. *)

val create : ?page_bytes:int -> unit -> t
val pool : t -> Page_pool.t

(** {2 Resource limits (multi-tenant service mode)} *)

type quota_kind = Q_pages | Q_heap_bytes

exception Quota_exceeded of { kind : quota_kind; used : int; limit : int }
(** Raised by an allocation whose page acquisition pushed the store past
    a configured limit. The store may momentarily hold one page beyond
    the quota, but no record is ever placed on it: the offending
    allocation fails, and the whole run it belongs to fails with it
    (through the parallel join, if any). Other stores are untouched. *)

val set_limits : t -> ?max_live_pages:int -> ?max_native_bytes:int -> unit -> unit
(** Install per-store caps checked on every allocation. A limit of [0]
    (the initial state) disables the corresponding check; omitted
    arguments leave the current setting unchanged. *)

val quota_kind_label : quota_kind -> string
(** ["pages"] or ["heap_bytes"] — the structured admission-error codes
    the service layer reports. *)

val quota_message : exn -> string option
(** [Some "quota exceeded: ..."] for {!Quota_exceeded}, [None] otherwise. *)

(** {2 Threads and iterations} *)

val register_thread : ?parent:thread -> t -> thread -> unit
(** Declare a logical thread. With [?parent], the new thread's default
    manager becomes a child of the parent's *current* manager, so it is
    reclaimed when the iteration that spawned the thread ends (§3.6). *)

val release_thread : t -> thread -> unit
(** The thread terminated: release its default manager subtree. *)

val iteration_start : t -> thread:thread -> unit
val iteration_end : t -> thread:thread -> unit
val iteration_depth : t -> thread:thread -> int

(** {2 Allocation (the compiler's [allocate] library call)} *)

val alloc_record : t -> thread:thread -> type_id:int -> data_bytes:int -> Addr.t
(** A record with a 4-byte header (type id + lock) and [data_bytes] of
    fields. The type id is written; the lock field starts empty. Takes
    no lock, and allocates nothing on the OCaml heap unless it must
    create a fresh page or grow its manager's page list. *)

val alloc_array : t -> thread:thread -> type_id:int -> elem_bytes:int -> length:int -> Addr.t
(** An array record: 8-byte header (type id, lock, length) + elements. *)

val alloc_array_oversize :
  t -> thread:thread -> type_id:int -> elem_bytes:int -> length:int -> Addr.t
(** Like {!alloc_array} but forced onto a dedicated oversize page that can
    be released early via {!free_oversize_early}. *)

val free_oversize_early : t -> thread:thread -> Addr.t -> unit

(** {2 Record access (the compiler's [getField]/[setField]/…)} *)

val type_id : t -> Addr.t -> int
val array_length : t -> Addr.t -> int

val get_i8 : t -> Addr.t -> offset:int -> int
val set_i8 : t -> Addr.t -> offset:int -> int -> unit
val get_i16 : t -> Addr.t -> offset:int -> int
val set_i16 : t -> Addr.t -> offset:int -> int -> unit
val get_i32 : t -> Addr.t -> offset:int -> int
val set_i32 : t -> Addr.t -> offset:int -> int -> unit
val get_i64 : t -> Addr.t -> offset:int -> int
val set_i64 : t -> Addr.t -> offset:int -> int -> unit
val get_f32 : t -> Addr.t -> offset:int -> float
val set_f32 : t -> Addr.t -> offset:int -> float -> unit
val get_f64 : t -> Addr.t -> offset:int -> float
val set_f64 : t -> Addr.t -> offset:int -> float -> unit
val get_ref : t -> Addr.t -> offset:int -> Addr.t
val set_ref : t -> Addr.t -> offset:int -> Addr.t -> unit

val array_elem_offset : elem_bytes:int -> index:int -> int
(** Byte offset of element [index] relative to the record start. *)

val arraycopy :
  t -> src:Addr.t -> src_pos:int -> dst:Addr.t -> dst_pos:int -> len:int -> elem_bytes:int -> unit
(** The runtime model of [System.arraycopy] over paged arrays. *)

(** {2 Lock field (used by {!Lock_pool})} *)

val get_lock_field : t -> Addr.t -> int
val set_lock_field : t -> Addr.t -> int -> unit

(** {2 Statistics} *)

type stats = {
  records_allocated : int;
  pages_created : int;
  pages_recycled : int;
  live_pages : int;
  native_bytes : int;
  peak_native_bytes : int;
}

val stats : t -> stats

val live_page_objects : t -> int
(** The number of page wrapper objects currently on the (simulated) managed
    heap: the [p] of the paper's O(t·n + p) bound. *)

(** {2 Buffered per-domain handle}

    A [local] pins one logical thread's state so the hot allocation path
    touches no mutex and no shared atomic: the thread registry is consulted
    once at creation, and the global record counter is updated only at
    {!local_flush} (iteration boundaries and joins), so
    {!stats}[.records_allocated] lags by at most the pending count until
    the owner flushes. The usual thread-affinity rule
    applies: a [local] must only ever be driven by the one domain running
    its logical thread. *)

type local

val local : t -> thread:thread -> local
(** Pin [thread]'s state (the thread must already be registered). *)

val local_thread : local -> thread
val local_pending : local -> int
(** Records allocated through this handle and not yet published. *)

val local_flush : local -> unit
(** Publish pending record counts to the shared counter. *)

val local_alloc_record : local -> type_id:int -> data_bytes:int -> Addr.t
val local_alloc_array : local -> type_id:int -> elem_bytes:int -> length:int -> Addr.t

val local_alloc_array_oversize :
  local -> type_id:int -> elem_bytes:int -> length:int -> Addr.t

val local_free_oversize_early : local -> Addr.t -> unit
val local_iteration_start : local -> unit
val local_iteration_end : local -> unit
