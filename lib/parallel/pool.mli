(** Fixed-size pool of OCaml 5 [Domain] workers with work-stealing.

    Submissions from a worker go to that worker's own deque (LIFO); ones
    from outside land in a shared injector queue. Idle workers steal.
    Tasks must not let exceptions escape — use {!Sched} groups, which
    capture the first exception and re-raise it at the join. *)

type task = unit -> unit
type t

val create : workers:int -> t
(** Spawn [workers] ≥ 1 domains. Callers must eventually {!shutdown}. *)

val with_pool : workers:int -> (t -> 'a) -> 'a
(** [with_pool ~workers f] runs [f] on a fresh pool of [workers] domains
    and shuts the pool down when [f] returns or raises. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> task -> unit
(** Enqueue a task; any domain may call this. *)

val try_help : t -> bool
(** Run one queued task on the calling domain if any is available.
    Returns [false] when nothing runnable was found (possibly spuriously,
    under a steal race). Safe from workers and external threads alike. *)

val on_worker : t -> bool
(** Whether the calling domain is one of this pool's workers. *)

val shutdown : t -> unit
(** Stop and join all workers. Pending queued tasks may be dropped; only
    call once every join has completed. *)
