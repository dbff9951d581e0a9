(** Fixed-size pool of OCaml 5 [Domain] workers over one mutex-guarded
    FIFO, with fork/join groups.

    A group counts outstanding tasks; {!wait} blocks until the count
    drains to zero, then re-raises the first exception any task threw. *)

type t

val create : workers:int -> t
(** Spawn [workers] ≥ 1 domains. Callers must eventually {!shutdown}. *)

val with_pool : workers:int -> (t -> 'a) -> 'a
(** [with_pool ~workers f] runs [f] on a fresh pool of [workers] domains
    and shuts the pool down when [f] returns or raises. *)

val shutdown : t -> unit
(** Stop and join all workers. Only call once every join has completed. *)

type group

val group : t -> group

val spawn : group -> (unit -> unit) -> unit
(** Enqueue [f] on the pool and count it in the group. May be called from
    inside a group task (nested fork). *)

val wait : group -> unit
(** Block until every spawned task has finished, then re-raise the first
    captured task exception. A caller outside the pool parks, so tasks
    run on pool domains only. A caller on one of the pool's workers runs
    queued tasks until the group drains, so nested groups never deadlock,
    even on a 1-worker pool. *)
