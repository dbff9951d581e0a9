(** Fork/join groups over a {!Pool}.

    A group counts outstanding tasks; {!wait} blocks (helping: it executes
    queued tasks on the calling domain) until the count drains to zero,
    then re-raises the first exception any task threw. *)

type group

val group : Pool.t -> group

val spawn : group -> (unit -> unit) -> unit
(** Enqueue [f] on the pool and count it in the group. May be called from
    inside a group task (nested fork). *)

val wait : ?help:bool -> group -> unit
(** Block until every spawned task has finished. The caller helps run
    queued work, so this never deadlocks even on a 1-worker pool with
    nested spawns. Re-raises the first captured task exception.

    [~help:false] parks the caller instead of helping, so tasks run on
    pool domains only and the calling domain leaves the CPU to them (the
    VM's join barrier uses it while children sit in simulated I/O
    waits). Waiters on worker domains always help, whatever [help] says,
    because a parked worker could deadlock a 1-worker pool. *)

val run_list : Pool.t -> (unit -> unit) list -> unit
(** [run_list pool fs] runs every thunk to completion; equivalent to a
    fresh group with one {!spawn} per thunk followed by {!wait}. *)
