(** The shared lock pool (paper §3.4).

    Implicit Java locks ([synchronized (o) {…}]) cannot use facades — two
    facades bound to the same record are distinct heap objects and would
    protect nothing. Instead a pool of lock objects is shared among all
    threads: an atomic bit vector tracks which locks are in use; a record's
    2-byte lock field stores the id (+1, so 0 means unlocked) of the lock
    currently protecting it. Locks are reentrant, count their blockers, and
    return to the pool when the last blocker exits.

    Lock objects are created on first use: the table of locks starts empty
    and grows as ids are handed out, so creating a pool costs the same
    whatever its capacity, and a run that never locks creates no lock.

    Every call releases the pool's internal registry mutex on every path,
    including when it raises (for instance [Invalid_argument] from the
    store on a dead or out-of-range address), so one failed call leaves
    the pool usable by every thread. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds how many locks can be held at once; it defaults to
    512, and 2-byte lock ids cap it at 2^15. No lock is created here. *)

val capacity : t -> int

val monitor_enter : t -> Store.t -> Addr.t -> thread:int -> unit
(** The generated code for [enterMonitor(o)]: finds or assigns the record's
    pool lock and acquires it (blocking across Domains; reentrant). *)

val monitor_exit : t -> Store.t -> Addr.t -> thread:int -> unit
(** Releases one entry; when the last blocker leaves, zeroes the record's
    lock field and flips the lock's bit back. *)

val locks_in_use : t -> int
val peak_locks_in_use : t -> int

val bits_in_use : t -> int
(** Set bits in the backing bit vector; equals {!locks_in_use} at
    quiescence (the stress tests assert this consistency). *)

exception Pool_exhausted
(** No free lock: more concurrently locked records than [capacity]. *)
