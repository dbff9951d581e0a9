(** The jir virtual machine, running on the {!Resolved} execution form.

    Programs are first lowered by {!Link} — names interned to integer
    ids, frames slot-indexed, vtables and field layouts precomputed — and
    the interpreter executes that form with no string lookup on the
    per-instruction path. The original tree-walking interpreter survives
    as {!Interp_baseline} for differential testing and benchmarking.

    One interpreter runs both sides of the paper's comparison:

    - {!run_object} executes the original program P. Data and control
      objects are real heap values; every allocation is charged to an
      optional {!Heapsim.Heap} with a lifetime derived from the data-class
      predicate, so GC time, peak memory, and OOM behaviour can be
      observed.
    - {!run_facade} executes the generated program P′ against a real
      {!Pagestore.Store}: the [rt.*], [pool.*], [facade.*], [lock.*] and
      [convert.*] intrinsics emitted by the compiler are implemented here
      — page allocation, bounded facade pools, the shared lock pool, and
      reflection-style data conversion at interaction points.

    The VM is the oracle for the transformation's semantics-preservation
    tests: P and P′ must produce the same results and output. *)

exception Vm_error of string
(** Runtime failures (missing method, bad cast, arithmetic, step budget). *)

val default_max_steps : int
(** 50 million — the [max_steps] default shared with {!Interp_baseline}. *)

type outcome = {
  result : Value.t option;
  stats : Exec_stats.t;
  store_stats : Pagestore.Store.stats option;  (** facade mode only *)
  facades_allocated : int;  (** heap facades populating the pools (P′) *)
  locks_peak : int;
      (** peak simultaneous lock-pool occupancy (facade mode; 0 in P) *)
}

val run_object :
  ?heap:Heapsim.Heap.t ->
  ?is_data:(string -> bool) ->
  ?max_steps:int ->
  ?entry_args:Value.t list ->
  ?quicken:bool ->
  ?tier2:bool ->
  ?tier2_feedback:Compile_tier.feedback ->
  Jir.Program.t ->
  outcome
(** Execute a program's entry point in object mode. [max_steps] defaults
    to 50 million. [quicken] (default [false]) runs the {!Quicken}
    rewrite — inline caches, specialized accessors, superinstructions —
    over the linked form first; results and output are unchanged but step
    counts shrink, so differential tests against {!Interp_baseline} keep
    it off.

    [tier2] (default [false]) attaches the {!Compile_tier} closure
    compiler: each method is translated to composed closures at its
    first call, with deoptimization back to the interpreter. Observable
    behaviour — results, output, step counts, instruction mix, heap
    totals — is identical to tier 1. [tier2_feedback] forwards the opt
    pipeline's CHA/inlining facts to widen what compiles. *)

val run_object_linked :
  ?heap:Heapsim.Heap.t ->
  ?max_steps:int ->
  ?entry_args:Value.t list ->
  ?tier2:bool ->
  ?tier2_feedback:Compile_tier.feedback ->
  ?tier:Vm_state.tier ->
  Resolved.program ->
  outcome
(** As {!run_object} on an already-linked (and possibly quickened)
    program, so callers that execute the same program repeatedly — the
    benchmarks, warm services — pay {!Link.object_program} once instead
    of per run.

    [?tier] attaches a pre-built tier from {!make_tier} instead of a
    fresh one (overriding [tier2]/[tier2_feedback]), so compiled code
    persists across runs the way quickened inline-cache state already
    does in a shared linked program. The tier must have been built for
    this same [rp]. A tier attached after the program already ran in
    tier 1 compiles its virtual call sites against those warm inline
    caches. *)

val make_tier : ?feedback:Compile_tier.feedback -> Resolved.program -> Vm_state.tier
(** A tier-2 state detached from any single run, for
    {!run_object_linked}'s and {!run_facade}'s [?tier]. Compiled code —
    facade page accesses included — threads every piece of per-run state
    through its [st] argument, so one warm tier is sound across runs in
    either mode; the tier must have been built for the same linked
    program the runs execute. *)

val run_facade :
  ?heap:Heapsim.Heap.t ->
  ?max_steps:int ->
  ?page_bytes:int ->
  ?workers:int ->
  ?pool:Parallel.Pool.t ->
  ?page_quota:int ->
  ?heap_budget:int ->
  ?io_scale:float ->
  ?entry_args:Value.t list ->
  ?quicken:bool ->
  ?tier2:bool ->
  ?tier2_feedback:Compile_tier.feedback ->
  ?tier:Vm_state.tier ->
  Facade_compiler.Pipeline.t ->
  outcome
(** Execute a compiled pipeline's transformed program in facade mode.
    [quicken] is as for {!run_object}; the quickened form is derived once
    per pipeline and cached beside the base link.

    With [?workers:n], a pool of [n] OCaml domains executes spawned
    logical threads in parallel: each [run_thread] enqueues the runnable
    onto work-stealing deques, and the spawner joins its children at the
    next iteration end (before the iteration's pages are bulk-released),
    at its own termination, and at entry exit. Every logical thread
    accumulates its accounting privately — an [Exec_stats] shard, a
    {!Heapsim.Heap.Shard} of heap charges, and a buffered
    {!Pagestore.Store.local} handle — so the allocation hot path takes no
    lock; shards drain into the shared structures only at iteration
    boundaries and joins, merged in spawn order. Results, output, facade
    counts, records allocated, final heap totals (objects/bytes allocated,
    native and live populations), page-store totals, and lock-pool peaks
    are identical to the default sequential execution for programs whose
    threads are data-race-free (the differential suite asserts this for
    every shipped sample). The step budget is enforced per logical thread
    in this mode, and because batching moves GC trigger points, simulated
    GC pause {e counts} remain approximate under parallelism. Omitting
    [?workers] leaves the engine byte-for-byte on the sequential path.

    [?pool] selects the parallel path on a caller-owned, long-lived
    domain pool instead of spawning a private one: the run borrows the
    pool (several concurrent runs may share it — external waiters park
    without helping) and never shuts it down, which is how the service
    daemon amortizes [Domain.spawn] to zero across submissions. When
    both [?pool] and [?workers] are given, the shared pool wins.

    [?page_quota] (max live pages) and [?heap_budget] (max native page
    bytes) install {!Pagestore.Store.set_limits} caps on this run's
    private store; exceeding either raises
    {!Pagestore.Store.Quota_exceeded} out of this call (through the
    parallel join if workers are active), failing only this run.

    [?io_scale] (default [0.], i.e. off) sets the real seconds slept per
    simulated second of [sys.io_read] latency: with it the VM realizes
    simulated reads as actual blocking waits, which overlap across worker
    domains — the same mechanism (and typical scale, [5e-3]) the
    graphchi/hyracks/gps engines use for their scalability curves.

    [tier2]/[tier2_feedback] are as for {!run_object};
    the tier state is shared across worker domains (racing compilations
    are benign) and each logical thread takes the compiled code when its
    own dispatch reaches it. [?tier] attaches a pre-built tier from
    {!make_tier} (overriding the other tier-2 options), sound since
    facade-mode compiled code stopped capturing the run's page store:
    warm services pay compilation once, and a second run of the same
    linked pipeline performs zero compilations. *)
