(** The jir virtual machine, running on the {!Resolved} execution form.

    Programs are first lowered by {!Link} — names interned to integer
    ids, frames slot-indexed, vtables and field layouts precomputed,
    then quickened one-for-one — and the interpreter executes that one
    form, one jir instruction per step, with no string lookup on the
    per-instruction path. Tier 2 fuses instructions when it compiles a
    method and charges every step of a fused window, so step counts and
    [max_steps] mean the same here, in tier 2 and in
    {!Interp_baseline}. The original tree-walking interpreter survives
    as {!Interp_baseline} for differential testing and benchmarking.

    One interpreter runs both sides of the paper's comparison:

    - {!run_object_linked} executes the original program P, linked by
      {!Link.object_program}. Data and control objects are real heap
      values; every allocation is charged to an optional {!Heapsim.Heap}
      with a lifetime derived from the data-class predicate, so GC time,
      peak memory, and OOM behaviour can be observed.
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

val run_object_linked :
  ?heap:Heapsim.Heap.t ->
  ?max_steps:int ->
  ?tier:Vm_state.tier ->
  Resolved.program ->
  outcome
(** Execute a linked program's entry point in object mode;
    [Link.object_program ~is_data p] links P, and callers that run the
    same program repeatedly link it once. [max_steps] defaults to 50
    million.

    Tier 2 runs if and only if [?tier] is given: each method is compiled
    to closures at its first call, with deoptimization back to the
    interpreter. Results, output, step counts, dispatch counts and heap
    totals are identical to tier 1. *)

val make_tier : ?feedback:Compile_tier.feedback -> Resolved.program -> Vm_state.tier
(** The tier-2 state for {!run_object_linked}'s and {!run_facade}'s
    [?tier], built for the linked program [rp] the runs execute
    ({!Link.facade_program} for a pipeline). [feedback] forwards the opt
    pipeline's CHA/inlining facts to widen what compiles. Compiled code —
    facade page accesses included — threads every piece of per-run state
    through its [st] argument, so one tier may serve many runs, in either
    mode and on any worker domain: later runs reuse its compiled code
    (zero compilations) the way they reuse the inline caches in [rp]. A
    tier attached after the program already ran in tier 1 compiles its
    virtual call sites against those warm inline caches. *)

val run_facade :
  ?heap:Heapsim.Heap.t ->
  ?max_steps:int ->
  ?page_bytes:int ->
  ?pool:Parallel.Pool.t ->
  ?page_quota:int ->
  ?heap_budget:int ->
  ?io_scale:float ->
  ?quicken:bool ->
  ?tier:Vm_state.tier ->
  Facade_compiler.Pipeline.t ->
  outcome
(** Execute a compiled pipeline's transformed program in facade mode,
    on the resolved program {!Link.facade_program} caches on the
    pipeline. [quicken] is ignored, as on {!Link.facade_program}: it stays
    only because the benchmark harness under [perfbench/] passes it.

    Tier 2 runs if and only if [?tier] is given, as for
    {!run_object_linked}; build it with {!make_tier} over
    [Link.facade_program pl].

    Every logical thread — the root and each spawned one — runs on its
    own context: its facade pools, a buffered {!Pagestore.Store.local}
    handle on its page managers, and its own view of the dynamic strings, so
    allocation, pool and interning paths take no lock.

    Without [?pool], each [run_thread] runs its child inline to
    completion, on the spawner's [Exec_stats] (so [max_steps] is one
    budget for the whole run), and every heap charge reaches [?heap] at
    the operation that makes it.

    With [?pool], spawned threads run on that pool's domains
    ({!Parallel.Pool.with_pool} makes a private one). The run borrows the
    pool and never shuts it down, so several concurrent runs may share
    one long-lived pool — which is how the service daemon amortizes
    [Domain.spawn] to zero. Each [run_thread] enqueues the runnable onto
    work-stealing deques, and the spawner joins its children at the next
    iteration end (before the iteration's pages are bulk-released), at
    its own termination, and at entry exit. Each enqueued thread also
    keeps an [Exec_stats] shard and a {!Heapsim.Heap.Shard} of heap
    charges, which drain into the shared structures only at iteration
    boundaries and joins, merged in spawn order. Results, output, facade
    counts, records allocated, final heap totals (objects/bytes
    allocated, native and live populations), page-store totals, and
    lock-pool peaks are identical to the run without a pool for programs
    whose threads are data-race-free (the differential suite asserts
    this for every shipped sample). The step budget is enforced per
    logical thread in this mode, and because batching moves GC trigger
    points, simulated GC pause {e counts} remain approximate under
    parallelism. A tier is shared across worker domains (racing
    compilations are benign).

    [?page_quota] (max live pages) and [?heap_budget] (max native page
    bytes) install {!Pagestore.Store.set_limits} caps on this run's
    private store; exceeding either raises
    {!Pagestore.Store.Quota_exceeded} out of this call (through the
    parallel join if the run is parallel), failing only this run.

    [?io_scale] (default [0.], i.e. off) sets the real seconds slept per
    simulated second of [sys.io_read] latency: with it the VM realizes
    simulated reads as actual blocking waits, which overlap across worker
    domains. [bench/main.exe scalability] runs its VM sweep at [1.0]. *)
