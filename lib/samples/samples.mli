(** Ready-made jir programs used by tests, examples, and benchmarks.

    Each value is a pair: the program and the data-class specification a
    user of FACADE would provide for it. All programs are verified
    well-formed and runnable in both object and facade mode. *)

type sample = {
  name : string;
  program : Jir.Program.t;
  spec : Facade_compiler.Classify.spec;
  expected : Jir.Ir.const option;  (** entry's expected return, if constant *)
}

val fig2 : sample
(** The paper's Figure 2: [Professor]/[Student] with [addStudent] and a
    client building the structure. Returns the professor's student count. *)

val linked_list : sample
(** Builds an N-node list of data records in a loop, then sums the payloads
    walking [next] references: exercises field loads/stores, null tests,
    loops. *)

val dispatch : sample
(** A [Shape] hierarchy with overridden [area]: exercises virtual calls via
    [resolve], [instanceof], and casts on data records. *)

val prim_arrays : sample
(** Fills and folds int/double arrays, uses [arraycopy] and array length:
    exercises paged array records. *)

val conversion : sample
(** A data record flows into a control-path class and back: exercises the
    synthesized conversion functions at interaction points (cases 3.3/4.3/
    6.3). *)

val locking : sample
(** Nested [synchronized] blocks on data records: exercises the shared lock
    pool with reentrancy. *)

val iteration : sample
(** Allocates records inside iteration marks over several rounds: in P′
    the pages must be recycled at every [Iter_end]. *)

val statics : sample
(** Static fields on a data class, including a data-typed static. *)

val strings : sample
(** String literals flowing through data fields; literal interning makes
    [==] hold in both modes. *)

val interfaces : sample
(** A [Measurable] interface implemented by two data classes, dispatched
    through the interface type: exercises IFacade generation (§3.2) and
    interface-typed page references. *)

val nested_iteration : sample
(** Nested iteration frames (sub-iterations, §3.6): inner frames recycle
    their pages while records of the enclosing frame stay live. *)

val collections : sample
(** Type-specialized JDK-style collections as data classes (§3.1 treats a
    collection in the data path as a data type; §3.6 transforms the JDK's
    collection classes): a growable [ArrayList_Item] (doubling via the
    modelled [System.arraycopy]) and an open-addressing [IntHashMap_Item]
    with rehashing, filled and read back in both modes. *)

val array_list : elem:string -> Jir.Ir.cls
(** The generated, element-specialized growable list class. *)

val array_list_name : elem:string -> string

val int_hash_map : elem:string -> Jir.Ir.cls
(** The generated open-addressing int-keyed map class. *)

val int_hash_map_name : elem:string -> string

val threads : sample
(** Two worker threads and the main thread increment a shared record under
    its intrinsic lock: exercises per-thread facade pools and page
    managers plus the shared lock pool (§3.4). *)

val racy_counter : sample
(** The seeded racy twin of {!threads}: identical spawn/join structure but
    the shared counter is incremented without its monitor. The static race
    detector must flag it; deliberately not in {!all} (running it with
    workers would be a real race). *)

val boundary : sample
(** A boundary class with an annotated data field (the paper's GraphChi
    workflow, §4.1): the class stays on the heap, the field becomes a page
    reference. *)

val deep_conversion : sample
(** A cyclic, array-carrying data structure crossing the control/data
    boundary in both directions: the synthesized conversion functions must
    deep-copy recursively without looping on the cycle (§3.5). *)

val pagerank : sample
(** The paper's GraphChi PageRank workload (§4.1) in miniature: a [Vertex]
    data class, a [Vertex[]] graph with LCG-generated edges, and supersteps
    wrapped in iteration marks. Prints and returns the rank checksum; the
    VM benchmark's object-mode workload. *)

val pagerank_sized : n:int -> iters:int -> sample
(** [pagerank] with a chosen vertex count and superstep count. *)

val pagerank_par : sample
(** Domain-parallel PageRank: each superstep spawns one [run_thread]
    per [PrWorker], each scattering a disjoint source-vertex range into
    a private accumulator array; after the iteration-end join the main
    thread gathers the accumulators in fixed worker order. The result is
    bit-identical at any worker-pool size — the parallel-vs-sequential
    differential suite's showcase workload. *)

val pagerank_par_sized :
  name:string ->
  nv:int -> degv:int -> iters:int -> nw:int -> io_units:int -> sample
(** {!pagerank_par} with chosen vertex count, out-degree, superstep count
    and worker count. With [io_units > 0] each worker opens its superstep
    with one [sys.io_read io_units] (microseconds) — the simulated scan of
    its edge-file shard — so a nonzero VM [io_scale] turns the workload
    I/O-bound and its supersteps overlap across domains. *)

val pagerank_par_large : sample
(** The scalability workload: 256 vertices, degree 8, 6 supersteps,
    8 workers, 20ms of simulated read per worker per superstep. With
    [io_scale 1.0] a sequential run sleeps ~960ms while an 8-domain run
    overlaps the reads down to ~120ms — the benchmark's ≥4x curve. *)

val locking_sized :
  name:string -> nw:int -> rounds:int -> io_units:int -> sample
(** [nw] spawned workers each run [rounds] rounds of: take the shared
    counter's monitor, then (nested) their own counter's monitor, bump
    both. Peak lock-pool occupancy is exactly 2 at any worker count and
    the deterministic total is [2 * nw * rounds]. With [io_units > 0]
    each worker opens with one [sys.io_read io_units] microseconds of
    simulated device read. *)

val locking_large : sample
(** {!locking_sized} at 8 workers x 400 rounds with a 10ms simulated read
    per worker — the lock pool under contention from every pool domain
    (6400 enter/exit pairs), still I/O-overlappable for the bench. *)

val original_calls : sample
(** Control code calling data-class methods on converted heap instances:
    a virtual call typed at a data superclass whose override lives in a
    data subclass and calls a second original method, and a data class's
    [run] spawned from control code. The facade transform must keep
    exactly those methods on the originals. Not in {!all}: [all] is also
    the compile benchmark's program set, which stays fixed. *)

val all : sample list
(** Every sample above — the equivalence test sweep. *)

val synthetic : classes:int -> methods_per_class:int -> Jir.Program.t * Facade_compiler.Classify.spec
(** A generated program of data classes with field-heavy methods, used to
    measure transformation speed (paper §4: 752–1102 instructions/s). *)
