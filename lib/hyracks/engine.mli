(** Shared machinery of the Hyracks cluster simulator.

    The cluster is shared-nothing and symmetric (10 machines × 8 workers,
    round-robin partitions, as §4.2's EC2 setup); the simulator executes
    one representative machine's work against one simulated JVM heap and
    reports machine time — which, by symmetry, is job time.

    Unlike GraphChi, Hyracks loads data up front: a job's working state
    (group tables, sort buffers) lives for the whole operator, so the
    facade iteration marks wrap one operator ("computation cycle"),
    exactly where the paper places them. *)

type mode = Object_mode | Facade_mode

type config = {
  mode : mode;
  heap_gb : float;          (** per-machine JVM heap (8 in the paper) *)
  machines : int;
  workers_per_machine : int;
  cost : Hcost.t;
  total_budget_gb : float;
      (** fairness cap for P′: heap + native beyond this counts as an
          out-of-memory failure (paper §4.2) *)
}

val default_config : mode -> config
(** 8 GB heap, 10 machines × 8 workers, 8 GB total budget. *)

type metrics = {
  et : float;
  gt : float;
  peak_memory_mb : float;   (** paper-equivalent MB (heap + native) *)
  minor_gcs : int;
  major_gcs : int;
  heap_objects : int;
  data_objects : int;
  page_records : int;
  pages_created : int;
  distinct_keys : int;      (** WC group cardinality on the machine *)
  completed : bool;
  oom_at : float;           (** the paper's OME(n) seconds *)
}

type 'a outcome = {
  output : 'a option;  (** job result; [None] on OOM *)
  metrics : metrics;
}

(** Internal run context handed to job implementations. *)
type ctx

val machine_slice : config -> 'a array -> 'a array
(** The representative machine's share of the input (round-robin). *)

val with_run : config -> (ctx -> 'a) -> 'a outcome
(** Set up heap/store/clock, run the job body, catch OOM, enforce the
    facade fairness cap, and collect metrics. *)

(** Accessors for job implementations. *)

val heap : ctx -> Heapsim.Heap.t
val store : ctx -> Pagestore.Store.t option
(** [Some] in facade mode. *)

val cfg : ctx -> config
val charge : ctx -> Heapsim.Sim_clock.category -> float -> unit
val alloc_temps : ctx -> count:int -> unit
val note_data_objects : ctx -> int -> unit
val note_record : ctx -> unit
val note_distinct : ctx -> int -> unit
val sync_native : ctx -> unit
val parallel_time : ctx -> float -> float
(** Divide worker-parallel compute across the machine's workers. *)
