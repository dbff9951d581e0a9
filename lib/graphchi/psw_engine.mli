(** The parallel-sliding-windows execution engine (GraphChi analogue).

    One engine runs both sides of Table 2:

    - [Object_mode] is the original program P: every loaded vertex and edge
      becomes a (simulated) heap object with iteration lifetime, plus the
      per-update boxed temporaries a JVM execution produces — GC pressure
      and OOM behaviour emerge from {!Heapsim.Heap}.
    - [Facade_mode] is the generated program P′: vertex and edge data live
      in a real {!Pagestore.Store}; each sub-iteration's pages are bulk
      released at its end exactly as FACADE's iteration-based memory
      manager does.

    Both modes compute identical double-precision values (the engine
    double-buffers within an interval), so results cross-validate. *)

type mode = Object_mode | Facade_mode

type config = {
  mode : mode;
  heap_gb : float;         (** paper-GB heap budget; 1 paper-GB = 1 MiB here *)
  iterations : int;
  cost : Cost_model.t;
  facade_intervals : int;  (** sub-iterations per iteration in facade mode
                               (data-determined loading; DESIGN.md E1) *)
  threads : int;           (** worker threads in facade mode, each with its
                               own page manager and 11-facade pool (§3.4) *)
}

val default_config : mode -> config
(** 8 paper-GB, 5 iterations, default costs, 32 facade intervals, 32
    worker threads (the paper's two 16-thread pools). *)

type metrics = {
  et : float;   (** total execution time, simulated seconds (ET) *)
  ut : float;   (** engine update time (UT) *)
  lt : float;   (** data load time (LT) *)
  gt : float;   (** GC time (GT) *)
  peak_memory_mb : float;  (** PM, in scaled MB (≙ paper GB·10³/1000) *)
  minor_gcs : int;
  major_gcs : int;
  heap_objects_allocated : int;
  data_objects : int;      (** heap objects for data types (P; 0 in P′) *)
  page_records : int;      (** paged records (P′; 0 in P) *)
  pages_created : int;
  facades : int;           (** total facades across all thread pools (P′) *)
  sub_iterations : int;
  throughput_eps : float;  (** edges processed per simulated second *)
  completed : bool;        (** false when the run died with OOM *)
  oom_at : float;          (** simulated seconds at OOM (when not completed) *)
}

type run_result = {
  values : float array option;  (** final vertex values; [None] after OOM *)
  metrics : metrics;
}

val run : config -> Sharder.csr -> Vertex_program.t -> run_result

val facades_per_thread : int
(** The GraphChi data path needs 11 facades per thread (paper §4.1). *)
