(** The Pregel-style superstep engine (GPS analogue).

    Vertex programs run in synchronized supersteps; messages flow along
    edges and through combiners. The engine mirrors GPS's memory
    behaviour: the input graph lives in an object-array representation
    (heap objects in P, page records in P′), most per-vertex state is
    primitive arrays in both modes, and only a fraction of message traffic
    materialises as heap objects in P. Apps drive the engine through
    {!load_graph} and {!superstep}. *)

type mode = Object_mode | Facade_mode

type config = {
  mode : mode;
  heap_gb : float;
  machines : int;  (** the graph is hash-partitioned across the cluster *)
  cost : Gcost.t;
}

val default_config : mode -> config
(** 15 scaled-GB heap per machine, 10 machines (the paper's EC2 setup). *)

type metrics = {
  et : float;
  gt : float;
  peak_memory_mb : float;
  minor_gcs : int;
  major_gcs : int;
  data_objects : int;
  page_records : int;
  supersteps : int;
  completed : bool;
  oom_at : float;
}

type 'a outcome = {
  output : 'a option;
  metrics : metrics;
}

type ctx

val with_run : config -> (ctx -> 'a) -> 'a outcome

val load_graph : ctx -> vertices:int -> edges:int -> unit
(** Charge one machine's share of the resident graph representation:
    per-vertex objects in P; page records (really allocated) in P′.
    Arguments are whole-graph numbers. *)

val superstep : ctx -> msgs:int -> unit
(** One superstep moving [msgs] messages cluster-wide (the simulated
    machine handles its 1/machines share): charges compute and
    mode-specific overheads, allocates the message population (heap
    objects in P at {!Gcost.t.msg_objects_fraction}; page records in P′,
    recycled at the superstep barrier via an iteration frame). *)
