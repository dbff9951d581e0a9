module Heap = Heapsim.Heap
module Clock = Heapsim.Sim_clock
module Store = Pagestore.Store

type mode = Object_mode | Facade_mode

type config = {
  mode : mode;
  heap_gb : float;
  machines : int;
  cost : Gcost.t;
}

let scaled_gb = 1 lsl 20

let default_config mode =
  {
    mode;
    heap_gb = 15.0;
    machines = 10;
    cost = Gcost.default;
  }

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

type ctx = {
  config : config;
  heap_ : Heap.t;
  clock_ : Clock.t;
  store_ : Store.t option;
  mutable data_objects : int;
  mutable page_records : int;
  mutable steps : int;
  mutable last_native : int;
  mutable last_pages : int;
}

let sync_native c =
  match c.store_ with
  | None -> ()
  | Some s ->
      let st = Store.stats s in
      let dn = st.Store.native_bytes - c.last_native in
      if dn > 0 then Heap.native_alloc c.heap_ ~bytes:dn
      else if dn < 0 then Heap.native_free c.heap_ ~bytes:(-dn);
      c.last_native <- st.Store.native_bytes;
      let dp = st.Store.pages_created - c.last_pages in
      if dp > 0 then Heap.alloc_many c.heap_ ~lifetime:Heap.Control ~bytes_each:48 ~count:dp;
      c.last_pages <- st.Store.pages_created

let load_graph c ~vertices ~edges =
  let cost = c.config.cost in
  let vertices = (vertices + c.config.machines - 1) / c.config.machines in
  let edges = (edges + c.config.machines - 1) / c.config.machines in
  match c.store_ with
  | None ->
      (* GPS's object-array graph representation: one object per vertex
         plus adjacency arrays — long-lived data objects. *)
      Heap.alloc_many c.heap_ ~lifetime:Heap.Permanent
        ~bytes_each:cost.Gcost.vertex_object_bytes ~count:vertices;
      Heap.alloc c.heap_ ~lifetime:Heap.Permanent ~bytes:(edges * 8);
      c.data_objects <- c.data_objects + vertices + 1
  | Some s ->
      (* Page-resident graph: one record per vertex, adjacency as array
         records on the thread's default (⊥) manager — reclaimed only when
         the worker terminates. *)
      let per_chunk = 4096 in
      let remaining = ref vertices in
      while !remaining > 0 do
        let n = min per_chunk !remaining in
        for _ = 1 to n do
          ignore (Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:16)
        done;
        c.page_records <- c.page_records + n;
        remaining := !remaining - n;
        sync_native c
      done;
      ignore (Store.alloc_array s ~thread:0 ~type_id:2 ~elem_bytes:8 ~length:edges);
      c.page_records <- c.page_records + 1;
      sync_native c

let superstep c ~msgs =
  let cost = c.config.cost in
  c.steps <- c.steps + 1;
  let msgs = (msgs + c.config.machines - 1) / c.config.machines in
  let fmsgs = float_of_int msgs in
  match c.config.mode with
  | Object_mode ->
      Clock.charge c.clock_ Clock.Update
        (cost.Gcost.superstep_fixed
        +. (fmsgs *. (cost.Gcost.compute_per_msg +. cost.Gcost.msg_overhead_object)));
      Heap.iteration_start c.heap_;
      let msg_objs = int_of_float (fmsgs *. cost.Gcost.msg_objects_fraction) in
      Heap.alloc_many c.heap_ ~lifetime:Heap.Iteration
        ~bytes_each:cost.Gcost.msg_object_bytes ~count:msg_objs;
      c.data_objects <- c.data_objects + msg_objs;
      Heap.alloc_many c.heap_ ~lifetime:Heap.Temp ~bytes_each:cost.Gcost.temp_bytes
        ~count:(int_of_float (fmsgs *. cost.Gcost.temps_per_msg_object));
      Heap.iteration_end c.heap_
  | Facade_mode ->
      Clock.charge c.clock_ Clock.Update
        (cost.Gcost.superstep_fixed +. cost.Gcost.facade_fixed_per_superstep
        +. (fmsgs *. (cost.Gcost.compute_per_msg +. cost.Gcost.msg_overhead_facade)));
      let s = Option.get c.store_ in
      Store.iteration_start s ~thread:0;
      Heap.iteration_start c.heap_;
      (* The superstep's message buffer lives in pages and is recycled at
         the barrier. *)
      ignore (Store.alloc_array s ~thread:0 ~type_id:3 ~elem_bytes:8 ~length:msgs);
      c.page_records <- c.page_records + 1;
      Heap.alloc_many c.heap_ ~lifetime:Heap.Temp ~bytes_each:cost.Gcost.temp_bytes
        ~count:(int_of_float (fmsgs *. cost.Gcost.temps_per_msg_facade));
      sync_native c;
      Heap.iteration_end c.heap_;
      Store.iteration_end s ~thread:0;
      sync_native c

let with_run config body =
  let heap_bytes = int_of_float (config.heap_gb *. float_of_int scaled_gb) in
  let clock_ = Clock.create () in
  let heap_ = Heap.create ~clock:clock_ (Heapsim.Hconfig.make ~heap_bytes ()) in
  let store_ =
    match config.mode with
    | Object_mode -> None
    | Facade_mode ->
        let s = Store.create () in
        Store.register_thread s 0;
        Some s
  in
  let c =
    {
      config;
      heap_;
      clock_;
      store_;
      data_objects = 0;
      page_records = 0;
      steps = 0;
      last_native = 0;
      last_pages = 0;
    }
  in
  Heap.alloc_many heap_ ~lifetime:Heap.Permanent ~bytes_each:512 ~count:512;
  let output, completed, oom_at =
    match body c with
    | v -> (Some v, true, 0.0)
    | exception Heap.Out_of_memory { at_seconds; _ } -> (None, false, at_seconds)
  in
  sync_native c;
  let hs = Heap.stats heap_ in
  let metrics =
    {
      et = Clock.total clock_;
      gt = Clock.get clock_ Clock.Gc;
      peak_memory_mb =
        float_of_int (Heap.peak_memory_bytes heap_) /. float_of_int scaled_gb *. 1000.0;
      minor_gcs = hs.Heapsim.Gc_stats.minor_gcs;
      major_gcs = hs.Heapsim.Gc_stats.major_gcs;
      data_objects = c.data_objects;
      page_records = c.page_records;
      supersteps = c.steps;
      completed;
      oom_at;
    }
  in
  { output = (if completed then output else None); metrics }
