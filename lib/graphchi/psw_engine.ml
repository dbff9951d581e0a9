module Heap = Heapsim.Heap
module Clock = Heapsim.Sim_clock
module Store = Pagestore.Store

type mode = Object_mode | Facade_mode

type config = {
  mode : mode;
  heap_gb : float;
  iterations : int;
  cost : Cost_model.t;
  facade_intervals : int;
  threads : int;  (* worker threads sharing the facade run (paper: 2 pools x 16) *)
}

let default_config mode =
  {
    mode;
    heap_gb = 8.0;
    iterations = 5;
    cost = Cost_model.default;
    facade_intervals = 32;
    threads = 32;
  }

type metrics = {
  et : float;
  ut : float;
  lt : float;
  gt : float;
  peak_memory_mb : float;
  minor_gcs : int;
  major_gcs : int;
  heap_objects_allocated : int;
  data_objects : int;
  page_records : int;
  pages_created : int;
  facades : int;
  sub_iterations : int;
  throughput_eps : float;
  completed : bool;
  oom_at : float;
}

type run_result = {
  values : float array option;
  metrics : metrics;
}

let facades_per_thread = 11

(* Record layout of the paged vertex record: value f64 at 4, degree i32 at
   12 (4-byte header first). Neighbour values and degrees are array
   records. *)
let vertex_type = 1
let nbval_type = 2
let nbdeg_type = 3
let vertex_value_off = 4
let vertex_data_bytes = 12

type fstate = {
  store : Store.t;
  mutable last_native : int;
  mutable last_pages : int;
}

let sync_native heap fs =
  let s = Store.stats fs.store in
  let dn = s.Store.native_bytes - fs.last_native in
  if dn > 0 then Heap.native_alloc heap ~bytes:dn
  else if dn < 0 then Heap.native_free heap ~bytes:(-dn);
  fs.last_native <- s.Store.native_bytes;
  let dp = s.Store.pages_created - fs.last_pages in
  if dp > 0 then
    Heap.alloc_many heap ~lifetime:Heap.Control ~bytes_each:48 ~count:dp;
  fs.last_pages <- s.Store.pages_created

let run cfg (csr : Sharder.csr) (prog : Vertex_program.t) =
  let cost = cfg.cost in
  let heap_bytes = int_of_float (cfg.heap_gb *. float_of_int Cost_model.scaled_gb) in
  let clock = Clock.create () in
  let heap = Heap.create ~clock (Heapsim.Hconfig.make ~heap_bytes ()) in
  let n = csr.Sharder.num_vertices in
  let use_out = prog.Vertex_program.use_out_edges in
  let data_objects = ref 0 in
  let sub_iterations = ref 0 in
  let edges_processed = ref 0 in
  let fs =
    match cfg.mode with
    | Object_mode -> None
    | Facade_mode ->
        (* Page size is scaled with the dataset (DESIGN.md's 1/500 rule:
           4 KiB here stands for the paper's 32 KiB) so that per-thread
           size-class slack stays proportional. *)
        let store = Store.create ~page_bytes:4096 () in
        (* Thread 0 is the main thread; workers get their own page
           managers and facade pools (paper 3.4, Figure 3). *)
        Store.register_thread store 0;
        for t = 1 to cfg.threads do
          Store.register_thread store t
        done;
        Some { store; last_native = 0; last_pages = 0 }
  in
  let values = Array.init n prog.Vertex_program.init in
  (* Iterations are double-buffered (Jacobi) so results are independent of
     interval boundaries — and therefore identical in both modes. *)
  let next_values = Array.copy values in
  let run_body () =
    (* Engine-permanent control structures: the vertex-value file buffer,
       the degree file, and shard indices — present in both P and P'. *)
    Heap.alloc heap ~lifetime:Heap.Permanent ~bytes:(n * 8);
    Heap.alloc heap ~lifetime:Heap.Permanent ~bytes:(n * 4);
    Heap.alloc_many heap ~lifetime:Heap.Permanent ~bytes_each:128 ~count:1024;
    (match fs with
    | Some _ ->
        (* The per-thread facade pools: 11 facades in each of the worker
           threads and the main thread (paper 4.1's 11 x (16x2 + 1)). *)
        Heap.alloc_many heap ~lifetime:Heap.Permanent ~bytes_each:32
          ~count:(facades_per_thread * (cfg.threads + 1))
    | None -> ());
    let intervals =
      match cfg.mode with
      | Object_mode ->
          (* Adaptive loading: the interval's object population must fit
             the memory budget. *)
          let budget_edges = max 4096 (heap_bytes / 250) in
          Sharder.intervals csr ~use_out ~max_edges:budget_edges
      | Facade_mode ->
          (* P' barely touches the heap, so its loading is determined by
             the data, not the budget (Table 2's stable PM' column). *)
          Sharder.intervals_fixed csr ~count:cfg.facade_intervals
    in
    let gather_range acc v (start, nbr) =
      let acc = ref acc in
      for i = start.(v) to start.(v + 1) - 1 do
        let nb = nbr.(i) in
        acc :=
          prog.Vertex_program.gather ~acc:!acc ~nb_value:values.(nb)
            ~nb_out_degree:csr.Sharder.out_degree.(nb)
      done;
      !acc
    in
    let control_churn () =
      Heap.alloc_many heap ~lifetime:Heap.Iteration
        ~bytes_each:(cost.Cost_model.control_bytes_per_interval / cost.Cost_model.control_objs_per_interval)
        ~count:cost.Cost_model.control_objs_per_interval
    in
    let temps edges per_edge =
      Heap.alloc_many heap ~lifetime:Heap.Temp ~bytes_each:cost.Cost_model.temp_bytes
        ~count:(int_of_float (float_of_int edges *. per_edge))
    in
    let process_object_interval (lo, hi) =
      Heap.iteration_start heap;
      incr sub_iterations;
      let e = Sharder.interval_edges csr ~use_out ~lo ~hi in
      let e_load = Sharder.interval_edges csr ~use_out:false ~lo ~hi in
      (* LOAD: build vertex and edge objects for the subgraph. Disk I/O is
         paid once per edge; object materialisation once per direction
         touched. *)
      Heap.alloc_many heap ~lifetime:Heap.Iteration
        ~bytes_each:cost.Cost_model.vertex_object_bytes ~count:(hi - lo);
      Heap.alloc_many heap ~lifetime:Heap.Iteration
        ~bytes_each:cost.Cost_model.edge_object_bytes ~count:e;
      data_objects := !data_objects + (hi - lo) + e;
      control_churn ();
      Clock.charge clock Clock.Load
        ((float_of_int e_load *. cost.Cost_model.io_per_edge)
        +. (float_of_int e *. cost.Cost_model.object_alloc_per_edge));
      for v = lo to hi - 1 do
        let acc = gather_range prog.Vertex_program.init_acc v (csr.Sharder.in_start, csr.Sharder.in_nbr) in
        let acc =
          if use_out then gather_range acc v (csr.Sharder.out_start, csr.Sharder.out_nbr)
          else acc
        in
        next_values.(v) <- prog.Vertex_program.apply ~acc ~old_value:values.(v)
      done;
      Clock.charge clock Clock.Update
        (float_of_int e
        *. (cost.Cost_model.compute_per_edge
           +. (cost.Cost_model.deref_per_edge_object
              *. prog.Vertex_program.object_deref_factor)));
      temps e cost.Cost_model.temps_per_edge_object;
      edges_processed := !edges_processed + e;
      Heap.iteration_end heap
    in
    let worker_of v = 1 + (v mod cfg.threads) in
    let process_facade_interval fs (lo, hi) =
      Heap.iteration_start heap;
      Store.iteration_start fs.store ~thread:0;
      for t = 1 to cfg.threads do
        Store.iteration_start fs.store ~thread:t
      done;
      incr sub_iterations;
      let e = Sharder.interval_edges csr ~use_out ~lo ~hi in
      let e_load = Sharder.interval_edges csr ~use_out:false ~lo ~hi in
      (* LOAD: write the subgraph into page records (the real thing). *)
      let vrecs = Array.make (hi - lo) Pagestore.Addr.null in
      let nbvals = Array.make (hi - lo) Pagestore.Addr.null in
      let nbdegs = Array.make (hi - lo) Pagestore.Addr.null in
      let fill v =
        let thread = worker_of v in
        let deg_in = csr.Sharder.in_start.(v + 1) - csr.Sharder.in_start.(v) in
        let deg_out =
          if use_out then csr.Sharder.out_start.(v + 1) - csr.Sharder.out_start.(v) else 0
        in
        let len = deg_in + deg_out in
        let vr =
          Store.alloc_record fs.store ~thread ~type_id:vertex_type
            ~data_bytes:vertex_data_bytes
        in
        Store.set_f64 fs.store vr ~offset:vertex_value_off values.(v);
        let nv =
          Store.alloc_array fs.store ~thread ~type_id:nbval_type ~elem_bytes:8 ~length:len
        in
        let nd =
          Store.alloc_array fs.store ~thread ~type_id:nbdeg_type ~elem_bytes:4 ~length:len
        in
        let pos = ref 0 in
        let push nb =
          Store.set_f64 fs.store nv
            ~offset:(Store.array_elem_offset ~elem_bytes:8 ~index:!pos)
            values.(nb);
          Store.set_i32 fs.store nd
            ~offset:(Store.array_elem_offset ~elem_bytes:4 ~index:!pos)
            csr.Sharder.out_degree.(nb);
          incr pos
        in
        for i = csr.Sharder.in_start.(v) to csr.Sharder.in_start.(v + 1) - 1 do
          push csr.Sharder.in_nbr.(i)
        done;
        if use_out then
          for i = csr.Sharder.out_start.(v) to csr.Sharder.out_start.(v + 1) - 1 do
            push csr.Sharder.out_nbr.(i)
          done;
        vrecs.(v - lo) <- vr;
        nbvals.(v - lo) <- nv;
        nbdegs.(v - lo) <- nd
      in
      for v = lo to hi - 1 do
        fill v
      done;
      control_churn ();
      sync_native heap fs;
      Clock.charge clock Clock.Load
        ((float_of_int e_load *. cost.Cost_model.io_per_edge)
        +. (float_of_int e_load
           *. cost.Cost_model.page_write_per_edge
           *. prog.Vertex_program.facade_write_factor));
      (* Gather over the paged edge arrays, write back to the vertex-value
         file. *)
      for v = lo to hi - 1 do
        let nv = nbvals.(v - lo) and nd = nbdegs.(v - lo) in
        let len = Store.array_length fs.store nv in
        let acc = ref prog.Vertex_program.init_acc in
        for i = 0 to len - 1 do
          let value =
            Store.get_f64 fs.store nv ~offset:(Store.array_elem_offset ~elem_bytes:8 ~index:i)
          in
          let deg =
            Store.get_i32 fs.store nd ~offset:(Store.array_elem_offset ~elem_bytes:4 ~index:i)
          in
          acc := prog.Vertex_program.gather ~acc:!acc ~nb_value:value ~nb_out_degree:deg
        done;
        let vr = vrecs.(v - lo) in
        let old_value = Store.get_f64 fs.store vr ~offset:vertex_value_off in
        Store.set_f64 fs.store vr ~offset:vertex_value_off
          (prog.Vertex_program.apply ~acc:!acc ~old_value);
        next_values.(v) <- Store.get_f64 fs.store vr ~offset:vertex_value_off
      done;
      Clock.charge clock Clock.Update
        (float_of_int e
        *. (cost.Cost_model.compute_per_edge
           +. (cost.Cost_model.access_per_edge_page
              *. prog.Vertex_program.facade_access_factor)));
      temps e cost.Cost_model.temps_per_edge_facade;
      edges_processed := !edges_processed + e;
      for t = 1 to cfg.threads do
        Store.iteration_end fs.store ~thread:t
      done;
      Store.iteration_end fs.store ~thread:0;
      sync_native heap fs;
      Heap.iteration_end heap
    in
    for _iter = 1 to cfg.iterations do
      (match fs with
      | None -> List.iter process_object_interval intervals
      | Some fs -> List.iter (process_facade_interval fs) intervals);
      Array.blit next_values 0 values 0 n
    done
  in
  let completed, oom_at =
    match run_body () with
    | () -> (true, 0.0)
    | exception Heap.Out_of_memory { at_seconds; _ } -> (false, at_seconds)
  in
  let hs = Heap.stats heap in
  let store_stats = Option.map (fun fs -> Store.stats fs.store) fs in
  let et = Clock.total clock in
  let metrics =
    {
      et;
      ut = Clock.get clock Clock.Update;
      lt = Clock.get clock Clock.Load;
      gt = Clock.get clock Clock.Gc;
      peak_memory_mb =
        float_of_int (Heap.peak_memory_bytes heap) /. float_of_int Cost_model.scaled_gb *. 1000.0;
      minor_gcs = hs.Heapsim.Gc_stats.minor_gcs;
      major_gcs = hs.Heapsim.Gc_stats.major_gcs;
      heap_objects_allocated = hs.Heapsim.Gc_stats.objects_allocated;
      data_objects = !data_objects;
      page_records =
        (match store_stats with Some s -> s.Store.records_allocated | None -> 0);
      pages_created = (match store_stats with Some s -> s.Store.pages_created | None -> 0);
      facades =
        (match fs with Some _ -> facades_per_thread * (cfg.threads + 1) | None -> 0);
      sub_iterations = !sub_iterations;
      throughput_eps =
        (if et > 0.0 then float_of_int !edges_processed /. et else 0.0);
      completed;
      oom_at;
    }
  in
  { values = (if completed then Some values else None); metrics }
