module E = Graphchi.Psw_engine

type counts = {
  object_mode_data_objects : int;
  facade_heap_objects : int;
  pages : int;
  facades : int;
  reduction_factor : float;
}

let run ?(quick = false) () =
  let g =
    if quick then Workloads.Graph_gen.twitter_scaled ~seed:42 ~scale:(1.0 /. 5000.0)
    else Workloads.Datasets.twitter ()
  in
  let csr = Graphchi.Sharder.build g in
  let m_obj =
    (E.run (E.default_config E.Object_mode) csr Graphchi.Vertex_program.pagerank).E.metrics
  in
  let m_fac =
    (E.run (E.default_config E.Facade_mode) csr Graphchi.Vertex_program.pagerank).E.metrics
  in
  let pages = m_fac.E.pages_created in
  let facades = m_fac.E.facades in
  let counts =
    {
      object_mode_data_objects = m_obj.E.data_objects;
      facade_heap_objects = pages + facades;
      pages;
      facades;
      reduction_factor =
        float_of_int m_obj.E.data_objects /. float_of_int (max 1 (pages + facades));
    }
  in
  print_endline "== E7: data-object populations (GraphChi PR) ==";
  let t = Metrics.Table.create ~headers:[ "Quantity"; "This run"; "Paper (full scale)" ] in
  Metrics.Table.add_row t
    [ "P data objects"; Metrics.Table.cell_int counts.object_mode_data_objects; "14,257,280,923" ];
  Metrics.Table.add_row t
    [ "P' heap objects for data"; Metrics.Table.cell_int counts.facade_heap_objects; "1,363" ];
  Metrics.Table.add_row t [ "  of which pages"; Metrics.Table.cell_int pages; "1,000" ];
  Metrics.Table.add_row t [ "  of which facades"; Metrics.Table.cell_int facades; "363 (11 x 33 threads)" ];
  Metrics.Table.add_row t
    [ "reduction"; Printf.sprintf "%.2gx" counts.reduction_factor; "~1e7x" ];
  Metrics.Table.print t;
  (* Compiler-level count: the VM executing the transformed iteration
     sample allocates zero data heap objects, only records. *)
  let s = Samples.iteration in
  let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
  let is_data c =
    Facade_compiler.Classify.is_data_class pl.Facade_compiler.Pipeline.classification c
  in
  let o_obj =
    Facade_vm.(Interp.run_object_linked (Link.object_program ~is_data s.Samples.program))
  in
  let o_fac = Facade_vm.Interp.run_facade pl in
  Printf.printf
    "VM check (iteration sample): P data objects = %d; P' data objects = %d, records = %d, facades = %d\n"
    o_obj.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects
    o_fac.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects
    o_fac.Facade_vm.Interp.stats.Facade_vm.Exec_stats.page_records
    o_fac.Facade_vm.Interp.facades_allocated;
  let claim = Metrics.Report.claim ~experiment:"E7 objects" in
  let claims =
    [
      claim ~description:"orders-of-magnitude object reduction"
        ~paper_value:"14.26e9 -> 1,363"
        ~measured:
          (Printf.sprintf "%s -> %s (%.2gx)"
             (Metrics.Table.cell_int counts.object_mode_data_objects)
             (Metrics.Table.cell_int counts.facade_heap_objects)
             counts.reduction_factor)
        ~holds:(counts.reduction_factor > 1000.0);
      claim ~description:"P' creates no data heap objects in the VM"
        ~paper_value:"0"
        ~measured:
          (string_of_int o_fac.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects)
        ~holds:(o_fac.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects = 0);
    ]
  in
  (counts, claims)
