module E = Graphchi.Psw_engine
module S = Graphchi.Sharder
module V = Graphchi.Vertex_program

let small_graph () = Workloads.Graph_gen.generate ~seed:3 ~vertices:500 ~edges:5000

let csr () = S.build (small_graph ())

(* ---------- sharder ---------- *)

let test_csr_shape () =
  let c = csr () in
  Alcotest.(check int) "vertices" 500 c.S.num_vertices;
  Alcotest.(check int) "edges" 5000 c.S.num_edges;
  Alcotest.(check int) "in offsets cover all edges" 5000 c.S.in_start.(500);
  Alcotest.(check int) "out offsets cover all edges" 5000 c.S.out_start.(500)

let test_csr_degrees_match () =
  let g = small_graph () in
  let c = S.build g in
  let out_deg = Workloads.Graph_gen.out_degrees g in
  Alcotest.(check bool) "out degrees agree" true (c.S.out_degree = out_deg)

let test_intervals_cover () =
  let c = csr () in
  let ivs = S.intervals c ~use_out:false ~max_edges:300 in
  let covered = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ivs in
  Alcotest.(check int) "every vertex covered once" 500 covered;
  List.iter
    (fun (lo, hi) ->
      let e = S.interval_edges c ~use_out:false ~lo ~hi in
      Alcotest.(check bool) "budget respected (unless single vertex)" true
        (e <= 300 || hi - lo = 1))
    ivs

let test_intervals_contiguous () =
  let c = csr () in
  let ivs = S.intervals c ~use_out:true ~max_edges:500 in
  let rec go = function
    | (_, hi) :: ((lo, _) :: _ as rest) ->
        Alcotest.(check int) "contiguous" hi lo;
        go rest
    | [ (_, hi) ] -> Alcotest.(check int) "ends at n" 500 hi
    | [] -> Alcotest.fail "no intervals"
  in
  go ivs

let test_intervals_fixed () =
  let c = csr () in
  let ivs = S.intervals_fixed c ~count:7 in
  Alcotest.(check int) "seven intervals" 7 (List.length ivs);
  let covered = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ivs in
  Alcotest.(check int) "covers all" 500 covered

(* ---------- engine ---------- *)

let run_both prog =
  let c = csr () in
  let r1 = E.run (E.default_config E.Object_mode) c prog in
  let r2 = E.run (E.default_config E.Facade_mode) c prog in
  (r1, r2)

let test_modes_agree_pagerank () =
  let r1, r2 = run_both V.pagerank in
  match r1.E.values, r2.E.values with
  | Some a, Some b -> Alcotest.(check bool) "identical ranks" true (a = b)
  | _ -> Alcotest.fail "a run failed"

let test_modes_agree_cc () =
  let r1, r2 = run_both V.connected_components in
  match r1.E.values, r2.E.values with
  | Some a, Some b -> Alcotest.(check bool) "identical labels" true (a = b)
  | _ -> Alcotest.fail "a run failed"

let test_cc_labels_valid () =
  let _, r2 = run_both V.connected_components in
  match r2.E.values with
  | Some labels ->
      Array.iter
        (fun l ->
          Alcotest.(check bool) "label is a vertex id" true
            (l >= 0.0 && l < 500.0 && Float.is_integer l))
        labels
  | None -> Alcotest.fail "run failed"

let test_pagerank_mass () =
  let _, r2 = run_both V.pagerank in
  match r2.E.values with
  | Some ranks ->
      let total = Array.fold_left ( +. ) 0.0 ranks in
      (* Total rank stays near n (damping keeps it bounded). *)
      Alcotest.(check bool) "rank mass sane" true (total > 100.0 && total < 5000.0)
  | None -> Alcotest.fail "run failed"

let test_object_mode_charges_heap () =
  let r1, r2 = run_both V.pagerank in
  Alcotest.(check bool) "P allocates data objects" true (r1.E.metrics.E.data_objects > 5000);
  Alcotest.(check int) "P' allocates none" 0 r2.E.metrics.E.data_objects;
  Alcotest.(check bool) "P' pages records" true (r2.E.metrics.E.page_records > 0);
  Alcotest.(check bool) "P' GC does not exceed P GC materially" true
    (r2.E.metrics.E.gt <= r1.E.metrics.E.gt +. 0.5)

let test_facade_faster () =
  let r1, r2 = run_both V.pagerank in
  Alcotest.(check bool) "P' total time lower" true (r2.E.metrics.E.et < r1.E.metrics.E.et)

let test_oom_on_tiny_heap () =
  let c = csr () in
  let cfg = { (E.default_config E.Object_mode) with E.heap_gb = 0.25 } in
  let r = E.run cfg c V.pagerank in
  Alcotest.(check bool) "object mode OOMs on a tiny heap" false r.E.metrics.E.completed;
  Alcotest.(check bool) "values withheld on OOM" true (r.E.values = None)

let test_facade_survives_tiny_heap () =
  let c = csr () in
  let cfg = { (E.default_config E.Facade_mode) with E.heap_gb = 1.5 } in
  let r = E.run cfg c V.pagerank in
  Alcotest.(check bool) "facade mode survives" true r.E.metrics.E.completed

let test_throughput_positive () =
  let _, r2 = run_both V.pagerank in
  Alcotest.(check bool) "throughput computed" true (r2.E.metrics.E.throughput_eps > 0.0)

let test_sub_iterations_counted () =
  let r1, r2 = run_both V.pagerank in
  Alcotest.(check bool) "P sub-iterations from budget" true
    (r1.E.metrics.E.sub_iterations >= 5);
  Alcotest.(check int) "P' fixed sub-iterations" (5 * 32) r2.E.metrics.E.sub_iterations

let prop_modes_agree_on_random_graphs =
  QCheck.Test.make ~name:"P and P' compute identical ranks on random graphs" ~count:10
    QCheck.(pair (int_range 10 300) (int_range 20 2000))
    (fun (vertices, edges) ->
      let g = Workloads.Graph_gen.generate ~seed:(vertices + edges) ~vertices ~edges in
      let c = S.build g in
      let r1 = E.run (E.default_config E.Object_mode) c V.pagerank in
      let r2 = E.run (E.default_config E.Facade_mode) c V.pagerank in
      r1.E.values = r2.E.values)

(* The analytic path's figures, pinned to their recorded values: times
   as %h (every bit of the double), peak memory, GC counts, object and
   record counts, and completion, for both modes of pagerank on the
   small graph, at the default heap and at the small heaps where GC runs
   and object mode dies. *)
let analytic_figures mode heap_gb =
  let cfg = { (E.default_config mode) with E.heap_gb } in
  let m = (E.run cfg (csr ()) V.pagerank).E.metrics in
  Printf.sprintf
    "et=%h ut=%h lt=%h gt=%h peak_mb=%h minor=%d major=%d heap_objects=%d data=%d \
     records=%d completed=%b"
    m.E.et m.E.ut m.E.lt m.E.gt m.E.peak_memory_mb m.E.minor_gcs m.E.major_gcs
    m.E.heap_objects_allocated m.E.data_objects m.E.page_records m.E.completed

let test_analytic_pinned () =
  List.iter
    (fun (name, mode, heap_gb, expect) ->
      Alcotest.(check string) name expect (analytic_figures mode heap_gb))
    [
      ( "object",
        E.Object_mode,
        8.0,
        "et=0x1.3666666666666p+1 ut=0x1.2p+0 lt=0x1.4cccccccccccdp+0 gt=0x0p+0 peak_mb=0x1.f3fb1ep+10 minor=0 major=0 heap_objects=60526 data=27500 records=0 completed=true" );
      ( "facade",
        E.Facade_mode,
        8.0,
        "et=0x1.d93dfb0d51f7ep+0 ut=0x1.b33333333333p-1 lt=0x1.f333333333331p-1 gt=0x1.82b1f687b139cp-6 peak_mb=0x1.0d0a448p+11 minor=1 major=0 heap_objects=77893 data=0 records=7500 completed=true" );
      ( "object, 1.5 GB",
        E.Object_mode,
        1.5,
        "et=0x1.5e374439ebb41p+1 ut=0x1.2p+0 lt=0x1.4cccccccccccdp+0 gt=0x1.3e86ee9c2a6dap-2 peak_mb=0x1.3d2a56p+10 minor=5 major=0 heap_objects=60526 data=27500 records=0 completed=true" );
      ( "facade, 1.5 GB",
        E.Facade_mode,
        1.5,
        "et=0x1.de5625a682b5fp+0 ut=0x1.b33333333333p-1 lt=0x1.f333333333331p-1 gt=0x1.645e4e69f05eap-5 peak_mb=0x1.5bf332p+9 minor=7 major=0 heap_objects=77893 data=0 records=7500 completed=true" );
      ( "object, 0.25 GB",
        E.Object_mode,
        0.25,
        "et=0x1.2ea29540c46b5p-3 ut=0x0p+0 lt=0x0p+0 gt=0x1.2ea29540c46b5p-3 peak_mb=0x1.f3f06p+7 minor=4 major=1 heap_objects=4734 data=0 records=0 completed=false" );
    ]

let () =
  Alcotest.run "graphchi"
    [
      ( "sharder",
        [
          Alcotest.test_case "csr shape" `Quick test_csr_shape;
          Alcotest.test_case "degrees" `Quick test_csr_degrees_match;
          Alcotest.test_case "intervals cover" `Quick test_intervals_cover;
          Alcotest.test_case "intervals contiguous" `Quick test_intervals_contiguous;
          Alcotest.test_case "fixed intervals" `Quick test_intervals_fixed;
        ] );
      ( "engine",
        [
          Alcotest.test_case "PR modes agree" `Quick test_modes_agree_pagerank;
          Alcotest.test_case "CC modes agree" `Quick test_modes_agree_cc;
          Alcotest.test_case "CC labels valid" `Quick test_cc_labels_valid;
          Alcotest.test_case "PR mass sane" `Quick test_pagerank_mass;
          Alcotest.test_case "heap charging" `Quick test_object_mode_charges_heap;
          Alcotest.test_case "facade faster" `Quick test_facade_faster;
          Alcotest.test_case "OOM on tiny heap" `Quick test_oom_on_tiny_heap;
          Alcotest.test_case "facade survives tiny heap" `Quick test_facade_survives_tiny_heap;
          Alcotest.test_case "throughput" `Quick test_throughput_positive;
          Alcotest.test_case "sub-iterations" `Quick test_sub_iterations_counted;
        ]
        @ [
            QCheck_alcotest.to_alcotest prop_modes_agree_on_random_graphs;
            Alcotest.test_case "analytic path pinned" `Quick test_analytic_pinned;
          ] );
    ]
