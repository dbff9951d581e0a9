module P = Gps.Pregel

let graph () = Workloads.Graph_gen.generate ~seed:21 ~vertices:1000 ~edges:12_000

let test_adjacency () =
  let g = graph () in
  let adj = Gps.Adjacency.build g in
  Alcotest.(check int) "n" 1000 adj.Gps.Adjacency.n;
  Alcotest.(check int) "all edges" 12_000 adj.Gps.Adjacency.start.(1000);
  Alcotest.(check bool) "degrees consistent" true
    (Array.for_all2 ( = ) adj.Gps.Adjacency.out_degree
       (Workloads.Graph_gen.out_degrees g))

let test_pr_modes_agree () =
  let g = graph () in
  let o = Gps.App_pagerank.run (P.default_config P.Object_mode) g in
  let f = Gps.App_pagerank.run (P.default_config P.Facade_mode) g in
  match o.P.output, f.P.output with
  | Some a, Some b -> Alcotest.(check bool) "identical ranks" true (a = b)
  | _ -> Alcotest.fail "a run failed"

let test_pr_supersteps_counted () =
  let g = graph () in
  let o = Gps.App_pagerank.run ~supersteps:7 (P.default_config P.Object_mode) g in
  Alcotest.(check int) "supersteps" 7 o.P.metrics.P.supersteps

let test_rw_deterministic_across_modes () =
  let g = graph () in
  let o = Gps.App_random_walk.run ~seed:3 (P.default_config P.Object_mode) g in
  let f = Gps.App_random_walk.run ~seed:3 (P.default_config P.Facade_mode) g in
  match o.P.output, f.P.output with
  | Some a, Some b ->
      Alcotest.(check int) "same checksum" a.Gps.App_random_walk.visits_checksum
        b.Gps.App_random_walk.visits_checksum;
      Alcotest.(check bool) "same positions" true
        (a.Gps.App_random_walk.positions = b.Gps.App_random_walk.positions)
  | _ -> Alcotest.fail "a run failed"

let test_rw_positions_valid () =
  let g = graph () in
  let o = Gps.App_random_walk.run ~seed:4 ~walkers:50 (P.default_config P.Object_mode) g in
  match o.P.output with
  | Some r ->
      Alcotest.(check int) "walker count" 50 (Array.length r.Gps.App_random_walk.positions);
      Array.iter
        (fun p -> Alcotest.(check bool) "in range" true (p >= 0 && p < 1000))
        r.Gps.App_random_walk.positions
  | None -> Alcotest.fail "run failed"

let test_kmeans_modes_agree () =
  let pts = Workloads.Points_gen.generate ~seed:8 ~n:2000 ~dims:3 ~clusters:4 in
  let o = Gps.App_kmeans.run ~k:4 (P.default_config P.Object_mode) pts in
  let f = Gps.App_kmeans.run ~k:4 (P.default_config P.Facade_mode) pts in
  match o.P.output, f.P.output with
  | Some a, Some b ->
      Alcotest.(check bool) "same centroids" true
        (a.Gps.App_kmeans.centroids = b.Gps.App_kmeans.centroids)
  | _ -> Alcotest.fail "a run failed"

let test_kmeans_converges_to_blobs () =
  (* Well-separated blobs: every cluster should attract some points. *)
  let pts = Workloads.Points_gen.generate ~seed:8 ~n:4000 ~dims:2 ~clusters:4 in
  let o = Gps.App_kmeans.run ~k:4 ~supersteps:15 (P.default_config P.Object_mode) pts in
  match o.P.output with
  | Some r ->
      let sizes = Array.make 4 0 in
      Array.iter (fun a -> sizes.(a) <- sizes.(a) + 1) r.Gps.App_kmeans.assignments;
      Array.iter
        (fun s -> Alcotest.(check bool) "non-trivial cluster" true (s > 50))
        sizes
  | None -> Alcotest.fail "run failed"

let test_kmeans_rejects_bad_k () =
  let pts = Workloads.Points_gen.generate ~seed:8 ~n:10 ~dims:2 ~clusters:2 in
  Alcotest.check_raises "k=0" (Invalid_argument "App_kmeans.run: k must be positive")
    (fun () -> ignore (Gps.App_kmeans.run ~k:0 (P.default_config P.Object_mode) pts))

let test_facade_page_records () =
  let g = graph () in
  let f = Gps.App_pagerank.run (P.default_config P.Facade_mode) g in
  Alcotest.(check bool) "graph lives in pages" true (f.P.metrics.P.page_records > 50);
  Alcotest.(check int) "no data heap objects" 0 f.P.metrics.P.data_objects

let test_gc_share_small () =
  (* GPS's primitive-array-heavy design keeps GC under ~20% (paper: 1-17%). *)
  let g = Workloads.Graph_gen.generate ~seed:2 ~vertices:20_000 ~edges:400_000 in
  let o = Gps.App_pagerank.run (P.default_config P.Object_mode) g in
  let m = o.P.metrics in
  Alcotest.(check bool) "gc share below 20%" true (m.P.gt /. m.P.et < 0.20)

let prop_pr_modes_agree =
  QCheck.Test.make ~name:"GPS PR modes agree on random graphs" ~count:8
    QCheck.(pair (int_range 10 500) (int_range 10 3000))
    (fun (vertices, edges) ->
      let g = Workloads.Graph_gen.generate ~seed:(7 * vertices) ~vertices ~edges in
      let o = Gps.App_pagerank.run (P.default_config P.Object_mode) g in
      let f = Gps.App_pagerank.run (P.default_config P.Facade_mode) g in
      o.P.output = f.P.output)

(* The analytic path's figures, pinned to their recorded values: times
   as %h (every bit of the double), peak memory, GC counts, object and
   record counts, supersteps and completion, for both modes of PR, RW and
   k-means on the suite's small inputs, and of PR at heaps small enough
   for GC to run. *)
let analytic_figures (m : P.metrics) =
  Printf.sprintf
    "et=%h gt=%h peak_mb=%h minor=%d major=%d data=%d records=%d supersteps=%d \
     completed=%b"
    m.P.et m.P.gt m.P.peak_memory_mb m.P.minor_gcs m.P.major_gcs m.P.data_objects
    m.P.page_records m.P.supersteps m.P.completed

let test_analytic_pinned () =
  let g = graph () in
  let pts = Workloads.Points_gen.generate ~seed:8 ~n:2000 ~dims:3 ~clusters:4 in
  let pr_at heap_gb mode =
    (Gps.App_pagerank.run { (P.default_config mode) with P.heap_gb } g).P.metrics
  in
  let pr mode = (Gps.App_pagerank.run (P.default_config mode) g).P.metrics in
  let rw mode = (Gps.App_random_walk.run ~seed:3 (P.default_config mode) g).P.metrics in
  let km mode = (Gps.App_kmeans.run ~k:4 (P.default_config mode) pts).P.metrics in
  List.iter
    (fun (name, run, mode, expect) ->
      Alcotest.(check string) name expect (analytic_figures (run mode)))
    [
      ( "PR object",
        pr,
        P.Object_mode,
        "et=0x1.520c49ba5e354p+3 gt=0x0p+0 peak_mb=0x1.b4eb9p+8 minor=0 major=0 data=3101 records=0 supersteps=10 completed=true" );
      ( "PR facade",
        pr,
        P.Facade_mode,
        "et=0x1.60e5604189375p+3 gt=0x0p+0 peak_mb=0x1.735a68p+8 minor=0 major=0 data=0 records=111 supersteps=10 completed=true" );
      ( "PR object, 0.6 GB",
        pr_at 0.6,
        P.Object_mode,
        "et=0x1.52cbade8dbf71p+3 gt=0x1.7ec85cfb83998p-6 peak_mb=0x1.92215p+8 minor=2 major=0 data=3101 records=0 supersteps=10 completed=true" );
      ( "PR facade, 0.6 GB",
        pr_at 0.6,
        P.Facade_mode,
        "et=0x1.614a431a3103bp+3 gt=0x1.938b629f31891p-7 peak_mb=0x1.735a68p+8 minor=1 major=0 data=0 records=111 supersteps=10 completed=true" );
      ( "PR object, 0.3 GB",
        pr_at 0.3,
        P.Object_mode,
        "et=0x1.9f8193687d17p+1 gt=0x1.3b275de7e7b05p-4 peak_mb=0x1.2b1a5p+8 minor=4 major=1 data=701 records=0 supersteps=3 completed=false" );
      ( "RW object",
        rw,
        P.Object_mode,
        "et=0x1.41810624dd2f1p+3 gt=0x0p+0 peak_mb=0x1.15774p+8 minor=0 major=0 data=351 records=0 supersteps=10 completed=true" );
      ( "RW facade",
        rw,
        P.Facade_mode,
        "et=0x1.516872b020c49p+3 gt=0x0p+0 peak_mb=0x1.5a2d18p+8 minor=0 major=0 data=0 records=111 supersteps=10 completed=true" );
      ( "k-means object",
        km,
        P.Object_mode,
        "et=0x1.4309bf9c62a1bp+3 gt=0x0p+0 peak_mb=0x1.1e9fp+8 minor=0 major=0 data=701 records=0 supersteps=10 completed=true" );
      ( "k-means facade",
        km,
        P.Facade_mode,
        "et=0x1.52d81adea8975p+3 gt=0x0p+0 peak_mb=0x1.5c7708p+8 minor=0 major=0 data=0 records=211 supersteps=10 completed=true" );
    ]

let () =
  Alcotest.run "gps"
    [
      ("adjacency", [ Alcotest.test_case "build" `Quick test_adjacency ]);
      ( "pagerank",
        [
          Alcotest.test_case "modes agree" `Quick test_pr_modes_agree;
          Alcotest.test_case "supersteps" `Quick test_pr_supersteps_counted;
          Alcotest.test_case "gc share small" `Quick test_gc_share_small;
          Alcotest.test_case "facade page records" `Quick test_facade_page_records;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_pr_modes_agree ] );
      ( "random_walk",
        [
          Alcotest.test_case "deterministic across modes" `Quick
            test_rw_deterministic_across_modes;
          Alcotest.test_case "positions valid" `Quick test_rw_positions_valid;
        ] );
      ( "kmeans",
        [
          Alcotest.test_case "modes agree" `Quick test_kmeans_modes_agree;
          Alcotest.test_case "converges" `Quick test_kmeans_converges_to_blobs;
          Alcotest.test_case "rejects bad k" `Quick test_kmeans_rejects_bad_k;
          Alcotest.test_case "analytic path pinned" `Quick test_analytic_pinned;
        ] );
    ]
