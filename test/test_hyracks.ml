module En = Hyracks.Engine
module WC = Hyracks.App_word_count
module ES = Hyracks.App_external_sort

let corpus ?(bytes = 80_000) () =
  Workloads.Text_gen.generate ~vocab:2_000 ~seed:17 ~bytes_target:bytes ()

let cfg mode = En.default_config mode

let test_machine_slice_round_robin () =
  let arr = Array.init 100 Fun.id in
  let slice = En.machine_slice (cfg En.Object_mode) arr in
  Alcotest.(check int) "tenth of the input" 10 (Array.length slice);
  Alcotest.(check int) "first element" 0 slice.(0);
  Alcotest.(check int) "stride of machines" 10 slice.(1)

let test_wc_modes_agree () =
  let c = corpus () in
  let o1 = WC.run (cfg En.Object_mode) c in
  let o2 = WC.run (cfg En.Facade_mode) c in
  match o1.En.output, o2.En.output with
  | Some a, Some b ->
      Alcotest.(check bool) "same top words" true (a.WC.top = b.WC.top);
      Alcotest.(check int) "same distinct" a.WC.distinct b.WC.distinct
  | _ -> Alcotest.fail "a run failed"

let test_wc_counts_correct () =
  let c = corpus () in
  let o = WC.run (cfg En.Object_mode) c in
  match o.En.output with
  | Some r ->
      (* Recount the machine slice independently. *)
      let slice = En.machine_slice (cfg En.Object_mode) c.Workloads.Text_gen.words in
      let tbl = Hashtbl.create 64 in
      Array.iter
        (fun w -> Hashtbl.replace tbl w (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w)))
        slice;
      List.iter
        (fun (w, k) -> Alcotest.(check int) ("count of " ^ w) (Hashtbl.find tbl w) k)
        r.WC.top;
      Alcotest.(check int) "distinct matches" (Hashtbl.length tbl) r.WC.distinct
  | None -> Alcotest.fail "run failed"

let test_es_modes_agree () =
  let c = corpus () in
  let o1 = ES.run (cfg En.Object_mode) c in
  let o2 = ES.run (cfg En.Facade_mode) c in
  match o1.En.output, o2.En.output with
  | Some a, Some b -> Alcotest.(check (list string)) "same sorted heads" a.ES.first b.ES.first
  | _ -> Alcotest.fail "a run failed"

let test_es_actually_sorts () =
  let c = corpus () in
  let o = ES.run (cfg En.Facade_mode) c in
  match o.En.output with
  | Some r ->
      let sorted = List.sort String.compare r.ES.first in
      Alcotest.(check (list string)) "output is sorted" sorted r.ES.first;
      Alcotest.(check bool) "multiple runs were spilled" true (r.ES.runs >= 1)
  | None -> Alcotest.fail "run failed"

let test_es_smallest_element_global () =
  let c = corpus () in
  let o = ES.run (cfg En.Object_mode) c in
  match o.En.output with
  | Some r ->
      let slice = En.machine_slice (cfg En.Object_mode) c.Workloads.Text_gen.words in
      let min_token = Array.fold_left min slice.(0) slice in
      Alcotest.(check string) "global minimum first" min_token (List.hd r.ES.first)
  | None -> Alcotest.fail "run failed"

let test_wc_oom_on_small_heap () =
  (* Many distinct keys + tiny heap: the object-mode aggregation state must
     blow the heap while the facade run survives. *)
  let c = Workloads.Text_gen.generate ~vocab:60_000 ~seed:5 ~bytes_target:1_500_000 () in
  let small mode = { (En.default_config mode) with En.heap_gb = 2.0; total_budget_gb = 16.0 } in
  let o1 = WC.run (small En.Object_mode) c in
  let o2 = WC.run (small En.Facade_mode) c in
  Alcotest.(check bool) "object mode OOMs" false o1.En.metrics.En.completed;
  Alcotest.(check bool) "OME time recorded" true (o1.En.metrics.En.oom_at > 0.0);
  Alcotest.(check bool) "facade mode completes" true o2.En.metrics.En.completed

let test_facade_budget_cap () =
  (* The fairness rule: P' exceeding the total budget counts as OOM. *)
  let c = corpus ~bytes:200_000 () in
  let capped = { (En.default_config En.Facade_mode) with En.total_budget_gb = 0.3; heap_gb = 0.85 } in
  let o = WC.run capped c in
  Alcotest.(check bool) "over-budget facade run is a failure" false
    o.En.metrics.En.completed

let test_data_objects_only_in_object_mode () =
  let c = corpus () in
  let o1 = WC.run (cfg En.Object_mode) c in
  let o2 = WC.run (cfg En.Facade_mode) c in
  Alcotest.(check bool) "P data objects" true (o1.En.metrics.En.data_objects > 0);
  Alcotest.(check int) "P' data objects" 0 o2.En.metrics.En.data_objects;
  Alcotest.(check bool) "P' records" true (o2.En.metrics.En.page_records > 0)

let prop_wc_modes_agree =
  QCheck.Test.make ~name:"WC modes agree on random corpora" ~count:8
    (QCheck.int_range 10_000 60_000)
    (fun bytes ->
      let c = Workloads.Text_gen.generate ~vocab:500 ~seed:bytes ~bytes_target:bytes () in
      let o1 = WC.run (cfg En.Object_mode) c in
      let o2 = WC.run (cfg En.Facade_mode) c in
      match o1.En.output, o2.En.output with
      | Some a, Some b -> a.WC.top = b.WC.top
      | _ -> false)

let prop_es_sorted_and_agree =
  QCheck.Test.make ~name:"ES sorts identically in both modes" ~count:8
    (QCheck.int_range 10_000 60_000)
    (fun bytes ->
      let c = Workloads.Text_gen.generate ~vocab:500 ~seed:(bytes + 1) ~bytes_target:bytes () in
      let o1 = ES.run (cfg En.Object_mode) c in
      let o2 = ES.run (cfg En.Facade_mode) c in
      match o1.En.output, o2.En.output with
      | Some a, Some b ->
          a.ES.first = b.ES.first && List.sort String.compare a.ES.first = a.ES.first
      | _ -> false)

(* The analytic path's figures, pinned to their recorded values: times
   as %h (every bit of the double), peak memory, GC counts, object and
   record counts, and completion, for both modes of WC and ES on the
   small corpus. *)
let analytic_figures (m : En.metrics) =
  Printf.sprintf
    "et=%h gt=%h peak_mb=%h minor=%d major=%d heap_objects=%d data=%d records=%d \
     completed=%b"
    m.En.et m.En.gt m.En.peak_memory_mb m.En.minor_gcs m.En.major_gcs m.En.heap_objects
    m.En.data_objects m.En.page_records m.En.completed

let test_analytic_pinned () =
  let c = corpus () in
  List.iter
    (fun (name, run, expect) -> Alcotest.(check string) name expect (analytic_figures (run c)))
    [
      ( "WC object",
        (fun c -> (WC.run (cfg En.Object_mode) c).En.metrics),
        "et=0x1.42d6f89fb96e3p+0 gt=0x1.19121fbd34a95p-6 peak_mb=0x1.f3ff83p+10 minor=1 major=0 heap_objects=51285 data=3029 records=0 completed=true" );
      ( "WC facade",
        (fun c -> (WC.run (cfg En.Facade_mode) c).En.metrics),
        "et=0x1.7e72b020c49bap+0 gt=0x0p+0 peak_mb=0x1.27da48p+9 minor=0 major=0 heap_objects=8600 data=0 records=343 completed=true" );
      ( "ES object",
        (fun c -> (ES.run (cfg En.Object_mode) c).En.metrics),
        "et=0x1.17707df495067p+1 gt=0x1.63cedc71857e5p-5 peak_mb=0x1.f4p+10 minor=1 major=0 heap_objects=64765 data=2000 records=0 completed=true" );
      ( "ES facade",
        (fun c -> (ES.run (cfg En.Facade_mode) c).En.metrics),
        "et=0x1.ec0897e930f68p+0 gt=0x0p+0 peak_mb=0x1.22b0fep+10 minor=0 major=0 heap_objects=10265 data=0 records=1001 completed=true" );
    ]

let () =
  Alcotest.run "hyracks"
    [
      ("cluster", [ Alcotest.test_case "round robin" `Quick test_machine_slice_round_robin ]);
      ( "word_count",
        [
          Alcotest.test_case "modes agree" `Quick test_wc_modes_agree;
          Alcotest.test_case "counts correct" `Quick test_wc_counts_correct;
          Alcotest.test_case "OOM on small heap" `Quick test_wc_oom_on_small_heap;
          Alcotest.test_case "facade budget cap" `Quick test_facade_budget_cap;
          Alcotest.test_case "data objects" `Quick test_data_objects_only_in_object_mode;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_wc_modes_agree ] );
      ( "external_sort",
        [
          Alcotest.test_case "modes agree" `Quick test_es_modes_agree;
          Alcotest.test_case "sorts" `Quick test_es_actually_sorts;
          Alcotest.test_case "global minimum" `Quick test_es_smallest_element_global;
        ]
        @ [
            QCheck_alcotest.to_alcotest prop_es_sorted_and_agree;
            Alcotest.test_case "analytic path pinned" `Quick test_analytic_pinned;
          ] );
    ]
