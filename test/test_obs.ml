(* Observability-layer tests: golden traces over deterministic samples
   (exported Chrome JSON round-trips and event counts match Exec_stats /
   Gc_stats aggregates exactly), qcheck tracer invariants under random
   interleavings, and a determinism regression proving tracing never
   changes execution. *)

module P = Facade_compiler.Pipeline
module I = Facade_vm.Interp
module ES = Facade_vm.Exec_stats
module T = Obs.Tracer

let compile (s : Samples.sample) = P.compile ~spec:s.Samples.spec s.Samples.program

let mb = 1024 * 1024

let fresh_heap ?(bytes = mb) () = Heapsim.Heap.create (Heapsim.Hconfig.make ~heap_bytes:bytes ())

(* Run [f] with [tr] installed as the ambient tracer, uninstalling even
   on failure so one test can't poison the next. *)
let traced tr f =
  T.install tr;
  Fun.protect ~finally:T.uninstall f

(* ---------- Json round-trip ---------- *)

let test_json_roundtrip () =
  let module J = Obs.Json in
  let v =
    J.Obj
      [
        ("a", J.List [ J.Num 1.; J.Num (-2.5); J.Null; J.Bool true ]);
        ("s", J.Str "quote \" slash \\ newline \n tab \t unicode \x01");
        ("empty", J.Obj []);
        ("nested", J.Obj [ ("k", J.List []) ]);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.fail ("reparse failed: " ^ e));
  List.iter
    (fun bad ->
      match J.parse bad with
      | Ok _ -> Alcotest.fail ("accepted bad JSON: " ^ bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "12 34"; "\"unterminated"; "nul" ]

(* ---------- golden traces ---------- *)

let span_count tr ~cat =
  List.fold_left
    (fun acc (s : T.span_stat) -> if s.T.ss_cat = cat then acc + s.T.ss_count else acc)
    0 (T.span_stats tr)

let named_span_count tr name =
  List.fold_left
    (fun acc (s : T.span_stat) -> if s.T.ss_name = name then acc + s.T.ss_count else acc)
    0 (T.span_stats tr)

let check_golden (s : Samples.sample) () =
  let pl = compile s in
  (* Untraced reference run first. *)
  let ref_o = I.run_facade ~heap:(fresh_heap ()) pl in
  let tr = T.create ~ring_capacity:(1 lsl 20) () in
  let heap = fresh_heap () in
  let o = traced tr (fun () -> I.run_facade ~heap pl) in
  let st = o.I.stats in
  (* Tracing changed nothing observable. *)
  Alcotest.(check int) "steps unchanged" ref_o.I.stats.ES.steps st.ES.steps;
  Alcotest.(check (list string))
    "output unchanged"
    (ES.output_lines ref_o.I.stats)
    (ES.output_lines st);
  (* The ring was big enough: every event is retained. *)
  Alcotest.(check int) "nothing dropped" 0 (T.total_dropped tr);
  Alcotest.(check int) "no open spans" 0 (T.open_spans tr);
  Alcotest.(check int) "no unmatched ends" 0 (T.unmatched_ends tr);
  (* Exported Chrome JSON round-trips through our own parser and passes
     the schema validator with balanced begin/end pairs. *)
  let json = Obs.Export.chrome_json_string tr in
  (match Obs.Export.validate_chrome json with
  | Error e -> Alcotest.fail ("invalid chrome trace: " ^ e)
  | Ok c ->
      Alcotest.(check int) "B/E balance" c.Obs.Export.ck_begins c.Obs.Export.ck_ends;
      Alcotest.(check int) "no open B" 0 c.Obs.Export.ck_open;
      Alcotest.(check int)
        "every retained event exported" (T.total_emitted tr)
        (c.Obs.Export.ck_events - c.Obs.Export.ck_meta));
  (* Method spans cover exactly the dispatches Exec_stats counted: one
     per static + virtual call, one per thread run(), one for entry. *)
  let thread_spawns = T.instant_count tr ~cat:"vm" "thread_spawn" in
  Alcotest.(check int)
    "vm spans = dispatches + threads + entry"
    (st.ES.static_dispatches + st.ES.virtual_dispatches + thread_spawns + 1)
    (span_count tr ~cat:"vm");
  Alcotest.(check int) "ic_miss instants" st.ES.ic_misses
    (T.instant_count tr ~cat:"vm" "ic_miss");
  Alcotest.(check int)
    "iteration boundary instants"
    st.ES.mix.(ES.cat_iter)
    (T.instant_count tr ~cat:"vm" "iter_start" + T.instant_count tr ~cat:"vm" "iter_end");
  (* Page-store instants reconcile with Store.stats. *)
  (match o.I.store_stats with
  | None -> Alcotest.fail "facade run has store stats"
  | Some ss ->
      Alcotest.(check int)
        "fresh + oversize instants = pages_created"
        ss.Pagestore.Store.pages_created
        (T.instant_count tr ~cat:"store" "page_fresh"
        + T.instant_count tr ~cat:"store" "page_oversize");
      Alcotest.(check int)
        "recycled instants = pages_recycled" ss.Pagestore.Store.pages_recycled
        (T.instant_count tr ~cat:"store" "page_recycled"));
  (* GC spans and the pause histogram reconcile with Gc_stats. *)
  let gs = Heapsim.Heap.stats heap in
  Alcotest.(check int) "minor_gc spans" gs.Heapsim.Gc_stats.minor_gcs
    (named_span_count tr "minor_gc");
  Alcotest.(check int) "major_gc spans" gs.Heapsim.Gc_stats.major_gcs
    (named_span_count tr "major_gc");
  let hist_sum = match T.hist_stat tr "gc_pause" with Some h -> h.T.hs_sum | None -> 0. in
  Alcotest.(check bool)
    "gc_pause histogram sum = Gc_stats.gc_seconds (bit-exact)" true
    (hist_sum = gs.Heapsim.Gc_stats.gc_seconds)

(* Drive heapsim directly with a heap small enough to force scavenges and
   a major collection, then reconcile trace aggregates with Gc_stats. *)
let test_gc_pause_exact () =
  let tr = T.create () in
  let heap = fresh_heap ~bytes:(1 lsl 16) () in
  traced tr (fun () ->
      for _ = 1 to 40 do
        Heapsim.Heap.iteration_start heap;
        for _ = 1 to 120 do
          Heapsim.Heap.alloc heap ~lifetime:Heapsim.Heap.Iteration ~bytes:128
        done;
        Heapsim.Heap.iteration_end heap
      done;
      Heapsim.Heap.force_major_gc heap);
  let gs = Heapsim.Heap.stats heap in
  Alcotest.(check bool) "minors happened" true (gs.Heapsim.Gc_stats.minor_gcs > 0);
  Alcotest.(check bool) "majors happened" true (gs.Heapsim.Gc_stats.major_gcs > 0);
  Alcotest.(check int) "minor spans" gs.Heapsim.Gc_stats.minor_gcs
    (named_span_count tr "minor_gc");
  Alcotest.(check int) "major spans" gs.Heapsim.Gc_stats.major_gcs
    (named_span_count tr "major_gc");
  match T.hist_stat tr "gc_pause" with
  | None -> Alcotest.fail "gc_pause histogram missing"
  | Some h ->
      Alcotest.(check int) "one pause sample per collection"
        (gs.Heapsim.Gc_stats.minor_gcs + gs.Heapsim.Gc_stats.major_gcs)
        h.T.hs_count;
      Alcotest.(check bool) "pause sum bit-exact vs Gc_stats" true
        (h.T.hs_sum = gs.Heapsim.Gc_stats.gc_seconds)

(* The profile report renders (Metrics.Table accepts all our rows) and
   mentions what the trace contains. *)
let test_profile_report () =
  let tr = T.create () in
  let heap = fresh_heap ~bytes:(1 lsl 16) () in
  traced tr (fun () ->
      ignore (I.run_facade ~heap (compile Samples.pagerank)));
  let report = Obs.Export.profile_report ~top:5 tr in
  let contains needle =
    let nh = String.length report and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub report i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true (contains needle))
    [ "trace summary"; "top spans"; "page store events"; "VM events" ]

(* ---------- qcheck tracer invariants ---------- *)

type op = Ob of int * string | Oe of int | Oi of int * string

let op_gen =
  QCheck.Gen.(
    let lane = int_range 0 3 in
    let name = map (fun i -> Printf.sprintf "n%d" i) (int_range 0 2) in
    frequency
      [
        (3, map2 (fun l n -> Ob (l, n)) lane name);
        (3, map (fun l -> Oe l) lane);
        (2, map2 (fun l n -> Oi (l, n)) lane name);
      ])

let op_print = function
  | Ob (l, n) -> Printf.sprintf "B%d:%s" l n
  | Oe l -> Printf.sprintf "E%d" l
  | Oi (l, n) -> Printf.sprintf "I%d:%s" l n

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 200) op_gen)

(* A reference model of one lane: the full event sequence ever emitted
   plus stack depth and unmatched-end count. *)
type model_lane = {
  mutable m_events : (T.phase * string) list; (* newest first *)
  mutable m_stack : string list;
  mutable m_unmatched : int;
}

let tracer_invariants_hold cap ops =
  let tr = T.create ~ring_capacity:cap () in
  let model = Array.init 4 (fun _ -> { m_events = []; m_stack = []; m_unmatched = 0 }) in
  List.iter
    (fun op ->
      match op with
      | Ob (l, n) ->
          T.span_begin tr ~lane:l ~cat:"q" n;
          let m = model.(l) in
          m.m_events <- (T.Begin, n) :: m.m_events;
          m.m_stack <- n :: m.m_stack
      | Oe l -> (
          T.span_end tr ~lane:l ();
          let m = model.(l) in
          match m.m_stack with
          | top :: rest ->
              m.m_events <- (T.End, top) :: m.m_events;
              m.m_stack <- rest
          | [] ->
              m.m_events <- (T.End, "") :: m.m_events;
              m.m_unmatched <- m.m_unmatched + 1)
      | Oi (l, n) ->
          T.instant tr ~lane:l ~cat:"q" n;
          model.(l).m_events <- (T.Instant, n) :: model.(l).m_events)
    ops;
  let ok = ref true in
  let expect what a b = if a <> b then (ignore what; ok := false) in
  Array.iteri
    (fun l m ->
      let emitted = List.length m.m_events in
      expect "emitted" (T.lane_emitted tr l) emitted;
      expect "dropped" (T.lane_dropped tr l) (max 0 (emitted - cap));
      expect "depth" (T.lane_depth tr l) (List.length m.m_stack);
      (* Retained ring = newest min(emitted, cap) events, oldest first. *)
      let retained = min emitted cap in
      let expected =
        List.rev
          (List.filteri (fun i _ -> i < retained) m.m_events)
      in
      let actual =
        List.map (fun (e : T.event) -> (e.T.ph, e.T.name)) (T.lane_events tr l)
      in
      expect "ring contents" actual expected;
      (* Timestamps never go backwards within a lane. *)
      let rec monotone last = function
        | [] -> true
        | (e : T.event) :: tl -> e.T.ts >= last && monotone e.T.ts tl
      in
      if not (monotone 0. (T.lane_events tr l)) then ok := false)
    model;
  expect "unmatched total" (T.unmatched_ends tr)
    (Array.fold_left (fun acc m -> acc + m.m_unmatched) 0 model);
  expect "open total" (T.open_spans tr)
    (Array.fold_left (fun acc m -> acc + List.length m.m_stack) 0 model);
  !ok

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:300 ~name:"tracer invariants (big ring: no loss)"
        ops_arb
        (fun ops -> tracer_invariants_hold 1024 ops);
      QCheck.Test.make ~count:300 ~name:"tracer invariants (ring of 4: oldest dropped)"
        ops_arb
        (fun ops -> tracer_invariants_hold 4 ops);
    ]

(* ---------- determinism regression ---------- *)

let value_eq a b =
  match (a, b) with
  | Some x, Some y -> Facade_vm.Value.equal_ref x y
  | None, None -> true
  | Some _, None | None, Some _ -> false

let check_outcomes_match name ?(full_store = true) (a : I.outcome) (b : I.outcome) =
  Alcotest.(check bool) (name ^ ": same result") true (value_eq a.I.result b.I.result);
  Alcotest.(check int) (name ^ ": same steps") a.I.stats.ES.steps b.I.stats.ES.steps;
  Alcotest.(check (list string))
    (name ^ ": same output")
    (ES.output_lines a.I.stats) (ES.output_lines b.I.stats);
  match (a.I.store_stats, b.I.store_stats) with
  | Some sa, Some sb ->
      Alcotest.(check int)
        (name ^ ": same records")
        sa.Pagestore.Store.records_allocated sb.Pagestore.Store.records_allocated;
      if full_store then begin
        Alcotest.(check int)
          (name ^ ": same pages created")
          sa.Pagestore.Store.pages_created sb.Pagestore.Store.pages_created;
        Alcotest.(check int)
          (name ^ ": same pages recycled")
          sa.Pagestore.Store.pages_recycled sb.Pagestore.Store.pages_recycled
      end
  | None, None -> ()
  | _ -> Alcotest.fail (name ^ ": store stats presence differs")

let check_determinism (s : Samples.sample) () =
  let pl = compile s in
  (* Sequential: trace-off vs trace-on must agree on everything,
     including heapsim GC counts and full store stats. *)
  let heap_off = fresh_heap () in
  let off = I.run_facade ~heap:heap_off pl in
  let tr = T.create ~ring_capacity:(1 lsl 12) () in
  let heap_on = fresh_heap () in
  let on = traced tr (fun () -> I.run_facade ~heap:heap_on pl) in
  check_outcomes_match (s.Samples.name ^ " seq") off on;
  let g_off = Heapsim.Heap.stats heap_off and g_on = Heapsim.Heap.stats heap_on in
  Alcotest.(check int)
    (s.Samples.name ^ ": same minor gcs")
    g_off.Heapsim.Gc_stats.minor_gcs g_on.Heapsim.Gc_stats.minor_gcs;
  Alcotest.(check bool)
    (s.Samples.name ^ ": same gc seconds")
    true
    (g_off.Heapsim.Gc_stats.gc_seconds = g_on.Heapsim.Gc_stats.gc_seconds);
  (* Parallel: page counts may legitimately vary across domains, but the
     program-visible outcome and record totals must not. *)
  let off_p = Parallel.Pool.with_pool ~workers:4 (fun pool -> I.run_facade ~pool pl) in
  let tr_p = T.create ~ring_capacity:(1 lsl 12) () in
  let on_p =
    traced tr_p (fun () ->
        Parallel.Pool.with_pool ~workers:4 (fun pool -> I.run_facade ~pool pl))
  in
  check_outcomes_match (s.Samples.name ^ " par") ~full_store:false off_p on_p

let () =
  let golden =
    List.map
      (fun s ->
        Alcotest.test_case ("golden trace: " ^ s.Samples.name) `Quick (check_golden s))
      [ Samples.pagerank; Samples.collections ]
  in
  let determinism =
    List.map
      (fun (s : Samples.sample) ->
        Alcotest.test_case s.Samples.name `Quick (check_determinism s))
      Samples.all
  in
  Alcotest.run "obs"
    [
      ("json", [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip ]);
      ("golden", golden);
      ( "gc",
        [
          Alcotest.test_case "pause aggregates bit-exact" `Quick test_gc_pause_exact;
        ] );
      ("profile", [ Alcotest.test_case "report renders" `Quick test_profile_report ]);
      ("invariants", qcheck_tests);
      ("determinism", determinism);
    ]
