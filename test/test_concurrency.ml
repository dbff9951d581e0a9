(* The interprocedural concurrency analyses end to end:

   1. call graph — CHA edges, entry reachability, and the originals P'
      keeps for control code inside the graph;
   2. points-to — spawn sites, run-target resolution, summary objects;
   3. static race detection — zero findings on every shipped sample in
      both P and P' forms, the seeded [racy_counter] flagged in both,
      deterministic canonical ordering, and a qcheck property: programs
      whose shared accesses are monitor-protected by construction are
      never reported, their monitor-stripped twins always are;
   4. escape analysis — spawn operands escape, spawn-free programs have
      no escaping sites, iteration-frame allocations are iteration-local;
   5. the boundedness certificate — static cross-check against the
      compiler's pool bounds and runtime validation on every sample,
      sequential and on 4 domains, with bit-exact pool peaks;
   6. lock elision — outcome-preserving on every sample, and the elided
      program is outcome- and step-count-identical between the
      sequential engine and a 4-domain pool. *)

module A = Analysis
module P = Facade_compiler.Pipeline
module I = Facade_vm.Interp
module B = Jir.Builder
module Ir = Jir.Ir
module Jtype = Jir.Jtype

let int_t = Jtype.Prim Jtype.Int
let run_thread = Facade_compiler.Rt_names.run_thread
let ctor_name = Facade_compiler.Transform.constructor_name

let compile (s : Samples.sample) = P.compile ~spec:s.Samples.spec s.Samples.program

let value_eq a b =
  match (a, b) with
  | Some a, Some b -> Facade_vm.Value.equal_ref a b
  | None, None -> true
  | _ -> false

let finding_strings fs = List.map A.Finding.to_string fs

(* ---------- call graph ---------- *)

let test_callgraph_threads () =
  let p = Samples.threads.Samples.program in
  let cg = A.Callgraph.build p in
  Alcotest.(check string) "entry key" "Main.main" (A.Callgraph.entry_key cg);
  Alcotest.(check bool) "inc reachable from entry" true
    (A.Callgraph.is_reachable cg "SharedCounter.inc");
  (* [run] has no call edge to it: only [sys.run_thread] reaches it. *)
  Alcotest.(check bool) "run not call-reachable" false
    (A.Callgraph.is_reachable cg "SharedCounter.run");
  Alcotest.(check bool) "run calls inc" true
    (List.mem "SharedCounter.inc" (A.Callgraph.callees cg "SharedCounter.run"));
  Alcotest.(check (list string)) "CHA resolves the monomorphic virtual"
    [ "SharedCounter.inc" ]
    (A.Callgraph.call_targets cg Ir.Virtual "SharedCounter" "inc")

(* P′ is one analysis universe: the transform keeps on a data class's
   original only the methods control code can call on a converted heap
   instance, so those are graph nodes reachable from the entry, and the
   rest are gone from P′ altogether. *)
let test_callgraph_control_called_originals () =
  let pl = compile Samples.original_calls in
  let p' = pl.P.transformed in
  let cg = A.Callgraph.build p' in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " in the graph") true
        (Option.is_some (A.Callgraph.method_of_key cg k));
      Alcotest.(check bool) (k ^ " reachable") true (A.Callgraph.is_reachable cg k))
    [ "Shape.area"; "Circle.area"; "Circle.r2" ];
  Alcotest.(check bool) "Circle.r2 called from Circle.area" true
    (List.mem "Circle.r2" (A.Callgraph.callees cg "Circle.area"));
  (* [run] has no call edge: only [sys.run_thread] reaches it. *)
  Alcotest.(check bool) "spawned Worker.run in the graph" true
    (Option.is_some (A.Callgraph.method_of_key cg "Worker.run"));
  Alcotest.(check bool) "uncalled Circle.perimeter absent from P'" true
    (Jir.Program.find_method p' ~cls:"Circle" ~name:"perimeter" = None
    && Option.is_none (A.Callgraph.method_of_key cg "Circle.perimeter"));
  Alcotest.(check bool) "its facade twin reachable" true
    (A.Callgraph.is_reachable cg "Circle$Facade.perimeter")

(* ---------- points-to ---------- *)

let test_pointsto_threads () =
  let pt = A.Pointsto.build Samples.threads.Samples.program in
  let spawns = A.Pointsto.spawn_sites pt in
  Alcotest.(check int) "two spawn sites" 2 (List.length spawns);
  let mkey, _, _, v = List.hd spawns in
  let objs = A.Pointsto.pts pt ~mkey v in
  Alcotest.(check int) "spawn operand is one abstract object" 1
    (A.Pointsto.Iset.cardinal objs);
  let o = A.Pointsto.Iset.choose objs in
  Alcotest.(check (option string)) "it is the counter" (Some "SharedCounter")
    (A.Pointsto.class_of pt o);
  Alcotest.(check bool) "entry-method straight-line site is not summary" false
    (A.Pointsto.is_summary pt o);
  Alcotest.(check (list string)) "run target resolved" [ "SharedCounter.run" ]
    (A.Pointsto.run_targets pt ~mkey v)

let test_pointsto_summary_sites () =
  (* linked_list allocates its nodes in a loop: those sites must be
     summary objects (one abstract object, many runtime ones). *)
  let pt = A.Pointsto.build Samples.linked_list.Samples.program in
  let summary = ref false in
  for o = 0 to A.Pointsto.num_objs pt - 1 do
    if A.Pointsto.is_summary pt o then summary := true
  done;
  Alcotest.(check bool) "loop allocation is summary" true !summary

(* ---------- static race detection ---------- *)

let race_clean_case (s : Samples.sample) =
  Alcotest.test_case s.Samples.name `Quick (fun () ->
      Alcotest.(check (list string))
        (s.Samples.name ^ ": original clean") []
        (finding_strings (A.Races.check s.Samples.program));
      let pl = compile s in
      Alcotest.(check (list string))
        (s.Samples.name ^ ": transformed clean") []
        (finding_strings (A.Races.check pl.P.transformed)))

let check_racy_flagged name p =
  let fs = A.Races.check p in
  Alcotest.(check bool) (name ^ ": flagged") true (fs <> []);
  List.iter
    (fun (f : A.Finding.t) ->
      Alcotest.(check string) "analysis name" "race" f.A.Finding.analysis;
      Alcotest.(check string) "warning severity" "warning"
        (A.Finding.severity_label f.A.Finding.severity))
    fs;
  fs

let test_racy_counter_original () =
  let fs =
    check_racy_flagged "racy_counter/P" Samples.racy_counter.Samples.program
  in
  Alcotest.(check bool) "names the racy field" true
    (List.exists
       (fun (f : A.Finding.t) ->
         f.A.Finding.where = "SharedCounter.inc"
         &&
         let what = f.A.Finding.what in
         let has_sub s sub =
           let n = String.length sub in
           let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has_sub what "count")
       fs)

let test_racy_counter_transformed () =
  let pl = compile Samples.racy_counter in
  ignore (check_racy_flagged "racy_counter/P'" pl.P.transformed)

let test_race_determinism () =
  let p = Samples.racy_counter.Samples.program in
  let a = A.Races.check p and b = A.Races.check p in
  Alcotest.(check (list string)) "two runs identical" (finding_strings a)
    (finding_strings b);
  Alcotest.(check (list string)) "already in canonical order"
    (finding_strings (A.Finding.sort a))
    (finding_strings a)

let test_finding_sort () =
  let mk where block index analysis what =
    A.Finding.make ~analysis ~where ~block ~index what
  in
  let c = mk "B.m" 1 0 "race" "z" in
  let a = mk "A.m" 2 5 "race" "y" in
  let b = mk "B.m" 0 3 "monitors" "x" in
  Alcotest.(check (list string)) "sorted by (where, block, index, analysis)"
    (finding_strings [ a; b; c ])
    (finding_strings (A.Finding.sort [ c; a; b; a ]));
  Alcotest.(check int) "duplicates collapse" 3
    (List.length (A.Finding.sort [ c; a; b; a; c ]))

let test_severity_threshold () =
  let w = A.Finding.make ~analysis:"race" ~where:"X.m" ~severity:A.Finding.Warning "w" in
  let e = A.Finding.make ~analysis:"verify" ~where:"X.m" "e" in
  Alcotest.(check bool) "warning under Error threshold" false
    (A.Finding.at_least A.Finding.Error w);
  Alcotest.(check bool) "warning at Warning threshold" true
    (A.Finding.at_least A.Finding.Warning w);
  Alcotest.(check bool) "error at Warning threshold" true
    (A.Finding.at_least A.Finding.Warning e)

(* ---------- qcheck: spawn/monitor program generator ---------- *)

(* Random programs shaped like the [threads] workload: one shared record,
   [spawns] runnables incrementing [nfields] fields [limit] times each.
   With [protected], every shared access sits inside the record's
   monitor — such programs must never be reported; stripping the
   monitors (same program otherwise) must always be. *)
type racecfg = { spawns : int; limit : int; nfields : int }

let build_spawn_program ~protected { spawns; limit; nfields } =
  let fname i = Printf.sprintf "f%d" i in
  let inc =
    let m = B.create "inc" in
    let b = B.entry m in
    if protected then B.monitor_enter b "this";
    let one = B.fresh m int_t in
    B.const_i b one 1;
    for i = 0 to nfields - 1 do
      let c = B.fresh m int_t in
      let c2 = B.fresh m int_t in
      B.fload b ~dst:c ~obj:"this" ~field:(fname i);
      B.binop b c2 Ir.Add c one;
      B.fstore b ~obj:"this" ~field:(fname i) ~src:c2
    done;
    if protected then B.monitor_exit b "this";
    B.ret b None;
    B.finish m
  in
  let run =
    let m = B.create "run" in
    List.iter (fun v -> B.declare m v int_t) [ "i"; "one"; "limit"; "cond" ];
    let b0 = B.entry m in
    let b_cond = B.block m in
    let b_body = B.block m in
    let b_end = B.block m in
    B.const_i b0 "i" 0;
    B.const_i b0 "one" 1;
    B.const_i b0 "limit" limit;
    B.jump b0 b_cond;
    B.binop b_cond "cond" Ir.Lt "i" "limit";
    B.branch b_cond "cond" ~then_:b_body ~else_:b_end;
    B.call b_body ~recv:"this" ~kind:Ir.Virtual ~cls:"Ctr" ~name:"inc" [];
    B.binop b_body "i" Ir.Add "i" "one";
    B.jump b_body b_cond;
    B.ret b_end None;
    B.finish m
  in
  let init =
    let m = B.create ctor_name in
    B.ret (B.entry m) None;
    B.finish m
  in
  let ctr =
    B.cls "Ctr"
      ~fields:(List.init nfields (fun i -> B.field (fname i) int_t))
      ~methods:[ init; inc; run ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let c = B.fresh m (Jtype.Ref "Ctr") in
    let r = B.fresh m int_t in
    B.new_obj b c "Ctr";
    B.call b ~recv:c ~kind:Ir.Special ~cls:"Ctr" ~name:ctor_name [];
    B.iter_start b;
    for _ = 1 to spawns do
      B.add b (Ir.Intrinsic (None, run_thread, [ Ir.Var c ]))
    done;
    B.iter_end b;
    B.fload b ~dst:r ~obj:c ~field:(fname 0);
    B.ret b (Some r);
    B.finish m
  in
  Jir.Program.make ~entry:("Main", "main") [ ctr; B.cls "Main" ~methods:[ main ] ]

let arb_racecfg =
  let gen =
    QCheck.Gen.(
      map3
        (fun spawns limit nfields -> { spawns; limit; nfields })
        (int_range 2 4) (int_range 1 50) (int_range 1 3))
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "{spawns=%d; limit=%d; nfields=%d}" c.spawns c.limit c.nfields)
    gen

let prop_lockset_sound =
  QCheck.Test.make ~name:"monitor-protected by construction: never reported"
    ~count:40 arb_racecfg (fun cfg ->
      A.Races.check (build_spawn_program ~protected:true cfg) = []
      && A.Races.check (build_spawn_program ~protected:false cfg) <> [])

(* ---------- escape analysis ---------- *)

let test_escape_threads () =
  let pt = A.Pointsto.build Samples.threads.Samples.program in
  let esc = A.Escape.build pt in
  let mkey, _, _, v = List.hd (A.Pointsto.spawn_sites pt) in
  let o = A.Pointsto.Iset.choose (A.Pointsto.pts pt ~mkey v) in
  Alcotest.(check bool) "spawn operand escapes" true (A.Escape.escapes esc o);
  Alcotest.(check string) "kind label" "escaping"
    (A.Escape.kind_label (A.Escape.kind_of esc o))

let escape_counts p =
  A.Escape.counts (A.Escape.build (A.Pointsto.build p))

let test_escape_spawn_free () =
  (* No spawn, no statics: nothing can escape, so every monitor in
     [locking] is elidable. *)
  let _, _, escaping = escape_counts Samples.locking.Samples.program in
  Alcotest.(check int) "locking: no escaping site" 0 escaping

let test_escape_statics () =
  let _, _, escaping = escape_counts Samples.statics.Samples.program in
  Alcotest.(check bool) "statics: static-reachable sites escape" true (escaping > 0)

let test_escape_iteration_local () =
  let _, iter_local, _ = escape_counts Samples.iteration.Samples.program in
  Alcotest.(check bool) "iteration: frame allocations are iteration-local" true
    (iter_local > 0)

(* ---------- boundedness certificate ---------- *)

let certificate_case (s : Samples.sample) =
  Alcotest.test_case s.Samples.name `Quick (fun () ->
      let pl = compile s in
      let cert = A.Certify.of_pipeline pl in
      Alcotest.(check (list string))
        (s.Samples.name ^ ": static cross-check") []
        (A.Certify.static_errors pl cert);
      let check_run tag o =
        (match Facade_vm.Cert_check.validate pl o with
        | Ok () -> ()
        | Error es ->
            Alcotest.failf "%s/%s: %s" s.Samples.name tag (String.concat "; " es));
        Alcotest.(check int)
          (tag ^ ": facades are whole pool populations") 0
          (o.I.facades_allocated mod max 1 cert.A.Certify.per_thread)
      in
      let o_seq = I.run_facade pl in
      check_run "seq" o_seq;
      let o_par = Parallel.Pool.with_pool ~workers:4 (fun pool -> I.run_facade ~pool pl) in
      check_run "par4" o_par;
      Alcotest.(check (list (pair int int)))
        (s.Samples.name ^ ": pool peaks bit-exact, seq vs 4 domains")
        (Facade_vm.Cert_check.pool_peaks o_seq.I.stats)
        (Facade_vm.Cert_check.pool_peaks o_par.I.stats))

(* The O(t*n + p) certificate must keep validating when every logical
   thread runs on its own domain and accounting flows through the
   per-domain shards: run the two 8-worker samples with a full 8-domain
   pool and check the certificate plus bit-exact pool peaks against the
   sequential run. *)
let test_certificate_8_domains () =
  List.iter
    (fun ((s : Samples.sample), pinned_locks) ->
      let pl = compile s in
      let cert = A.Certify.of_pipeline pl in
      Alcotest.(check (list string))
        (s.Samples.name ^ ": static cross-check") []
        (A.Certify.static_errors pl cert);
      let o_seq = I.run_facade pl in
      let o8 = Parallel.Pool.with_pool ~workers:8 (fun pool -> I.run_facade ~pool pl) in
      (match Facade_vm.Cert_check.validate pl o8 with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "%s at 8 domains: %s" s.Samples.name
            (String.concat "; " es));
      Alcotest.(check (list (pair int int)))
        (s.Samples.name ^ ": pool peaks bit-exact, seq vs 8 domains")
        (Facade_vm.Cert_check.pool_peaks o_seq.I.stats)
        (Facade_vm.Cert_check.pool_peaks o8.I.stats);
      Alcotest.(check int)
        (s.Samples.name ^ ": locks_peak bit-exact, seq vs 8 domains")
        o_seq.I.locks_peak o8.I.locks_peak;
      match pinned_locks with
      | Some n ->
          Alcotest.(check int)
            (s.Samples.name ^ ": locks_peak pinned") n o8.I.locks_peak
      | None -> ())
    [ (Samples.pagerank_par_large, None); (Samples.locking_large, Some 2) ]

let test_certificate_json () =
  let pl = compile Samples.threads in
  let cert = A.Certify.of_pipeline pl in
  let js = A.Certify.to_json pl.P.layout cert in
  Alcotest.(check bool) "json mentions per_thread" true
    (String.length js > 0 && js.[0] = '{');
  Alcotest.(check bool) "per-thread covers receivers" true
    (cert.A.Certify.per_thread >= cert.A.Certify.receivers)

(* ---------- lock elision differential ---------- *)

let elision_case (s : Samples.sample) =
  Alcotest.test_case s.Samples.name `Quick (fun () ->
      let pl = compile s in
      let with_elide, _ = Opt.Driver.optimize_pipeline pl in
      let without, _ =
        Opt.Driver.optimize_pipeline
          ~config:{ Opt.Config.default with Opt.Config.lock_elide = false }
          pl
      in
      let o_e = I.run_facade with_elide in
      let o_n = I.run_facade without in
      Alcotest.(check bool) "same result" true (value_eq o_n.I.result o_e.I.result);
      Alcotest.(check (list string)) "same output"
        (Facade_vm.Exec_stats.output_lines o_n.I.stats)
        (Facade_vm.Exec_stats.output_lines o_e.I.stats);
      Alcotest.(check int) "same page records"
        o_n.I.stats.Facade_vm.Exec_stats.page_records
        o_e.I.stats.Facade_vm.Exec_stats.page_records;
      Alcotest.(check bool) "locks peak not above unelided" true
        (o_e.I.locks_peak <= o_n.I.locks_peak);
      (* The elided program stays deterministic under real parallelism:
         outcome AND step count identical to the sequential engine. *)
      let o_p =
        Parallel.Pool.with_pool ~workers:4 (fun pool -> I.run_facade ~pool with_elide)
      in
      Alcotest.(check bool) "par: same result" true
        (value_eq o_e.I.result o_p.I.result);
      Alcotest.(check (list string)) "par: same output"
        (Facade_vm.Exec_stats.output_lines o_e.I.stats)
        (Facade_vm.Exec_stats.output_lines o_p.I.stats);
      Alcotest.(check int) "par: same steps" o_e.I.stats.Facade_vm.Exec_stats.steps
        o_p.I.stats.Facade_vm.Exec_stats.steps;
      Alcotest.(check int) "par: same facades" o_e.I.facades_allocated
        o_p.I.facades_allocated)

let test_elision_spawn_free_strips_all () =
  let pl = compile Samples.locking in
  let elided, _ = Opt.Driver.optimize_pipeline pl in
  let o = I.run_facade elided in
  Alcotest.(check int) "locking: lock pool never touched" 0 o.I.locks_peak;
  let o_ref = I.run_facade pl in
  Alcotest.(check bool) "locking: result preserved" true
    (value_eq o_ref.I.result o.I.result)

let test_elision_keeps_escaping_monitor () =
  (* The threads counter is handed to spawned runnables: its monitor must
     survive elision, and the lock pool is still exercised. *)
  let pl = compile Samples.threads in
  let elided, _ = Opt.Driver.optimize_pipeline pl in
  let o = I.run_facade elided in
  Alcotest.(check int) "threads: shared lock survives" 1 o.I.locks_peak

let () =
  Alcotest.run "concurrency"
    [
      ( "callgraph",
        [
          Alcotest.test_case "threads edges" `Quick test_callgraph_threads;
          Alcotest.test_case "control-called originals in graph" `Quick
            test_callgraph_control_called_originals;
        ] );
      ( "pointsto",
        [
          Alcotest.test_case "spawn sites and run targets" `Quick
            test_pointsto_threads;
          Alcotest.test_case "loop sites are summary" `Quick
            test_pointsto_summary_sites;
        ] );
      ("race-clean", List.map race_clean_case Samples.all);
      ( "race-detector",
        [
          Alcotest.test_case "racy_counter P flagged" `Quick
            test_racy_counter_original;
          Alcotest.test_case "racy_counter P' flagged" `Quick
            test_racy_counter_transformed;
          Alcotest.test_case "deterministic order" `Quick test_race_determinism;
          Alcotest.test_case "finding sort" `Quick test_finding_sort;
          Alcotest.test_case "severity thresholds" `Quick test_severity_threshold;
          QCheck_alcotest.to_alcotest prop_lockset_sound;
        ] );
      ( "escape",
        [
          Alcotest.test_case "spawn operand escapes" `Quick test_escape_threads;
          Alcotest.test_case "spawn-free has no escapees" `Quick
            test_escape_spawn_free;
          Alcotest.test_case "statics escape" `Quick test_escape_statics;
          Alcotest.test_case "iteration-local sites" `Quick
            test_escape_iteration_local;
        ] );
      ("certificate", Alcotest.test_case "json shape" `Quick test_certificate_json
                      :: Alcotest.test_case "8-domain pool, sharded accounting"
                           `Quick test_certificate_8_domains
                      :: List.map certificate_case Samples.all);
      ( "lock-elision",
        Alcotest.test_case "spawn-free strips all" `Quick
          test_elision_spawn_free_strips_all
        :: Alcotest.test_case "escaping monitor kept" `Quick
             test_elision_keeps_escaping_monitor
        :: List.map elision_case Samples.all );
    ]
