(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (E1-E9 + ablations, via the Experiments library) and runs the
   E10 Bechamel micro-benchmarks comparing paged records against boxed
   OCaml values.

   Usage:  main.exe [table2|fig4a|table3|fig4bc|gps|objects|speed|headers|
                     ablation|micro|vm|scalability|all] [--quick]          *)

open Bechamel
open Toolkit

(* ---------- E10: micro-benchmarks on the real page store ---------- *)

type boxed = {
  mutable fx : float;
  mutable fn : int;
}

let micro_tests () =
  let store = Pagestore.Store.create () in
  Pagestore.Store.register_thread store 0;
  let rec_addr = Pagestore.Store.alloc_record store ~thread:0 ~type_id:1 ~data_bytes:16 in
  Pagestore.Store.set_f64 store rec_addr ~offset:4 3.14;
  let boxed = { fx = 3.14; fn = 0 } in
  let pools = Pagestore.Facade_pool.create ~bounds:[| 2; 2 |] in
  let locks = Pagestore.Lock_pool.create () in
  let alloc_count = ref 0 in
  Pagestore.Store.iteration_start store ~thread:0;
  let t_boxed_read =
    Test.make ~name:"boxed-field-read" (Staged.stage (fun () -> boxed.fx))
  in
  let t_page_read =
    Test.make ~name:"page-field-read-f64"
      (Staged.stage (fun () -> Pagestore.Store.get_f64 store rec_addr ~offset:4))
  in
  let t_boxed_write =
    Test.make ~name:"boxed-field-write"
      (Staged.stage (fun () -> boxed.fn <- boxed.fn + 1))
  in
  let t_page_write =
    Test.make ~name:"page-field-write-i64"
      (Staged.stage (fun () -> Pagestore.Store.set_i64 store rec_addr ~offset:8 42))
  in
  let t_alloc =
    Test.make ~name:"page-record-alloc"
      (Staged.stage (fun () ->
           incr alloc_count;
           if !alloc_count land 0xFFFF = 0 then begin
             (* Recycle periodically, as an iteration boundary would. *)
             Pagestore.Store.iteration_end store ~thread:0;
             Pagestore.Store.iteration_start store ~thread:0
           end;
           ignore (Pagestore.Store.alloc_record store ~thread:0 ~type_id:1 ~data_bytes:16)))
  in
  let t_boxed_alloc =
    Test.make ~name:"boxed-record-alloc"
      (Staged.stage (fun () -> ignore (Sys.opaque_identity { fx = 1.0; fn = 2 })))
  in
  let f = Pagestore.Facade_pool.param pools ~type_id:1 ~index:0 in
  let t_facade =
    Test.make ~name:"facade-bind+read"
      (Staged.stage (fun () ->
           Pagestore.Facade_pool.bind f rec_addr;
           ignore (Pagestore.Facade_pool.read f)))
  in
  let t_lock =
    Test.make ~name:"lock-pool-enter+exit"
      (Staged.stage (fun () ->
           Pagestore.Lock_pool.monitor_enter locks store rec_addr ~thread:0;
           Pagestore.Lock_pool.monitor_exit locks store rec_addr ~thread:0))
  in
  [
    t_boxed_read; t_page_read; t_boxed_write; t_page_write; t_boxed_alloc; t_alloc;
    t_facade; t_lock;
  ]

let run_micro () =
  print_endline "== E10: page store vs boxed values (wall-clock, Bechamel) ==";
  let tests = Test.make_grouped ~name:"micro" ~fmt:"%s/%s" (micro_tests ()) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Metrics.Table.create ~headers:[ "Benchmark"; "ns/op" ] in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
      in
      Metrics.Table.add_row table [ name; Metrics.Table.cell_float ~decimals:2 est ])
    (List.sort (fun (a, _) (b, _) -> compare a b) rows);
  Metrics.Table.print table

(* ---------- VM: resolved interpreter vs the name-based baseline ---------- *)

module VP = Facade_compiler.Pipeline

(* Time whole executions, interleaved: the candidates take turns in small
   rounds and each is credited its minimum round time. The first run of
   each (outside timing) pays for linking and cache fills.
   Interleaving matters on shared machines — background load varies
   slowly, so back-to-back legs would see different CPU weather — and the
   minimum estimator discards scheduler and GC spikes the way bechamel's
   estimator does for the micro benches; step counts are deterministic,
   so only the wall clock needs the robust treatment. Returns total
   rounds and, per candidate, steps per run and best wall seconds per
   run. *)
let vm_time_interleaved ~min_time ~min_runs (cands : (unit -> Facade_vm.Interp.outcome) array) =
  let n = Array.length cands in
  let steps_per_run =
    Array.map
      (fun run ->
        (run () : Facade_vm.Interp.outcome).Facade_vm.Interp.stats.Facade_vm.Exec_stats.steps)
      cands
  in
  let rpr = max 1 (min_runs / 5) in
  let best = Array.make n infinity in
  let total = ref 0. and rounds = ref 0 in
  while !rounds * rpr < min_runs * 5 || !total < min_time *. float_of_int n do
    Array.iteri
      (fun k run ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to rpr do
          ignore (run () : Facade_vm.Interp.outcome)
        done;
        let dt = Unix.gettimeofday () -. t0 in
        best.(k) <- Float.min best.(k) (dt /. float_of_int rpr);
        total := !total +. dt)
      cands;
    incr rounds
  done;
  (!rounds * rpr, steps_per_run, best)

let run_vm ~quick =
  print_endline
    "== VM: name-based baseline vs resolved vs resolved+opt (steps/s) ==";
  let min_time = if quick then 0.25 else 1.5 in
  let min_runs = if quick then 3 else 10 in
  let pagerank =
    if quick then Samples.pagerank_sized ~n:48 ~iters:12
    else Samples.pagerank_sized ~n:96 ~iters:40
  in
  let workloads =
    [ pagerank; Samples.linked_list; Samples.iteration; Samples.collections ]
  in
  let results = ref [] in
  (* The optimized run executes fewer steps for the same work (folding,
     inlining), so raw steps/sec would under-credit it. Both columns are
     work-normalized: the un-optimized program's steps-per-run is the
     work unit, divided by each side's wall time per run. The opt-off
     column equals plain steps/sec; the opt-on column is effective
     steps/sec, and their ratio is the wall-clock speedup per run. The
     tier-2 leg runs the same optimized program with the closure
     compiler enabled, so its column uses the same work unit; both modes
     share a warm tier across runs (compilation is load-time, like
     pre-linking) — facade-mode compiled code takes the run's page pool
     as a parameter at segment entry, so the tier no longer binds any
     particular store and sharing is sound there too. *)
  let bench_quad ~name ~mode ~baseline ~unopt ~opt ~tier2 =
    let runs, steps, wall =
      vm_time_interleaved ~min_time ~min_runs [| baseline; unopt; opt; tier2 |]
    in
    let base_sps = float_of_int steps.(0) /. wall.(0) in
    let unopt_sps = float_of_int steps.(1) /. wall.(1) in
    (* Work-normalized: the optimized program executes fewer steps for
       the same work, so it is credited the un-optimized step count. *)
    let opt_sps = float_of_int steps.(1) /. wall.(2) in
    let tier2_sps = float_of_int steps.(1) /. wall.(3) in
    results := (name, mode, base_sps, unopt_sps, opt_sps, tier2_sps, runs) :: !results
  in
  let feedback (r : Opt.Driver.report) =
    {
      Facade_vm.Compile_tier.fb_mono = r.Opt.Driver.tier_mono;
      fb_leaves = r.Opt.Driver.tier_leaves;
    }
  in
  (* Facade-vs-object tier-2 ratio for the gate below, measured as its
     own two-candidate interleaved session. The quads time the two modes
     in separate sessions tens of seconds apart, which lets slow
     background-load drift leak into their ratio; pairing the tier-2
     legs round-for-round subjects both to the same CPU weather, so the
     gate compares like with like. *)
  let gate_ratio = ref None in
  List.iter
    (fun (s : Samples.sample) ->
      let pl = VP.compile ~spec:s.Samples.spec s.Samples.program in
      let is_data c = Facade_compiler.Classify.is_data_class pl.VP.classification c in
      let opt_p, orep = Opt.Driver.optimize_program s.Samples.program in
      let fb = feedback orep in
      (* Pre-link outside the timed loop: linking is a load-time cost,
         and the un-optimized leg gets the same treatment so the columns
         compare pure interpretation. *)
      let rp_unopt = Facade_vm.Link.object_program ~is_data s.Samples.program in
      let rp_opt = Facade_vm.Link.object_program ~is_data opt_p in
      (* The tier is shared across runs of the pre-linked program, the
         same way the inline-cache words in [rp_opt] stay warm from run
         to run: compilation is a load-time cost for a warm
         service, so it happens outside the timed rounds. *)
      let tier = Facade_vm.Interp.make_tier ~feedback:fb rp_opt in
      bench_quad ~name:s.Samples.name ~mode:"object"
        ~baseline:(fun () ->
          Facade_vm.Interp_baseline.run_object ~is_data s.Samples.program)
        ~unopt:(fun () -> Facade_vm.Interp.run_object_linked rp_unopt)
        ~opt:(fun () -> Facade_vm.Interp.run_object_linked rp_opt)
        ~tier2:(fun () -> Facade_vm.Interp.run_object_linked ~tier rp_opt);
      if s.Samples.name = "pagerank" then begin
        let opt_pl, prep = Opt.Driver.optimize_pipeline pl in
        let pfb = feedback prep in
        (* The facade tier is warm across runs exactly like the object
           one: [make_tier] over the pipeline's cached link (the same
           resolved program [run_facade] executes), attached via
           [?tier]. Compiled facade segments
           resolve the page pool from the running [st] at segment entry,
           so none of this code is tied to any single run's store. *)
        let rp_facade = Facade_vm.Link.facade_program opt_pl in
        let ftier = Facade_vm.Interp.make_tier ~feedback:pfb rp_facade in
        bench_quad ~name:s.Samples.name ~mode:"facade"
          ~baseline:(fun () -> Facade_vm.Interp_baseline.run_facade pl)
          ~unopt:(fun () -> Facade_vm.Interp.run_facade pl)
          ~opt:(fun () -> Facade_vm.Interp.run_facade opt_pl)
          ~tier2:(fun () -> Facade_vm.Interp.run_facade ~tier:ftier opt_pl);
        (* Both tiers are warm from the quads; each side keeps its own
           work unit (its un-optimized program's step count), matching
           the work-normalized tier-2 columns. *)
        let so =
          (Facade_vm.Interp.run_object_linked rp_unopt).Facade_vm.Interp.stats
            .Facade_vm.Exec_stats.steps
        and sf =
          (Facade_vm.Interp.run_facade pl).Facade_vm.Interp.stats
            .Facade_vm.Exec_stats.steps
        in
        let _, _, pw =
          vm_time_interleaved ~min_time ~min_runs
            [|
              (fun () -> Facade_vm.Interp.run_object_linked ~tier rp_opt);
              (fun () -> Facade_vm.Interp.run_facade ~tier:ftier opt_pl);
            |]
        in
        gate_ratio :=
          Some (float_of_int sf /. pw.(1) /. (float_of_int so /. pw.(0)))
      end)
    workloads;
  let rows = List.rev !results in
  let table =
    Metrics.Table.create
      ~headers:
        [
          "Program"; "Mode"; "baseline steps/s"; "opt-off steps/s";
          "opt-on steps/s"; "tier2 steps/s"; "opt speedup"; "tier2 speedup";
        ]
  in
  List.iter
    (fun (name, mode, b, u, o, t2, _) ->
      Metrics.Table.add_row table
        [
          name; mode;
          Metrics.Table.cell_float ~decimals:0 b;
          Metrics.Table.cell_float ~decimals:0 u;
          Metrics.Table.cell_float ~decimals:0 o;
          Metrics.Table.cell_float ~decimals:0 t2;
          Metrics.Table.cell_float ~decimals:2 (o /. u);
          Metrics.Table.cell_float ~decimals:2 (t2 /. o);
        ])
    rows;
  Metrics.Table.print table;
  let oc = open_out "BENCH_vm.json" in
  output_string oc "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, mode, b, u, o, t2, runs) ->
      Printf.fprintf oc
        "    {\"program\": %S, \"mode\": %S, \"runs\": %d, \
         \"baseline_steps_per_sec\": %.0f, \"opt_off_steps_per_sec\": %.0f, \
         \"opt_on_steps_per_sec\": %.0f, \"tier2_steps_per_sec\": %.0f, \
         \"resolved_speedup\": %.3f, \"opt_speedup\": %.3f, \
         \"tier2_speedup\": %.3f}%s\n"
        name mode runs b u o t2 (u /. b) (o /. u) (t2 /. o)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  (* The paired-session ratio is published alongside the rows so the CI
     re-check gates on the same weather-controlled measurement the
     harness gate (below) uses, not on a ratio of two separately-timed
     sessions. *)
  (match !gate_ratio with
  | Some r ->
      output_string oc "  ],\n";
      Printf.fprintf oc "  \"facade_object_tier2_ratio\": %.3f\n}\n" r
  | None -> output_string oc "  ]\n}\n");
  close_out oc;
  print_endline "wrote BENCH_vm.json";
  (* Regression gate: the closure tier must never lose to the
     interpreter it sits above. The timing already takes the best round
     per leg, so a failure here is a real regression, not noise. *)
  let losers =
    List.filter (fun (_, _, _, _, o, t2, _) -> t2 < o) rows
  in
  if losers <> [] then begin
    List.iter
      (fun (name, mode, _, _, o, t2, _) ->
        Printf.eprintf "tier2 regression: %s (%s) %.2fx vs tier-1\n" name mode
          (t2 /. o))
      losers;
    exit 1
  end;
  (* Facade-vs-object gate: with the tier warm in both modes, facade-mode
     tier-2 pagerank must hold at least 0.75x of object-mode tier-2
     steps/sec, measured by the dedicated paired session above so both
     legs saw the same machine conditions. The remaining gap is the
     page-access cost itself (bounds check + page-table resolution per
     field), not compilation — a fall below 0.75x means compiled facade
     segments regressed. *)
  match !gate_ratio with
  | Some r when r < 0.75 ->
      Printf.eprintf
        "facade gate: pagerank facade tier-2 is %.2fx of object tier-2 (< 0.75x)\n"
        r;
      exit 1
  | Some r ->
      Printf.printf
        "facade tier-2 pagerank: %.2fx of object tier-2 (>= 0.75x: OK)\n" r
  | None -> ()

(* ---------- scalability: domain-parallel engines and VM ---------- *)

(* Sweep 1/2/4/8 real OCaml domains over the engines' measured-parallelism
   paths (facade-mode pagerank on GraphChi PSW, word count on Hyracks, in
   both object and facade modes) and over the parallel facade-mode VM, and
   write the speedup curves to BENCH_scalability.json.

   The engine curves measure I/O overlap: each worker's share of the
   phase's simulated disk I/O is realized as a real blocking wait on its
   domain (see DESIGN.md §8), so the curves are genuine wall-clock even on
   a single-core host. The VM curve is CPU-bound and only scales with
   physical cores. *)

module PSW = Graphchi.Psw_engine
module Hyr = Hyracks.Engine

type scal_run = {
  sr_workload : string;
  sr_engine : string;
  sr_mode : string;
  sr_workers : int;
  sr_wall : float;
  sr_speedup : float;
  sr_sim_et : float;
  sr_completed : bool;
  sr_per_thread : (int * int * int) list;
}

(* Threads that never allocated (facade runs register every logical
   thread id up front, most of which only touch facades) are dropped:
   they carried ~80% of the array as zero-filled padding and say nothing
   the reader can't infer from their absence. *)
let json_per_thread oc per_thread =
  let per_thread = List.filter (fun (_, r, b) -> r <> 0 || b <> 0) per_thread in
  output_string oc "[";
  List.iteri
    (fun i (t, r, b) ->
      Printf.fprintf oc "%s{\"thread\": %d, \"records\": %d, \"bytes\": %d}"
        (if i = 0 then "" else ", ")
        t r b)
    per_thread;
  output_string oc "]"

let run_scalability ~quick =
  print_endline "== scalability: 1/2/4/8 OCaml domains, measured wall-clock ==";
  let sweep = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let engine_runs = ref [] in
  let sweep_engine ~workload ~engine ~mode run1 =
    let base = ref 0.0 in
    List.iter
      (fun w ->
        let wall, sim_et, completed, per_thread = run1 w in
        if w = 1 then base := wall;
        engine_runs :=
          {
            sr_workload = workload;
            sr_engine = engine;
            sr_mode = mode;
            sr_workers = w;
            sr_wall = wall;
            sr_speedup = (if wall > 0.0 then !base /. wall else 0.0);
            sr_sim_et = sim_et;
            sr_completed = completed;
            sr_per_thread = per_thread;
          }
          :: !engine_runs)
      sweep
  in
  (* GraphChi PSW pagerank: out-of-core graph processing, 8 sub-iteration
     intervals each split into contiguous per-domain chunks. *)
  let g = Workloads.Graph_gen.generate ~seed:7 ~vertices:20_000 ~edges:100_000 in
  let csr = Graphchi.Sharder.build g in
  let prog = Graphchi.Vertex_program.pagerank in
  let psw_mode name mode =
    sweep_engine ~workload:"pagerank" ~engine:"graphchi-psw" ~mode:name (fun w ->
        let cfg =
          {
            (PSW.default_config mode) with
            PSW.iterations = (if quick then 1 else 3);
            facade_intervals = 8;
            workers = Some w;
            io_scale = 0.1;
          }
        in
        let r = PSW.run cfg csr prog in
        ( r.PSW.metrics.PSW.wall_seconds,
          r.PSW.metrics.PSW.et,
          r.PSW.metrics.PSW.completed,
          r.PSW.metrics.PSW.per_thread_records ))
  in
  psw_mode "object" PSW.Object_mode;
  psw_mode "facade" PSW.Facade_mode;
  (* Hyracks word count: tokens hash-partitioned across domains, the scan's
     disk reads realized as blocking waits. *)
  let corpus =
    Workloads.Text_gen.generate ~seed:11
      ~bytes_target:(if quick then 200_000 else 800_000)
      ()
  in
  let wc_mode name mode =
    sweep_engine ~workload:"word-count" ~engine:"hyracks" ~mode:name (fun w ->
        let cfg =
          { (Hyr.default_config mode) with Hyr.workers = Some w; io_scale = 5.0e-3 }
        in
        let r = Hyracks.App_word_count.run cfg corpus in
        ( r.Hyr.metrics.Hyr.wall_seconds,
          r.Hyr.metrics.Hyr.et,
          r.Hyr.metrics.Hyr.completed,
          r.Hyr.metrics.Hyr.per_thread_records ))
  in
  wc_mode "object" Hyr.Object_mode;
  wc_mode "facade" Hyr.Facade_mode;
  let engine_runs = List.rev !engine_runs in
  (* Parallel facade-mode VM: spawned logical threads run on pool domains,
     each accumulating into its private heap/pagestore/stats shards. The
     swept workloads carry [sys.io_read] quanta realized as real blocking
     waits ([io_scale]), so their supersteps overlap across domains and the
     curves are genuine wall-clock even on a single-core host. The pipeline
     is compiled once per sample (link and layout are load-time costs) and
     each point is the best of [reps] runs — the minimum discards scheduler
     spikes, which matters for the 0.9x regression gate below. *)
  let vm_runs = ref [] in
  let vm_sweep ?(io_scale = 0.0) ?(reps = 2) (s : Samples.sample) =
    let pl = VP.compile ~spec:s.Samples.spec s.Samples.program in
    let base = ref 0.0 in
    List.iter
      (fun w ->
        let best_wall = ref infinity and last = ref None in
        for _ = 1 to reps do
          let t0 = Unix.gettimeofday () in
          let o =
            Parallel.Pool.with_pool ~workers:w (fun pool ->
                Facade_vm.Interp.run_facade ~pool ~io_scale pl)
          in
          let wall = Unix.gettimeofday () -. t0 in
          if wall < !best_wall then best_wall := wall;
          last := Some o
        done;
        let o = Option.get !last in
        let wall = !best_wall in
        if w = 1 then base := wall;
        let records, live =
          match o.Facade_vm.Interp.store_stats with
          | Some st -> (st.Pagestore.Store.records_allocated, st.Pagestore.Store.live_pages)
          | None -> (0, 0)
        in
        vm_runs :=
          ( s.Samples.name,
            w,
            io_scale,
            wall,
            (if wall > 0.0 then !base /. wall else 0.0),
            o.Facade_vm.Interp.locks_peak,
            records,
            live )
          :: !vm_runs)
      sweep
  in
  vm_sweep ~io_scale:1.0 Samples.pagerank_par_large;
  vm_sweep ~io_scale:1.0 Samples.locking_large;
  let vm_runs = List.rev !vm_runs in
  let table =
    Metrics.Table.create
      ~headers:[ "Workload"; "Mode"; "Domains"; "Wall (s)"; "Speedup"; "Sim ET (s)" ]
  in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [
          r.sr_workload; r.sr_mode;
          string_of_int r.sr_workers;
          Metrics.Table.cell_float ~decimals:3 r.sr_wall;
          Metrics.Table.cell_float ~decimals:2 r.sr_speedup;
          Metrics.Table.cell_float ~decimals:1 r.sr_sim_et;
        ])
    engine_runs;
  List.iter
    (fun (name, w, _, wall, sp, _, _, _) ->
      Metrics.Table.add_row table
        [
          "vm:" ^ name; "facade";
          string_of_int w;
          Metrics.Table.cell_float ~decimals:3 wall;
          Metrics.Table.cell_float ~decimals:2 sp;
          "-";
        ])
    vm_runs;
  Metrics.Table.print table;
  let oc = open_out "BENCH_scalability.json" in
  Printf.fprintf oc "{\n  \"host_cores\": %d,\n  \"quick\": %b,\n  \"workers_swept\": [%s],\n"
    (Domain.recommended_domain_count ())
    quick
    (String.concat ", " (List.map string_of_int sweep));
  output_string oc "  \"engine_runs\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"engine\": %S, \"mode\": %S, \"workers\": %d, \
         \"wall_seconds\": %.4f, \"speedup_vs_1\": %.3f, \"sim_et\": %.2f, \
         \"completed\": %b, \"per_thread_records\": "
        r.sr_workload r.sr_engine r.sr_mode r.sr_workers r.sr_wall r.sr_speedup
        r.sr_sim_et r.sr_completed;
      json_per_thread oc r.sr_per_thread;
      Printf.fprintf oc "}%s\n" (if i = List.length engine_runs - 1 then "" else ",")
    )
    engine_runs;
  output_string oc "  ],\n  \"vm_runs\": [\n";
  List.iteri
    (fun i (name, w, io_scale, wall, sp, locks_peak, records, live) ->
      Printf.fprintf oc
        "    {\"sample\": %S, \"mode\": \"facade\", \"workers\": %d, \
         \"io_scale\": %.3f, \"wall_seconds\": %.4f, \"speedup_vs_1\": %.3f, \
         \"locks_peak\": %d, \"records_allocated\": %d, \"live_pages\": %d}%s\n"
        name w io_scale wall sp locks_peak records live
        (if i = List.length vm_runs - 1 then "" else ","))
    vm_runs;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline "wrote BENCH_scalability.json";
  (* The headline claims: facade-mode pagerank at 4 domains on the PSW
     engine, and VM-level facade pagerank at 8 domains under sharded
     accounting. *)
  List.iter
    (fun r ->
      if r.sr_workload = "pagerank" && r.sr_mode = "facade" && r.sr_workers = 4 then
        Printf.printf "facade pagerank speedup at 4 domains: %.2fx %s\n" r.sr_speedup
          (if r.sr_speedup >= 2.0 then "(>= 2.0x: OK)" else "(< 2.0x!)"))
    engine_runs;
  List.iter
    (fun (name, w, _, _, sp, _, _, _) ->
      if name = "pagerank-par-large" && w = 8 then
        Printf.printf "vm facade pagerank-par-large speedup at 8 domains: %.2fx %s\n"
          sp
          (if sp >= 4.0 then "(>= 4.0x: OK)" else "(< 4.0x!)"))
    vm_runs;
  (* Scalability regression gate: at 4 workers no VM workload may fall
     below 0.9x of its own 1-worker wall clock. A sub-0.9 point means the
     sharded accounting regressed into contention; fail the bench so CI
     catches it. *)
  if List.mem 4 sweep then begin
    let bad =
      List.filter (fun (_, w, _, _, sp, _, _, _) -> w = 4 && sp < 0.9) vm_runs
    in
    if bad <> [] then begin
      List.iter
        (fun (name, _, _, _, sp, _, _, _) ->
          Printf.eprintf
            "scalability gate: vm %s at 4 workers is %.2fx < 0.9x of 1 worker\n"
            name sp)
        bad;
      exit 1
    end
  end

(* ---------- entry point ---------- *)

(* Pull "--trace FILE" out of the argument list, if present. *)
let split_trace args =
  let rec go acc = function
    | "--trace" :: path :: rest -> (Some path, List.rev_append acc rest)
    | "--trace" :: [] ->
        prerr_endline "--trace needs a FILE argument";
        exit 2
    | a :: rest -> go (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] args

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let trace, named =
    split_trace
      (List.filter (fun a -> a <> "--quick" && a <> Sys.argv.(0)) (List.tl args))
  in
  let tracer =
    match trace with
    | Some _ ->
        let tr = Obs.Tracer.create () in
        Obs.Tracer.install tr;
        Some tr
    | None -> None
  in
  let dispatch () =
    match named with
    | [] ->
        ignore (Experiments.Harness.run ~quick Experiments.Harness.All);
        print_newline ();
        run_micro ()
    | [ "micro" ] -> run_micro ()
    | [ "vm" ] -> run_vm ~quick
    | [ "scalability" ] -> run_scalability ~quick
    | [ name ] -> (
        match Experiments.Harness.selection_of_string name with
        | Some sel -> ignore (Experiments.Harness.run ~quick sel)
        | None ->
            Printf.eprintf "unknown experiment %s; one of: %s|micro|vm|scalability\n" name
              (String.concat "|" Experiments.Harness.selection_names);
            exit 2)
    | _ ->
        prerr_endline "usage: main.exe [experiment] [--quick] [--trace FILE]";
        exit 2
  in
  Fun.protect ~finally:Obs.Tracer.uninstall dispatch;
  match (tracer, trace) with
  | Some tr, Some path ->
      Obs.Export.write_chrome tr path;
      Printf.printf "wrote trace to %s (%d events, %d dropped)\n" path
        (Obs.Tracer.total_emitted tr) (Obs.Tracer.total_dropped tr)
  | _ -> ()
