(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (E1-E9 + ablations, via the Experiments library) and runs the
   E10 Bechamel micro-benchmarks comparing paged records against boxed
   OCaml values.

   [vm] and [scalability] write BENCH_vm.json and BENCH_scalability.json
   and are also the only check of their gates: each failed gate prints
   its name on stderr and the run exits 1.

   [cold] prints the cold path (jir text to first result) per op and
   phase, with the GC work of each phase; it has no gate.

   Usage:  main.exe [table2|fig4a|table3|fig4bc|gps|objects|speed|headers|
                     ablation|micro|vm|scalability|cold|all] [--quick]     *)

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

(* The upper median of a non-empty array, which it leaves as it is. *)
let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Time whole executions, interleaved: the candidates take turns in small
   rounds and each is credited its median block time per run. The first
   run of each (outside timing) pays for linking, cache fills and tier-2
   compiles; the fastest of the next three sizes the candidate's timed
   block: enough warm runs that a block lasts [block_s], so the clock's
   microsecond resolution stays under 0.1% of a reading even for a run
   of a few microseconds.
   Interleaving matters on shared machines — background load varies
   slowly, so back-to-back legs would see different CPU weather. Blocks
   this long nearly all hold a timer tick or a collection, so the
   fastest block depends on where those land; the median of a few
   hundred blocks does not, and scheduler spikes fall in its upper half.
   Step counts are deterministic, so only the wall clock needs the
   robust treatment. Returns the runs of the candidate that ran fewest
   and, per candidate, steps per run and median wall seconds per run. *)
let block_s = 1e-3

let vm_time_interleaved ~min_time ~min_runs (cands : (unit -> Facade_vm.Interp.outcome) array) =
  let n = Array.length cands in
  let steps_per_run =
    Array.map
      (fun run ->
        let o : Facade_vm.Interp.outcome = run () in
        o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.steps)
      cands
  in
  let warm_dt run =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (run () : Facade_vm.Interp.outcome);
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let rpr =
    Array.map
      (fun run -> max 1 (int_of_float (Float.ceil (block_s /. Float.max (warm_dt run) 1e-6))))
      cands
  in
  let fewest = Array.fold_left min max_int rpr in
  let times = Array.make n [] in
  let total = ref 0. and rounds = ref 0 in
  while !rounds * fewest < min_runs * 5 || !total < min_time *. float_of_int n do
    Array.iteri
      (fun k run ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to rpr.(k) do
          ignore (run () : Facade_vm.Interp.outcome)
        done;
        let dt = Unix.gettimeofday () -. t0 in
        times.(k) <- (dt /. float_of_int rpr.(k)) :: times.(k);
        total := !total +. dt)
      cands;
    incr rounds
  done;
  (!rounds * fewest, steps_per_run, Array.map (fun l -> median (Array.of_list l)) times)

(* One row of BENCH_vm.json: steps/s of each leg, work-normalized as
   described in [run_vm]. *)
type vm_row = {
  program : string;
  mode : string;
  runs : int;
  baseline_sps : float;
  opt_off_sps : float;
  opt_on_sps : float;
  tier2_sps : float;
}

let write_json path j =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string j);
      output_char oc '\n');
  print_endline ("wrote " ^ path)

(* A gate's failure message, for [List.filter_map]. *)
let fail fmt = Printf.ksprintf Option.some fmt

(* Print each failed gate by name, and exit 1 if any failed. *)
let enforce failures =
  List.iter prerr_endline failures;
  if failures <> [] then exit 1

let vm_row_json r =
  Obs.Json.(
    Obj
      [
        ("program", Str r.program); ("mode", Str r.mode); ("runs", of_int r.runs);
        ("baseline_steps_per_sec", rounded 0 r.baseline_sps);
        ("opt_off_steps_per_sec", rounded 0 r.opt_off_sps);
        ("opt_on_steps_per_sec", rounded 0 r.opt_on_sps);
        ("tier2_steps_per_sec", rounded 0 r.tier2_sps);
        ("resolved_speedup", rounded 3 (r.opt_off_sps /. r.baseline_sps));
        ("opt_speedup", rounded 3 (r.opt_on_sps /. r.opt_off_sps));
        ("tier2_speedup", rounded 3 (r.tier2_sps /. r.opt_on_sps));
      ])

(* The rows where the optimizer paid in every one of 10 full and 10
   --quick runs. pagerank is not gated: the optimizer only inlines its
   two constructors (207 -> 203 instructions), and its opt speedup
   straddles 1.0 run to run. *)
let opt_gated = [ ("linked_list", "object"); ("iteration", "object"); ("collections", "object") ]

(* The three VM gates. Each leg's time is already a median over
   interleaved rounds, so a failure is a regression, not noise.
   - optimizer: on the [opt_gated] rows, opt-on must not fall below
     opt-off, and each of those rows must be present;
   - tier 2: the closure tier must never lose to the interpreter it sits
     above;
   - facade: with the tier warm in both modes, facade-mode tier-2
     pagerank must hold at least 0.75x of object-mode tier-2 steps/s in
     their paired session. The remaining gap is the page-access cost
     itself (bounds check and page-table resolution per field), not
     compilation; below 0.75x, compiled facade segments regressed. *)
let vm_gate_failures rows gate_ratio =
  List.filter_map
    (fun (p, m) ->
      match List.find_opt (fun r -> r.program = p && r.mode = m) rows with
      | None -> fail "optimizer gate: %s (%s) row missing" p m
      | Some r when r.opt_on_sps < r.opt_off_sps ->
          fail "optimizer gate: %s (%s) opt-on %.0f < opt-off %.0f steps/s" p m r.opt_on_sps
            r.opt_off_sps
      | Some _ -> None)
    opt_gated
  @ List.filter_map
      (fun r ->
        if r.tier2_sps < r.opt_on_sps then
          fail "tier2 gate: %s (%s) %.2fx vs tier-1" r.program r.mode (r.tier2_sps /. r.opt_on_sps)
        else None)
      rows
  @
  match gate_ratio with
  | Some r when r < 0.75 ->
      [ Printf.sprintf "facade gate: pagerank facade tier-2 is %.2fx of object tier-2 (< 0.75x)" r ]
  | Some _ -> []
  | None -> [ "facade gate: pagerank facade/object tier-2 ratio not measured" ]

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
    (* Work-normalized: the optimized program executes fewer steps for
       the same work, so it is credited the un-optimized step count. *)
    let work = float_of_int steps.(1) in
    results :=
      {
        program = name; mode; runs; baseline_sps = float_of_int steps.(0) /. wall.(0);
        opt_off_sps = work /. wall.(1); opt_on_sps = work /. wall.(2); tier2_sps = work /. wall.(3);
      }
      :: !results
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
    (fun r ->
      Metrics.Table.add_row table
        [
          r.program; r.mode;
          Metrics.Table.cell_float ~decimals:0 r.baseline_sps;
          Metrics.Table.cell_float ~decimals:0 r.opt_off_sps;
          Metrics.Table.cell_float ~decimals:0 r.opt_on_sps;
          Metrics.Table.cell_float ~decimals:0 r.tier2_sps;
          Metrics.Table.cell_float ~decimals:2 (r.opt_on_sps /. r.opt_off_sps);
          Metrics.Table.cell_float ~decimals:2 (r.tier2_sps /. r.opt_on_sps);
        ])
    rows;
  Metrics.Table.print table;
  (* The paired-session ratio is published next to the rows: the facade
     gate reads it, not a ratio of two separately timed sessions. *)
  write_json "BENCH_vm.json"
    Obs.Json.(
      Obj
        ([
           ("host_cores", of_int (Domain.recommended_domain_count ())); ("quick", Bool quick);
           ("benchmarks", List (List.map vm_row_json rows));
         ]
        @ Option.fold ~none:[] ~some:(fun r -> [ ("facade_object_tier2_ratio", rounded 3 r) ])
            !gate_ratio));
  Option.iter
    (Printf.printf "facade tier-2 pagerank: %.2fx of object tier-2 (gate >= 0.75x)\n")
    !gate_ratio;
  enforce (vm_gate_failures rows !gate_ratio)

(* ---------- scalability: the domain-parallel facade-mode VM ---------- *)

(* Sweep 1/2/4/8 real OCaml domains (1/2/4 under --quick) over the
   parallel facade-mode VM and write the speedup curves to
   BENCH_scalability.json. Spawned logical threads run on pool domains,
   each accumulating into its private heap/pagestore/stats shards. The
   swept samples carry [sys.io_read] quanta that the VM realizes as real
   blocking waits ([io_scale] real seconds per simulated second), so on
   the "io-overlap" curve their supersteps overlap across domains and
   the speedup is genuine wall-clock even on a single-core host. The
   "compute-only" curve runs with the waits off ([io_scale] 0) on a
   compute-sized PageRank whose points run for tens of milliseconds
   (the two I/O samples' compute is 3-8 ms a point, too short to read a
   speedup from): it scales only with physical cores, so it has no
   gate. *)

(* The two curves (name, real seconds slept per simulated I/O second,
   the samples swept), and runs per point. The pipeline is compiled once
   per sample (link and layout are load-time costs) and each point is
   the best of [scal_reps] runs: the minimum discards scheduler spikes,
   which matters for the 0.9x gate below. *)
let scal_curves =
  [
    ("io-overlap", 1.0, [ Samples.pagerank_par_large; Samples.locking_large ]);
    ( "compute-only",
      0.0,
      [
        Samples.pagerank_par_sized ~name:"pagerank-par-compute" ~nv:16384 ~degv:8 ~iters:6 ~nw:8
          ~io_units:0;
      ] );
  ]

let scal_reps = 2

let run_scalability ~quick =
  let sweep = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  Printf.printf "== scalability: facade-mode VM on %s OCaml domains, measured wall-clock ==\n"
    (String.concat "/" (List.map string_of_int sweep));
  let vm_runs = ref [] in
  let vm_sweep (curve, io_scale) (s : Samples.sample) =
    let pl = VP.compile ~spec:s.Samples.spec s.Samples.program in
    let base = ref 0.0 in
    List.iter
      (fun w ->
        let best_wall = ref infinity and last = ref None in
        for _ = 1 to scal_reps do
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
            (curve, io_scale),
            w,
            wall,
            (if wall > 0.0 then !base /. wall else 0.0),
            o.Facade_vm.Interp.locks_peak,
            records,
            live )
          :: !vm_runs)
      sweep
  in
  List.iter
    (fun (curve, io_scale, samples) -> List.iter (vm_sweep (curve, io_scale)) samples)
    scal_curves;
  let vm_runs = List.rev !vm_runs in
  let table =
    Metrics.Table.create ~headers:[ "Curve"; "Sample"; "Domains"; "Wall (s)"; "Speedup" ]
  in
  List.iter
    (fun (name, (curve, _), w, wall, sp, _, _, _) ->
      Metrics.Table.add_row table
        [
          curve;
          name;
          string_of_int w;
          Metrics.Table.cell_float ~decimals:3 wall;
          Metrics.Table.cell_float ~decimals:2 sp;
        ])
    vm_runs;
  Metrics.Table.print table;
  write_json "BENCH_scalability.json"
    Obs.Json.(
      Obj
        [
          ("host_cores", of_int (Domain.recommended_domain_count ())); ("quick", Bool quick);
          ("workers_swept", List (List.map of_int sweep));
          ( "vm_runs",
            List
              (List.map
                 (fun (name, (curve, io_scale), w, wall, sp, locks_peak, records, live) ->
                   Obj
                     [
                       ("sample", Str name); ("mode", Str "facade"); ("curve", Str curve);
                       ("workers", of_int w); ("io_scale", rounded 3 io_scale);
                       ("wall_seconds", rounded 4 wall);
                       ("speedup_vs_1", rounded 3 sp); ("locks_peak", of_int locks_peak);
                       ("records_allocated", of_int records); ("live_pages", of_int live);
                     ])
                 vm_runs) );
        ]);
  (* The headline claim: VM-level facade pagerank at 8 domains under
     sharded accounting, on each curve. *)
  List.iter
    (fun (name, (curve, _), w, _, sp, _, _, _) ->
      if name = "pagerank-par-large" && w = 8 then
        Printf.printf "vm facade pagerank-par-large %s speedup at 8 domains: %.2fx\n" curve sp)
    vm_runs;
  (* Scalability regression gate: at 4 workers no VM workload on the
     io-overlap curve may fall below 0.9x of its own 1-worker wall clock.
     A sub-0.9 point means the sharded accounting regressed into
     contention; fail the bench so CI catches it. *)
  enforce
    (List.filter_map
       (fun (name, (curve, _), w, _, sp, _, _, _) ->
         if curve = "io-overlap" && w = 4 && sp < 0.9 then
           fail "scalability gate: vm %s at 4 workers is %.2fx < 0.9x of 1 worker" name sp
         else None)
       vm_runs)

(* ---------- cold: source text to first result, by phase ----------

   Each op takes one program from jir text to its first facade-mode
   result through the same public calls as perfbench's compile-cold
   workload, and reports per phase the wall time, the words allocated in
   the minor heap, the words promoted to the major heap, and the major
   collections that ended inside it, and the milliseconds the collector
   spent inside it in minor collections and in major slices, read from the
   runtime's own event ring ([Runtime_events]). Promoted words and major
   collections are the GC work an op leaves behind; minor words are the
   mutator's; the GC milliseconds say how much of a phase's wall time was
   collection. Measured wall-clock, no gate. *)

let cold_phases = [| "parse"; "compile"; "opt"; "link"; "make_tier"; "first_run" |]

type cold_sample = {
  c_ms : float;
  c_minor : float;
  c_promoted : float;
  c_majors : int;
  c_minor_gc_ms : float;
  c_major_gc_ms : float;
}

(* The nanoseconds this process has spent in minor collections and in
   major slices so far, as the runtime's event ring reports them. Starting
   the ring creates [<pid>.events] in the working directory; the runtime
   removes it when the process exits normally. *)
let gc_clock () =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let minor = ref 0L and major = ref 0L in
  let minor_since = ref 0L and major_since = ref 0L in
  let ns ts = Runtime_events.Timestamp.to_int64 ts in
  let runtime_begin _ ts = function
    | Runtime_events.EV_MINOR -> minor_since := ns ts
    | Runtime_events.EV_MAJOR_SLICE -> major_since := ns ts
    | _ -> ()
  in
  let runtime_end _ ts = function
    | Runtime_events.EV_MINOR -> minor := Int64.add !minor (Int64.sub (ns ts) !minor_since)
    | Runtime_events.EV_MAJOR_SLICE ->
        major := Int64.add !major (Int64.sub (ns ts) !major_since)
    | _ -> ()
  in
  let callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end () in
  fun () ->
    ignore (Runtime_events.read_poll cursor callbacks None : int);
    (!minor, !major)

let run_cold ~quick =
  let ops = if quick then 3 else 15 in
  let synthetic =
    let p, spec = Samples.synthetic ~classes:36 ~methods_per_class:16 in
    ("synthetic-36x16", Jir.Text_format.to_string p, spec)
  in
  let fig2 =
    Samples.(fig2.name, Jir.Text_format.to_string fig2.program, fig2.spec)
  in
  Printf.printf
    "== cold: jir text to first result, per op and phase (measured wall-clock, %d ops) ==\n" ops;
  let per_op =
    Metrics.Table.create
      ~headers:
        ([ "Program"; "Op" ] @ Array.to_list (Array.map (fun p -> p ^ " ms") cold_phases)
        @ [ "Total ms"; "GC ms"; "Minor kw"; "Promoted kw"; "Major GCs" ])
  in
  let summary =
    Metrics.Table.create
      ~headers:
        [
          "Program"; "Phase"; "ms p50"; "Minor GC ms p50"; "Major slice ms p50"; "Minor kw p50";
          "Promoted kw p50"; "Major GCs/op";
        ]
  in
  let gc_ns = gc_clock () in
  let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6 in
  List.iter
    (fun (name, text, spec) ->
      let samples =
        Array.make_matrix (Array.length cold_phases) ops
          {
            c_ms = 0.; c_minor = 0.; c_promoted = 0.; c_majors = 0; c_minor_gc_ms = 0.;
            c_major_gc_ms = 0.;
          }
      in
      for op = 0 to ops - 1 do
        let phase i f =
          (* [Gc.minor_words] counts the words allocated so far; the
             promotion and collection counters move only when a
             collection runs, so they charge the phase it ran in. The
             event ring is read outside the measured window. *)
          let minor0, major0 = gc_ns () in
          let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          let r = f () in
          let t1 = Unix.gettimeofday () in
          let g1 = Gc.quick_stat () and w1 = Gc.minor_words () in
          let minor1, major1 = gc_ns () in
          samples.(i).(op) <-
            {
              c_ms = (t1 -. t0) *. 1e3;
              c_minor = w1 -. w0;
              c_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
              c_majors = g1.Gc.major_collections - g0.Gc.major_collections;
              c_minor_gc_ms = ms_between minor0 minor1;
              c_major_gc_ms = ms_between major0 major1;
            };
          r
        in
        let parsed = phase 0 (fun () -> Jir.Text_format.parse text) in
        let pl = phase 1 (fun () -> VP.compile ~spec parsed) in
        let pl, report = phase 2 (fun () -> Opt.Driver.optimize_pipeline pl) in
        let rp = phase 3 (fun () -> Facade_vm.Link.facade_program pl) in
        let feedback =
          { Facade_vm.Compile_tier.fb_mono = report.Opt.Driver.tier_mono;
            fb_leaves = report.Opt.Driver.tier_leaves }
        in
        let tier = phase 4 (fun () -> Facade_vm.Interp.make_tier ~feedback rp) in
        ignore (phase 5 (fun () -> Facade_vm.Interp.run_facade ~tier pl));
        let col f = Array.map (fun a -> f a.(op)) samples in
        let sum a = Array.fold_left ( +. ) 0. a in
        Metrics.Table.add_row per_op
          ([ name; string_of_int (op + 1) ]
          @ Array.to_list (Array.map (Metrics.Table.cell_float ~decimals:2) (col (fun c -> c.c_ms)))
          @ [
              Metrics.Table.cell_float ~decimals:2 (sum (col (fun c -> c.c_ms)));
              Metrics.Table.cell_float ~decimals:2
                (sum (col (fun c -> c.c_minor_gc_ms +. c.c_major_gc_ms)));
              Metrics.Table.cell_float ~decimals:1 (sum (col (fun c -> c.c_minor)) /. 1e3);
              Metrics.Table.cell_float ~decimals:1 (sum (col (fun c -> c.c_promoted)) /. 1e3);
              Metrics.Table.cell_int (Array.fold_left ( + ) 0 (col (fun c -> c.c_majors)));
            ])
      done;
      Array.iteri
        (fun i phase_name ->
          let f g = median (Array.map g samples.(i)) in
          Metrics.Table.add_row summary
            [
              name;
              phase_name;
              Metrics.Table.cell_float ~decimals:2 (f (fun c -> c.c_ms));
              Metrics.Table.cell_float ~decimals:2 (f (fun c -> c.c_minor_gc_ms));
              Metrics.Table.cell_float ~decimals:2 (f (fun c -> c.c_major_gc_ms));
              Metrics.Table.cell_float ~decimals:1 (f (fun c -> c.c_minor) /. 1e3);
              Metrics.Table.cell_float ~decimals:1 (f (fun c -> c.c_promoted) /. 1e3);
              Metrics.Table.cell_float ~decimals:2
                (float_of_int (Array.fold_left (fun acc c -> acc + c.c_majors) 0 samples.(i))
                /. float_of_int ops);
            ])
        cold_phases)
    [ fig2; synthetic ];
  Metrics.Table.print per_op;
  print_newline ();
  Metrics.Table.print summary

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
    | [ "cold" ] -> run_cold ~quick
    | [ name ] -> (
        match Experiments.Harness.selection_of_string name with
        | Some sel -> ignore (Experiments.Harness.run ~quick sel)
        | None ->
            Printf.eprintf "unknown experiment %s; one of: %s|micro|vm|scalability|cold\n" name
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
