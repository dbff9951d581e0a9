(* Workload compile-cold: each op takes one program from jir source text
   to its first checked result (see {!Cold}). The mirror of
   pagerank-warm: nearly all time is parse, transform, opt, link and
   tier-up, and execution is trivial.

   Every cycle runs all 19 bundled samples (every Table-1 instruction
   kind) and six synthetic programs, 20 to 36 classes wide, in a seeded
   order; the seed also permutes the class order of the synthetic
   programs. Synthetic ops are 6/25 of the stream and all slower than any
   sample, so the size-class boundary sits at the 76th percentile: p50
   falls among the samples, p90 and p99 among the synthetic programs, each
   well inside its class. Only whole cycles run, so every run holds each
   program equally often. *)

type prog = {
  name : string;
  spec : Facade_compiler.Classify.spec;
  text : string;
  oracle : Cold.reference;
  bundled : bool;  (** one of [Samples.all] *)
}

(* Three well-separated sizes, twice each: p90 sits in the middle of the
   second size's block and p99 inside the third's, away from the jumps
   between sizes. *)
let shapes = [ (20, 8); (20, 8); (28, 12); (28, 12); (36, 16); (36, 16) ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let synthetic rng i (classes, methods_per_class) =
  let p, spec = Samples.synthetic ~classes ~methods_per_class in
  let cls = Array.of_list (Jir.Program.classes p) in
  shuffle rng cls;
  let p = Jir.Program.make ~entry:(Jir.Program.entry p) (Array.to_list cls) in
  (Printf.sprintf "synthetic-%dx%d#%d" classes methods_per_class i, p, spec)

let programs seed =
  let rng = Random.State.make [| seed; 0xc0de |] in
  let mk ~bundled (name, p, spec) =
    { name; spec; text = Jir.Text_format.to_string p; oracle = Cold.reference p; bundled }
  in
  List.map (fun s -> mk ~bundled:true Samples.(s.name, s.program, s.spec)) Samples.all
  @ List.mapi (fun i sh -> mk ~bundled:false (synthetic rng i sh)) shapes

type op = { prog : prog; cold : Cold.t; wall_ms : float; ok : bool }

(* [base] pins each program's deterministic counts from its set-up run. *)
let op ?tr base pr =
  let t0 = Util.now () in
  let cold = Util.span tr ~args:[ ("program", Obs.Tracer.Astr pr.name) ] "op" (fun () -> Cold.run ?tr ~spec:pr.spec pr.text) in
  let wall_ms = (Util.now () -. t0) *. 1e3 in
  let c = Cold.counts cold.Cold.first in
  let ok =
    Cold.matches pr.oracle cold.Cold.first
    && match Hashtbl.find_opt base pr.name with Some b -> b = c | None -> Hashtbl.replace base pr.name c; true
  in
  { prog = pr; cold; wall_ms; ok }

(* Set-up: build the seeded programs and their texts, compute the oracle
   references, and run one untimed cycle that pins each program's counts
   and fills the process's lazy caches. *)
let setup seed =
  let progs = Array.of_list (programs seed) in
  let base = Hashtbl.create 32 in
  let ok = Array.for_all (fun pr -> (op base pr).ok) progs in
  (progs, base, ok)

let setups = 5

let run ~(adj : Util.adjuster) ~seed ~seconds ~traced =
  let setup_s, (progs, base, setup_ok) = Util.repeat_setup adj setups (fun () -> setup seed) in
  let rng = Random.State.make [| seed; 0x0dde |] in
  let tracer = if traced then Some (Obs.Tracer.create ()) else None in
  (* Timed ops as (timeline index, wall ms), adjusted after the loop. *)
  let lat = ref [] and lat_traced = ref [] in
  let traced_ops = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let t_end = Util.now () +. seconds in
  let cycle = ref 0 in
  while !cycle = 0 || Util.now () < t_end do
    (* In a traced run every other cycle is traced. *)
    let tr = if !cycle land 1 = 1 then tracer else None in
    let order = Array.copy progs in
    shuffle rng order;
    Array.iter
      (fun pr ->
        let k = Util.calibrate adj in
        let o = op ?tr base pr in
        incr attempted;
        if not o.ok then incr failed;
        match tr with
        | None -> lat := (k, o.wall_ms) :: !lat
        | Some _ ->
            lat_traced := (k, o.wall_ms) :: !lat_traced;
            (* Keep only what the replay and the counters need, not the
               op's linked program and tier. *)
            traced_ops := (pr.spec, o.cold.Cold.parsed, o.cold.Cold.pl.Facade_compiler.Pipeline.instrs_in, o.cold.Cold.report) :: !traced_ops)
      order;
    incr cycle
  done;
  (* The compile phases are replayed after the timed cycles, so the
     garbage the replays leave does not land in a timed op. *)
  Option.iter
    (fun t -> List.iter (fun (spec, parsed, _, _) -> Cold.replay_compile t ~spec parsed) !traced_ops)
    tracer;
  let lat_a = Util.adjust_ops adj !lat in
  let wall_p50 = Util.median_l (List.map snd !lat) and calib_p50 = Util.median (Util.kernel_ms adj) in
  let p q = Util.percentile lat_a q in
  let samples = List.filter (fun pr -> pr.bundled) (Array.to_list progs) in
  let sum_counts f = List.fold_left (fun acc pr -> acc + f (Hashtbl.find base pr.name)) 0 samples in
  let e2e =
    [
      ("latency_p50", p 0.5);
      ("latency_p90", p 0.9);
      ("latency_p99", p 0.99);
      ("throughput_per_s", float_of_int (Array.length lat_a) /. (Util.sum lat_a /. 1e3));
      ("setup_s", setup_s);
      ("ok_ratio", float_of_int (!attempted - !failed) /. float_of_int !attempted);
      ("peak_rss_mb", Util.peak_rss_mb "self");
      ("heap_objects", float_of_int (sum_counts (fun c -> c.Cold.heap_objects)));
      ("native_peak_bytes", float_of_int (sum_counts (fun c -> c.Cold.native_peak)));
    ]
  in
  let detail =
    [
      ("ops", float_of_int (Array.length lat_a));
      ("wall.latency_p50", wall_p50);
      ("calib.ms_p50", calib_p50);
    ]
  in
  let layers =
    match tracer with
    | None -> []
    | Some t ->
        let tbl = Util.span_table t in
        let unattributed = Util.unattributed_pct tbl "op" in
        if unattributed > Util.addup_tolerance_pct then incr failed;
        let ops = List.length !traced_ops in
        (* Layer times are per traced op, scaled by the run's weather. *)
        let scale = adj.Util.calib_ref /. calib_p50 in
        let per name = Util.self_per_op tbl ~ops name *. scale in
        let phases = List.map (fun ph -> ("compiler." ^ ph ^ "_ms", per ("compiler." ^ ph))) Cold.compile_phases in
        let compile_total = (tbl "compiler.compile").Util.total_ms in
        let replayed = List.fold_left (fun acc ph -> acc +. (tbl ("compiler." ^ ph)).Util.total_ms) 0. Cold.compile_phases in
        let instrs = List.fold_left (fun acc (_, _, n, _) -> acc + n) 0 !traced_ops in
        let rep f = float_of_int (List.fold_left (fun acc (_, _, _, r) -> acc + f r) 0 !traced_ops) /. float_of_int (max 1 ops) in
        if not (Util.export_trace t "_perfbench/trace-compile-cold.json") then incr failed;
        [ ("jir.parse_ms", per "jir.parse") ]
        @ phases
        @ [
            ("compiler.unattributed_ms", (compile_total -. replayed) /. float_of_int (max 1 ops) *. scale);
            ("compiler.instrs_per_s", float_of_int instrs /. (compile_total *. scale /. 1e3));
            ("opt.ms", per "opt.optimize_pipeline");
            ( "opt.instrs_removed",
              rep (fun r -> r.Opt.Driver.instrs_before - r.Opt.Driver.instrs_after) );
            ("opt.inlined", rep (fun r -> Cold.report_count r "inlined"));
            ("opt.devirtualized", rep (fun r -> Cold.report_count r "devirtualized"));
            ("link.ms", per "link.facade_program");
            ("quicken.ms", per "quicken.facade_program");
            ("tier2.make_ms", per "tier2.make_tier");
            ("tier2.first_run_ms", per "tier2.first_run");
            ("tier2.compiles", float_of_int (sum_counts (fun c -> c.Cold.compiles)));
            ("tier2.deopts", float_of_int (sum_counts (fun c -> c.Cold.deopts)));
            ("tier2.osr_entries", float_of_int (sum_counts (fun c -> c.Cold.osr_entries)));
            ("tier2.recompiles", float_of_int (sum_counts (fun c -> c.Cold.recompiles)));
            ("calib.ms_p50", calib_p50);
            ("wall.latency_p50", wall_p50);
            ("obs.trace_overhead_pct", 100. *. (Util.median (Util.adjust_ops adj !lat_traced) /. p 0.5 -. 1.));
            ("obs.unattributed_pct", unattributed);
          ]
  in
  {
    Util.correct = setup_ok && !failed = 0;
    attempted = !attempted;
    failed = !failed;
    metrics = (if traced then layers else e2e);
    detail;
  }
