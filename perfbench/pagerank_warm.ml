(* Workload pagerank-warm: the paper's GraphChi PageRank in facade mode
   on a warm shared tier, one job at a time, each paired (in alternating
   order) with an object-mode job of the same program.

   2048 vertices × 4 supersteps: a facade job takes over 10 ms and its
   vertex and edge records (~80 KiB) outgrow L1, and a run still holds
   over 1000 jobs, so at least ten lie beyond p99. After set-up a job
   does no compiler or service work, so its time is dispatch, tier-2
   templates and page reads and read-modify-writes. The graph comes from
   the sample's built-in LCG; the seed does not change it.

   Timings are divided by the kernel's cache part alone, which like the
   job touches only a cache-resident working set, over a 3-kernel window
   (see {!Util.calib_now}): the host's speed switches between states
   within a second, and a job that runs in a slow state right after a
   fast one, adjusted by a wider median, lands in the tail and makes p99
   swing from run to run. *)

module I = Facade_vm.Interp
module ES = Facade_vm.Exec_stats

let sample = Samples.pagerank_sized ~n:2048 ~iters:4
let part = Calib.Cache
let window = 3

type state = {
  cold : Cold.t;
  oracle : Cold.reference;
  rp_obj : Facade_vm.Resolved.program;
  tier_obj : Facade_vm.Vm_state.tier;
  base : Cold.counts;  (** counts of a warm facade job *)
  base_words : float;  (** minor words of a warm facade job *)
  ic_hit_ratio : float;
}

let facade_job st =
  let w0 = Gc.minor_words () in
  let t0 = Util.now () in
  let o = I.run_facade ~quicken:true ~tier:st.cold.Cold.tier st.cold.Cold.pl in
  let dt = Util.now () -. t0 in
  (o, (Gc.minor_words () -. w0), dt *. 1e3)

let object_job st =
  let t0 = Util.now () in
  let o = I.run_object_linked ~tier:st.tier_obj st.rp_obj in
  (o, (Util.now () -. t0) *. 1e3)

(* Everything before the first timed job: the oracle, the cold path from
   source text, the object-mode leg's optimized link and tier, and a few
   warm-up jobs of each mode. *)
let setup () =
  let s = sample in
  let oracle = Cold.reference s.Samples.program in
  let cold = Cold.run ~spec:s.Samples.spec (Jir.Text_format.to_string s.Samples.program) in
  if not (Cold.matches oracle cold.Cold.first) then failwith "pagerank-warm: cold run differs from oracle";
  let op, orep = Opt.Driver.optimize_program s.Samples.program in
  let is_data c = Facade_compiler.Classify.is_data_class cold.Cold.pl.Facade_compiler.Pipeline.classification c in
  let rp_obj = Facade_vm.Link.object_program ~is_data ~quicken:true op in
  let tier_obj = I.make_tier ~feedback:(Cold.feedback orep) rp_obj in
  let st0 =
    { cold; oracle; rp_obj; tier_obj; base = Cold.counts cold.Cold.first; base_words = 0.; ic_hit_ratio = 0. }
  in
  for _ = 1 to 3 do
    ignore (facade_job st0);
    ignore (object_job st0)
  done;
  let o, words, _ = facade_job st0 in
  let s = o.I.stats in
  {
    st0 with
    base = Cold.counts o;
    base_words = words;
    ic_hit_ratio = float_of_int s.ES.ic_hits /. float_of_int (max 1 (s.ES.ic_hits + s.ES.ic_misses));
  }

let setups = 5

let run ~(adj : Util.adjuster) ~seed ~seconds ~traced =
  (* Set up several times and keep the last state: set-up time is the
     median of the repetitions. *)
  let setup_s, st = Util.repeat_setup adj setups setup in
  let tracer = if traced then Some (Obs.Tracer.create ()) else None in
  (* Timed legs as (timeline index, wall ms), adjusted after the loop. *)
  let fac = ref [] and fac_traced = ref [] and obj = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  let leg_facade ~tr i =
    let k = Util.calibrate adj in
    let ms, ok =
      Util.span tr ~args:[ ("job", Obs.Tracer.Aint i) ] "op" (fun () ->
          let o, words, ms = Util.span tr "vm.run_facade" (fun () -> facade_job st) in
          ( ms,
            Util.span tr "vm.check" (fun () ->
                Cold.matches st.oracle o && Cold.counts o = st.base && words = st.base_words) ))
    in
    check ok;
    if tr = None then fac := (k, ms) :: !fac else fac_traced := (k, ms) :: !fac_traced
  in
  let leg_object () =
    let k = Util.calibrate adj in
    let o, ms = object_job st in
    check (Cold.matches st.oracle o);
    obj := (k, ms) :: !obj
  in
  let t_end = Util.now () +. seconds in
  let i = ref 0 in
  while Util.now () < t_end do
    (* Pair order alternates every job; in a traced run every other pair
       of pairs is traced, so traced and untraced jobs see both orders. *)
    let tr = if (!i lsr 1) land 1 = 1 then tracer else None in
    if !i land 1 = 0 then begin
      leg_facade ~tr !i;
      leg_object ()
    end
    else begin
      leg_object ();
      leg_facade ~tr !i
    end;
    incr i
  done;
  let fac_a = Util.adjust_ops adj !fac in
  let wall_p50 = Util.median_l (List.map snd !fac) and calib_p50 = Util.median (Util.kernel_ms adj) in
  let p q = Util.percentile fac_a q in
  let p50 = p 0.5 in
  let obj_p50 = Util.median (Util.adjust_ops adj !obj) in
  let e2e =
    [
      ("latency_p50", p50);
      ("latency_p90", p 0.9);
      ("latency_p99", p 0.99);
      ("throughput_per_s", float_of_int (Array.length fac_a) /. (Util.sum fac_a /. 1e3));
      ("setup_s", setup_s);
      ("ok_ratio", float_of_int (!attempted - !failed) /. float_of_int !attempted);
      ("peak_rss_mb", Util.peak_rss_mb "self");
      ("heap_objects", float_of_int st.base.Cold.heap_objects);
      ("native_peak_bytes", float_of_int st.base.Cold.native_peak);
    ]
  in
  let detail =
    [
      ("jobs", float_of_int (Array.length fac_a));
      ("wall.latency_p50", wall_p50);
      ("calib.ms_p50", calib_p50);
      ("vm.object_latency_p50", obj_p50);
    ]
  in
  let layers =
    match tracer with
    | None -> []
    | Some t ->
        let tbl = Util.span_table t in
        let unattributed = Util.unattributed_pct tbl "op" in
        if unattributed > Util.addup_tolerance_pct then incr failed;
        let b = st.base in
        if not (Util.export_trace t "_perfbench/trace-pagerank-warm.json") then incr failed;
        (* The service layer, measured on PageRank-family jobs served by
           the daemon (see Service_mix), and the single-call probes. *)
        let svc_ok, svc_attempted, svc_failed, svc = Service_mix.probe ~adj ~seed in
        attempted := !attempted + svc_attempted;
        failed := !failed + svc_failed + if svc_ok then 0 else 1;
        svc
        @ [
          ("service.codec_us", Micro.codec_us adj);
          ("vm.run_fixed_us", Micro.run_fixed_us adj);
          ("pagestore.alloc_ns", Micro.alloc_ns adj);
          ("vm.steps_per_job", float_of_int b.Cold.steps);
          ("vm.ic_hit_ratio", st.ic_hit_ratio);
          ("vm.steps_per_s", float_of_int b.Cold.steps /. (p50 /. 1e3));
          ("vm.alloc_words_per_job", st.base_words);
          ("vm.object_latency_p50", obj_p50);
          ("vm.facade_object_ratio", p50 /. obj_p50);
          ("tier2.compiles", float_of_int b.Cold.compiles);
          ("tier2.deopts", float_of_int b.Cold.deopts);
          ("tier2.osr_entries", float_of_int b.Cold.osr_entries);
          ("tier2.recompiles", float_of_int b.Cold.recompiles);
          ("pagestore.records_per_job", float_of_int b.Cold.records);
          ("pagestore.pages_created_per_job", float_of_int b.Cold.pages_created);
          ("pagestore.pages_recycled_per_job", float_of_int b.Cold.pages_recycled);
          ("pagestore.read_f64_ns", Micro.read_f64_ns adj);
          ("calib.ms_p50", calib_p50);
          ("wall.latency_p50", wall_p50);
          ("obs.trace_overhead_pct", 100. *. (Util.median (Util.adjust_ops adj !fac_traced) /. p50 -. 1.));
          ("obs.unattributed_pct", unattributed);
        ]
  in
  {
    Util.correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    metrics = (if traced then layers else e2e);
    detail;
  }
