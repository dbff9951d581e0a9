(* One program from jir source text to its first result, through the
   public entry point of every layer in the order a user pays for them:
   parse → Pipeline.compile → Opt.Driver.optimize_pipeline → link →
   quicken → make_tier → first run_facade. Each call is wrapped in a
   span when a tracer is given. *)

module I = Facade_vm.Interp
module ES = Facade_vm.Exec_stats
module P = Facade_compiler.Pipeline

type t = {
  parsed : Jir.Program.t;
  pl : P.t;  (** optimized pipeline *)
  report : Opt.Driver.report;
  tier : Facade_vm.Vm_state.tier;
  first : I.outcome;  (** the cold first run, where tier-up happens *)
}

let feedback (r : Opt.Driver.report) =
  { Facade_vm.Compile_tier.fb_mono = r.Opt.Driver.tier_mono; fb_leaves = r.Opt.Driver.tier_leaves }

let run ?tr ~spec text =
  let sp name f = Util.span tr name f in
  let parsed = sp "jir.parse" (fun () -> Jir.Text_format.parse text) in
  let pl0 = sp "compiler.compile" (fun () -> P.compile ~spec parsed) in
  let pl, report = sp "opt.optimize_pipeline" (fun () -> Opt.Driver.optimize_pipeline pl0) in
  ignore (sp "link.facade_program" (fun () -> Facade_vm.Link.facade_program ~quicken:false pl));
  let rp = sp "quicken.facade_program" (fun () -> Facade_vm.Link.facade_program ~quicken:true pl) in
  let tier = sp "tier2.make_tier" (fun () -> I.make_tier ~feedback:(feedback report) rp) in
  let first = sp "tier2.first_run" (fun () -> I.run_facade ~quicken:true ~tier pl) in
  { parsed; pl; report; tier; first }

(** The public functions [Pipeline.compile] calls, replayed in its order
    on the same input so the traced run can split the compile span into
    phases from outside; the difference is [compiler.unattributed_ms]. *)
let replay_compile tr ~spec p =
  let open Facade_compiler in
  let sp name f = Util.span (Some tr) name f in
  sp "compiler.replay" (fun () ->
      let cl = sp "compiler.classify" (fun () -> Classify.classify p spec) in
      sp "compiler.assumptions" (fun () -> Assumptions.check_or_fail p cl);
      let p = sp "compiler.devirt" (fun () -> Optimize.devirtualize p) in
      let layout = sp "compiler.layout" (fun () -> Layout.compute p cl) in
      let bounds = sp "compiler.bounds" (fun () -> Bounds.compute p cl layout) in
      let r = sp "compiler.transform" (fun () -> Transform.run p cl layout bounds ()) in
      ignore (sp "compiler.validate" (fun () -> P.validate_transformed cl bounds r.Transform.program)))

let compile_phases =
  [ "classify"; "assumptions"; "devirt"; "layout"; "bounds"; "transform"; "validate" ]

(** Sum of the report's per-pass counters carrying [metric]. *)
let report_count (r : Opt.Driver.report) metric =
  List.fold_left
    (fun acc (d : Opt.Delta.t) -> if d.Opt.Delta.metric = metric then acc + d.Opt.Delta.count else acc)
    0 r.Opt.Driver.deltas

(* {2 The oracle}

   References come from the independent tree-walking interpreter running
   the original program P; an outcome matches when its result and its
   printed output both agree. *)

type reference = { ref_result : string; ref_output : string list }

let show_result = function Some v -> Facade_vm.Value.to_string v | None -> "-"

let reference p =
  let o = Facade_vm.Interp_baseline.run_object p in
  { ref_result = show_result o.I.result; ref_output = ES.output_lines o.I.stats }

let matches r (o : I.outcome) =
  String.equal (show_result o.I.result) r.ref_result && ES.output_lines o.I.stats = r.ref_output

(** The deterministic counts of one facade run, which must repeat exactly
    between runs of the same program. *)
type counts = {
  steps : int;
  heap_objects : int;  (** facades_allocated + stats.heap_objects *)
  native_peak : int;
  records : int;
  pages_created : int;
  pages_recycled : int;
  compiles : int;
  deopts : int;
  osr_entries : int;
  recompiles : int;
}

let counts (o : I.outcome) =
  let s = o.I.stats in
  let st f = match o.I.store_stats with Some x -> f x | None -> 0 in
  {
    steps = s.ES.steps;
    heap_objects = o.I.facades_allocated + s.ES.heap_objects;
    native_peak = st (fun x -> x.Pagestore.Store.peak_native_bytes);
    records = st (fun x -> x.Pagestore.Store.records_allocated);
    pages_created = st (fun x -> x.Pagestore.Store.pages_created);
    pages_recycled = st (fun x -> x.Pagestore.Store.pages_recycled);
    compiles = s.ES.tier2_compiles;
    deopts = s.ES.tier2_deopts;
    osr_entries = s.ES.osr_entries;
    recompiles = s.ES.tier2_recompiles;
  }
