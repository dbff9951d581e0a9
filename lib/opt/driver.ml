open Jir
module Pipeline = Facade_compiler.Pipeline

(* The pass driver. [optimize_program] is the raw JIR pipeline;
   [optimize_pipeline] wraps it for FACADE-transformed programs: it
   optimizes P′ between the facade transform and linking, restricts
   inlining to one side of the control/data boundary, and then re-proves
   the FACADE invariants (structural verification, the boundary-leak
   linter, and the pipeline's own post-transform validation). A pass that
   breaks an invariant raises {!Pipeline.Invalid_transform} — an
   optimizer bug must never reach the VM.

   Each whole-program job runs once. Every pass reports the methods it
   rewrote, and the post-inline cleanup round (copy_prop', const_fold',
   dce') runs on those methods only: const_fold, copy_prop and dce are
   functions of one method, and each already returned every untouched
   method unchanged in round 1, so the output and the report equal those
   of the full nine-pass composition. Devirt builds one CHA index for the
   program. The re-proof runs only the fatal checks; def-assign, monitors
   and races are advisory and stay in [facade_cli lint]. *)

type report = {
  deltas : Delta.t list;
  instrs_before : int;
  instrs_after : int;
  tier_mono : string list;
      (** method names with a single implementation (CHA over the
          optimized program) — tier-2 devirtualization feedback *)
  tier_leaves : (string * string) list;
      (** (class, method) pairs passing the structural leaf test — the
          tier-2 compiler widens its inline budget for these *)
}

let report_to_json r =
  let open Obs.Json in
  Obj
    [
      ("instrs_before", of_int r.instrs_before); ("instrs_after", of_int r.instrs_after);
      ("passes", List (List.map Delta.to_json r.deltas));
      ( "tier_feedback",
        Obj
          [
            ("monomorphic", List (List.map (fun m -> Str m) r.tier_mono));
            ("leaves", List (List.map (fun (c, m) -> List [ Str c; Str m ]) r.tier_leaves));
          ] );
    ]

let delta name metric before after count =
  { Delta.pass = name; instrs_before = before; instrs_after = after; metric; count }

(* [instrs] is the program's instruction count, which the passes' change
   reports keep current, so a pass's input count is its predecessor's
   output count and nothing walks the whole program between passes. *)
let run_pass ~instrs name metric enabled f ((p, deltas) as acc) =
  if not enabled then acc
  else begin
    let before = !instrs in
    let p', count = f p in
    (p', delta name metric before !instrs count :: deltas)
  end

let optimize_program ?(config = Config.default) ?(may_inline = fun _ _ -> true) p =
  let instrs_before = Program.total_instrs p in
  (* The methods some pass has rewritten so far, by class. *)
  let touched : unit Stbl.t Stbl.t = Stbl.create 64 in
  let instrs = ref instrs_before in
  let changed cls (m : Ir.meth) (m' : Ir.meth) =
    (match Stbl.find_opt touched cls with
    | Some names -> Stbl.replace names m.Ir.mname ()
    | None ->
        let names = Stbl.create 8 in
        Stbl.replace names m.Ir.mname ();
        Stbl.replace touched cls names);
    instrs := !instrs + Ir.instr_count m' - Ir.instr_count m
  in
  let run_pass = run_pass ~instrs in
  let acc = (p, []) in
  let acc = run_pass "const_fold" "folded" config.Config.const_fold (Const_fold.run ~changed) acc in
  let acc = run_pass "copy_prop" "copies" config.Config.copy_prop (Copy_prop.run ~changed) acc in
  let acc = run_pass "dce" "removed" config.Config.dce (Dce.run ~changed) acc in
  let acc = run_pass "devirt" "devirtualized" config.Config.devirt (Devirt.run ~changed) acc in
  let acc = run_pass "lock_elide" "elided" config.Config.lock_elide (Lock_elide.run ~changed) acc in
  let acc =
    run_pass "inline" "inlined" config.Config.inline
      (Inline.run ~budget:config.Config.inline_budget ~may_inline ~changed)
      acc
  in
  (* Cleanup round: the inliner leaves parameter moves and constant
     returns behind; sweep them with the same (toggle-respecting) passes,
     on the touched methods only. An untouched method went into every
     enabled per-method pass above as itself and came back unchanged, so
     each cleanup pass would return it unchanged with a zero count. *)
  let acc =
    if config.Config.inline then begin
      let only cls name =
        match Stbl.find_opt touched cls with Some names -> Stbl.mem names name | None -> false
      in
      let acc =
        run_pass "copy_prop'" "copies" config.Config.copy_prop (Copy_prop.run ~only ~changed) acc
      in
      let acc =
        run_pass "const_fold'" "folded" config.Config.const_fold (Const_fold.run ~only ~changed) acc
      in
      run_pass "dce'" "removed" config.Config.dce (Dce.run ~only ~changed) acc
    end
    else acc
  in
  let p', deltas = acc in
  ( p',
    {
      deltas = List.rev deltas;
      instrs_before;
      instrs_after = !instrs;
      tier_mono = Devirt.monomorphic_names p';
      tier_leaves = Inline.leaf_candidates p';
    } )

(* Inlining never crosses the control/data boundary: facade classes (and
   everything classified data) are one side, control code the other. *)
let data_side cl cls =
  Facade_compiler.Classify.is_data_class cl cls
  || String.ends_with ~suffix:"$Facade" cls

let boundary_may_inline cl caller callee = data_side cl caller = data_side cl callee

(* Only the analyses whose findings are fatal run here: def-assign,
   monitors and races are advisory ([facade_cli lint] reports them). *)
let invariant_findings (pl : Pipeline.t) p' =
  let findings =
    Analysis.Lint.verify_findings p' @ Analysis.Leak.check pl.Pipeline.classification p'
  in
  let lint_errs =
    List.map
      (fun (f : Analysis.Finding.t) ->
        {
          Pipeline.vwhere = f.Analysis.Finding.where;
          vwhat =
            Printf.sprintf "[%s] %s" f.Analysis.Finding.analysis f.Analysis.Finding.what;
        })
      findings
  in
  Pipeline.validate_transformed pl.Pipeline.classification pl.Pipeline.bounds p'
  @ lint_errs

(* [extra_passes] exists for the regression tests: inject a deliberately
   invariant-breaking pass and watch the driver refuse it. Such a pass
   may rewrite anything, so its output is counted by a whole-program
   walk. *)
let optimize_pipeline ?(config = Config.default)
    ?(extra_passes : (string * (Program.t -> Program.t)) list = [])
    (pl : Pipeline.t) =
  let may_inline = boundary_may_inline pl.Pipeline.classification in
  let p', rep = optimize_program ~config ~may_inline pl.Pipeline.transformed in
  let p', instrs_after, deltas =
    List.fold_left
      (fun (p, before, deltas) (name, f) ->
        let p' = f p in
        let after = Program.total_instrs p' in
        (p', after, delta name "changed" before after 0 :: deltas))
      (p', rep.instrs_after, List.rev rep.deltas) extra_passes
  in
  let rep = { rep with deltas = List.rev deltas; instrs_after } in
  (match invariant_findings pl p' with
  | [] -> ()
  | errs -> raise (Pipeline.Invalid_transform errs));
  let pl' =
    { pl with Pipeline.transformed = p'; instrs_out = instrs_after;
      artifact = None }
  in
  (pl', rep)
