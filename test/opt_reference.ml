(* The optimizer as a plain composition of its nine program-level passes,
   each run over every method, in the driver's order — the reference the
   driver's incremental cleanup round must reproduce byte for byte. The
   report is rebuilt the same way, so [report_to_json] compares too. *)

open Jir
module D = Opt.Driver

let program ?(config = Opt.Config.default) ?(may_inline = fun _ _ -> true) p =
  let c = config in
  let passes =
    [
      ("const_fold", "folded", c.Opt.Config.const_fold, (fun p -> Opt.Const_fold.run p));
      ("copy_prop", "copies", c.Opt.Config.copy_prop, (fun p -> Opt.Copy_prop.run p));
      ("dce", "removed", c.Opt.Config.dce, (fun p -> Opt.Dce.run p));
      ("devirt", "devirtualized", c.Opt.Config.devirt, (fun p -> Opt.Devirt.run p));
      ("lock_elide", "elided", c.Opt.Config.lock_elide, (fun p -> Opt.Lock_elide.run p));
      ( "inline",
        "inlined",
        c.Opt.Config.inline,
        fun p -> Opt.Inline.run ~budget:c.Opt.Config.inline_budget ~may_inline p );
    ]
    @
    if c.Opt.Config.inline then
      [
        ("copy_prop'", "copies", c.Opt.Config.copy_prop, (fun p -> Opt.Copy_prop.run p));
        ("const_fold'", "folded", c.Opt.Config.const_fold, (fun p -> Opt.Const_fold.run p));
        ("dce'", "removed", c.Opt.Config.dce, (fun p -> Opt.Dce.run p));
      ]
    else []
  in
  let p', deltas =
    List.fold_left
      (fun (p, deltas) (pass, metric, enabled, run) ->
        if not enabled then (p, deltas)
        else begin
          let p', count = run p in
          ( p',
            {
              Opt.Delta.pass;
              instrs_before = Program.total_instrs p;
              instrs_after = Program.total_instrs p';
              metric;
              count;
            }
            :: deltas )
        end)
      (p, []) passes
  in
  ( p',
    {
      D.deltas = List.rev deltas;
      instrs_before = Program.total_instrs p;
      instrs_after = Program.total_instrs p';
      tier_mono = Opt.Devirt.monomorphic_names p';
      tier_leaves = Opt.Inline.leaf_candidates p';
    } )

(* [optimize_pipeline]'s program and report: the boundary-respecting
   composition over P′. *)
let pipeline ?config (pl : Facade_compiler.Pipeline.t) =
  program ?config
    ~may_inline:(D.boundary_may_inline pl.Facade_compiler.Pipeline.classification)
    pl.Facade_compiler.Pipeline.transformed

let text (p, r) = (Text_format.to_string p, D.report_to_json r)

(* Both entry points against the reference, on P and on P′. *)
let check ?config ~name ~spec p =
  let agree tag expected got =
    Alcotest.(check (pair string string)) (name ^ ": " ^ tag) (text expected) (text got)
  in
  agree "optimize_program" (program ?config p) (D.optimize_program ?config p);
  let pl = Facade_compiler.Pipeline.compile ~spec p in
  let pl', rep = D.optimize_pipeline ?config pl in
  agree "optimize_pipeline" (pipeline ?config pl)
    (pl'.Facade_compiler.Pipeline.transformed, rep)
