(* The optimizer as a plain composition of its nine passes, in the
   driver's order, each applied to every method with no sharing: the
   reference the driver must reproduce byte for byte. It calls each
   pass's per-method rewrite itself rather than going through
   [Pass.map_methods], and keeps the rewrite's output whatever the pass
   says about it, so a rewrite the pass fails to report (which the driver
   would drop, keeping the input method) shows up as a difference. A
   method reported unchanged must also come back equal to its input,
   checked directly. The report is rebuilt the same way, so
   [report_to_json] compares too. *)

open Jir
module D = Opt.Driver

let apply ~pass (t : Opt.Pass.t) p =
  let rewrite_cls (c : Ir.cls) =
    let rewrite (m : Ir.meth) =
      let m', did = t.Opt.Pass.rewrite ~cls:c.Ir.cname m in
      (* [compare], not [=]: a NaN constant must equal itself. *)
      if (not did) && compare m m' <> 0 then
        Alcotest.failf "%s rewrote %s.%s without reporting it" pass c.Ir.cname m.Ir.mname;
      m'
    in
    { c with Ir.cmethods = List.map rewrite c.Ir.cmethods }
  in
  let p' = Program.make ~entry:(Program.entry p) (List.map rewrite_cls (Program.classes p)) in
  (p', t.Opt.Pass.count ())

let program ?(config = Opt.Config.default) ?(may_inline = fun _ _ -> true) p =
  let c = config in
  let passes =
    [
      ("const_fold", "folded", c.Opt.Config.const_fold, fun _ -> Opt.Const_fold.pass ());
      ("copy_prop", "copies", c.Opt.Config.copy_prop, fun _ -> Opt.Copy_prop.pass ());
      ("dce", "removed", c.Opt.Config.dce, fun _ -> Opt.Dce.pass ());
      ("devirt", "devirtualized", c.Opt.Config.devirt, Opt.Devirt.pass);
      ("lock_elide", "elided", c.Opt.Config.lock_elide, Opt.Lock_elide.pass);
      ( "inline",
        "inlined",
        c.Opt.Config.inline,
        Opt.Inline.pass ~budget:c.Opt.Config.inline_budget ~may_inline );
    ]
    @
    if c.Opt.Config.inline then
      [
        ("copy_prop'", "copies", c.Opt.Config.copy_prop, fun _ -> Opt.Copy_prop.pass ());
        ("const_fold'", "folded", c.Opt.Config.const_fold, fun _ -> Opt.Const_fold.pass ());
        ("dce'", "removed", c.Opt.Config.dce, fun _ -> Opt.Dce.pass ());
      ]
    else []
  in
  let p', deltas =
    List.fold_left
      (fun (p, deltas) (pass, metric, enabled, make) ->
        if not enabled then (p, deltas)
        else begin
          let p', count = apply ~pass (make p) p in
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

let text (p, r) = (Text_format.to_string p, Obs.Json.to_string (D.report_to_json r))

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
