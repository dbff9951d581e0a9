(* The optimizer's early exits against the full rewrites they skip.
   Wherever a pass's exit predicate holds, the pass's full rewrite must
   return the method unchanged with a zero count. [check_program] asks
   this of every method of every program the optimizer's default pass
   sequence passes through, round 1 and the cleanup round alike, so each
   predicate meets each method as every pass sees it. *)

open Jir

let const_fold_solve m =
  let st =
    { Opt.Const_fold.folded = 0; branches_folded = 0; blocks_removed = 0; jumps = 0 }
  in
  let m' = Opt.Const_fold.solve st m in
  (m', st.Opt.Const_fold.folded + st.branches_folded + st.blocks_removed + st.jumps)

let counted solve m =
  let count = ref 0 in
  let m' = solve count m in
  (m', !count)

let exits =
  [
    ("const_fold", Opt.Const_fold.nothing_to_rewrite, const_fold_solve);
    ("copy_prop", Opt.Copy_prop.nothing_to_rewrite, counted Opt.Copy_prop.solve);
    ("dce", Opt.Dce.nothing_to_rewrite, counted Opt.Dce.solve);
  ]

let budget = Opt.Config.default.Opt.Config.inline_budget

(* The exits of the passes that read the whole program, for the methods
   of [p]: the inliner's (no site it would take), lock elision's (no
   monitor site; its rewrite here drops every monitor, the most any
   escape verdict could) and devirtualization's (no virtual call). *)
let program_exits ~may_inline p =
  let cha = Facade_compiler.Optimize.cha p in
  let next_id () = 0 in
  [
    ( "inline",
      (fun ~cls m -> Opt.Inline.nothing_to_rewrite p ~budget ~may_inline ~caller_cls:cls m),
      fun ~cls ->
        counted (fun count ->
            Opt.Inline.solve p ~budget ~may_inline ~caller_cls:cls ~next_id count) );
    ( "lock_elide",
      (fun ~cls:_ m -> Opt.Lock_elide.nothing_to_rewrite m),
      fun ~cls -> counted (fun count -> Opt.Lock_elide.solve (fun _ _ -> false) count ~cls) );
    ( "devirt",
      (fun ~cls:_ m -> Facade_compiler.Optimize.no_virtual_call m),
      fun ~cls:_ ->
        counted (fun count -> Facade_compiler.Optimize.devirtualize_sites ~count cha) );
  ]

let method_exits =
  List.map
    (fun (pass, exits, solve) -> (pass, (fun ~cls:_ m -> exits m), fun ~cls:_ m -> solve m))
    exits

(* How many (pass, method) exits fired; fails on one the solve refutes. *)
let check_method ?(exits = method_exits) ~cls ~where (m : Ir.meth) =
  List.fold_left
    (fun fired (pass, exits, solve) ->
      if exits ~cls m then begin
        let m', count = solve ~cls m in
        (* [compare], not [=]: a NaN constant must equal itself. *)
        if count <> 0 || compare m m' <> 0 then
          Alcotest.failf "%s exits on %s, but its full solve rewrites it" pass where;
        fired + 1
      end
      else fired)
    0 exits

(* The optimizer's default sequence: round 1, then the cleanup round
   (run here on every method, a superset of the touched ones). *)
let stages ~may_inline p =
  let p1 = fst (Opt.Const_fold.run p) in
  let p2 = fst (Opt.Copy_prop.run p1) in
  let p3 = fst (Opt.Dce.run p2) in
  let p4 = fst (Opt.Devirt.run p3) in
  let p5 = fst (Opt.Lock_elide.run p4) in
  let p6 =
    fst (Opt.Inline.run ~budget ~may_inline p5)
  in
  let p7 = fst (Opt.Copy_prop.run p6) in
  let p8 = fst (Opt.Const_fold.run p7) in
  let p9 = fst (Opt.Dce.run p8) in
  [ p; p1; p2; p3; p4; p5; p6; p7; p8; p9 ]

let check_program ?(may_inline = fun _ _ -> true) ~name p =
  List.fold_left
    (fun fired p ->
      let exits = method_exits @ program_exits ~may_inline p in
      List.fold_left
        (fun fired (c : Ir.cls) ->
          List.fold_left
            (fun fired (m : Ir.meth) ->
              fired
              + check_method ~exits ~cls:c.Ir.cname
                  ~where:(Printf.sprintf "%s: %s.%s" name c.Ir.cname m.Ir.mname)
                  m)
            fired c.Ir.cmethods)
        fired (Program.classes p))
    0 (stages ~may_inline p)

(* P′ as [Opt.Driver.optimize_pipeline] sees it. *)
let check_pipeline ~name (pl : Facade_compiler.Pipeline.t) =
  check_program
    ~may_inline:(Opt.Driver.boundary_may_inline pl.Facade_compiler.Pipeline.classification)
    ~name pl.Facade_compiler.Pipeline.transformed
