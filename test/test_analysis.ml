(* The dataflow framework and the FACADE invariant linter: seeded-violation
   programs each caught by the corresponding analysis, clean programs with
   zero findings, and the regression pin that every sample's transformed
   P' — where the compiler has inserted all conversions — lints clean. *)

open Jir
module B = Builder
module A = Analysis

let int_t = Jtype.Prim Jtype.Int
let ctor = Facade_compiler.Transform.constructor_name

let finding_strings fs = List.map A.Finding.to_string fs

let check_clean what fs =
  Alcotest.(check (list string)) what [] (finding_strings fs)

let has_analysis name fs =
  List.exists (fun (f : A.Finding.t) -> String.equal f.A.Finding.analysis name) fs

(* A diamond: b0 branches to b1/b2, both join in b3. [init_both] controls
   whether x is assigned on both arms or only the then-arm. *)
let diamond ~init_both =
  let m = B.create ~static:true "main" ~ret:int_t in
  B.declare m "x" int_t;
  B.declare m "y" int_t;
  let b0 = B.entry m in
  let cond = B.fresh m int_t in
  let b1 = B.block m in
  let b2 = B.block m in
  let b3 = B.block m in
  B.const_i b0 cond 1;
  B.branch b0 cond ~then_:b1 ~else_:b2;
  B.const_i b1 "x" 5;
  B.jump b1 b3;
  if init_both then B.const_i b2 "x" 7;
  B.jump b2 b3;
  B.binop b3 "y" Ir.Add "x" "x";
  B.ret b3 (Some "y");
  B.finish m

(* ---------- cfg ---------- *)

let test_cfg_shape () =
  let m = diamond ~init_both:true in
  let cfg = A.Cfg.of_method m in
  Alcotest.(check int) "blocks" 4 cfg.A.Cfg.nblocks;
  Alcotest.(check (list int)) "b0 succs" [ 1; 2 ] (Array.to_list cfg.A.Cfg.succs.(0));
  Alcotest.(check (list int)) "b3 preds" [ 1; 2 ] (Array.to_list cfg.A.Cfg.preds.(3));
  Alcotest.(check (list int)) "exits" [ 3 ] (Array.to_list cfg.A.Cfg.exits)

(* ---------- liveness ---------- *)

let test_liveness_diamond () =
  let m = diamond ~init_both:true in
  let lv = A.Liveness.analyze m in
  (* x is written on both arms and read in b3: live into b1/b2's successor
     edge but not into b0. *)
  Alcotest.(check bool) "x live into b3" true (A.Liveness.live_in lv 3 "x");
  Alcotest.(check bool) "x dead into b0" false (A.Liveness.live_in lv 0 "x");
  Alcotest.(check bool) "x live out of b1" true (A.Liveness.live_out lv 1 "x")

let test_liveness_loop () =
  (* b0 -> b1 (loop body) -> b1 | b2; i is live around the back edge. *)
  let m = B.create ~static:true "main" ~ret:int_t in
  let b0 = B.entry m in
  let i = B.fresh m int_t in
  let n = B.fresh m int_t in
  let c = B.fresh m int_t in
  let one = B.fresh m int_t in
  B.const_i b0 i 0;
  B.const_i b0 n 10;
  B.const_i b0 one 1;
  let b1 = B.block m in
  let b2 = B.block m in
  B.jump b0 b1;
  B.binop b1 i Ir.Add i one;
  B.binop b1 c Ir.Lt i n;
  B.branch b1 c ~then_:b1 ~else_:b2;
  B.ret b2 (Some i);
  let m = B.finish m in
  let lv = A.Liveness.analyze m in
  Alcotest.(check bool) "i live around back edge" true
    (A.Liveness.live_in lv 1 i);
  Alcotest.(check bool) "n live around back edge" true (A.Liveness.live_in lv 1 n)

(* The frame DCE sweeps: y is defined in b3 before the return reads it,
   so it is dead into b3. Once b3's only instruction (y = x + x) is
   dropped from it, a re-solve finds x dead into b3 and out of b1, and y
   (read by the return, defined nowhere now) live into b3. *)
let test_liveness_resolve () =
  let m = diamond ~init_both:true in
  let fr = A.Liveness.frame m in
  let before = A.Liveness.solve fr in
  Alcotest.(check bool) "x live into b3" true (A.Liveness.live_in before 3 "x");
  Alcotest.(check bool) "y dead into b3" false (A.Liveness.live_in before 3 "y");
  fr.A.Liveness.sites.(3) <- [];
  let after = A.Liveness.solve fr in
  Alcotest.(check bool) "x dead into b3" false (A.Liveness.live_in after 3 "x");
  Alcotest.(check bool) "x dead out of b1" false (A.Liveness.live_out after 1 "x");
  Alcotest.(check bool) "y live into b3" true (A.Liveness.live_in after 3 "y")

(* ---------- reaching definitions ---------- *)

let test_reaching_defs () =
  let m = diamond ~init_both:true in
  let rd = A.Reaching_defs.analyze m in
  let defs_of_x = A.Reaching_defs.defs_of rd.A.Reaching_defs.reach_in.(3) "x" in
  Alcotest.(check int) "both arm defs reach the join" 2 (List.length defs_of_x);
  (* A redefinition kills: after b3's own instructions nothing changes for
     x, but y's def site is b3. *)
  let defs_of_y = A.Reaching_defs.defs_of rd.A.Reaching_defs.reach_out.(3) "y" in
  Alcotest.(check int) "y defined in b3" 1 (List.length defs_of_y);
  match defs_of_y with
  | [ d ] -> Alcotest.(check int) "y def block" 3 d.A.Reaching_defs.block
  | _ -> Alcotest.fail "expected one def"

let test_reaching_defs_kill () =
  let m = B.create ~static:true "main" ~ret:int_t in
  let b0 = B.entry m in
  let x = B.fresh m int_t in
  B.const_i b0 x 1;
  B.const_i b0 x 2;
  B.ret b0 (Some x);
  let m = B.finish m in
  let rd = A.Reaching_defs.analyze m in
  (match A.Reaching_defs.defs_of rd.A.Reaching_defs.reach_out.(0) x with
  | [ d ] -> Alcotest.(check int) "second def wins" 1 d.A.Reaching_defs.index
  | ds -> Alcotest.fail (Printf.sprintf "expected one def, got %d" (List.length ds)));
  (* Parameters reach as pseudo-sites. *)
  let m2 = B.create ~static:true "f" ~params:[ ("p", int_t) ] ~ret:int_t in
  let b = B.entry m2 in
  B.ret b (Some "p");
  let m2 = B.finish m2 in
  let rd2 = A.Reaching_defs.analyze m2 in
  match A.Reaching_defs.defs_of rd2.A.Reaching_defs.reach_in.(0) "p" with
  | [ d ] -> Alcotest.(check int) "param pseudo-site" (-1) d.A.Reaching_defs.block
  | _ -> Alcotest.fail "expected the parameter entry def"

(* ---------- definite assignment ---------- *)

let test_def_assign_one_branch () =
  let m = diamond ~init_both:false in
  let fs = A.Def_assign.check ~where:"Main.main" m in
  Alcotest.(check bool) "use-before-def caught" true (has_analysis "def-assign" fs);
  Alcotest.(check int) "exactly one finding" 1 (List.length fs)

let test_def_assign_clean () =
  check_clean "both arms assign" (A.Def_assign.check ~where:"Main.main" (diamond ~init_both:true))

let test_def_assign_loop_carried () =
  (* x only assigned inside the loop body, used after: the zero-trip path
     reaches the use unassigned. *)
  let m = B.create ~static:true "main" ~ret:int_t in
  B.declare m "x" int_t;
  let b0 = B.entry m in
  let c = B.fresh m int_t in
  B.const_i b0 c 0;
  let b1 = B.block m in
  let b2 = B.block m in
  B.branch b0 c ~then_:b1 ~else_:b2;
  B.const_i b1 "x" 1;
  B.branch b1 c ~then_:b1 ~else_:b2;
  B.ret b2 (Some "x");
  let fs = A.Def_assign.check ~where:"Main.main" (B.finish m) in
  Alcotest.(check int) "zero-trip use caught" 1 (List.length fs)

(* ---------- monitor pairing ---------- *)

let monitor_meth build =
  let m = B.create ~static:true "main" ~ret:int_t in
  let b0 = B.entry m in
  let v = B.fresh m (Jtype.Ref "D") in
  let r = B.fresh m int_t in
  B.const_i b0 r 0;
  B.new_obj b0 v "D";
  build m b0 v r;
  B.finish m

let test_monitors_clean_nested () =
  let m =
    monitor_meth (fun _m b v r ->
        B.monitor_enter b v;
        B.monitor_enter b v;
        B.monitor_exit b v;
        B.monitor_exit b v;
        B.ret b (Some r))
  in
  check_clean "reentrant pairing" (A.Monitors.check ~where:"Main.main" m)

let test_monitors_held_at_return () =
  let m =
    monitor_meth (fun _m b v r ->
        B.monitor_enter b v;
        B.ret b (Some r))
  in
  let fs = A.Monitors.check ~where:"Main.main" m in
  Alcotest.(check int) "held at return" 1 (List.length fs);
  Alcotest.(check bool) "monitors analysis" true (has_analysis "monitors" fs)

let test_monitors_exit_without_enter () =
  let m =
    monitor_meth (fun _m b v r ->
        B.monitor_exit b v;
        B.ret b (Some r))
  in
  let fs = A.Monitors.check ~where:"Main.main" m in
  Alcotest.(check int) "unmatched exit" 1 (List.length fs)

let test_monitors_branch_disagreement () =
  let m = B.create ~static:true "main" ~ret:int_t in
  let b0 = B.entry m in
  let v = B.fresh m (Jtype.Ref "D") in
  let c = B.fresh m int_t in
  B.new_obj b0 v "D";
  B.const_i b0 c 1;
  let b1 = B.block m in
  let b2 = B.block m in
  let b3 = B.block m in
  B.branch b0 c ~then_:b1 ~else_:b2;
  B.monitor_enter b1 v;
  B.jump b1 b3;
  B.jump b2 b3;
  B.ret b3 (Some c);
  let fs = A.Monitors.check ~where:"Main.main" (B.finish m) in
  Alcotest.(check int) "join disagreement reported once" 1 (List.length fs);
  match fs with
  | [ f ] -> Alcotest.(check int) "at the join block" 3 f.A.Finding.block
  | _ -> Alcotest.fail "expected one finding"

let test_monitors_lock_intrinsics () =
  (* The transformed program's lock.enter/lock.exit follow the same
     protocol: an unpaired lock.enter is caught too. *)
  let m =
    monitor_meth (fun _m b v r ->
        B.add b (Ir.Intrinsic (None, Facade_compiler.Rt_names.lock_enter, [ Ir.Var v ]));
        B.ret b (Some r))
  in
  let fs = A.Monitors.check ~where:"Main.main" m in
  Alcotest.(check int) "lock.enter held at return" 1 (List.length fs)

(* ---------- boundary-leak detection ---------- *)

(* D is a data root; C is a control-path class with a D-typed field. *)
let leak_fixture build_main =
  let d =
    B.cls "D" ~fields:[ B.field "a" int_t; B.field "next" (Jtype.Ref "D") ]
      ~methods:
        [
          (let m = B.create ctor in
           let b = B.entry m in
           B.ret b None;
           B.finish m);
        ]
  in
  let c =
    B.cls "C"
      ~fields:[ B.field "keep" (Jtype.Ref "D"); B.field ~static:true "cache" (Jtype.Ref "D") ]
      ~methods:
        [
          (let m = B.create ctor in
           let b = B.entry m in
           B.ret b None;
           B.finish m);
          (let m = B.create ~static:true "consume" ~params:[ ("d", Jtype.Ref "D") ] in
           let b = B.entry m in
           B.ret b None;
           B.finish m);
        ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let dv = B.fresh m (Jtype.Ref "D") in
    let cv = B.fresh m (Jtype.Ref "C") in
    let r = B.fresh m int_t in
    B.new_obj b dv "D";
    B.call b ~recv:dv ~kind:Ir.Special ~cls:"D" ~name:ctor [];
    B.new_obj b cv "C";
    B.call b ~recv:cv ~kind:Ir.Special ~cls:"C" ~name:ctor [];
    build_main m b ~d:dv ~c:cv;
    B.const_i b r 0;
    B.ret b (Some r);
    B.finish m
  in
  let p = Program.make ~entry:("Main", "main") [ d; c; B.cls "Main" ~methods:[ main ] ] in
  let spec = { Facade_compiler.Classify.data_roots = [ "D"; "Main" ]; boundary = [] } in
  (p, Facade_compiler.Classify.classify p spec)

let leak_findings build_main =
  let p, cl = leak_fixture build_main in
  Verify.check_or_fail p;
  A.Leak.check cl p

(* The complete finding list, in order, for a field, a static, an array
   and a call-argument leak across two methods: a count would let a
   change that reorders or drops a finding pass. *)
let test_leak_ordered_findings () =
  let helper =
    let m = B.create ~static:true "helper" ~params:[ ("d", Jtype.Ref "D") ] in
    let b = B.entry m in
    let n = B.fresh m int_t in
    let arr = B.fresh m (Jtype.Array (Jtype.Ref "C")) in
    B.const_i b n 1;
    B.new_array b arr (Jtype.Ref "C") ~len:n;
    B.astore b ~arr ~idx:n ~src:"d";
    B.call b ~kind:Ir.Static ~cls:"C" ~name:"consume" [ "d" ];
    B.ret b None;
    B.finish m
  in
  let p, cl =
    leak_fixture (fun _m b ~d ~c ->
        B.fstore b ~obj:c ~field:"keep" ~src:d;
        B.add b (Ir.Static_store ("C", "cache", d));
        B.call b ~kind:Ir.Static ~cls:"Main" ~name:"helper" [ d ])
  in
  let p =
    Program.make ~entry:(Program.entry p)
      (List.map
         (fun (c : Ir.cls) ->
           if String.equal c.Ir.cname "Main" then
             { c with Ir.cmethods = c.Ir.cmethods @ [ helper ] }
           else c)
         (Program.classes p))
  in
  Verify.check_or_fail p;
  Alcotest.(check (list string))
    "ordered findings"
    [
      "Main.main: b0/4: [boundary-leak] data reference t$0 stored into control-path field C.keep \
       without conversion";
      "Main.main: b0/5: [boundary-leak] data reference t$0 stored into control-path static C.cache \
       without conversion";
      "Main.helper: b0/2: [boundary-leak] data reference d stored into control-path array t$1 \
       without conversion";
      "Main.helper: b0/3: [boundary-leak] data reference d passed to control-path method \
       C.consume without conversion";
    ]
    (finding_strings (A.Leak.check cl p))

let test_leak_into_control_field () =
  let fs = leak_findings (fun _m b ~d ~c -> B.fstore b ~obj:c ~field:"keep" ~src:d) in
  Alcotest.(check int) "field leak" 1 (List.length fs);
  Alcotest.(check bool) "is boundary-leak" true (has_analysis "boundary-leak" fs)

let test_leak_into_control_static () =
  let fs = leak_findings (fun _m b ~d ~c:_ -> B.add b (Ir.Static_store ("C", "cache", d))) in
  Alcotest.(check int) "static leak" 1 (List.length fs)

let test_leak_into_control_call () =
  let fs =
    leak_findings (fun _m b ~d ~c:_ -> B.call b ~kind:Ir.Static ~cls:"C" ~name:"consume" [ d ])
  in
  Alcotest.(check int) "call-argument leak" 1 (List.length fs)

let test_leak_flows_through_move () =
  let fs =
    leak_findings (fun m b ~d ~c ->
        let alias = B.fresh m (Jtype.Ref "D") in
        B.move b ~dst:alias ~src:d;
        B.fstore b ~obj:c ~field:"keep" ~src:alias)
  in
  Alcotest.(check int) "leak through an alias" 1 (List.length fs)

let test_leak_conversion_is_clean () =
  (* Passing through convert.to (the synthesized conversion function at an
     interaction point) launders the reference: no finding. *)
  let fs =
    leak_findings (fun m b ~d ~c ->
        let t = B.fresh m (Jtype.Ref "D") in
        B.add b
          (Ir.Intrinsic
             ( Some t,
               Facade_compiler.Rt_names.convert_to,
               [ Ir.Imm (Ir.Cstr "D"); Ir.Var d ] ));
        B.fstore b ~obj:c ~field:"keep" ~src:t)
  in
  check_clean "conversion launders taint" fs

let test_leak_data_path_flows_are_clean () =
  (* Flows that stay inside the data path never trip the detector. *)
  let fs =
    leak_findings (fun m b ~d ~c:_ ->
        let other = B.fresh m (Jtype.Ref "D") in
        B.new_obj b other "D";
        B.call b ~recv:other ~kind:Ir.Special ~cls:"D" ~name:ctor [];
        B.fstore b ~obj:d ~field:"next" ~src:other)
  in
  check_clean "data-to-data store" fs

(* ---------- whole-program lint + pipeline validation on samples ---------- *)

let compile s = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program

let test_leak_kept_original_is_control_side () =
  (* A kept original's methods run on converted heap instances. Circle.area
     survives in P' because control code calls it, and it hands its heap
     [this] back to control code (Ctl.log): checked as data-path code it
     would be a leak, so Leak counts kept originals as control side. *)
  let s = Samples.original_calls in
  let pl = compile s in
  let cl = pl.Facade_compiler.Pipeline.classification in
  let p' = pl.Facade_compiler.Pipeline.transformed in
  Alcotest.(check bool) "Circle is a kept original" true
    (Facade_compiler.Transform.is_kept_original cl p' "Circle");
  Alcotest.(check bool) "its facade is not" false
    (Facade_compiler.Transform.is_kept_original cl p' "Circle$Facade");
  let area = Option.get (Program.find_method p' ~cls:"Circle" ~name:"area") in
  Alcotest.(check int) "as a data method, the handback is a leak" 1
    (List.length (A.Leak.check_method cl ~where:"Circle.area" ~declaring:"Circle" area));
  check_clean "original_calls transformed" (A.Leak.check cl p')

let test_samples_original_clean () =
  (* The classification-independent analyses hold on every sample as
     written: no use-before-def, no unpaired monitor. *)
  List.iter
    (fun (s : Samples.sample) ->
      check_clean (s.Samples.name ^ " original") (A.Lint.check_program s.Samples.program))
    Samples.all

let test_samples_transformed_clean () =
  (* The acceptance pin: the transformed P' of every sample lints clean,
     boundary-leak detector included — the transform inserted a conversion
     at every interaction point. [original_calls] adds original methods
     that control code calls, one of them handing its heap [this] back. *)
  List.iter
    (fun (s : Samples.sample) ->
      let pl = compile s in
      check_clean
        (s.Samples.name ^ " transformed")
        (A.Lint.check_program
           ~classification:pl.Facade_compiler.Pipeline.classification
           pl.Facade_compiler.Pipeline.transformed))
    (Samples.all @ [ Samples.original_calls ])

let test_samples_roundtrip_lint_clean () =
  (* The facade_cli lint path: serialize P' to the textual format, parse
     it back, re-classify from the user spec, lint — still clean. *)
  List.iter
    (fun (s : Samples.sample) ->
      let pl = compile s in
      let text = Text_format.to_string pl.Facade_compiler.Pipeline.transformed in
      let p' = Text_format.parse text in
      let cl = Facade_compiler.Classify.classify p' s.Samples.spec in
      check_clean
        (s.Samples.name ^ " roundtrip")
        (A.Lint.check_program ~classification:cl p'))
    (Samples.all @ [ Samples.original_calls ])

let test_pipeline_validation_catches_surviving_new () =
  (* Hand-corrupt a transformed program: a facade method that still heap-
     allocates a data class must be rejected by the validation hook. *)
  let pl = compile Samples.fig2 in
  let p' = pl.Facade_compiler.Pipeline.transformed in
  let cl = pl.Facade_compiler.Pipeline.classification in
  let bounds = pl.Facade_compiler.Pipeline.bounds in
  Alcotest.(check (list string)) "valid as generated" []
    (List.map
       (fun (e : Facade_compiler.Pipeline.validation_error) ->
         e.Facade_compiler.Pipeline.vwhere ^ ": " ^ e.Facade_compiler.Pipeline.vwhat)
       (Facade_compiler.Pipeline.validate_transformed cl bounds p'));
  let fc = Program.get_class p' "Student$Facade" in
  let corrupt_meth (m : Ir.meth) =
    {
      m with
      Ir.locals = ("$evil", Jtype.Ref "Student") :: m.Ir.locals;
      body =
        Array.map
          (fun (blk : Ir.block) ->
            { blk with Ir.instrs = Ir.New ("$evil", "Student") :: blk.Ir.instrs })
          m.Ir.body;
    }
  in
  let fc = { fc with Ir.cmethods = List.map corrupt_meth fc.Ir.cmethods } in
  let p_bad = Program.replace_class p' fc in
  let errs = Facade_compiler.Pipeline.validate_transformed cl bounds p_bad in
  Alcotest.(check bool) "surviving data New rejected" true
    (List.exists
       (fun (e : Facade_compiler.Pipeline.validation_error) ->
         e.Facade_compiler.Pipeline.vwhat
         = "surviving heap allocation of data class Student")
       errs)

let test_pipeline_validation_catches_bad_pool_index () =
  let pl = compile Samples.fig2 in
  let p' = pl.Facade_compiler.Pipeline.transformed in
  let cl = pl.Facade_compiler.Pipeline.classification in
  let bounds = pl.Facade_compiler.Pipeline.bounds in
  let fc = Program.get_class p' "Student$Facade" in
  let corrupt_meth (m : Ir.meth) =
    {
      m with
      Ir.locals = ("$pp", Jtype.Ref "Student$Facade") :: m.Ir.locals;
      body =
        Array.map
          (fun (blk : Ir.block) ->
            {
              blk with
              Ir.instrs =
                Ir.Intrinsic
                  ( Some "$pp",
                    Facade_compiler.Rt_names.pool_param,
                    [ Ir.Imm (Ir.Cint 0); Ir.Imm (Ir.Cint 999) ] )
                :: blk.Ir.instrs;
            })
          m.Ir.body;
    }
  in
  let fc = { fc with Ir.cmethods = List.map corrupt_meth fc.Ir.cmethods } in
  let p_bad = Program.replace_class p' fc in
  let errs = Facade_compiler.Pipeline.validate_transformed cl bounds p_bad in
  Alcotest.(check bool) "pool index out of bounds rejected" true
    (List.exists
       (fun (e : Facade_compiler.Pipeline.validation_error) ->
         let what = e.Facade_compiler.Pipeline.vwhat in
         String.length what >= 10 && String.sub what 0 10 = "pool.param")
       errs)

(* ---------- findings encoding ---------- *)

let test_finding_json () =
  let f = A.Finding.make ~analysis:"def-assign" ~where:"Main.main" ~block:2 ~index:0 "x \"quoted\"" in
  Alcotest.(check string) "json escaping"
    {|{"analysis":"def-assign","severity":"error","where":"Main.main","block":2,"index":0,"what":"x \"quoted\""}|}
    (Obs.Json.to_string (A.Finding.to_json f));
  Alcotest.(check string) "list wrapper"
    {|{"file":"a.jir","count":1,"findings":[{"analysis":"def-assign","severity":"error","where":"Main.main","block":2,"index":0,"what":"x \"quoted\""}]}|}
    (Obs.Json.to_string (A.Finding.list_to_json ~file:"a.jir" [ f ]));
  (* Control characters and backslashes: the exact bytes, and a parse
     that gives back the original strings. *)
  let what = "back\\slash\nnew line\ttab \001 byte" and where = "A.f\"" in
  let g = A.Finding.make ~analysis:"race" ~where ~severity:A.Finding.Warning what in
  let js = Obs.Json.to_string (A.Finding.list_to_json [ g ]) in
  Alcotest.(check string) "control characters"
    {|{"count":1,"findings":[{"analysis":"race","severity":"warning","where":"A.f\"","block":-1,"index":-1,"what":"back\\slash\nnew line\ttab \u0001 byte"}]}|}
    js;
  let field k j = Option.bind (Obs.Json.member k j) Obs.Json.to_str in
  match Obs.Json.parse js with
  | Error m -> Alcotest.fail ("findings JSON does not parse: " ^ m)
  | Ok j -> (
      match Option.bind (Obs.Json.member "findings" j) Obs.Json.to_list with
      | Some [ fj ] ->
          Alcotest.(check (option string)) "what round-trips" (Some what) (field "what" fj);
          Alcotest.(check (option string)) "where round-trips" (Some where) (field "where" fj)
      | _ -> Alcotest.fail "expected one finding")

let () =
  Alcotest.run "analysis"
    [
      ( "framework",
        [
          Alcotest.test_case "cfg shape" `Quick test_cfg_shape;
          Alcotest.test_case "liveness diamond" `Quick test_liveness_diamond;
          Alcotest.test_case "liveness loop" `Quick test_liveness_loop;
          Alcotest.test_case "reaching defs join" `Quick test_reaching_defs;
          Alcotest.test_case "reaching defs kill" `Quick test_reaching_defs_kill;
          Alcotest.test_case "liveness re-solve" `Quick test_liveness_resolve;
        ] );
      ( "def-assign",
        [
          Alcotest.test_case "one-branch init" `Quick test_def_assign_one_branch;
          Alcotest.test_case "clean diamond" `Quick test_def_assign_clean;
          Alcotest.test_case "zero-trip loop" `Quick test_def_assign_loop_carried;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "clean nested" `Quick test_monitors_clean_nested;
          Alcotest.test_case "held at return" `Quick test_monitors_held_at_return;
          Alcotest.test_case "exit without enter" `Quick test_monitors_exit_without_enter;
          Alcotest.test_case "branch disagreement" `Quick test_monitors_branch_disagreement;
          Alcotest.test_case "lock intrinsics" `Quick test_monitors_lock_intrinsics;
        ] );
      ( "boundary-leak",
        [
          Alcotest.test_case "control field" `Quick test_leak_into_control_field;
          Alcotest.test_case "ordered findings" `Quick test_leak_ordered_findings;
          Alcotest.test_case "control static" `Quick test_leak_into_control_static;
          Alcotest.test_case "control call arg" `Quick test_leak_into_control_call;
          Alcotest.test_case "through move" `Quick test_leak_flows_through_move;
          Alcotest.test_case "conversion clean" `Quick test_leak_conversion_is_clean;
          Alcotest.test_case "data-path clean" `Quick test_leak_data_path_flows_are_clean;
          Alcotest.test_case "kept original is control side" `Quick
            test_leak_kept_original_is_control_side;
        ] );
      ( "samples",
        [
          Alcotest.test_case "originals clean" `Quick test_samples_original_clean;
          Alcotest.test_case "transformed clean" `Quick test_samples_transformed_clean;
          Alcotest.test_case "roundtrip lint clean" `Quick test_samples_roundtrip_lint_clean;
        ] );
      ( "pipeline-validation",
        [
          Alcotest.test_case "surviving new" `Quick test_pipeline_validation_catches_surviving_new;
          Alcotest.test_case "pool index" `Quick test_pipeline_validation_catches_bad_pool_index;
        ] );
      ( "encoding", [ Alcotest.test_case "json" `Quick test_finding_json ] );
    ]
