open Jir
module B = Builder
module FC = Facade_compiler

let int_t = Jtype.Prim Jtype.Int

let spec ?(boundary = []) roots = { FC.Classify.data_roots = roots; boundary }

(* A small fixture mirroring Figure 1: Professor / Student / String. *)
let fig1_program () =
  let student = B.cls "Student" ~fields:[ B.field "id" int_t; B.field "name" (Jtype.Ref Jtype.string_class) ] in
  let professor =
    B.cls "Professor"
      ~fields:
        [
          B.field "id" int_t;
          B.field "students" (Jtype.Array (Jtype.Ref "Student"));
          B.field "name" (Jtype.Ref Jtype.string_class);
        ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let z = B.fresh m int_t in
    B.const_i b z 0;
    B.ret b (Some z);
    B.finish m
  in
  Program.make ~entry:("Main", "main") [ student; professor; B.cls "Main" ~methods:[ main ] ]

(* ---------- classification ---------- *)

let test_classify_detects_via_fields () =
  let p = fig1_program () in
  (* Only Professor given: Student must be detected through the field. *)
  let cl = FC.Classify.classify p (spec [ "Professor"; "Main" ]) in
  Alcotest.(check bool) "Student detected" true (FC.Classify.is_data_class cl "Student");
  Alcotest.(check bool) "detected list" true (List.mem "Student" cl.FC.Classify.detected)

let test_classify_closes_hierarchy () =
  let base = B.cls "Vertex" in
  let sub = B.cls "ChiVertex" ~super:"Vertex" in
  let p = Program.make [ base; sub; B.cls "Main" ] in
  let cl = FC.Classify.classify p (spec [ "ChiVertex" ]) in
  Alcotest.(check bool) "superclass detected" true (FC.Classify.is_data_class cl "Vertex");
  let cl2 = FC.Classify.classify p (spec [ "Vertex" ]) in
  Alcotest.(check bool) "subclass detected" true (FC.Classify.is_data_class cl2 "ChiVertex")

let test_classify_string_is_data () =
  let p = fig1_program () in
  let cl = FC.Classify.classify p (spec []) in
  Alcotest.(check bool) "String always data" true
    (FC.Classify.is_data_class cl Jtype.string_class)

let test_classify_data_types () =
  let p = fig1_program () in
  let cl = FC.Classify.classify p (spec [ "Professor"; "Main" ]) in
  let chk exp ty = Alcotest.(check bool) (Jtype.to_string ty) exp (FC.Classify.is_data_type cl ty) in
  chk true (Jtype.Ref "Student");
  chk true (Jtype.Array (Jtype.Ref "Student"));
  chk true (Jtype.Array int_t);
  chk false int_t;
  chk false (Jtype.Ref "UnknownControl")

let test_classify_boundary_excluded () =
  let p = fig1_program () in
  let cl = FC.Classify.classify p (spec ~boundary:[ ("Main", []) ] [ "Professor" ]) in
  Alcotest.(check bool) "boundary is not data" false (FC.Classify.is_data_class cl "Main");
  Alcotest.(check bool) "boundary recognized" true (FC.Classify.is_boundary_class cl "Main")

(* ---------- assumptions ---------- *)

let test_assumption_reference_violation () =
  (* A data class holding a control-typed reference field: violation. *)
  let ctrl = B.cls "Helper" in
  let bad = B.cls "Rec" ~fields:[ B.field "h" (Jtype.Ref "Helper") ] in
  let p = Program.make [ ctrl; bad; B.cls "Main" ] in
  let cl = FC.Classify.classify p (spec ~boundary:[ ("Helper", []) ] [ "Rec" ]) in
  let vs = FC.Assumptions.check p cl in
  Alcotest.(check bool) "violation reported" true
    (List.exists (fun (v : FC.Assumptions.violation) -> v.FC.Assumptions.cls = "Rec") vs)

let test_assumption_hierarchy_violation () =
  let super = B.cls "Base" in
  let sub = B.cls "Rec" ~super:"Base" in
  let p = Program.make [ super; sub; B.cls "Main" ] in
  (* Force Base out of the data set by marking it boundary. *)
  let cl = FC.Classify.classify p (spec ~boundary:[ ("Base", []) ] [ "Rec" ]) in
  let vs = FC.Assumptions.check p cl in
  Alcotest.(check bool) "type-closed-world violation" true
    (List.exists
       (fun (v : FC.Assumptions.violation) ->
         v.FC.Assumptions.cls = "Rec" && String.length v.FC.Assumptions.detail > 0)
       vs)

let test_assumption_clean_program () =
  let p = fig1_program () in
  let cl = FC.Classify.classify p (spec [ "Professor"; "Main" ]) in
  Alcotest.(check int) "no violations" 0 (List.length (FC.Assumptions.check p cl))

(* ---------- layout ---------- *)

let layout_fixture () =
  let p = fig1_program () in
  let cl = FC.Classify.classify p (spec [ "Professor"; "Main" ]) in
  (p, cl, FC.Layout.compute p cl)

let test_layout_offsets () =
  let _, _, layout = layout_fixture () in
  (* Figure 1: id (int, 4B) then students (ref, 8B) then name (ref, 8B),
     after the 4-byte header. *)
  let slot f = FC.Layout.field_slot layout ~cls:"Professor" ~field:f in
  Alcotest.(check int) "id offset" 4 (slot "id").FC.Layout.offset;
  Alcotest.(check int) "students offset" 8 (slot "students").FC.Layout.offset;
  Alcotest.(check int) "name offset" 16 (slot "name").FC.Layout.offset;
  Alcotest.(check int) "record size" 20 (FC.Layout.record_data_bytes layout "Professor")

let test_layout_superclass_fields_first () =
  let a = B.cls "A" ~fields:[ B.field "x" int_t ] in
  let b = B.cls "B" ~super:"A" ~fields:[ B.field "y" int_t ] in
  let p = Program.make [ a; b; B.cls "Main" ] in
  let cl = FC.Classify.classify p (spec [ "B" ]) in
  let layout = FC.Layout.compute p cl in
  Alcotest.(check int) "inherited x first" 4
    (FC.Layout.field_slot layout ~cls:"B" ~field:"x").FC.Layout.offset;
  Alcotest.(check int) "own y second" 8
    (FC.Layout.field_slot layout ~cls:"B" ~field:"y").FC.Layout.offset;
  (* And the subclass layout extends the superclass layout. *)
  Alcotest.(check int) "A.x same offset" 4
    (FC.Layout.field_slot layout ~cls:"A" ~field:"x").FC.Layout.offset

let test_layout_type_ids_distinct () =
  let _, cl, layout = layout_fixture () in
  let ids = List.map (FC.Layout.type_id layout) (FC.Classify.data_classes cl) in
  Alcotest.(check int) "distinct ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_layout_array_types () =
  let _, _, layout = layout_fixture () in
  let aid = FC.Layout.type_id layout "Student[]" in
  Alcotest.(check bool) "array id flagged" true (FC.Layout.is_array_type_id layout aid);
  let sid = FC.Layout.type_id layout "Student" in
  Alcotest.(check bool) "class id not array" false (FC.Layout.is_array_type_id layout sid);
  Alcotest.(check int) "id roundtrip" aid
    (FC.Layout.type_id_of_jtype layout (Jtype.Array (Jtype.Ref "Student")))

let test_layout_prim_widths () =
  Alcotest.(check int) "double" 8 (FC.Layout.field_width (Jtype.Prim Jtype.Double));
  Alcotest.(check int) "bool" 1 (FC.Layout.field_width (Jtype.Prim Jtype.Bool));
  Alcotest.(check int) "ref" 8 (FC.Layout.field_width (Jtype.Ref "X"))

(* ---------- bounds ---------- *)

let test_bounds_from_call_sites () =
  (* A method taking three Students: the Student pool must hold >= 3. *)
  let student = B.cls "Student" ~fields:[ B.field "id" int_t ] in
  let seminar =
    let m =
      B.create "enroll"
        ~params:
          [ ("a", Jtype.Ref "Student"); ("b", Jtype.Ref "Student"); ("c", Jtype.Ref "Student") ]
    in
    B.ret (B.entry m) None;
    let caller =
      let c = B.create "go" ~params:[ ("s", Jtype.Ref "Student") ] in
      let blk = B.entry c in
      B.call blk ~recv:"this" ~kind:Ir.Virtual ~cls:"Seminar" ~name:"enroll" [ "s"; "s"; "s" ];
      B.ret blk None;
      B.finish c
    in
    B.cls "Seminar" ~methods:[ B.finish m; caller ]
  in
  let p = Program.make [ student; seminar; B.cls "Main" ] in
  let cl = FC.Classify.classify p (spec [ "Student"; "Seminar"; "Main" ]) in
  let layout = FC.Layout.compute p cl in
  let bounds = FC.Bounds.compute p cl layout in
  Alcotest.(check int) "Student bound" 3
    (FC.Bounds.bound bounds ~type_id:(FC.Layout.type_id layout "Student"));
  Alcotest.(check int) "Seminar bound stays 1" 1
    (FC.Bounds.bound bounds ~type_id:(FC.Layout.type_id layout "Seminar"))

let test_bounds_minimum_one () =
  let p, cl, layout = layout_fixture () in
  let bounds = FC.Bounds.compute p cl layout in
  List.iter
    (fun c ->
      match Program.find_class p c with
      | Some def when def.Ir.cinterface -> ()
      | Some _ | None ->
          Alcotest.(check bool)
            (c ^ " bound >= 1") true
            (FC.Bounds.bound bounds ~type_id:(FC.Layout.type_id layout c) >= 1))
    (FC.Classify.data_classes cl)

let test_bounds_total () =
  let p, cl, layout = layout_fixture () in
  let bounds = FC.Bounds.compute p cl layout in
  (* Total = one receiver per concrete data class + pool sizes. *)
  Alcotest.(check bool) "total positive" true (FC.Bounds.total_facades_per_thread bounds > 0)

(* ---------- transformation ---------- *)

let compile s = FC.Pipeline.compile ~spec:s.Samples.spec s.Samples.program

let test_transform_facade_has_no_instance_fields () =
  let pl = compile Samples.fig2 in
  let fc = Program.get_class pl.FC.Pipeline.transformed "Professor$Facade" in
  List.iter
    (fun (f : Ir.field) ->
      Alcotest.(check bool) ("static " ^ f.Ir.fname) true f.Ir.fstatic)
    fc.Ir.cfields

let test_transform_offset_fields () =
  let pl = compile Samples.fig2 in
  let fc = Program.get_class pl.FC.Pipeline.transformed "Professor$Facade" in
  let off =
    List.find_opt (fun (f : Ir.field) -> f.Ir.fname = "students_OFFSET") fc.Ir.cfields
  in
  match off with
  | Some f -> Alcotest.(check bool) "has init" true (f.Ir.finit <> None)
  | None -> Alcotest.fail "students_OFFSET missing"

let test_transform_constructor_renamed () =
  let pl = compile Samples.fig2 in
  let fc = Program.get_class pl.FC.Pipeline.transformed "Student$Facade" in
  Alcotest.(check bool) "facade$init present" true
    (List.exists (fun (m : Ir.meth) -> m.Ir.mname = FC.Transform.init_name) fc.Ir.cmethods);
  Alcotest.(check bool) "<init> gone" false
    (List.exists (fun (m : Ir.meth) -> m.Ir.mname = FC.Transform.constructor_name) fc.Ir.cmethods)

let test_transform_entry_remapped () =
  let pl = compile Samples.fig2 in
  Alcotest.(check (pair string string)) "entry" ("Main$Facade", "main")
    (Program.entry pl.FC.Pipeline.transformed)

let test_transform_originals_kept () =
  (* Original data classes remain for the control path / conversions. *)
  let pl = compile Samples.fig2 in
  Alcotest.(check bool) "Professor kept" true (Program.mem pl.FC.Pipeline.transformed "Professor")

let original_methods p' cls =
  List.map (fun (m : Ir.meth) -> m.Ir.mname) (Program.get_class p' cls).Ir.cmethods

let test_transform_keeps_control_called_originals () =
  let pl = compile Samples.original_calls in
  let p' = pl.FC.Pipeline.transformed in
  let has cls name = List.mem name (original_methods p' cls) in
  Alcotest.(check bool) "Circle is data" true
    (FC.Classify.is_data_class pl.FC.Pipeline.classification "Circle");
  Alcotest.(check bool) "Shape.area: virtual target typed at the superclass" true
    (has "Shape" "area");
  Alcotest.(check bool) "Circle.area: the CHA subtype override" true (has "Circle" "area");
  Alcotest.(check bool) "Circle.r2: called from a kept original" true (has "Circle" "r2");
  Alcotest.(check bool) "Worker.run: spawned from control code" true (has "Worker" "run");
  Alcotest.(check bool) "Circle.perimeter: called only from data code" false
    (has "Circle" "perimeter");
  Alcotest.(check bool) "constructors: called only from data code" false
    (has "Circle" FC.Transform.constructor_name || has "Worker" FC.Transform.constructor_name);
  Alcotest.(check bool) "the facade keeps every method" true
    (List.mem "perimeter" (original_methods p' "Circle$Facade"));
  (* fields and layout stay whole: conversion builds the heap copies *)
  Alcotest.(check int) "Circle keeps its field" 1
    (List.length (Program.get_class p' "Circle").Ir.cfields);
  Verify.check_or_fail p'

(* Result and output, or the error text: a pruned method that control
   code does call shows up as a NoSuchMethodError or a changed result. *)
let run_outcome run =
  match run () with
  | (o : Facade_vm.Interp.outcome) ->
      Ok
        ( Exact.exact_result o.Facade_vm.Interp.result,
          Facade_vm.Exec_stats.output_lines o.Facade_vm.Interp.stats )
  | exception Facade_vm.Interp.Vm_error e -> Error e

let test_transform_pruned_originals_agree () =
  let module I = Facade_vm.Interp in
  let p = Samples.original_calls.Samples.program in
  Verify.check_or_fail p;
  let pl = compile Samples.original_calls in
  let pl_opt, _ = Opt.Driver.optimize_pipeline pl in
  let is_data = FC.Classify.is_data_class pl.FC.Pipeline.classification in
  let show = function
    | Ok (r, out) -> Printf.sprintf "%s [%s]" r (String.concat "; " out)
    | Error e -> "error: " ^ e
  in
  let expected = run_outcome (fun () -> Vm_runs.run_object ~is_data p) in
  Alcotest.(check string) "P's own answer" "107 [14; 77; 30]" (show expected);
  List.iter
    (fun (what, run) -> Alcotest.(check string) what (show expected) (show (run_outcome run)))
    [
      ("P tier 2", fun () -> Vm_runs.run_object ~is_data ~tier2:true p);
      ("P' tier 1", fun () -> I.run_facade pl);
      ("P' tier 2", fun () -> I.run_facade ~tier:(Vm_runs.facade_tier pl) pl);
      ("optimized P' tier 1", fun () -> I.run_facade pl_opt);
      ( "optimized P' tier 2",
        fun () -> I.run_facade ~tier:(Vm_runs.facade_tier pl_opt) pl_opt );
      ("P' baseline", fun () -> Facade_vm.Interp_baseline.run_facade pl);
    ]

let test_transform_super_preserved () =
  let pl = compile Samples.dispatch in
  let fc = Program.get_class pl.FC.Pipeline.transformed "Square$Facade" in
  Alcotest.(check (option string)) "facade extends facade" (Some "Shape$Facade") fc.Ir.super

let test_transform_no_data_field_access_left () =
  (* In facade method bodies no Field_load/store of data-class instance
     fields may remain: they all became intrinsics. *)
  let pl = compile Samples.fig2 in
  let fc = Program.get_class pl.FC.Pipeline.transformed "Professor$Facade" in
  List.iter
    (fun (m : Ir.meth) ->
      Ir.iter_instrs
        (function
          | Ir.Field_load (_, _, f) | Ir.Field_store (_, f, _) ->
              Alcotest.fail ("raw field access survived: " ^ f)
          | _ -> ())
        m)
    fc.Ir.cmethods

let test_transform_counts () =
  let pl = compile Samples.fig2 in
  Alcotest.(check bool) "instrs counted" true (pl.FC.Pipeline.instrs_in > 0);
  Alcotest.(check bool) "output grows" true
    (pl.FC.Pipeline.instrs_out >= pl.FC.Pipeline.instrs_in);
  Alcotest.(check bool) "classes transformed" true (pl.FC.Pipeline.classes_transformed >= 3)

let test_transform_conversions_synthesized () =
  let pl = compile Samples.conversion in
  Alcotest.(check bool) "Point conversion synthesized" true
    (List.mem "Point" pl.FC.Pipeline.conversions)

let test_transform_error_on_34 () =
  (* Storing a control object into a data record's field: case 3.4. *)
  let helper = B.cls "Helper" in
  let rec_ = B.cls "Rec" ~fields:[ B.field "x" int_t ] in
  let main =
    let m = B.create ~static:true "main" in
    let b = B.entry m in
    let r = B.fresh m (Jtype.Ref "Rec") in
    let h = B.fresh m (Jtype.Ref "Helper") in
    B.new_obj b r "Rec";
    B.new_obj b h "Helper";
    B.fstore b ~obj:r ~field:"x" ~src:h;
    B.ret b None;
    B.finish m
  in
  let p = Program.make ~entry:("Main", "main") [ helper; rec_; B.cls "Main" ~methods:[ main ] ] in
  (* The layout slot for x is int; storing an object raises at transform
     time via the slot check or at VM time — here we check the compile-time
     path with a reference-typed field. *)
  ignore p;
  let rec2 = B.cls "Rec2" ~fields:[ B.field "h" (Jtype.Ref "Helper") ] in
  let p2 = Program.make [ helper; rec2; B.cls "Main" ] in
  let cl = FC.Classify.classify p2 (spec ~boundary:[ ("Helper", []) ] [ "Rec2" ]) in
  Alcotest.(check bool) "assumption violation found" true
    (List.length (FC.Assumptions.check p2 cl) > 0)

let test_devirtualize () =
  (* Single concrete implementation: the call becomes Special. *)
  let impl =
    let m = B.create "go" ~ret:int_t in
    let b = B.entry m in
    let z = B.fresh m int_t in
    B.const_i b z 1;
    B.ret b (Some z);
    B.finish m
  in
  let a = B.cls "Only" ~methods:[ impl ] in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let o = B.fresh m (Jtype.Ref "Only") in
    let r = B.fresh m int_t in
    B.new_obj b o "Only";
    B.call b ~ret:r ~recv:o ~kind:Ir.Virtual ~cls:"Only" ~name:"go" [];
    B.ret b (Some r);
    B.finish m
  in
  let p = Program.make ~entry:("Main", "main") [ a; B.cls "Main" ~methods:[ main ] ] in
  let p' = FC.Optimize.devirtualize p in
  Alcotest.(check int) "one call devirtualized" 1 (FC.Optimize.devirtualized_calls p p')

let test_devirtualize_keeps_polymorphic () =
  let p = Samples.dispatch.Samples.program in
  let p' = FC.Optimize.devirtualize p in
  (* Shape.area has three targets: the area calls must stay virtual. *)
  let main = Option.get (Program.find_method p' ~cls:"Main" ~name:"main") in
  let virtuals = ref 0 in
  Ir.iter_instrs
    (function Ir.Call (_, Ir.Virtual, _, "area", _, _) -> incr virtuals | _ -> ())
    main;
  Alcotest.(check int) "area stays virtual" 2 !virtuals

(* ---------- CHA index ---------- *)

(* The enumeration the index replaces: every concrete class tested with
   the Hierarchy predicates, then deduplicated by declaring class. *)
let brute_subtypes p cls =
  List.rev
    (Program.fold
       (fun c acc ->
         if c.Ir.cinterface then acc
         else if
           Hierarchy.is_subclass p ~sub:c.Ir.cname ~super:cls
           || Hierarchy.implements p ~cls:c.Ir.cname ~intf:cls
         then c.Ir.cname :: acc
         else acc)
       p [])

let brute_targets p ~cls ~name =
  let rec declaring c =
    match Program.find_method p ~cls:c ~name with
    | Some _ -> Some c
    | None -> (
        match Program.find_class p c with
        | Some { Ir.super = Some s; _ } -> declaring s
        | Some { Ir.super = None; _ } | None -> None)
  in
  brute_subtypes p cls
  |> List.filter (fun c -> Hierarchy.resolve_method p ~cls:c ~name <> None)
  |> List.filter_map declaring
  |> List.sort_uniq String.compare

(* Every (type, method name) pair of [p] — each class and interface plus
   Object, against every method name declared anywhere. *)
let check_cha_exhaustive tag p =
  let idx = FC.Optimize.cha p in
  let names =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (c : Ir.cls) -> List.map (fun (m : Ir.meth) -> m.Ir.mname) c.Ir.cmethods)
         (Program.classes p))
  in
  let types = Jtype.object_class :: List.map (fun (c : Ir.cls) -> c.Ir.cname) (Program.classes p) in
  List.iter
    (fun cls ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s: subtypes of %s" tag cls)
        (brute_subtypes p cls) (FC.Optimize.concrete_subtypes idx cls);
      List.iter
        (fun name ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: targets of %s.%s" tag cls name)
            (brute_targets p ~cls ~name)
            (FC.Optimize.possible_targets idx ~cls ~name))
        names)
    types

let test_cha_samples () =
  List.iter
    (fun (s : Samples.sample) ->
      check_cha_exhaustive s.Samples.name s.Samples.program;
      let pl = FC.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
      check_cha_exhaustive (s.Samples.name ^ "'") pl.FC.Pipeline.transformed)
    Samples.all

(* Interfaces with a super-interface, implementors reached through a
   super class, a five-deep chain under an override, and a method that
   only some subtrees override. *)
let cha_hierarchy () =
  let meth name =
    let m = B.create name ~ret:int_t in
    let b = B.entry m in
    let z = B.fresh m int_t in
    B.const_i b z 1;
    B.ret b (Some z);
    B.finish m
  in
  let deep =
    List.init 5 (fun i ->
        B.cls (Printf.sprintf "Deep%d" i)
          ~super:(if i = 0 then "Leaf" else Printf.sprintf "Deep%d" (i - 1)))
  in
  Program.make ~entry:("Main", "main")
    ([
       B.cls "Shape" ~interface:true;
       B.cls "Named" ~interface:true;
       B.cls "Titled" ~interface:true ~interfaces:[ "Named" ];
       B.cls "Base" ~interfaces:[ "Shape" ] ~methods:[ meth "area"; meth "size" ];
       B.cls "Mid" ~super:"Base";
       B.cls "Leaf" ~super:"Mid" ~interfaces:[ "Titled" ] ~methods:[ meth "area"; meth "name" ];
       B.cls "Square" ~interfaces:[ "Shape" ] ~methods:[ meth "area" ];
       B.cls "Main" ~methods:[ B.finish (B.create ~static:true "main") ];
     ]
    @ deep)

let test_cha_directed () =
  let p = cha_hierarchy () in
  check_cha_exhaustive "directed" p;
  let idx = FC.Optimize.cha p in
  let targets cls name = FC.Optimize.possible_targets idx ~cls ~name in
  Alcotest.(check (list string)) "interface implementors, deduped by declarer"
    [ "Base"; "Leaf"; "Square" ] (targets "Shape" "area");
  Alcotest.(check (list string)) "inherited override below the receiver"
    [ "Base"; "Leaf" ] (targets "Mid" "area");
  Alcotest.(check (list string)) "deep chain resolves to the override" [ "Leaf" ]
    (targets "Deep3" "area");
  Alcotest.(check (list string)) "inherited from above the receiver" [ "Base" ]
    (targets "Deep4" "size");
  Alcotest.(check (list string)) "super-interface reaches the implementor" [ "Leaf" ]
    (targets "Named" "name");
  Alcotest.(check (list string)) "Object admits every concrete class"
    [ "Base"; "Mid"; "Leaf"; "Square"; "Main"; "Deep0"; "Deep1"; "Deep2"; "Deep3"; "Deep4" ]
    (FC.Optimize.concrete_subtypes idx Jtype.object_class);
  Alcotest.(check (list string)) "unknown type has no subtypes" []
    (FC.Optimize.concrete_subtypes idx "Nowhere")

let test_pipeline_speed_report () =
  let program, sp = Samples.synthetic ~classes:20 ~methods_per_class:5 in
  Verify.check_or_fail program;
  let pl = FC.Pipeline.compile ~spec:sp program in
  Alcotest.(check bool) "speed measured" true (FC.Pipeline.instrs_per_second pl > 0.0);
  Alcotest.(check bool) "instruction volume" true (pl.FC.Pipeline.instrs_in > 500)

let prop_synthetic_always_compiles =
  QCheck.Test.make ~name:"synthetic programs compile and verify" ~count:10
    QCheck.(pair (int_range 1 12) (int_range 1 6))
    (fun (classes, mpc) ->
      let program, sp = Samples.synthetic ~classes ~methods_per_class:mpc in
      Verify.check_or_fail program;
      let pl = FC.Pipeline.compile ~spec:sp program in
      Verify.check_or_fail pl.FC.Pipeline.transformed;
      pl.FC.Pipeline.instrs_in > 0)

let () =
  Alcotest.run "facade_compiler"
    [
      ( "classify",
        [
          Alcotest.test_case "detects via fields" `Quick test_classify_detects_via_fields;
          Alcotest.test_case "closes hierarchy" `Quick test_classify_closes_hierarchy;
          Alcotest.test_case "string is data" `Quick test_classify_string_is_data;
          Alcotest.test_case "data types" `Quick test_classify_data_types;
          Alcotest.test_case "boundary excluded" `Quick test_classify_boundary_excluded;
        ] );
      ( "assumptions",
        [
          Alcotest.test_case "reference violation" `Quick test_assumption_reference_violation;
          Alcotest.test_case "hierarchy violation" `Quick test_assumption_hierarchy_violation;
          Alcotest.test_case "clean program" `Quick test_assumption_clean_program;
        ] );
      ( "layout",
        [
          Alcotest.test_case "offsets" `Quick test_layout_offsets;
          Alcotest.test_case "superclass first" `Quick test_layout_superclass_fields_first;
          Alcotest.test_case "ids distinct" `Quick test_layout_type_ids_distinct;
          Alcotest.test_case "array types" `Quick test_layout_array_types;
          Alcotest.test_case "prim widths" `Quick test_layout_prim_widths;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "from call sites" `Quick test_bounds_from_call_sites;
          Alcotest.test_case "minimum one" `Quick test_bounds_minimum_one;
          Alcotest.test_case "total" `Quick test_bounds_total;
        ] );
      ( "transform",
        [
          Alcotest.test_case "no instance fields" `Quick test_transform_facade_has_no_instance_fields;
          Alcotest.test_case "offset fields" `Quick test_transform_offset_fields;
          Alcotest.test_case "constructor renamed" `Quick test_transform_constructor_renamed;
          Alcotest.test_case "entry remapped" `Quick test_transform_entry_remapped;
          Alcotest.test_case "originals kept" `Quick test_transform_originals_kept;
          Alcotest.test_case "control-called originals kept" `Quick
            test_transform_keeps_control_called_originals;
          Alcotest.test_case "pruned originals: P and P' agree" `Quick
            test_transform_pruned_originals_agree;
          Alcotest.test_case "super preserved" `Quick test_transform_super_preserved;
          Alcotest.test_case "no raw data access" `Quick test_transform_no_data_field_access_left;
          Alcotest.test_case "counts" `Quick test_transform_counts;
          Alcotest.test_case "conversions synthesized" `Quick test_transform_conversions_synthesized;
          Alcotest.test_case "case 3.4 violations" `Quick test_transform_error_on_34;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "devirtualize" `Quick test_devirtualize;
          Alcotest.test_case "keeps polymorphic" `Quick test_devirtualize_keeps_polymorphic;
          Alcotest.test_case "CHA index = brute force on samples" `Quick test_cha_samples;
          Alcotest.test_case "CHA index = brute force, directed" `Quick test_cha_directed;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "speed report" `Quick test_pipeline_speed_report ]
        @ [ QCheck_alcotest.to_alcotest prop_synthetic_always_compiles ] );
    ]
