open Jir
module B = Builder

let int_t = Jtype.Prim Jtype.Int

let simple_method () =
  let m = B.create ~static:true "f" ~ret:int_t in
  let b = B.entry m in
  let x = B.fresh m int_t in
  B.const_i b x 42;
  B.ret b (Some x);
  B.finish m

let test_builder_basic () =
  let m = simple_method () in
  Alcotest.(check string) "name" "f" m.Ir.mname;
  Alcotest.(check int) "one block" 1 (Array.length m.Ir.body);
  Alcotest.(check int) "instr count incl. terminator" 2 (Ir.instr_count m)

let test_builder_blocks_in_order () =
  let m = B.create ~static:true "g" in
  let b0 = B.entry m in
  let b1 = B.block m in
  let b2 = B.block m in
  B.jump b0 b2;
  B.jump b1 b2;
  B.ret b2 None;
  let meth = B.finish m in
  Alcotest.(check int) "three blocks" 3 (Array.length meth.Ir.body);
  match meth.Ir.body.(0).Ir.term with
  | Ir.Jump 2 -> ()
  | _ -> Alcotest.fail "entry should jump to block 2"

let test_builder_rejects_double_terminator () =
  let m = B.create ~static:true "h" in
  let b = B.entry m in
  B.ret b None;
  Alcotest.check_raises "second terminator" (Invalid_argument "Builder: block already terminated")
    (fun () -> B.ret b None)

let test_builder_rejects_retyping () =
  let m = B.create ~static:true "h" in
  B.declare m "x" int_t;
  B.declare m "x" int_t;
  Alcotest.check_raises "retype" (Invalid_argument "Builder.declare: x redeclared with a new type")
    (fun () -> B.declare m "x" (Jtype.Prim Jtype.Double))

let mk_program classes = Program.make ~entry:("Main", "main") classes

let test_verify_ok () =
  let main = B.cls "Main" ~methods:[ simple_method () ] in
  Alcotest.(check int) "no errors" 0
    (List.length (Verify.check_program (mk_program [ main ])))

let test_verify_undeclared_var () =
  let m = B.create ~static:true "main" in
  let b = B.entry m in
  B.add b (Ir.Move ("x", "y"));
  B.ret b None;
  let p = mk_program [ B.cls "Main" ~methods:[ B.finish m ] ] in
  Alcotest.(check bool) "catches undeclared" true (List.length (Verify.check_program p) >= 2)

let test_verify_bad_branch () =
  let m = B.create ~static:true "main" in
  let b = B.entry m in
  B.add b (Ir.Const ("c", Ir.Cint 1));
  (* Manually assemble a method with an out-of-range jump. *)
  let meth = B.finish m in
  let meth =
    { meth with Ir.body = [| { Ir.instrs = []; term = Ir.Jump 9 } |]; locals = [] }
  in
  let p = mk_program [ B.cls "Main" ~methods:[ meth ] ] in
  Alcotest.(check bool) "catches bad target" true
    (List.exists
       (fun (e : Verify.error) -> e.Verify.what = "branch to missing block b9")
       (Verify.check_program p))

let test_verify_unknown_method () =
  let m = B.create ~static:true "main" in
  let b = B.entry m in
  B.call b ~kind:Ir.Static ~cls:"Main" ~name:"nope" [];
  B.ret b None;
  let p = mk_program [ B.cls "Main" ~methods:[ B.finish m ] ] in
  Alcotest.(check bool) "catches missing method" true
    (List.exists
       (fun (e : Verify.error) -> e.Verify.what = "unknown method Main.nope")
       (Verify.check_program p))

let test_verify_duplicate_variable () =
  (* The builder can't produce this (declare is idempotent), so assemble a
     method whose param name collides with a local by record surgery. *)
  let m = B.create ~static:true "main" ~params:[ ("p", int_t) ] in
  let b = B.entry m in
  B.ret b None;
  let meth = { (B.finish m) with Ir.locals = [ ("p", int_t) ] } in
  let p = mk_program [ B.cls "Main" ~methods:[ meth ] ] in
  Alcotest.(check bool) "catches duplicate variable" true
    (List.exists
       (fun (e : Verify.error) -> e.Verify.what = "duplicate variable p")
       (Verify.check_program p))

let test_verify_duplicate_method () =
  let mk () =
    let m = B.create ~static:true "twice" in
    let b = B.entry m in
    B.ret b None;
    B.finish m
  in
  let p =
    mk_program
      [ B.cls "Main" ~methods:[ simple_method (); mk (); mk () ] ]
  in
  Alcotest.(check bool) "catches duplicate method" true
    (List.exists
       (fun (e : Verify.error) -> e.Verify.what = "duplicate method twice")
       (Verify.check_program p))

(* The complete error list, in order, for errors in two classes and
   three methods: a count or an [exists] would let a change that reorders
   or drops a finding pass. *)
let test_verify_ordered_errors () =
  let meth ?(params = []) ?(locals = []) name instrs =
    {
      Ir.mname = name;
      mstatic = true;
      params;
      mret = None;
      locals;
      body = [| { Ir.instrs; term = Ir.Ret None } |];
    }
  in
  let a =
    B.cls "A"
      ~fields:[ B.field ~static:true "s" int_t ]
      ~methods:
        [
          meth "f" ~params:[ ("p", int_t) ] ~locals:[ ("p", int_t); ("x", int_t) ]
            [ Ir.Move ("x", "q"); Ir.Static_load ("x", "A", "nope") ];
          meth "g" ~locals:[ ("y", int_t) ]
            [ Ir.Static_store ("A", "gone", "y"); Ir.Call (None, Ir.Static, "A", "h", None, []) ];
        ]
  in
  let main =
    B.cls "Main"
      ~methods:
        [
          meth "main" ~locals:[ ("r", int_t); ("r", int_t) ]
            [ Ir.Call (Some "r", Ir.Static, "Main", "nope", None, [ "u" ]); Ir.Move ("r", "w") ];
        ]
  in
  let p = mk_program [ a; main ] in
  Alcotest.(check (list (pair string string)))
    "ordered errors"
    [
      ("A.g", "unknown method A.h");
      ("A.g", "unknown static field A.gone");
      ("A.f", "unknown static field A.nope");
      ("A.f", "undeclared variable q");
      ("A.f", "duplicate variable p");
      ("Main.main", "undeclared variable w");
      ("Main.main", "unknown method Main.nope");
      ("Main.main", "undeclared variable u");
      ("Main.main", "duplicate variable r");
    ]
    (List.map (fun (e : Verify.error) -> (e.Verify.where, e.Verify.what)) (Verify.check_program p))

let hierarchy_fixture () =
  let a = B.cls "A" in
  let b = B.cls "B" ~super:"A" in
  let c = B.cls "C" ~super:"B" ~interfaces:[ "I" ] in
  let i = B.cls "I" ~interface:true in
  let main = B.cls "Main" ~methods:[ simple_method () ] in
  mk_program [ a; b; c; i; main ]

let test_hierarchy_chain () =
  let p = hierarchy_fixture () in
  Alcotest.(check (list string)) "super chain" [ "B"; "A" ] (Hierarchy.super_chain p "C");
  Alcotest.(check (list string)) "subclasses of A" [ "B"; "C" ]
    (List.sort compare (Hierarchy.subclasses p "A"))

let test_hierarchy_subtyping () =
  let p = hierarchy_fixture () in
  Alcotest.(check bool) "C <= A" true (Hierarchy.is_subclass p ~sub:"C" ~super:"A");
  Alcotest.(check bool) "A </= C" false (Hierarchy.is_subclass p ~sub:"A" ~super:"C");
  Alcotest.(check bool) "reflexive" true (Hierarchy.is_subclass p ~sub:"B" ~super:"B");
  Alcotest.(check bool) "everything <= Object" true
    (Hierarchy.is_subclass p ~sub:"A" ~super:Jtype.object_class);
  Alcotest.(check bool) "C implements I" true (Hierarchy.implements p ~cls:"C" ~intf:"I");
  Alcotest.(check bool) "B does not" false (Hierarchy.implements p ~cls:"B" ~intf:"I")

let test_hierarchy_assignable () =
  let p = hierarchy_fixture () in
  let chk exp from_ to_ =
    Alcotest.(check bool)
      (Jtype.to_string from_ ^ " -> " ^ Jtype.to_string to_)
      exp
      (Hierarchy.is_assignable p ~from_ ~to_)
  in
  chk true (Jtype.Ref "C") (Jtype.Ref "A");
  chk true (Jtype.Ref "C") (Jtype.Ref "I");
  chk false (Jtype.Ref "A") (Jtype.Ref "I");
  chk true (Jtype.Array (Jtype.Ref "C")) (Jtype.Array (Jtype.Ref "A"));
  chk false (Jtype.Prim Jtype.Int) (Jtype.Prim Jtype.Long);
  chk true (Jtype.Array int_t) (Jtype.Ref Jtype.object_class)

let test_hierarchy_fields_in_layout_order () =
  let a = B.cls "A" ~fields:[ B.field "x" int_t ] in
  let b = B.cls "B" ~super:"A" ~fields:[ B.field "y" int_t ] in
  let p = mk_program [ a; b; B.cls "Main" ~methods:[ simple_method () ] ] in
  let names = List.map (fun (_, (f : Ir.field)) -> f.Ir.fname) (Hierarchy.all_instance_fields p "B") in
  Alcotest.(check (list string)) "super first" [ "x"; "y" ] names

let test_hierarchy_resolve () =
  let ma = simple_method () in
  let a = B.cls "A" ~methods:[ ma ] in
  let b = B.cls "B" ~super:"A" in
  let p = mk_program [ a; b; B.cls "Main" ~methods:[ simple_method () ] ] in
  (match Hierarchy.resolve_method p ~cls:"B" ~name:"f" with
  | Some m -> Alcotest.(check string) "inherited" "f" m.Ir.mname
  | None -> Alcotest.fail "should resolve through super");
  Alcotest.(check bool) "missing stays missing" true
    (Hierarchy.resolve_method p ~cls:"B" ~name:"zzz" = None)

let test_concrete_subtype () =
  let p = hierarchy_fixture () in
  Alcotest.(check (option string)) "interface -> implementor" (Some "C")
    (Hierarchy.concrete_subtype p "I");
  Alcotest.(check (option string)) "class is itself" (Some "A")
    (Hierarchy.concrete_subtype p "A")

let test_program_duplicates () =
  Alcotest.check_raises "duplicate class" (Invalid_argument "Program.make: duplicate class A")
    (fun () -> ignore (mk_program [ B.cls "A"; B.cls "A" ]))

let test_pretty_smoke () =
  let s = Pretty.program_to_string Samples.fig2.Samples.program in
  Alcotest.(check bool) "prints classes" true (String.length s > 200)

let test_samples_verify () =
  List.iter
    (fun (s : Samples.sample) -> Verify.check_or_fail s.Samples.program)
    Samples.all

let prop_builder_fresh_unique =
  QCheck.Test.make ~name:"fresh vars are unique" ~count:100 (QCheck.int_range 1 50) (fun n ->
      let m = B.create ~static:true "p" in
      let vars = List.init n (fun _ -> B.fresh m int_t) in
      List.length (List.sort_uniq compare vars) = n)

let () =
  Alcotest.run "jir"
    [
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "block order" `Quick test_builder_blocks_in_order;
          Alcotest.test_case "double terminator" `Quick test_builder_rejects_double_terminator;
          Alcotest.test_case "retyping" `Quick test_builder_rejects_retyping;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_builder_fresh_unique ] );
      ( "verify",
        [
          Alcotest.test_case "ok" `Quick test_verify_ok;
          Alcotest.test_case "undeclared var" `Quick test_verify_undeclared_var;
          Alcotest.test_case "bad branch" `Quick test_verify_bad_branch;
          Alcotest.test_case "unknown method" `Quick test_verify_unknown_method;
          Alcotest.test_case "duplicate variable" `Quick test_verify_duplicate_variable;
          Alcotest.test_case "duplicate method" `Quick test_verify_duplicate_method;
          Alcotest.test_case "samples verify" `Quick test_samples_verify;
          Alcotest.test_case "ordered errors" `Quick test_verify_ordered_errors;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "chain" `Quick test_hierarchy_chain;
          Alcotest.test_case "subtyping" `Quick test_hierarchy_subtyping;
          Alcotest.test_case "assignable" `Quick test_hierarchy_assignable;
          Alcotest.test_case "field order" `Quick test_hierarchy_fields_in_layout_order;
          Alcotest.test_case "resolve" `Quick test_hierarchy_resolve;
          Alcotest.test_case "concrete subtype" `Quick test_concrete_subtype;
        ] );
      ( "program",
        [
          Alcotest.test_case "duplicates" `Quick test_program_duplicates;
          Alcotest.test_case "pretty" `Quick test_pretty_smoke;
        ] );
    ]
