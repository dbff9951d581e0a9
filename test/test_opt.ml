(* The optimizer's correctness contract, in three layers:

   1. per-pass unit tests — directed programs where each pass must fire
      (its delta count is positive) and must not change the result;
   2. differential equivalence — every shipped sample and a qcheck fuzz
      population run optimized-vs-unoptimized (and the optimized program
      through the name-based baseline interpreter) with bit-identical
      results, output, and heapsim/pagestore metrics;
   3. invariant enforcement — a deliberately broken extra pass (verifier
      break, boundary leak) makes [Opt.Driver.optimize_pipeline] raise
      {!Pipeline.Invalid_transform} instead of shipping bad JIR. *)

open Jir
module B = Builder
module P = Facade_compiler.Pipeline
module I = Facade_vm.Interp

let int_t = Jtype.Prim Jtype.Int

let value_eq a b =
  match a, b with
  | Some x, Some y -> Facade_vm.Value.equal_ref x y
  | None, None -> true
  | Some _, None | None, Some _ -> false

let int_result (o : I.outcome) =
  match o.I.result with Some (Facade_vm.Value.Int n) -> n | _ -> min_int

(* ---------- per-pass unit tests ---------- *)

(* Each builds the smallest program where the pass has work to do, runs
   the pass alone, and checks (a) it fired, (b) object-mode execution is
   unchanged. *)

let check_pass name pass expect p =
  let o1 = Vm_runs.run_object p in
  let p', count = pass p in
  Verify.check_or_fail p';
  let o2 = Vm_runs.run_object p' in
  Alcotest.(check bool) (name ^ " fired") true (count > 0);
  Alcotest.(check bool) (name ^ " preserves result") true
    (value_eq o1.I.result o2.I.result);
  Alcotest.(check int) (name ^ " expected result") expect (int_result o2)

let test_const_fold () =
  (* a*b folds to 6, the comparison to true, and the branch to a jump *)
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let bt = B.block m and be = B.block m in
    let a = B.fresh m int_t and bv = B.fresh m int_t in
    let c = B.fresh m int_t and t = B.fresh m int_t in
    let z = B.fresh m int_t in
    B.const_i b a 2;
    B.const_i b bv 3;
    B.binop b c Ir.Mul a bv;
    B.binop b t Ir.Lt a bv;
    B.branch b t ~then_:bt ~else_:be;
    B.ret bt (Some c);
    B.const_i be z 0;
    B.ret be (Some z);
    B.finish m
  in
  let p = Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ main ] ] in
  check_pass "const_fold" Opt.Const_fold.run 6 p

let test_copy_prop () =
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m int_t and c = B.fresh m int_t in
    let d = B.fresh m int_t in
    B.const_i b a 5;
    B.move b ~dst:c ~src:a;
    B.binop b d Ir.Add c c;
    B.ret b (Some d);
    B.finish m
  in
  let p = Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ main ] ] in
  check_pass "copy_prop" Opt.Copy_prop.run 10 p

let test_dce () =
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m int_t and dead = B.fresh m int_t in
    B.const_i b a 5;
    B.binop b dead Ir.Add a a;  (* result never read *)
    B.ret b (Some a);
    B.finish m
  in
  let p = Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ main ] ] in
  check_pass "dce" Opt.Dce.run 5 p

(* A one-class hierarchy: every virtual call is monomorphic, so CHA must
   devirtualize it; the callee is a leaf, so the inliner must take it. *)
let leafy_program () =
  let leaf =
    let m = B.create "leaf" ~params:[ ("x", int_t) ] ~ret:int_t in
    let b = B.entry m in
    let one = B.fresh m int_t and r = B.fresh m int_t in
    B.const_i b one 1;
    B.binop b r Ir.Add "x" one;
    B.ret b (Some r);
    B.finish m
  in
  let a_cls = B.cls "A" ~methods:[ leaf ] in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let o = B.fresh m (Jtype.Ref "A") in
    let five = B.fresh m int_t and r = B.fresh m int_t in
    B.new_obj b o "A";
    B.const_i b five 5;
    B.call b ~ret:r ~recv:o ~kind:Ir.Virtual ~cls:"A" ~name:"leaf" [ five ];
    B.ret b (Some r);
    B.finish m
  in
  Program.make ~entry:("Main", "main") [ a_cls; B.cls "Main" ~methods:[ main ] ]

let test_devirt () = check_pass "devirt" Opt.Devirt.run 6 (leafy_program ())

let test_inline () =
  (* devirt first: the inliner only takes direct (Static/Special) sites *)
  let p, _ = Opt.Devirt.run (leafy_program ()) in
  check_pass "inline" (Opt.Inline.run ~budget:8) 6 p

let test_inline_respects_budget () =
  let p, _ = Opt.Devirt.run (leafy_program ()) in
  let _, count = Opt.Inline.run ~budget:0 p in
  Alcotest.(check int) "budget 0 inlines nothing" 0 count

let test_config_toggles () =
  (* Config.none must leave the program untouched. *)
  let s = Samples.fig2 in
  let pl = P.compile ~spec:s.Samples.spec s.Samples.program in
  let pl', rep = Opt.Driver.optimize_pipeline ~config:Opt.Config.none pl in
  Alcotest.(check int) "no pass ran" 0 (List.length rep.Opt.Driver.deltas);
  Alcotest.(check int) "instr count unchanged" rep.Opt.Driver.instrs_before
    (Program.total_instrs pl'.P.transformed)

(* ---------- differential: optimized == unoptimized ---------- *)

let heap () = Heapsim.Heap.create (Heapsim.Hconfig.make ~heap_bytes:(1 lsl 22) ())

let store_triple (o : I.outcome) =
  match o.I.store_stats with
  | None -> (0, 0, 0)
  | Some st ->
      ( st.Pagestore.Store.records_allocated,
        st.Pagestore.Store.pages_created,
        st.Pagestore.Store.pages_recycled )

(* Compare an optimized run against the unoptimized reference: results,
   output, allocation metrics (heapsim + pagestore) — everything except
   step counts, which optimization exists to shrink. *)
let agree tag (ref_o : I.outcome) ref_heap (o : I.outcome) o_heap =
  Alcotest.(check bool) (tag ^ ": same result") true
    (value_eq ref_o.I.result o.I.result);
  Alcotest.(check (list string))
    (tag ^ ": same output")
    (Facade_vm.Exec_stats.output_lines ref_o.I.stats)
    (Facade_vm.Exec_stats.output_lines o.I.stats);
  Alcotest.(check int)
    (tag ^ ": same data objects") ref_o.I.stats.Facade_vm.Exec_stats.data_objects
    o.I.stats.Facade_vm.Exec_stats.data_objects;
  Alcotest.(check int)
    (tag ^ ": same page records") ref_o.I.stats.Facade_vm.Exec_stats.page_records
    o.I.stats.Facade_vm.Exec_stats.page_records;
  Alcotest.(check int) (tag ^ ": same facades") ref_o.I.facades_allocated
    o.I.facades_allocated;
  (* Lock elision may shrink the lock-pool peak but never grow it. *)
  Alcotest.(check bool)
    (tag ^ ": locks peak not above reference") true
    (o.I.locks_peak <= ref_o.I.locks_peak);
  let r1, p1, y1 = store_triple ref_o and r2, p2, y2 = store_triple o in
  Alcotest.(check (triple int int int)) (tag ^ ": same pagestore metrics")
    (r1, p1, y1) (r2, p2, y2);
  Alcotest.(check int)
    (tag ^ ": same heapsim allocations")
    (Heapsim.Heap.stats ref_heap).Heapsim.Gc_stats.objects_allocated
    (Heapsim.Heap.stats o_heap).Heapsim.Gc_stats.objects_allocated

let check_opt_differential_program ~name program spec =
  let pl = P.compile ~spec program in
  let pl_opt, _rep = Opt.Driver.optimize_pipeline pl in
  (* facade mode: unoptimized is the reference *)
  let h_ref = heap () in
  let f_ref = I.run_facade ~heap:h_ref pl in
  let h = heap () in
  let o = I.run_facade ~heap:h pl_opt in
  agree (Printf.sprintf "%s/facade/opt" name) f_ref h_ref o h;
  (* the name-based baseline must agree with the resolved VM on the
     optimized program — including step counts *)
  let b = Facade_vm.Interp_baseline.run_facade pl_opt in
  let r = I.run_facade pl_opt in
  Alcotest.(check bool) (name ^ ": baseline result on optimized P'") true
    (value_eq b.I.result r.I.result);
  Alcotest.(check int)
    (name ^ ": baseline steps on optimized P'")
    b.I.stats.Facade_vm.Exec_stats.steps r.I.stats.Facade_vm.Exec_stats.steps;
  (* object mode, same legs *)
  let is_data c = Facade_compiler.Classify.is_data_class pl.P.classification c in
  let p_opt, _ = Opt.Driver.optimize_program program in
  let h_ref = heap () in
  let o_ref = Vm_runs.run_object ~heap:h_ref ~is_data program in
  let h = heap () in
  let o = Vm_runs.run_object ~heap:h ~is_data p_opt in
  agree (Printf.sprintf "%s/object/opt" name) o_ref h_ref o h

let check_opt_differential (s : Samples.sample) () =
  check_opt_differential_program ~name:s.Samples.name s.Samples.program
    s.Samples.spec

let sample_cases =
  List.map
    (fun s ->
      Alcotest.test_case ("opt agrees " ^ s.Samples.name) `Quick
        (check_opt_differential s))
    Samples.all

(* ---------- qcheck fuzz differential ---------- *)

(* A compact op language over one data class: field arithmetic, aliasing
   through links, array traffic, and a virtual combine — enough surface
   for every pass (folding of the emitted constants, copy chains from
   Swap, dead loads, CHA on combine, inlining of the tiny ctor). *)
type op =
  | Set_a of int * int
  | Add_a of int * int
  | Link of int * int
  | Follow of int * int
  | Swap of int * int
  | Arr_set of int * int * int
  | Arr_accum of int * int
  | Combine of int * int

let nvars = 3
let ctor = Facade_compiler.Transform.constructor_name

let op_gen =
  let open QCheck.Gen in
  let var = int_bound (nvars - 1) in
  let idx = int_bound 3 in
  frequency
    [
      (3, map2 (fun i c -> Set_a (i, c)) var (int_bound 1000));
      (3, map2 (fun i j -> Add_a (i, j)) var var);
      (2, map2 (fun i j -> Link (i, j)) var var);
      (1, map2 (fun i j -> Follow (i, j)) var var);
      (2, map2 (fun i j -> Swap (i, j)) var var);
      (2, map3 (fun i k c -> Arr_set (i, k, c)) var idx (int_bound 100));
      (2, map2 (fun i k -> Arr_accum (i, k)) var idx);
      (2, map2 (fun i j -> Combine (i, j)) var var);
    ]

let program_of_ops ops =
  let data_cls =
    let init =
      let m = B.create ctor in
      let b = B.entry m in
      let four = B.fresh m int_t in
      let arr = B.fresh m (Jtype.Array int_t) in
      B.const_i b four 4;
      B.new_array b arr int_t ~len:four;
      B.fstore b ~obj:"this" ~field:"arr" ~src:arr;
      B.fstore b ~obj:"this" ~field:"next" ~src:"this";
      B.ret b None;
      B.finish m
    in
    let combine =
      let m = B.create "combine" ~params:[ ("o", Jtype.Ref "D") ] in
      let b = B.entry m in
      let x = B.fresh m int_t and y = B.fresh m int_t in
      let s = B.fresh m int_t in
      B.fload b ~dst:x ~obj:"this" ~field:"a";
      B.fload b ~dst:y ~obj:"o" ~field:"a";
      B.binop b s Ir.Add x y;
      B.fstore b ~obj:"this" ~field:"a" ~src:s;
      B.ret b None;
      B.finish m
    in
    B.cls "D"
      ~fields:
        [
          B.field "a" int_t;
          B.field "next" (Jtype.Ref "D");
          B.field "arr" (Jtype.Array int_t);
        ]
      ~methods:[ init; combine ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let v i = Printf.sprintf "v%d" i in
    for i = 0 to nvars - 1 do
      B.declare m (v i) (Jtype.Ref "D")
    done;
    for i = 0 to nvars - 1 do
      B.new_obj b (v i) "D";
      B.call b ~recv:(v i) ~kind:Ir.Special ~cls:"D" ~name:ctor []
    done;
    let tmp_i = B.fresh m int_t and tmp_j = B.fresh m int_t in
    let tmp_s = B.fresh m int_t in
    let tmp_arr = B.fresh m (Jtype.Array int_t) in
    let emit = function
      | Set_a (i, c) ->
          B.const_i b tmp_i c;
          B.fstore b ~obj:(v i) ~field:"a" ~src:tmp_i
      | Add_a (i, j) ->
          B.fload b ~dst:tmp_i ~obj:(v i) ~field:"a";
          B.fload b ~dst:tmp_j ~obj:(v j) ~field:"a";
          B.binop b tmp_s Ir.Add tmp_i tmp_j;
          B.fstore b ~obj:(v i) ~field:"a" ~src:tmp_s
      | Link (i, j) -> B.fstore b ~obj:(v i) ~field:"next" ~src:(v j)
      | Follow (i, j) -> B.fload b ~dst:(v i) ~obj:(v j) ~field:"next"
      | Swap (i, j) -> B.move b ~dst:(v i) ~src:(v j)
      | Arr_set (i, k, c) ->
          B.fload b ~dst:tmp_arr ~obj:(v i) ~field:"arr";
          B.const_i b tmp_j k;
          B.const_i b tmp_i c;
          B.astore b ~arr:tmp_arr ~idx:tmp_j ~src:tmp_i
      | Arr_accum (i, k) ->
          B.fload b ~dst:tmp_arr ~obj:(v i) ~field:"arr";
          B.const_i b tmp_j k;
          B.aload b ~dst:tmp_i ~arr:tmp_arr ~idx:tmp_j;
          B.fload b ~dst:tmp_s ~obj:(v i) ~field:"a";
          B.binop b tmp_s Ir.Add tmp_s tmp_i;
          B.fstore b ~obj:(v i) ~field:"a" ~src:tmp_s
      | Combine (i, j) ->
          B.call b ~recv:(v i) ~kind:Ir.Virtual ~cls:"D" ~name:"combine" [ v j ]
    in
    List.iter emit ops;
    let acc = B.fresh m int_t in
    B.const_i b acc 0;
    for i = 0 to nvars - 1 do
      B.fload b ~dst:tmp_i ~obj:(v i) ~field:"a";
      B.binop b acc Ir.Add acc tmp_i;
      for k = 0 to 3 do
        B.fload b ~dst:tmp_arr ~obj:(v i) ~field:"arr";
        B.const_i b tmp_j k;
        B.aload b ~dst:tmp_s ~arr:tmp_arr ~idx:tmp_j;
        B.binop b acc Ir.Add acc tmp_s
      done
    done;
    B.ret b (Some acc);
    B.finish m
  in
  Program.make ~entry:("Main", "main") [ data_cls; B.cls "Main" ~methods:[ main ] ]

let fuzz_spec =
  { Facade_compiler.Classify.data_roots = [ "D"; "Main" ]; boundary = [] }

let prop_opt_differential =
  QCheck.Test.make ~name:"random programs: optimized == unoptimized" ~count:60
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 40) op_gen))
    (fun ops ->
      let program = program_of_ops ops in
      Verify.check_or_fail program;
      check_opt_differential_program ~name:"fuzz" program fuzz_spec;
      true)

(* ---------- exactness: driver == nine-pass reference ---------- *)

(* The driver runs its cleanup round only on methods an earlier pass
   touched; {!Opt_reference} runs all nine passes over every method. Both
   must print the same program and the same report, under the default
   configuration and with each per-method pass switched off. *)
let exact_configs =
  Opt.Config.
    [
      default;
      { default with const_fold = false };
      { default with copy_prop = false };
      { default with dce = false };
      { default with devirt = false };
      { default with lock_elide = false };
      only_inline;
    ]

let test_exact_samples () =
  List.iter
    (fun (s : Samples.sample) ->
      List.iter
        (fun config ->
          Opt_reference.check ~config ~name:s.Samples.name ~spec:s.Samples.spec
            s.Samples.program)
        exact_configs)
    Samples.all

let test_exact_synthetic () =
  List.iter
    (fun (classes, methods_per_class) ->
      let p, spec = Samples.synthetic ~classes ~methods_per_class in
      Opt_reference.check ~name:(Printf.sprintf "synthetic %dx%d" classes methods_per_class)
        ~spec p)
    [ (20, 8); (28, 12); (36, 16) ]

(* A method only round-1 dce changes, where the cleanup round then finds
   more: [x = y; y = 5; ret x] keeps its copy (the redefinition of y kills
   it) until dce drops the dead [y = 5]; cleanup copy_prop then rewrites
   [ret x] to [ret y] and dce' drops the move. The driver must count such
   a method as touched although the inliner never saw it. *)
let test_exact_dce_only_method () =
  let f =
    let m = B.create ~static:true "f" ~params:[ ("y", int_t) ] ~ret:int_t in
    let b = B.entry m in
    let x = B.fresh m int_t in
    B.move b ~dst:x ~src:"y";
    B.const_i b "y" 5;
    B.ret b (Some x);
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let seven = B.fresh m int_t and r = B.fresh m int_t in
    B.const_i b seven 7;
    B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"f" [ seven ];
    B.ret b (Some r);
    B.finish m
  in
  let p = Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ f; main ] ] in
  let _, rep = Opt_reference.program p in
  Alcotest.(check bool) "cleanup copy_prop has work" true
    (List.exists
       (fun (d : Opt.Delta.t) -> d.Opt.Delta.pass = "copy_prop'" && d.Opt.Delta.count > 0)
       rep.Opt.Driver.deltas);
  Alcotest.(check (pair string string)) "driver = reference"
    (Opt_reference.text (Opt_reference.program p))
    (Opt_reference.text (Opt.Driver.optimize_program p))

(* A method whose only rewrite is const_fold turning a branch with equal
   arms into a jump, a rewrite the pass counts but leaves out of its
   reported "folded" count. The driver keeps a method a pass reports
   unchanged as itself, so the jump reaches the output only if the pass
   reports the rewrite. *)
let test_exact_equal_arm_branch () =
  let f =
    let m = B.create ~static:true "f" ~params:[ ("y", int_t) ] ~ret:int_t in
    let b0 = B.entry m in
    let b1 = B.block m in
    B.branch b0 "y" ~then_:b1 ~else_:b1;
    B.ret b1 (Some "y");
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let seven = B.fresh m int_t and r = B.fresh m int_t in
    B.const_i b seven 7;
    B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"f" [ seven ];
    B.ret b (Some r);
    B.finish m
  in
  let p = Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ f; main ] ] in
  let p', rep = Opt.Driver.optimize_program p in
  Alcotest.(check int) "nothing folded is reported" 0
    (List.fold_left
       (fun acc (d : Opt.Delta.t) -> if d.Opt.Delta.metric = "folded" then acc + d.Opt.Delta.count else acc)
       0 rep.Opt.Driver.deltas);
  (match Program.find_method p' ~cls:"Main" ~name:"f" with
  | Some m -> (
      match m.Ir.body.(0).Ir.term with
      | Ir.Jump 1 -> ()
      | _ -> Alcotest.fail "f's equal-arm branch survived the optimizer")
  | None -> Alcotest.fail "f is gone");
  Alcotest.(check (pair string string)) "driver = reference"
    (Opt_reference.text (Opt_reference.program p))
    (Opt_reference.text (p', rep))

(* ---------- invariant enforcement (Invalid_transform) ---------- *)

let raises_invalid f =
  match f () with
  | exception P.Invalid_transform _ -> true
  | _ -> false

let test_rejects_verifier_break () =
  (* an extra pass that references an undeclared variable in the first
     class with a method body: the post-opt re-verification must refuse to
     ship it *)
  let has_body (c : Ir.cls) =
    List.exists (fun (m : Ir.meth) -> Array.length m.Ir.body > 0) c.Ir.cmethods
  in
  let broken p =
    match List.find_opt has_body (Program.classes p) with
    | Some c ->
        let meths =
          List.map
            (fun (m : Ir.meth) ->
              if Array.length m.Ir.body = 0 then m
              else begin
                let body = Array.copy m.Ir.body in
                let b0 = body.(0) in
                body.(0) <-
                  { b0 with Ir.instrs = Ir.Move ("$bogus", "$nowhere") :: b0.Ir.instrs };
                { m with Ir.body }
              end)
            c.Ir.cmethods
        in
        Program.replace_class p { c with Ir.cmethods = meths }
    | None -> p
  in
  let pl = P.compile ~spec:Samples.fig2.Samples.spec Samples.fig2.Samples.program in
  Alcotest.(check bool) "verifier break rejected" true
    (raises_invalid (fun () ->
         Opt.Driver.optimize_pipeline ~extra_passes:[ ("break", broken) ] pl));
  (* sanity: without the breaking pass the same pipeline optimizes fine *)
  let _pl', rep = Opt.Driver.optimize_pipeline pl in
  Alcotest.(check bool) "clean pipeline accepted" true
    (rep.Opt.Driver.deltas <> [])

let test_rejects_boundary_leak () =
  (* an extra pass that adds a well-formed method leaking a data
     reference into a control-path static: the PR-1 boundary-leak linter
     runs over the optimized JIR and must reject it *)
  let program = program_of_ops [ Set_a (0, 7) ] in
  (* give the control side a static field to leak into *)
  let program =
    let main_cls = List.find (fun (c : Ir.cls) -> c.Ir.cname = "Main")
        (Program.classes program)
    in
    Program.replace_class program
      { main_cls with
        Ir.cfields = B.field ~static:true "g" (Jtype.Ref "D") :: main_cls.Ir.cfields }
  in
  let leaking p =
    let leak =
      let m = B.create ~static:true "leak" ~params:[ ("p", Jtype.Ref "D") ] in
      let b = B.entry m in
      B.add b (Ir.Static_store ("Main", "g", "p"));
      B.ret b None;
      B.finish m
    in
    match
      List.find_opt (fun (c : Ir.cls) -> c.Ir.cname = "D$Facade") (Program.classes p)
    with
    | Some c -> Program.replace_class p { c with Ir.cmethods = leak :: c.Ir.cmethods }
    | None -> Alcotest.fail "transformed program has no D$Facade"
  in
  (* D is data, Main is control — the injected store crosses the boundary *)
  let spec = { Facade_compiler.Classify.data_roots = [ "D" ]; boundary = [] } in
  let pl = P.compile ~spec program in
  Alcotest.(check bool) "boundary leak rejected" true
    (raises_invalid (fun () ->
         Opt.Driver.optimize_pipeline ~extra_passes:[ ("leak", leaking) ] pl))

(* ---------- early exits ---------- *)

(* Every method of every sample (P and P′) and of the synthetic P′s, at
   each stage of the default pass sequence: where an exit predicate
   holds, the full solve must change nothing ({!Exits}). The exits must
   also fire, or the check would be empty. *)
let test_exits_samples () =
  let fired =
    List.fold_left
      (fun acc (s : Samples.sample) ->
        let name = s.Samples.name in
        acc
        + Exits.check_program ~name s.Samples.program
        + Exits.check_pipeline ~name:(name ^ " P′") (P.compile ~spec:s.Samples.spec s.Samples.program))
      0 Samples.all
  in
  Alcotest.(check bool) "some exit fired" true (fired > 0)

let test_exits_synthetic () =
  List.iter
    (fun (classes, methods_per_class) ->
      let p, spec = Samples.synthetic ~classes ~methods_per_class in
      let name = Printf.sprintf "synthetic %dx%d" classes methods_per_class in
      Alcotest.(check bool) (name ^ ": some exit fired") true
        (Exits.check_pipeline ~name (P.compile ~spec p) > 0))
    [ (20, 8); (28, 12); (36, 16) ]

(* One method per exit that the exit must not take, each a near miss:
   a def that is redefined before its read (dce), a local read at its
   entry default before the block writes it (const_fold), and a copy in
   a block after the first (copy_prop). *)
let test_exits_near_misses () =
  let dce_redefined =
    let m = B.create ~static:true "f" ~ret:int_t in
    let b = B.entry m in
    let x = B.fresh m int_t in
    B.const_i b x 1;
    B.const_i b x 2;
    B.ret b (Some x);
    B.finish m
  in
  let fold_unwritten_local =
    let m = B.create ~static:true "g" ~params:[ ("y", int_t) ] ~ret:int_t in
    let b = B.entry m in
    let t = B.fresh m int_t and x = B.fresh m int_t in
    B.move b ~dst:x ~src:t;
    B.binop b t Ir.Add x "y";
    B.ret b (Some t);
    B.finish m
  in
  let copy_in_later_block =
    let m = B.create ~static:true "h" ~params:[ ("y", int_t) ] ~ret:int_t in
    let b0 = B.entry m in
    let b1 = B.block m in
    let x = B.fresh m int_t and z = B.fresh m int_t in
    B.jump b0 b1;
    B.move b1 ~dst:x ~src:"y";
    B.binop b1 z Ir.Add x x;
    B.ret b1 (Some z);
    B.finish m
  in
  List.iter2
    (fun (pass, exits, solve) m ->
      ignore (Exits.check_method ~where:m.Ir.mname m : int);
      Alcotest.(check bool) (pass ^ " does not exit") false (exits m);
      let m', count = solve m in
      Alcotest.(check bool) (pass ^ " rewrites the near miss") true
        (count > 0 || compare m m' <> 0))
    Exits.exits
    [ fold_unwritten_local; copy_in_later_block; dce_redefined ]

(* ---------- pinned cold-path output ---------- *)

(* Digests of the cold path's output for every sample and three
   synthetic shapes: the optimized P′ with its report under the default
   config and each single-pass-off config (plus all passes off), and the
   linked methods of the default-optimized P′ straight after linking,
   before any run fills an inline cache. The optimized-P′ digests were
   recorded before the optimizer's early exits went in; those exits must
   not change a byte. A deliberate change to optimizer or linker output
   updates the table: the linked digests were re-recorded when the link
   became one-for-one with the jir (superinstruction fusion moved into
   tier 2). *)

let pinned_configs =
  Opt.Config.
    [
      default;
      { default with const_fold = false };
      { default with copy_prop = false };
      { default with dce = false };
      { default with devirt = false };
      { default with lock_elide = false };
      { default with inline = false };
      none;
    ]

let pinned_programs () =
  List.map (fun (s : Samples.sample) -> (s.Samples.name, s.Samples.program, s.Samples.spec))
    Samples.all
  @ List.map
      (fun (classes, methods_per_class) ->
        let p, spec = Samples.synthetic ~classes ~methods_per_class in
        (Printf.sprintf "synthetic-%dx%d" classes methods_per_class, p, spec))
      [ (20, 8); (28, 12); (36, 16) ]

let opt_digest p spec =
  let pl = P.compile ~spec p in
  let buf = Buffer.create 4096 in
  List.iter
    (fun config ->
      let pl', rep = Opt.Driver.optimize_pipeline ~config pl in
      Buffer.add_string buf (Text_format.to_string pl'.P.transformed);
      Buffer.add_string buf (Obs.Json.to_string (Opt.Driver.report_to_json rep)))
    pinned_configs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let link_digest p spec =
  let pl, _ = Opt.Driver.optimize_pipeline (P.compile ~spec p) in
  let rp = Facade_vm.Link.facade_program pl in
  Digest.to_hex
    (Digest.string (Marshal.to_string rp.Facade_vm.Resolved.methods [ Marshal.No_sharing ]))

(* name, optimized-P′ digest, linked-methods digest *)
let pinned =
  [
    ("fig2", "ae44774f76f923debc29dfe13c7f4bda", "9e3323c6264c90108d20c306e5ec3b70");
    ("linked_list", "83cb3fac8db556111d68fa0fc821828c", "3a49aeddca51d59bf2813838b52e0b30");
    ("dispatch", "8dd4a75e4e49f160bb992853e6212b48", "5ee2647a4f96c90087be0249cd41aafa");
    ("prim_arrays", "3a9cbe5e485b27d0e0ed887e390ad7e6", "4b0814611f365b7e98ca4c8f5dafea46");
    ("conversion", "25f1668bbbf247ea1ba7acd71ad86034", "ebd21421f3e1521d96d1a887aacfe4d1");
    ("locking", "02fce1d83535849ab5605fea417dd92d", "e088b05969e18e8fdbc46569f3fc2638");
    ("iteration", "05c4560e4f7c91b66e5006edb637275c", "e3efac0e79e7a7806f38ac7c5d249d1d");
    ("statics", "2b6c7dd68f06ec6646708be707bcf848", "d04ce84cee1e721cf1d59e523710e63a");
    ("strings", "eaa841b6609fb9262b82148f6b0c2314", "996c931e9ea0b4506e9c8db222b14e78");
    ("interfaces", "2c04c7bee3496b8d2a6fb21f66eac408", "402b03201e9bcb7c148ff76fc20a3e8f");
    ("nested_iteration", "e4db71e834e3d90d9fc0288098390efd", "b2f741dd21dd86cf49862b1ccbce00fd");
    ("collections", "1b65f03a433c8085717308ca2499f419", "cc39e048069a9ae5cb3eff5c9354485f");
    ("threads", "8ccbdc19ed5834e3440fbbb0d100e6f5", "154792b836fa661f8433e8b282635649");
    ("boundary", "d07779d9b113404d10649ea222879dad", "59b5da0e2ca06ea6b52564f9f7553c6c");
    ("deep_conversion", "84ce79284bfbb6e1e21bda83d9841a0d", "846b599c10a719ac4f1ff06703e0e1b0");
    ("pagerank", "0c0e7610b0cc16b01885a60178e7f37d", "fa1408e819e45635bee314882dd36485");
    ("pagerank-par", "a24cfd232ee21691e3494e7ffc708335", "47dff300d77cddf86f37264553ac0f21");
    ("pagerank-par-large", "0853b1d236d29774cee7e13808a55ea9", "7985cbae17e773438070fccdf0966b71");
    ("locking-large", "14edc6bf85a8f9b987358ac5cbbcb7d6", "b334eafe85d279856f3cc066ce209356");
    ("synthetic-20x8", "53acb4c0d0165384a72b6048b7997f17", "34a1216f53642d6e9c407f89b45eb0b5");
    ("synthetic-28x12", "29b082e7c029ffa923e69c43f21a820b", "3a2d53b9c5172208d05f077a5770afe7");
    ("synthetic-36x16", "1b7445b6d210c915a69deeb0cddc3f2a", "52ac532da9f266f1c79f8a69e54f0b7b");
  ]

let check_pinned which digest () =
  let got =
    List.map (fun (name, p, spec) -> (name, digest p spec)) (pinned_programs ())
  in
  let want = List.map (fun (name, o, l) -> (name, which (o, l))) pinned in
  Alcotest.(check (list (pair string string))) "digests" want got

(* ---------- report JSON ---------- *)

(* The printed report parses back, with one [passes] entry per delta and
   the tier feedback the report carries. *)
let test_report_json () =
  List.iter
    (fun (s : Samples.sample) ->
      let pl = P.compile ~spec:s.Samples.spec s.Samples.program in
      let _, rep = Opt.Driver.optimize_pipeline pl in
      let name = s.Samples.name in
      match Obs.Json.parse (Obs.Json.to_string (Opt.Driver.report_to_json rep)) with
      | Error m -> Alcotest.fail (name ^ ": report does not parse: " ^ m)
      | Ok j ->
          let get path =
            List.fold_left (fun v k -> Option.bind v (Obs.Json.member k)) (Some j) path
          in
          let list path = Option.value ~default:[] (Option.bind (get path) Obs.Json.to_list) in
          let str v = Option.get (Obs.Json.to_str v) in
          Alcotest.(check int) (name ^ ": one pass entry per delta")
            (List.length rep.Opt.Driver.deltas)
            (List.length (list [ "passes" ]));
          Alcotest.(check (list string)) (name ^ ": pass names")
            (List.map (fun d -> d.Opt.Delta.pass) rep.Opt.Driver.deltas)
            (List.map (fun d -> str (Option.get (Obs.Json.member "pass" d))) (list [ "passes" ]));
          Alcotest.(check (list string)) (name ^ ": monomorphic") rep.Opt.Driver.tier_mono
            (List.map str (list [ "tier_feedback"; "monomorphic" ]));
          Alcotest.(check (list (pair string string))) (name ^ ": leaves")
            rep.Opt.Driver.tier_leaves
            (List.map
               (fun l ->
                 match Obs.Json.to_list l with
                 | Some [ c; m ] -> (str c, str m)
                 | _ -> Alcotest.fail (name ^ ": a leaf is not a [class, method] pair"))
               (list [ "tier_feedback"; "leaves" ])))
    Samples.all

let () =
  Alcotest.run "opt"
    [
      ( "passes",
        [
          Alcotest.test_case "const_fold" `Quick test_const_fold;
          Alcotest.test_case "copy_prop" `Quick test_copy_prop;
          Alcotest.test_case "dce" `Quick test_dce;
          Alcotest.test_case "devirt" `Quick test_devirt;
          Alcotest.test_case "inline" `Quick test_inline;
          Alcotest.test_case "inline budget" `Quick test_inline_respects_budget;
          Alcotest.test_case "config toggles" `Quick test_config_toggles;
        ] );
      ("sample-differential", sample_cases);
      ("fuzz-differential", [ QCheck_alcotest.to_alcotest prop_opt_differential ]);
      ( "exact",
        [
          Alcotest.test_case "samples = nine-pass reference" `Quick test_exact_samples;
          Alcotest.test_case "synthetic = nine-pass reference" `Quick test_exact_synthetic;
          Alcotest.test_case "dce-only method is cleaned" `Quick test_exact_dce_only_method;
          Alcotest.test_case "equal-arm branch is a reported rewrite" `Quick
            test_exact_equal_arm_branch;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "rejects verifier break" `Quick test_rejects_verifier_break;
          Alcotest.test_case "rejects boundary leak" `Quick test_rejects_boundary_leak;
        ] );
      ( "exits",
        [
          Alcotest.test_case "samples: exit only where solve is a no-op" `Quick
            test_exits_samples;
          Alcotest.test_case "synthetic: exit only where solve is a no-op" `Quick
            test_exits_synthetic;
          Alcotest.test_case "near misses do not exit" `Quick test_exits_near_misses;
        ] );
      ("report", [ Alcotest.test_case "JSON parses back" `Quick test_report_json ]);
      ( "pinned",
        [
          Alcotest.test_case "optimized P′ and report" `Quick (check_pinned fst opt_digest);
          Alcotest.test_case "linked P′ methods" `Quick (check_pinned snd link_digest);
        ] );
    ]
