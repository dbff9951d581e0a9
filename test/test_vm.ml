(* Semantics-preservation tests: for every sample program, the original P
   (object mode) and the generated P' (facade mode) must agree on result
   and output — the core correctness claim of the transformation. *)

module P = Facade_compiler.Pipeline
module I = Facade_vm.Interp
module R = Facade_vm.Resolved

let compile (s : Samples.sample) = P.compile ~spec:s.Samples.spec s.Samples.program

let value_eq a b =
  match a, b with
  | Some x, Some y -> Facade_vm.Value.equal_ref x y
  | None, None -> true
  | Some _, None | None, Some _ -> false

let run_both (s : Samples.sample) =
  Jir.Verify.check_or_fail s.Samples.program;
  let pl = compile s in
  let is_data c = Facade_compiler.Classify.is_data_class pl.P.classification c in
  let o_obj = Vm_runs.run_object ~is_data s.Samples.program in
  let o_fac = I.run_facade pl in
  (pl, o_obj, o_fac)

let check_equivalence (s : Samples.sample) () =
  let pl, o_obj, o_fac = run_both s in
  Alcotest.(check bool)
    (s.Samples.name ^ ": P and P' agree") true
    (value_eq o_obj.I.result o_fac.I.result);
  Alcotest.(check (list string))
    (s.Samples.name ^ ": same output")
    (Facade_vm.Exec_stats.output_lines o_obj.I.stats)
    (Facade_vm.Exec_stats.output_lines o_fac.I.stats);
  (match s.Samples.expected with
  | Some c ->
      Alcotest.(check bool)
        (s.Samples.name ^ ": expected result") true
        (value_eq (Some (Facade_vm.Value.of_const c)) o_obj.I.result)
  | None -> ());
  (* Every pool access stayed within the static bound (paper §3.3). *)
  Hashtbl.iter
    (fun tid max_idx ->
      let b = Facade_compiler.Bounds.bound pl.P.bounds ~type_id:tid in
      Alcotest.(check bool)
        (Printf.sprintf "%s: pool %d within bound" s.Samples.name tid)
        true (max_idx < b))
    o_fac.I.stats.Facade_vm.Exec_stats.max_pool_index

(* Every bundled sample, plus the program whose control code calls
   original data-class methods on converted heap instances. *)
let vm_samples = Samples.all @ [ Samples.original_calls ]

let check_transformed_verifies (s : Samples.sample) () =
  let pl = compile s in
  Jir.Verify.check_or_fail pl.P.transformed

let test_fig2_objects () =
  let _, o_obj, o_fac = run_both Samples.fig2 in
  (* P creates heap objects for every data item... *)
  Alcotest.(check bool) "P allocates data objects" true
    (o_obj.I.stats.Facade_vm.Exec_stats.data_objects >= 3);
  (* ...while P' represents them as page records. *)
  Alcotest.(check bool) "P' allocates no data heap objects" true
    (o_fac.I.stats.Facade_vm.Exec_stats.data_objects = 0);
  Alcotest.(check bool) "P' allocates page records" true
    (o_fac.I.stats.Facade_vm.Exec_stats.page_records >= 3)

let test_iteration_recycles_pages () =
  let _, _, o_fac = run_both Samples.iteration in
  match o_fac.I.store_stats with
  | None -> Alcotest.fail "no store stats in facade mode"
  | Some st ->
      Alcotest.(check bool) "pages were recycled across iterations" true
        (st.Pagestore.Store.pages_recycled > 0);
      Alcotest.(check bool) "records were paged" true
        (st.Pagestore.Store.records_allocated >= 2000)

let test_facades_bounded () =
  (* The total facade population is the per-thread bound — independent of
     how many records the program creates (fig2 vs iteration's 2000). *)
  let pl_small, _, small = run_both Samples.fig2 in
  let _, _, big = run_both Samples.iteration in
  Alcotest.(check bool) "facade count is static" true
    (small.I.facades_allocated = P.facades_per_thread pl_small
    || small.I.facades_allocated > 0);
  Alcotest.(check bool) "facades do not grow with data" true
    (big.I.facades_allocated
    <= small.I.facades_allocated + (2 * P.facades_per_thread pl_small))

let test_iteration_object_heap () =
  (* With a simulated heap attached, P's iteration allocations are
     reclaimed per iteration and P' barely touches the heap. *)
  let s = Samples.iteration in
  let pl = compile s in
  let heap_o =
    Heapsim.Heap.create (Heapsim.Hconfig.make ~heap_bytes:(1 lsl 20) ())
  in
  let is_data c = Facade_compiler.Classify.is_data_class pl.P.classification c in
  let (_ : I.outcome) = Vm_runs.run_object ~heap:heap_o ~is_data s.Samples.program in
  let heap_f =
    Heapsim.Heap.create (Heapsim.Hconfig.make ~heap_bytes:(1 lsl 20) ())
  in
  let (_ : I.outcome) = I.run_facade ~heap:heap_f pl in
  let gc_o = (Heapsim.Heap.stats heap_o).Heapsim.Gc_stats.objects_allocated in
  let gc_f = (Heapsim.Heap.stats heap_f).Heapsim.Gc_stats.objects_allocated in
  Alcotest.(check bool) "P' allocates far fewer heap objects" true (gc_f * 10 < gc_o)

let pool_instance_size (pl : P.t) =
  Pagestore.Facade_pool.total_facades
    (Pagestore.Facade_pool.create ~bounds:(Facade_compiler.Bounds.as_array pl.P.bounds))

let test_threads_get_own_pools () =
  (* The threads sample spawns two workers: three Pools instances total
     (paper §3.4: thread-local facade pooling). *)
  let pl, _, o_fac = run_both Samples.threads in
  Alcotest.(check int) "three threads' pools" (3 * pool_instance_size pl)
    o_fac.I.facades_allocated

let test_single_thread_single_pool () =
  let pl, _, o_fac = run_both Samples.fig2 in
  Alcotest.(check int) "one Pools instance" (pool_instance_size pl)
    o_fac.I.facades_allocated

(* ---------- resolved VM vs the name-based baseline ---------- *)

(* The two interpreters must be observationally identical: same result,
   same output, and the same step count and allocation stats, in both
   modes, in tier 1 and tier 2, on the program as written and on the
   optimizer's output. Steps agree because every linked instruction is
   one source instruction, and tier 2 charges every source instruction
   of a fused window. *)
let check_differential (s : Samples.sample) () =
  let pl = compile s in
  let is_data c = Facade_compiler.Classify.is_data_class pl.P.classification c in
  let p_opt, _ = Opt.Driver.optimize_program s.Samples.program in
  let pl_opt, _ = Opt.Driver.optimize_pipeline pl in
  let object_legs label p =
    let b = Facade_vm.Interp_baseline.run_object ~is_data p in
    [
      (label ^ "object", Vm_runs.run_object ~is_data p, b);
      (label ^ "object tier 2", Vm_runs.run_object ~is_data ~tier2:true p, b);
    ]
  in
  let facade_legs label pl =
    let b = Facade_vm.Interp_baseline.run_facade pl in
    [
      (label ^ "facade", I.run_facade pl, b);
      (label ^ "facade tier 2", I.run_facade ~tier:(Vm_runs.facade_tier pl) pl, b);
    ]
  in
  let pairs =
    object_legs "" s.Samples.program @ facade_legs "" pl @ object_legs "opt " p_opt
    @ facade_legs "opt " pl_opt
  in
  List.iter
    (fun (mode, r, b) ->
      let tag what = Printf.sprintf "%s/%s: %s" s.Samples.name mode what in
      Alcotest.(check bool) (tag "same result") true (value_eq r.I.result b.I.result);
      Alcotest.(check (list string))
        (tag "same output")
        (Facade_vm.Exec_stats.output_lines b.I.stats)
        (Facade_vm.Exec_stats.output_lines r.I.stats);
      Alcotest.(check int)
        (tag "same steps") b.I.stats.Facade_vm.Exec_stats.steps
        r.I.stats.Facade_vm.Exec_stats.steps;
      Alcotest.(check int)
        (tag "same heap objects") b.I.stats.Facade_vm.Exec_stats.heap_objects
        r.I.stats.Facade_vm.Exec_stats.heap_objects;
      Alcotest.(check int)
        (tag "same data objects") b.I.stats.Facade_vm.Exec_stats.data_objects
        r.I.stats.Facade_vm.Exec_stats.data_objects;
      Alcotest.(check int)
        (tag "same page records") b.I.stats.Facade_vm.Exec_stats.page_records
        r.I.stats.Facade_vm.Exec_stats.page_records)
    pairs

let differential_cases =
  List.map
    (fun s ->
      Alcotest.test_case ("baseline agrees " ^ s.Samples.name) `Quick
        (check_differential s))
    vm_samples

(* ---------- resolved-layer regression programs ---------- *)

module B = Jir.Builder
module Ir = Jir.Ir

let int_t = Jir.Jtype.Prim Jir.Jtype.Int
let ctor = Facade_compiler.Transform.constructor_name

let empty_init () =
  let m = B.create ctor in
  B.ret (B.entry m) None;
  B.finish m

(* Run a program through both interpreters in both modes and require the
   same result everywhere; returns the object-mode result. *)
let run_everywhere ?max_steps ~roots program =
  Jir.Verify.check_or_fail program;
  let spec = { Facade_compiler.Classify.data_roots = roots; boundary = [] } in
  let pl = P.compile ~spec program in
  let is_data c = Facade_compiler.Classify.is_data_class pl.P.classification c in
  let o1 = Vm_runs.run_object ?max_steps ~is_data program in
  let o2 = Facade_vm.Interp_baseline.run_object ?max_steps ~is_data program in
  let o3 = I.run_facade ?max_steps pl in
  let o4 = Facade_vm.Interp_baseline.run_facade ?max_steps pl in
  List.iter
    (fun (what, o) ->
      Alcotest.(check bool) (what ^ " agrees with resolved object mode") true
        (value_eq o1.I.result o.I.result))
    [ ("baseline object", o2); ("resolved facade", o3); ("baseline facade", o4) ];
  o1.I.result

let const_meth name value =
  let m = B.create name ~ret:int_t in
  let b = B.entry m in
  let v = B.fresh m int_t in
  B.const_i b v value;
  B.ret b (Some v);
  B.finish m

(* A three-level data hierarchy: B inherits f from A, C overrides it, and
   g resolves through two super links — the vtable cases. *)
let test_deep_hierarchy () =
  let a = B.cls "A" ~methods:[ empty_init (); const_meth "f" 1; const_meth "g" 10 ] in
  let bc = B.cls "B" ~super:"A" ~methods:[ empty_init () ] in
  let c = B.cls "C" ~super:"B" ~methods:[ empty_init (); const_meth "f" 3 ] in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let xb = B.fresh m (Jir.Jtype.Ref "A") in
    let xc = B.fresh m (Jir.Jtype.Ref "A") in
    let r1 = B.fresh m int_t in
    let r2 = B.fresh m int_t in
    let r3 = B.fresh m int_t in
    let acc = B.fresh m int_t in
    B.new_obj b xb "B";
    B.call b ~recv:xb ~kind:Ir.Special ~cls:"B" ~name:ctor [];
    B.new_obj b xc "C";
    B.call b ~recv:xc ~kind:Ir.Special ~cls:"C" ~name:ctor [];
    B.call b ~ret:r1 ~recv:xb ~kind:Ir.Virtual ~cls:"A" ~name:"f" [];
    B.call b ~ret:r2 ~recv:xc ~kind:Ir.Virtual ~cls:"A" ~name:"f" [];
    B.call b ~ret:r3 ~recv:xc ~kind:Ir.Virtual ~cls:"A" ~name:"g" [];
    B.binop b acc Ir.Add r1 r2;
    B.binop b acc Ir.Add acc r3;
    B.ret b (Some acc);
    B.finish m
  in
  let program =
    Jir.Program.make ~entry:("Main", "main") [ a; bc; c; B.cls "Main" ~methods:[ main ] ]
  in
  let r = run_everywhere ~roots:[ "A"; "Main" ] program in
  Alcotest.(check bool) "1 + 3 + 10" true
    (value_eq (Some (Facade_vm.Value.of_const (Ir.Cint 14))) r)

(* A literal survives a round trip through a data field and across the
   control/data boundary with its identity intact (literal interning). *)
let test_string_interning_roundtrip () =
  let string_t = Jir.Jtype.Ref Jir.Jtype.string_class in
  let holder =
    B.cls "Holder" ~fields:[ B.field "s" string_t ] ~methods:[ empty_init () ]
  in
  let keeper =
    B.cls "Keeper"
      ~fields:[ B.field "kept" (Jir.Jtype.Ref "Holder") ]
      ~methods:[ empty_init () ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let h = B.fresh m (Jir.Jtype.Ref "Holder") in
    let k = B.fresh m (Jir.Jtype.Ref "Keeper") in
    let h2 = B.fresh m (Jir.Jtype.Ref "Holder") in
    let s = B.fresh m string_t in
    let s2 = B.fresh m string_t in
    let s3 = B.fresh m string_t in
    let eq = B.fresh m int_t in
    B.new_obj b h "Holder";
    B.call b ~recv:h ~kind:Ir.Special ~cls:"Holder" ~name:ctor [];
    B.add b (Ir.Const (s, Ir.Cstr "interned"));
    B.fstore b ~obj:h ~field:"s" ~src:s;
    B.new_obj b k "Keeper";
    B.call b ~recv:k ~kind:Ir.Special ~cls:"Keeper" ~name:ctor [];
    (* Into the control path and back: convertTo / convertFrom in P'. *)
    B.fstore b ~obj:k ~field:"kept" ~src:h;
    B.fload b ~dst:h2 ~obj:k ~field:"kept";
    B.fload b ~dst:s2 ~obj:h2 ~field:"s";
    B.add b (Ir.Const (s3, Ir.Cstr "interned"));
    B.binop b eq Ir.Eq s2 s3;
    B.ret b (Some eq);
    B.finish m
  in
  let program =
    Jir.Program.make ~entry:("Main", "main")
      [ holder; keeper; B.cls "Main" ~methods:[ main ] ]
  in
  let r = run_everywhere ~roots:[ "Holder"; "Main" ] program in
  Alcotest.(check bool) "identity preserved" true
    (value_eq (Some (Facade_vm.Value.of_const (Ir.Cint 1))) r)

let infinite_loop_program () =
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    B.declare m "x" int_t;
    B.declare m "one" int_t;
    let b0 = B.entry m in
    let b1 = B.block m in
    B.const_i b0 "x" 0;
    B.const_i b0 "one" 1;
    B.jump b0 b1;
    B.binop b1 "x" Ir.Add "x" "one";
    B.jump b1 b1;
    B.finish m
  in
  Jir.Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ main ] ]

(* Budget exhaustion must be the same Vm_error in every configuration. *)
let test_max_steps_exhaustion () =
  let program = infinite_loop_program () in
  let spec = { Facade_compiler.Classify.data_roots = [ "Main" ]; boundary = [] } in
  let pl = P.compile ~spec program in
  let budget = I.Vm_error "step budget exceeded" in
  Alcotest.check_raises "resolved object" budget (fun () ->
      ignore (Vm_runs.run_object ~max_steps:1_000 program));
  Alcotest.check_raises "baseline object" budget (fun () ->
      ignore (Facade_vm.Interp_baseline.run_object ~max_steps:1_000 program));
  Alcotest.check_raises "resolved facade" budget (fun () ->
      ignore (I.run_facade ~max_steps:1_000 pl));
  Alcotest.check_raises "baseline facade" budget (fun () ->
      ignore (Facade_vm.Interp_baseline.run_facade ~max_steps:1_000 pl))

let arith_by_zero_program op =
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let x = B.fresh m int_t in
    let z = B.fresh m int_t in
    let r = B.fresh m int_t in
    B.const_i b x 7;
    B.const_i b z 0;
    B.binop b r op x z;
    B.ret b (Some r);
    B.finish m
  in
  Jir.Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ main ] ]

let test_arith_by_zero () =
  List.iter
    (fun (op, msg) ->
      let program = arith_by_zero_program op in
      let spec = { Facade_compiler.Classify.data_roots = [ "Main" ]; boundary = [] } in
      let pl = P.compile ~spec program in
      let exn = I.Vm_error msg in
      Alcotest.check_raises (msg ^ " resolved object") exn (fun () ->
          ignore (Vm_runs.run_object program));
      Alcotest.check_raises (msg ^ " baseline object") exn (fun () ->
          ignore (Facade_vm.Interp_baseline.run_object program));
      Alcotest.check_raises (msg ^ " resolved facade") exn (fun () ->
          ignore (I.run_facade pl));
      Alcotest.check_raises (msg ^ " baseline facade") exn (fun () ->
          ignore (Facade_vm.Interp_baseline.run_facade pl)))
    [
      (Ir.Div, "ArithmeticException: / by zero");
      (Ir.Rem, "ArithmeticException: % by zero");
    ]

let equivalence_cases =
  List.map
    (fun s -> Alcotest.test_case ("equiv " ^ s.Samples.name) `Quick (check_equivalence s))
    vm_samples

let verify_cases =
  List.map
    (fun s ->
      Alcotest.test_case ("P' verifies " ^ s.Samples.name) `Quick (check_transformed_verifies s))
    vm_samples

(* The linker's frame layout: [this] = 0, the params next, then the other
   variables by descending use count (definitions, uses and the local
   declaration each count once), ties broken by first occurrence in the
   body — not by declaration order. Here c is used 4 times; a, b and d 3
   times each, first met in that order; e only in its declaration; the
   hot param p stays pinned at 1. *)
let test_link_slot_order () =
  let src =
    {|class Main {
  method m(p: int, q: int) : int {
    local d: int;
    local e: int;
    local c: int;
    local b: int;
    local a: int;
    b0:
      a = 1;
      b = p + q;
      c = b + a;
      d = c + c;
      p = p + p;
      return d;
  }
}
|}
  in
  let rp = Facade_vm.Link.object_program (Jir.Text_format.parse src) in
  let m = Option.get (Array.find_opt (fun (m : R.meth) -> m.R.m_name = "m") rp.R.methods) in
  (* [this] holds slot 0 and e slot 7. *)
  let p, q, c, a, b, d = (1, 2, 3, 4, 5, 6) in
  Alcotest.(check int) "frame size" 8 (Array.length m.R.m_frame);
  let blk = m.R.m_body.(0) in
  let slots = function R.Oslot s -> [ s ] | R.Oconst _ -> [] in
  let shape = function
    | R.Rconst (dst, _) -> [ dst ]
    | R.Rbinop (dst, _, x, y) -> (dst :: slots x) @ slots y
    | _ -> Alcotest.fail "unexpected instruction"
  in
  (* Linking quickens: [a] is a once-assigned constant, so [c = b + a]
     reads it as a constant operand. *)
  Alcotest.(check (list (list int))) "slots"
    [ [ a ]; [ b; p; q ]; [ c; b ]; [ d; c; c ]; [ p; p; p ] ]
    (List.map shape (Array.to_list blk.R.code));
  Alcotest.(check bool) "return d" true (blk.R.term = R.Rret d)

(* The linker lowers an intrinsic site it cannot bind to an [Rerror]
   that raises only if reached; each distinct name and arity is
   classified once per link, and a repeated site gets the same message. *)
let test_link_intrinsic_errors () =
  let open Jir in
  let module B = Builder in
  let zeros n = List.init n (fun _ -> Ir.Imm (Ir.Cint 0)) in
  let sites =
    [
      ("rt.alloc", 3);
      ("rt.get_i33", 2);
      ("rt.get_i32", 3);
      ("rt.get_", 2);
      ("no.such", 0);
      ("rt.aset_f64", 4);
      ("rt.alloc", 3);
      ("sys.print", 1);
    ]
  in
  let main =
    let m = B.create ~static:true "main" in
    let b = B.entry m in
    List.iter (fun (name, n) -> B.add b (Ir.Intrinsic (None, name, zeros n))) sites;
    B.ret b None;
    B.finish m
  in
  let p = Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ main ] ] in
  let rp = Facade_vm.Link.object_program p in
  let m = Option.get (Array.find_opt (fun (m : R.meth) -> m.R.m_name = "main") rp.R.methods) in
  let lowered = function
    | R.Rerror msg -> msg
    | R.Rintrinsic _ | R.Raset _ -> "bound"
    | _ -> Alcotest.fail "unexpected instruction"
  in
  Alcotest.(check (list string)) "lowered sites"
    [
      "unknown intrinsic rt.alloc/3";
      "unknown access kind i33";
      "unknown intrinsic rt.get_i32/3";
      "unknown intrinsic rt.get_/2";
      "unknown intrinsic no.such/0";
      "bound";
      "unknown intrinsic rt.alloc/3";
      "bound";
    ]
    (List.map lowered (Array.to_list m.R.m_body.(0).R.code))

(* The link is one-for-one with the jir: every linked block holds as many
   instructions as its jir block, and a terminator of the same kind with
   the same targets — so a tier-1 pc is a source instruction index. Checked
   for every sample's P in object mode and its P′ in facade mode, each
   as written and optimized. *)
let test_link_one_for_one () =
  let same_term (t : Jir.Ir.terminator) (r : R.term) =
    match t, r with
    | Jir.Ir.Ret None, R.Rret_void | Jir.Ir.Ret (Some _), R.Rret _ -> true
    | Jir.Ir.Jump a, R.Rjump b -> a = b
    | Jir.Ir.Branch (_, a, b), R.Rbranch (_, a', b') -> a = a' && b = b'
    | _ -> false
  in
  let check label (p : Jir.Program.t) (rp : R.program) =
    let meths =
      List.concat_map
        (fun (c : Jir.Ir.cls) -> List.map (fun m -> (c.Jir.Ir.cname, m)) c.Jir.Ir.cmethods)
        (Jir.Program.classes p)
    in
    Alcotest.(check int) (label ^ ": methods") (List.length meths) (Array.length rp.R.methods);
    List.iteri
      (fun i (cname, (m : Jir.Ir.meth)) ->
        let rm = rp.R.methods.(i) in
        let where = Printf.sprintf "%s: %s.%s" label cname m.Jir.Ir.mname in
        Alcotest.(check (pair string string)) where (cname, m.Jir.Ir.mname)
          (rm.R.m_cls, rm.R.m_name);
        Alcotest.(check int) (where ^ " blocks") (Array.length m.Jir.Ir.body)
          (Array.length rm.R.m_body);
        Array.iteri
          (fun bi (b : Jir.Ir.block) ->
            let rb = rm.R.m_body.(bi) in
            let at = Printf.sprintf "%s b%d" where bi in
            Alcotest.(check int) (at ^ " instructions") (List.length b.Jir.Ir.instrs)
              (Array.length rb.R.code);
            Alcotest.(check bool) (at ^ " terminator") true (same_term b.Jir.Ir.term rb.R.term))
          m.Jir.Ir.body)
      meths
  in
  List.iter
    (fun (s : Samples.sample) ->
      let name = s.Samples.name in
      let pl = compile s in
      let is_data c = Facade_compiler.Classify.is_data_class pl.P.classification c in
      let p_opt, _ = Opt.Driver.optimize_program s.Samples.program in
      let pl_opt, _ = Opt.Driver.optimize_pipeline pl in
      check (name ^ " P") s.Samples.program
        (Facade_vm.Link.object_program ~is_data s.Samples.program);
      check (name ^ " optimized P") p_opt (Facade_vm.Link.object_program ~is_data p_opt);
      check (name ^ " P'") pl.P.transformed (Facade_vm.Link.facade_program pl);
      check (name ^ " optimized P'") pl_opt.P.transformed (Facade_vm.Link.facade_program pl_opt))
    vm_samples

let () =
  Alcotest.run "facade_vm"
    [
      ("equivalence", equivalence_cases);
      ("baseline-differential", differential_cases);
      ( "resolved-layer",
        [
          Alcotest.test_case "deep hierarchy dispatch" `Quick test_deep_hierarchy;
          Alcotest.test_case "string interning round trip" `Quick
            test_string_interning_roundtrip;
          Alcotest.test_case "step budget exhaustion" `Quick test_max_steps_exhaustion;
          Alcotest.test_case "div and rem by zero" `Quick test_arith_by_zero;
          Alcotest.test_case "link slot order" `Quick test_link_slot_order;
          Alcotest.test_case "link intrinsic errors" `Quick test_link_intrinsic_errors;
          Alcotest.test_case "linking is one-for-one" `Quick test_link_one_for_one;
        ] );
      ("transformed-verifies", verify_cases);
      ( "object-bounds",
        [
          Alcotest.test_case "fig2 object counts" `Quick test_fig2_objects;
          Alcotest.test_case "iteration recycles pages" `Quick test_iteration_recycles_pages;
          Alcotest.test_case "facades bounded" `Quick test_facades_bounded;
          Alcotest.test_case "heap pressure comparison" `Quick test_iteration_object_heap;
          Alcotest.test_case "per-thread pools" `Quick test_threads_get_own_pools;
          Alcotest.test_case "single-thread pool" `Quick test_single_thread_single_pool;
        ] );
    ]
