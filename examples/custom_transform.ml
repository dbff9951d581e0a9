(* Bring your own data classes: build a small order-book program with the
   jir builder, let the compiler detect the data path from one root class,
   inspect the layouts, pool bounds, and synthesized conversion functions,
   and check the semantics in both modes.

   This is the workflow a FACADE user follows (paper 3): provide the data
   class list, let the compiler check the closed-world assumptions, and
   look at what it generated.

   Run with:  dune exec examples/custom_transform.exe                     *)

open Jir
module B = Builder
module FC = Facade_compiler

let int_t = Jtype.Prim Jtype.Int
let long_t = Jtype.Prim Jtype.Long

let ctor = FC.Transform.constructor_name

let build_program () =
  (* Order -> Line* : only Order is named as a root; Line is detected. *)
  let line =
    B.cls "Line"
      ~fields:[ B.field "qty" int_t; B.field "price" long_t ]
      ~methods:
        [
          (let m = B.create ctor in
           B.ret (B.entry m) None;
           B.finish m);
          (let m = B.create "total" ~ret:long_t in
           let b = B.entry m in
           let q = B.fresh m int_t in
           let p = B.fresh m long_t in
           let t = B.fresh m long_t in
           B.fload b ~dst:q ~obj:"this" ~field:"qty";
           B.fload b ~dst:p ~obj:"this" ~field:"price";
           B.binop b t Ir.Mul q p;
           B.ret b (Some t);
           B.finish m);
        ]
  in
  let order =
    B.cls "Order"
      ~fields:[ B.field "lines" (Jtype.Array (Jtype.Ref "Line")); B.field "n" int_t ]
      ~methods:
        [
          (let m = B.create ctor in
           let b = B.entry m in
           let cap = B.fresh m int_t in
           let arr = B.fresh m (Jtype.Array (Jtype.Ref "Line")) in
           B.const_i b cap 16;
           B.new_array b arr (Jtype.Ref "Line") ~len:cap;
           B.fstore b ~obj:"this" ~field:"lines" ~src:arr;
           B.ret b None;
           B.finish m);
          (let m = B.create "add" ~params:[ ("qty", int_t); ("price", long_t) ] in
           let b = B.entry m in
           let l = B.fresh m (Jtype.Ref "Line") in
           let arr = B.fresh m (Jtype.Array (Jtype.Ref "Line")) in
           let n = B.fresh m int_t in
           let one = B.fresh m int_t in
           let n1 = B.fresh m int_t in
           B.new_obj b l "Line";
           B.call b ~recv:l ~kind:Ir.Special ~cls:"Line" ~name:ctor [];
           B.fstore b ~obj:l ~field:"qty" ~src:"qty";
           B.fstore b ~obj:l ~field:"price" ~src:"price";
           B.fload b ~dst:arr ~obj:"this" ~field:"lines";
           B.fload b ~dst:n ~obj:"this" ~field:"n";
           B.astore b ~arr ~idx:n ~src:l;
           B.const_i b one 1;
           B.binop b n1 Ir.Add n one;
           B.fstore b ~obj:"this" ~field:"n" ~src:n1;
           B.ret b None;
           B.finish m);
          (let m = B.create "grand_total" ~ret:long_t in
           B.declare m "arr" (Jtype.Array (Jtype.Ref "Line"));
           B.declare m "n" int_t;
           B.declare m "i" int_t;
           B.declare m "one" int_t;
           B.declare m "sum" long_t;
           B.declare m "l" (Jtype.Ref "Line");
           B.declare m "t" long_t;
           B.declare m "cond" int_t;
           let b0 = B.entry m in
           let bc = B.block m in
           let bb = B.block m in
           let be = B.block m in
           B.fload b0 ~dst:"arr" ~obj:"this" ~field:"lines";
           B.fload b0 ~dst:"n" ~obj:"this" ~field:"n";
           B.const_i b0 "i" 0;
           B.const_i b0 "one" 1;
           B.const_i b0 "sum" 0;
           B.jump b0 bc;
           B.binop bc "cond" Ir.Lt "i" "n";
           B.branch bc "cond" ~then_:bb ~else_:be;
           B.aload bb ~dst:"l" ~arr:"arr" ~idx:"i";
           B.call bb ~ret:"t" ~recv:"l" ~kind:Ir.Virtual ~cls:"Line" ~name:"total" [];
           B.binop bb "sum" Ir.Add "sum" "t";
           B.binop bb "i" Ir.Add "i" "one";
           B.jump bb bc;
           B.ret be (Some "sum");
           B.finish m);
        ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:long_t in
    let b = B.entry m in
    let o = B.fresh m (Jtype.Ref "Order") in
    let q1 = B.fresh m int_t in
    let p1 = B.fresh m long_t in
    let q2 = B.fresh m int_t in
    let p2 = B.fresh m long_t in
    let r = B.fresh m long_t in
    B.new_obj b o "Order";
    B.call b ~recv:o ~kind:Ir.Special ~cls:"Order" ~name:ctor [];
    B.const_i b q1 3;
    B.const_i b p1 250;
    B.call b ~recv:o ~kind:Ir.Virtual ~cls:"Order" ~name:"add" [ q1; p1 ];
    B.const_i b q2 2;
    B.const_i b p2 1000;
    B.call b ~recv:o ~kind:Ir.Virtual ~cls:"Order" ~name:"add" [ q2; p2 ];
    B.call b ~ret:r ~recv:o ~kind:Ir.Virtual ~cls:"Order" ~name:"grand_total" [];
    B.ret b (Some r);
    B.finish m
  in
  Program.make ~entry:("Main", "main") [ line; order; B.cls "Main" ~methods:[ main ] ]

let () =
  let program = build_program () in
  Verify.check_or_fail program;
  let spec = { FC.Classify.data_roots = [ "Order"; "Main" ]; boundary = [] } in
  let pl = FC.Pipeline.compile ~spec program in
  let cl = pl.FC.Pipeline.classification in
  Printf.printf "detected data classes (beyond the roots): %s\n"
    (String.concat ", " cl.FC.Classify.detected);
  print_endline "\nrecord layouts:";
  List.iter
    (fun c ->
      match FC.Layout.fields pl.FC.Pipeline.layout c with
      | [] -> ()
      | slots ->
          Printf.printf "  %s (type id %d, %d data bytes):\n" c
            (FC.Layout.type_id pl.FC.Pipeline.layout c)
            (FC.Layout.record_data_bytes pl.FC.Pipeline.layout c);
          List.iter
            (fun (s : FC.Layout.field_slot) ->
              Printf.printf "    %-8s %-8s offset %2d (%d bytes)\n" s.FC.Layout.name
                (Jtype.to_string s.FC.Layout.jty) s.FC.Layout.offset s.FC.Layout.width)
            slots)
    (FC.Classify.data_classes cl);
  Printf.printf "\nfacades needed per thread: %d\n" (FC.Pipeline.facades_per_thread pl);
  Printf.printf "conversion functions synthesized: %s\n"
    (match pl.FC.Pipeline.conversions with [] -> "(none)" | cs -> String.concat ", " cs);
  let is_data c = FC.Classify.is_data_class cl c in
  let o_p = Facade_vm.(Interp.run_object_linked (Link.object_program ~is_data program)) in
  let o_p' = Facade_vm.Interp.run_facade pl in
  let v = function
    | Some x -> Facade_vm.Value.to_string x
    | None -> "-"
  in
  Printf.printf "\ngrand total: P=%s, P'=%s (expected 2750)\n"
    (v o_p.Facade_vm.Interp.result)
    (v o_p'.Facade_vm.Interp.result)
