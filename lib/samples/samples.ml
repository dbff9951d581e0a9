open Jir
module B = Builder

type sample = {
  name : string;
  program : Program.t;
  spec : Facade_compiler.Classify.spec;
  expected : Ir.const option;
}

let int_t = Jtype.Prim Jtype.Int
let double_t = Jtype.Prim Jtype.Double

let spec ?(boundary = []) roots = { Facade_compiler.Classify.data_roots = roots; boundary }

let ctor_name = Facade_compiler.Transform.constructor_name

let empty_init () =
  let m = B.create Facade_compiler.Transform.constructor_name in
  B.ret (B.entry m) None;
  B.finish m

(* ---------- Figure 2: Professor / Student ---------- *)

let fig2 =
  let student =
    B.cls "Student" ~fields:[ B.field "id" int_t ] ~methods:[ empty_init () ]
  in
  let professor =
    let init =
      let m = B.create Facade_compiler.Transform.constructor_name in
      let b = B.entry m in
      let len = B.fresh m int_t in
      let arr = B.fresh m (Jtype.Array (Jtype.Ref "Student")) in
      let zero = B.fresh m int_t in
      B.const_i b len 8;
      B.new_array b arr (Jtype.Ref "Student") ~len;
      B.fstore b ~obj:"this" ~field:"students" ~src:arr;
      B.const_i b zero 0;
      B.fstore b ~obj:"this" ~field:"numStudents" ~src:zero;
      B.ret b None;
      B.finish m
    in
    let add_student =
      let m = B.create "addStudent" ~params:[ ("s", Jtype.Ref "Student") ] in
      let b = B.entry m in
      let arr = B.fresh m (Jtype.Array (Jtype.Ref "Student")) in
      let n = B.fresh m int_t in
      let one = B.fresh m int_t in
      let n2 = B.fresh m int_t in
      B.fload b ~dst:arr ~obj:"this" ~field:"students";
      B.fload b ~dst:n ~obj:"this" ~field:"numStudents";
      B.astore b ~arr ~idx:n ~src:"s";
      B.const_i b one 1;
      B.binop b n2 Ir.Add n one;
      B.fstore b ~obj:"this" ~field:"numStudents" ~src:n2;
      B.ret b None;
      B.finish m
    in
    let get_student =
      let m = B.create "getStudent" ~params:[ ("i", int_t) ] ~ret:(Jtype.Ref "Student") in
      let b = B.entry m in
      let arr = B.fresh m (Jtype.Array (Jtype.Ref "Student")) in
      let s = B.fresh m (Jtype.Ref "Student") in
      B.fload b ~dst:arr ~obj:"this" ~field:"students";
      B.aload b ~dst:s ~arr ~idx:"i";
      B.ret b (Some s);
      B.finish m
    in
    B.cls "Professor"
      ~fields:
        [
          B.field "id" int_t;
          B.field "students" (Jtype.Array (Jtype.Ref "Student"));
          B.field "numStudents" int_t;
        ]
      ~methods:[ init; add_student; get_student ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let p = B.fresh m (Jtype.Ref "Professor") in
    let s = B.fresh m (Jtype.Ref "Student") in
    let t = B.fresh m (Jtype.Ref "Student") in
    let seven = B.fresh m int_t in
    let zero = B.fresh m int_t in
    let tid = B.fresh m int_t in
    let n = B.fresh m int_t in
    let r = B.fresh m int_t in
    B.new_obj b p "Professor";
    B.call b ~recv:p ~kind:Ir.Special ~cls:"Professor"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.new_obj b s "Student";
    B.call b ~recv:s ~kind:Ir.Special ~cls:"Student"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.const_i b seven 7;
    B.fstore b ~obj:s ~field:"id" ~src:seven;
    B.call b ~recv:p ~kind:Ir.Virtual ~cls:"Professor" ~name:"addStudent" [ s ];
    B.const_i b zero 0;
    B.call b ~ret:t ~recv:p ~kind:Ir.Virtual ~cls:"Professor" ~name:"getStudent" [ zero ];
    B.fload b ~dst:tid ~obj:t ~field:"id";
    B.fload b ~dst:n ~obj:p ~field:"numStudents";
    B.binop b r Ir.Add tid n;
    B.ret b (Some r);
    B.finish m
  in
  let main_cls = B.cls "Main" ~methods:[ main ] in
  {
    name = "fig2";
    program = Program.make ~entry:("Main", "main") [ student; professor; main_cls ];
    spec = spec [ "Professor"; "Student"; "Main" ];
    expected = Some (Ir.Cint 8);
  }

(* ---------- linked list ---------- *)

let node_cls =
  B.cls "Node"
    ~fields:[ B.field "val" int_t; B.field "next" (Jtype.Ref "Node") ]
    ~methods:[ empty_init () ]

let linked_list =
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    B.declare m "head" (Jtype.Ref "Node");
    B.declare m "cur" (Jtype.Ref "Node");
    B.declare m "n" (Jtype.Ref "Node");
    B.declare m "i" int_t;
    B.declare m "sum" int_t;
    B.declare m "one" int_t;
    B.declare m "limit" int_t;
    B.declare m "cond" int_t;
    let b0 = B.entry m in
    let b_cond1 = B.block m in
    let b_body1 = B.block m in
    let b_mid = B.block m in
    let b_cond2 = B.block m in
    let b_body2 = B.block m in
    let b_end = B.block m in
    B.const_null b0 "head";
    B.const_i b0 "i" 0;
    B.const_i b0 "one" 1;
    B.const_i b0 "limit" 50;
    B.jump b0 b_cond1;
    B.binop b_cond1 "cond" Ir.Lt "i" "limit";
    B.branch b_cond1 "cond" ~then_:b_body1 ~else_:b_mid;
    B.new_obj b_body1 "n" "Node";
    B.call b_body1 ~recv:"n" ~kind:Ir.Special ~cls:"Node"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.fstore b_body1 ~obj:"n" ~field:"val" ~src:"i";
    B.fstore b_body1 ~obj:"n" ~field:"next" ~src:"head";
    B.move b_body1 ~dst:"head" ~src:"n";
    B.binop b_body1 "i" Ir.Add "i" "one";
    B.jump b_body1 b_cond1;
    B.const_i b_mid "sum" 0;
    B.move b_mid ~dst:"cur" ~src:"head";
    B.jump b_mid b_cond2;
    B.declare m "nul" (Jtype.Ref "Node");
    B.const_null b_cond2 "nul";
    B.binop b_cond2 "cond" Ir.Ne "cur" "nul";
    B.branch b_cond2 "cond" ~then_:b_body2 ~else_:b_end;
    B.declare m "v" int_t;
    B.fload b_body2 ~dst:"v" ~obj:"cur" ~field:"val";
    B.binop b_body2 "sum" Ir.Add "sum" "v";
    B.fload b_body2 ~dst:"cur" ~obj:"cur" ~field:"next";
    B.jump b_body2 b_cond2;
    B.ret b_end (Some "sum");
    B.finish m
  in
  {
    name = "linked_list";
    program =
      Program.make ~entry:("Main", "main") [ node_cls; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Node"; "Main" ];
    expected = Some (Ir.Cint 1225);
  }

(* ---------- virtual dispatch ---------- *)

let dispatch =
  let area_of body_fn name fields super =
    let area =
      let m = B.create "area" ~ret:int_t in
      body_fn m;
      B.finish m
    in
    B.cls name ?super ~fields ~methods:[ empty_init (); area ]
  in
  let shape =
    area_of
      (fun m ->
        let b = B.entry m in
        let z = B.fresh m int_t in
        B.const_i b z 0;
        B.ret b (Some z))
      "Shape" [ B.field "tag" int_t ] None
  in
  let square =
    area_of
      (fun m ->
        let b = B.entry m in
        let s = B.fresh m int_t in
        let r = B.fresh m int_t in
        B.fload b ~dst:s ~obj:"this" ~field:"side";
        B.binop b r Ir.Mul s s;
        B.ret b (Some r))
      "Square"
      [ B.field "side" int_t ]
      (Some "Shape")
  in
  let circle =
    area_of
      (fun m ->
        let b = B.entry m in
        let r = B.fresh m int_t in
        let three = B.fresh m int_t in
        let r2 = B.fresh m int_t in
        let a = B.fresh m int_t in
        B.fload b ~dst:r ~obj:"this" ~field:"radius";
        B.const_i b three 3;
        B.binop b r2 Ir.Mul r r;
        B.binop b a Ir.Mul three r2;
        B.ret b (Some a))
      "Circle"
      [ B.field "radius" int_t ]
      (Some "Shape")
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let shapes = B.fresh m (Jtype.Array (Jtype.Ref "Shape")) in
    let two = B.fresh m int_t in
    let sq = B.fresh m (Jtype.Ref "Square") in
    let ci = B.fresh m (Jtype.Ref "Circle") in
    let four = B.fresh m int_t in
    let idx0 = B.fresh m int_t in
    let idx1 = B.fresh m int_t in
    let s0 = B.fresh m (Jtype.Ref "Shape") in
    let s1 = B.fresh m (Jtype.Ref "Shape") in
    let a0 = B.fresh m int_t in
    let a1 = B.fresh m int_t in
    let flag = B.fresh m int_t in
    let sq2 = B.fresh m (Jtype.Ref "Square") in
    let side2 = B.fresh m int_t in
    let acc = B.fresh m int_t in
    let acc2 = B.fresh m int_t in
    let acc3 = B.fresh m int_t in
    B.const_i b two 2;
    B.new_array b shapes (Jtype.Ref "Shape") ~len:two;
    B.new_obj b sq "Square";
    B.call b ~recv:sq ~kind:Ir.Special ~cls:"Square"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.const_i b four 4;
    B.fstore b ~obj:sq ~field:"side" ~src:four;
    B.new_obj b ci "Circle";
    B.call b ~recv:ci ~kind:Ir.Special ~cls:"Circle"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.fstore b ~obj:ci ~field:"radius" ~src:two;
    B.const_i b idx0 0;
    B.const_i b idx1 1;
    B.astore b ~arr:shapes ~idx:idx0 ~src:sq;
    B.astore b ~arr:shapes ~idx:idx1 ~src:ci;
    B.aload b ~dst:s0 ~arr:shapes ~idx:idx0;
    B.aload b ~dst:s1 ~arr:shapes ~idx:idx1;
    B.call b ~ret:a0 ~recv:s0 ~kind:Ir.Virtual ~cls:"Shape" ~name:"area" [];
    B.call b ~ret:a1 ~recv:s1 ~kind:Ir.Virtual ~cls:"Shape" ~name:"area" [];
    B.instance_of b ~dst:flag ~src:s1 (Jtype.Ref "Square");
    B.add b (Ir.Cast (sq2, s0, Jtype.Ref "Square"));
    B.fload b ~dst:side2 ~obj:sq2 ~field:"side";
    B.binop b acc Ir.Add a0 a1;
    B.binop b acc2 Ir.Add acc flag;
    B.binop b acc3 Ir.Add acc2 side2;
    B.ret b (Some acc3);
    B.finish m
  in
  {
    name = "dispatch";
    program =
      Program.make ~entry:("Main", "main")
        [ shape; square; circle; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Shape"; "Main" ];
    expected = Some (Ir.Cint 32);  (* 16 + 12 + 0 + 4 *)
  }

(* ---------- primitive arrays ---------- *)

let prim_arrays =
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    B.declare m "arr" (Jtype.Array int_t);
    B.declare m "brr" (Jtype.Array int_t);
    B.declare m "drr" (Jtype.Array double_t);
    B.declare m "len" int_t;
    B.declare m "i" int_t;
    B.declare m "one" int_t;
    B.declare m "cond" int_t;
    B.declare m "sum" int_t;
    B.declare m "v" int_t;
    B.declare m "zero" int_t;
    B.declare m "dv" double_t;
    B.declare m "dlen" int_t;
    B.declare m "blen" int_t;
    let b0 = B.entry m in
    let b_cond = B.block m in
    let b_body = B.block m in
    let b_mid = B.block m in
    let b_cond2 = B.block m in
    let b_body2 = B.block m in
    let b_end = B.block m in
    B.const_i b0 "len" 100;
    B.const_i b0 "zero" 0;
    B.const_i b0 "one" 1;
    B.new_array b0 "arr" int_t ~len:"len";
    B.new_array b0 "brr" int_t ~len:"len";
    B.const_i b0 "dlen" 4;
    B.new_array b0 "drr" double_t ~len:"dlen";
    B.const_i b0 "i" 0;
    B.jump b0 b_cond;
    B.binop b_cond "cond" Ir.Lt "i" "len";
    B.branch b_cond "cond" ~then_:b_body ~else_:b_mid;
    B.astore b_body ~arr:"arr" ~idx:"i" ~src:"i";
    B.binop b_body "i" Ir.Add "i" "one";
    B.jump b_body b_cond;
    B.add b_mid
      (Ir.Intrinsic
         ( None,
           Facade_compiler.Rt_names.arraycopy,
           [ Ir.Var "arr"; Ir.Var "zero"; Ir.Var "brr"; Ir.Var "zero"; Ir.Var "len" ] ));
    B.const_i b_mid "i" 0;
    B.const_i b_mid "sum" 0;
    B.alen b_mid ~dst:"blen" ~arr:"brr";
    B.jump b_mid b_cond2;
    B.binop b_cond2 "cond" Ir.Lt "i" "blen";
    B.branch b_cond2 "cond" ~then_:b_body2 ~else_:b_end;
    B.aload b_body2 ~dst:"v" ~arr:"brr" ~idx:"i";
    B.binop b_body2 "sum" Ir.Add "sum" "v";
    B.binop b_body2 "i" Ir.Add "i" "one";
    B.jump b_body2 b_cond2;
    B.const_f b_end "dv" 2.5;
    B.astore b_end ~arr:"drr" ~idx:"one" ~src:"dv";
    B.aload b_end ~dst:"dv" ~arr:"drr" ~idx:"one";
    B.add b_end (Ir.Intrinsic (None, Facade_compiler.Rt_names.print, [ Ir.Var "dv" ]));
    B.ret b_end (Some "sum");
    B.finish m
  in
  {
    name = "prim_arrays";
    program = Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Main" ];
    expected = Some (Ir.Cint 4950);
  }

(* ---------- conversion at interaction points ---------- *)

let conversion =
  let point =
    B.cls "Point"
      ~fields:[ B.field "x" int_t; B.field "y" int_t ]
      ~methods:[ empty_init () ]
  in
  (* Control-path classes: not in the data spec. *)
  let registry =
    B.cls "Registry" ~fields:[ B.field "last" (Jtype.Ref "Point") ] ~methods:[ empty_init () ]
  in
  let util =
    let describe =
      let m = B.create ~static:true "describe" ~params:[ ("p", Jtype.Ref "Point") ] ~ret:int_t in
      let b = B.entry m in
      let x = B.fresh m int_t in
      let y = B.fresh m int_t in
      let hundred = B.fresh m int_t in
      let t = B.fresh m int_t in
      let r = B.fresh m int_t in
      B.fload b ~dst:x ~obj:"p" ~field:"x";
      B.fload b ~dst:y ~obj:"p" ~field:"y";
      B.const_i b hundred 100;
      B.binop b t Ir.Mul x hundred;
      B.binop b r Ir.Add t y;
      B.ret b (Some r);
      B.finish m
    in
    B.cls "Util" ~methods:[ describe ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let p = B.fresh m (Jtype.Ref "Point") in
    let q = B.fresh m (Jtype.Ref "Point") in
    let r = B.fresh m (Jtype.Ref "Registry") in
    let three = B.fresh m int_t in
    let fourv = B.fresh m int_t in
    let d = B.fresh m int_t in
    let qx = B.fresh m int_t in
    let qy = B.fresh m int_t in
    let acc = B.fresh m int_t in
    let acc2 = B.fresh m int_t in
    B.new_obj b p "Point";
    B.call b ~recv:p ~kind:Ir.Special ~cls:"Point"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.const_i b three 3;
    B.const_i b fourv 4;
    B.fstore b ~obj:p ~field:"x" ~src:three;
    B.fstore b ~obj:p ~field:"y" ~src:fourv;
    B.new_obj b r "Registry";
    B.call b ~recv:r ~kind:Ir.Special ~cls:"Registry"
      ~name:Facade_compiler.Transform.constructor_name [];
    (* 3.3: data record into a control object's field. *)
    B.fstore b ~obj:r ~field:"last" ~src:p;
    (* 4.3: data read back out of the control path. *)
    B.fload b ~dst:q ~obj:r ~field:"last";
    (* 6.3: data record passed to a control-path method. *)
    B.call b ~ret:d ~kind:Ir.Static ~cls:"Util" ~name:"describe" [ p ];
    B.fload b ~dst:qx ~obj:q ~field:"x";
    B.fload b ~dst:qy ~obj:q ~field:"y";
    B.binop b acc Ir.Add d qx;
    B.binop b acc2 Ir.Add acc qy;
    B.ret b (Some acc2);
    B.finish m
  in
  {
    name = "conversion";
    program =
      Program.make ~entry:("Main", "main")
        [ point; registry; util; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Point"; "Main" ];
    expected = Some (Ir.Cint 311);  (* 304 + 3 + 4 *)
  }

(* ---------- locking ---------- *)

let locking =
  let counter =
    let inc =
      let m = B.create "inc" in
      let b = B.entry m in
      let c = B.fresh m int_t in
      let one = B.fresh m int_t in
      let c2 = B.fresh m int_t in
      B.fload b ~dst:c ~obj:"this" ~field:"count";
      B.const_i b one 1;
      B.binop b c2 Ir.Add c one;
      B.fstore b ~obj:"this" ~field:"count" ~src:c2;
      B.ret b None;
      B.finish m
    in
    B.cls "Counter" ~fields:[ B.field "count" int_t ] ~methods:[ empty_init (); inc ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m (Jtype.Ref "Counter") in
    let c = B.fresh m (Jtype.Ref "Counter") in
    let r1 = B.fresh m int_t in
    let r2 = B.fresh m int_t in
    let r = B.fresh m int_t in
    B.new_obj b a "Counter";
    B.call b ~recv:a ~kind:Ir.Special ~cls:"Counter"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.new_obj b c "Counter";
    B.call b ~recv:c ~kind:Ir.Special ~cls:"Counter"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.monitor_enter b a;
    B.call b ~recv:a ~kind:Ir.Virtual ~cls:"Counter" ~name:"inc" [];
    B.monitor_enter b a;  (* reentrant *)
    B.monitor_enter b c;  (* second lock concurrently in use *)
    B.call b ~recv:c ~kind:Ir.Virtual ~cls:"Counter" ~name:"inc" [];
    B.call b ~recv:a ~kind:Ir.Virtual ~cls:"Counter" ~name:"inc" [];
    B.monitor_exit b c;
    B.monitor_exit b a;
    B.monitor_exit b a;
    B.fload b ~dst:r1 ~obj:a ~field:"count";
    B.fload b ~dst:r2 ~obj:c ~field:"count";
    B.binop b r Ir.Add r1 r2;
    B.ret b (Some r);
    B.finish m
  in
  {
    name = "locking";
    program = Program.make ~entry:("Main", "main") [ counter; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Counter"; "Main" ];
    expected = Some (Ir.Cint 3);
  }

(* ---------- iteration-based reclamation ---------- *)

let iteration =
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    B.declare m "total" int_t;
    B.declare m "round" int_t;
    B.declare m "i" int_t;
    B.declare m "one" int_t;
    B.declare m "rounds" int_t;
    B.declare m "count" int_t;
    B.declare m "cond" int_t;
    B.declare m "n" (Jtype.Ref "Node");
    B.declare m "v" int_t;
    let b0 = B.entry m in
    let b_rcond = B.block m in
    let b_rbody = B.block m in
    let b_icond = B.block m in
    let b_ibody = B.block m in
    let b_iend = B.block m in
    let b_end = B.block m in
    B.const_i b0 "total" 0;
    B.const_i b0 "round" 0;
    B.const_i b0 "one" 1;
    B.const_i b0 "rounds" 4;
    B.const_i b0 "count" 500;
    B.jump b0 b_rcond;
    B.binop b_rcond "cond" Ir.Lt "round" "rounds";
    B.branch b_rcond "cond" ~then_:b_rbody ~else_:b_end;
    B.iter_start b_rbody;
    B.const_i b_rbody "i" 0;
    B.jump b_rbody b_icond;
    B.binop b_icond "cond" Ir.Lt "i" "count";
    B.branch b_icond "cond" ~then_:b_ibody ~else_:b_iend;
    B.new_obj b_ibody "n" "Node";
    B.call b_ibody ~recv:"n" ~kind:Ir.Special ~cls:"Node"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.fstore b_ibody ~obj:"n" ~field:"val" ~src:"i";
    B.fload b_ibody ~dst:"v" ~obj:"n" ~field:"val";
    B.binop b_ibody "total" Ir.Add "total" "v";
    B.binop b_ibody "i" Ir.Add "i" "one";
    B.jump b_ibody b_icond;
    B.iter_end b_iend;
    B.binop b_iend "round" Ir.Add "round" "one";
    B.jump b_iend b_rcond;
    B.ret b_end (Some "total");
    B.finish m
  in
  {
    name = "iteration";
    program = Program.make ~entry:("Main", "main") [ node_cls; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Node"; "Main" ];
    expected = Some (Ir.Cint (4 * (499 * 500 / 2)));
  }

(* ---------- statics ---------- *)

let statics =
  let config =
    B.cls "Config"
      ~fields:
        [
          B.field ~static:true "scale" int_t;
          B.field ~static:true "seed" (Jtype.Ref "Node");
        ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let five = B.fresh m int_t in
    let n = B.fresh m (Jtype.Ref "Node") in
    let mm = B.fresh m (Jtype.Ref "Node") in
    let nine = B.fresh m int_t in
    let v = B.fresh m int_t in
    let sc = B.fresh m int_t in
    let r = B.fresh m int_t in
    B.const_i b five 5;
    B.add b (Ir.Static_store ("Config", "scale", five));
    B.new_obj b n "Node";
    B.call b ~recv:n ~kind:Ir.Special ~cls:"Node"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.const_i b nine 9;
    B.fstore b ~obj:n ~field:"val" ~src:nine;
    B.add b (Ir.Static_store ("Config", "seed", n));
    B.add b (Ir.Static_load (mm, "Config", "seed"));
    B.fload b ~dst:v ~obj:mm ~field:"val";
    B.add b (Ir.Static_load (sc, "Config", "scale"));
    B.binop b r Ir.Mul v sc;
    B.ret b (Some r);
    B.finish m
  in
  {
    name = "statics";
    program =
      Program.make ~entry:("Main", "main") [ node_cls; config; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Node"; "Config"; "Main" ];
    expected = Some (Ir.Cint 45);
  }

(* ---------- strings ---------- *)

let strings =
  let tag =
    B.cls "Tag"
      ~fields:[ B.field "name" (Jtype.Ref Jtype.string_class) ]
      ~methods:[ empty_init () ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let t = B.fresh m (Jtype.Ref "Tag") in
    let s = B.fresh m (Jtype.Ref Jtype.string_class) in
    let s2 = B.fresh m (Jtype.Ref Jtype.string_class) in
    let eq = B.fresh m int_t in
    B.new_obj b t "Tag";
    B.call b ~recv:t ~kind:Ir.Special ~cls:"Tag"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.add b (Ir.Const (s, Ir.Cstr "hello"));
    B.fstore b ~obj:t ~field:"name" ~src:s;
    B.fload b ~dst:s2 ~obj:t ~field:"name";
    B.add b (Ir.Const (s, Ir.Cstr "hello"));
    B.binop b eq Ir.Eq s s2;
    B.ret b (Some eq);
    B.finish m
  in
  {
    name = "strings";
    program = Program.make ~entry:("Main", "main") [ tag; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Tag"; "Main" ];
    expected = Some (Ir.Cint 1);
  }

(* ---------- interface dispatch (IFacade generation, paper 3.2) ---------- *)

let interfaces =
  let measurable =
    let area = B.create "area" ~ret:int_t in
    (* Interface method: signature only. *)
    let m = B.finish area in
    B.cls "Measurable" ~interface:true ~methods:[ { m with Ir.body = [||] } ]
  in
  let rect =
    let area =
      let m = B.create "area" ~ret:int_t in
      let b = B.entry m in
      let w = B.fresh m int_t in
      let h = B.fresh m int_t in
      let r = B.fresh m int_t in
      B.fload b ~dst:w ~obj:"this" ~field:"w";
      B.fload b ~dst:h ~obj:"this" ~field:"h";
      B.binop b r Ir.Mul w h;
      B.ret b (Some r);
      B.finish m
    in
    B.cls "Rect" ~interfaces:[ "Measurable" ]
      ~fields:[ B.field "w" int_t; B.field "h" int_t ]
      ~methods:[ empty_init (); area ]
  in
  let disk =
    let area =
      let m = B.create "area" ~ret:int_t in
      let b = B.entry m in
      let r = B.fresh m int_t in
      let three = B.fresh m int_t in
      let r2 = B.fresh m int_t in
      let a = B.fresh m int_t in
      B.fload b ~dst:r ~obj:"this" ~field:"r";
      B.const_i b three 3;
      B.binop b r2 Ir.Mul r r;
      B.binop b a Ir.Mul three r2;
      B.ret b (Some a);
      B.finish m
    in
    B.cls "Disk" ~interfaces:[ "Measurable" ]
      ~fields:[ B.field "r" int_t ]
      ~methods:[ empty_init (); area ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let rect_v = B.fresh m (Jtype.Ref "Rect") in
    let disk_v = B.fresh m (Jtype.Ref "Disk") in
    let meas = B.fresh m (Jtype.Ref "Measurable") in
    let four = B.fresh m int_t in
    let five = B.fresh m int_t in
    let two = B.fresh m int_t in
    let a1 = B.fresh m int_t in
    let a2 = B.fresh m int_t in
    let flag = B.fresh m int_t in
    let acc = B.fresh m int_t in
    let acc2 = B.fresh m int_t in
    B.new_obj b rect_v "Rect";
    B.call b ~recv:rect_v ~kind:Ir.Special ~cls:"Rect"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.const_i b four 4;
    B.const_i b five 5;
    B.fstore b ~obj:rect_v ~field:"w" ~src:four;
    B.fstore b ~obj:rect_v ~field:"h" ~src:five;
    B.new_obj b disk_v "Disk";
    B.call b ~recv:disk_v ~kind:Ir.Special ~cls:"Disk"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.const_i b two 2;
    B.fstore b ~obj:disk_v ~field:"r" ~src:two;
    (* Dispatch through the interface type, as Java client code would. *)
    B.move b ~dst:meas ~src:rect_v;
    B.call b ~ret:a1 ~recv:meas ~kind:Ir.Virtual ~cls:"Measurable" ~name:"area" [];
    B.move b ~dst:meas ~src:disk_v;
    B.call b ~ret:a2 ~recv:meas ~kind:Ir.Virtual ~cls:"Measurable" ~name:"area" [];
    B.instance_of b ~dst:flag ~src:meas (Jtype.Ref "Disk");
    B.binop b acc Ir.Add a1 a2;
    B.binop b acc2 Ir.Add acc flag;
    B.ret b (Some acc2);
    B.finish m
  in
  {
    name = "interfaces";
    program =
      Program.make ~entry:("Main", "main")
        [ measurable; rect; disk; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Measurable"; "Rect"; "Disk"; "Main" ];
    expected = Some (Ir.Cint 33);  (* 20 + 12 + 1 *)
  }

(* ---------- nested iterations (sub-iterations, paper 3.6) ---------- *)

let nested_iteration =
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    B.declare m "total" int_t;
    B.declare m "outer" int_t;
    B.declare m "inner" int_t;
    B.declare m "one" int_t;
    B.declare m "cond" int_t;
    B.declare m "limo" int_t;
    B.declare m "limi" int_t;
    B.declare m "n" (Jtype.Ref "Node");
    B.declare m "v" int_t;
    let b0 = B.entry m in
    let b_ocond = B.block m in
    let b_obody = B.block m in
    let b_icond = B.block m in
    let b_ibody = B.block m in
    let b_iend = B.block m in
    let b_end = B.block m in
    B.const_i b0 "total" 0;
    B.const_i b0 "outer" 0;
    B.const_i b0 "one" 1;
    B.const_i b0 "limo" 3;
    B.const_i b0 "limi" 4;
    B.jump b0 b_ocond;
    B.binop b_ocond "cond" Ir.Lt "outer" "limo";
    B.branch b_ocond "cond" ~then_:b_obody ~else_:b_end;
    B.iter_start b_obody;
    (* A record allocated in the outer iteration, read after the inner
       sub-iterations finish. *)
    B.new_obj b_obody "n" "Node";
    B.call b_obody ~recv:"n" ~kind:Ir.Special ~cls:"Node"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.fstore b_obody ~obj:"n" ~field:"val" ~src:"outer";
    B.const_i b_obody "inner" 0;
    B.jump b_obody b_icond;
    B.binop b_icond "cond" Ir.Lt "inner" "limi";
    B.branch b_icond "cond" ~then_:b_ibody ~else_:b_iend;
    B.iter_start b_ibody;
    B.declare m "tmp" (Jtype.Ref "Node");
    B.new_obj b_ibody "tmp" "Node";
    B.call b_ibody ~recv:"tmp" ~kind:Ir.Special ~cls:"Node"
      ~name:Facade_compiler.Transform.constructor_name [];
    B.fstore b_ibody ~obj:"tmp" ~field:"val" ~src:"inner";
    B.fload b_ibody ~dst:"v" ~obj:"tmp" ~field:"val";
    B.binop b_ibody "total" Ir.Add "total" "v";
    B.iter_end b_ibody;
    B.binop b_ibody "inner" Ir.Add "inner" "one";
    B.jump b_ibody b_icond;
    (* The outer record is still alive: its pages were not recycled by the
       inner iteration ends. *)
    B.fload b_iend ~dst:"v" ~obj:"n" ~field:"val";
    B.binop b_iend "total" Ir.Add "total" "v";
    B.iter_end b_iend;
    B.binop b_iend "outer" Ir.Add "outer" "one";
    B.jump b_iend b_ocond;
    B.ret b_end (Some "total");
    B.finish m
  in
  {
    name = "nested_iteration";
    program = Program.make ~entry:("Main", "main") [ node_cls; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Node"; "Main" ];
    (* 3 outer x (0+1+2+3 inner) + (0+1+2 outer vals) = 18 + 3 = 21 *)
    expected = Some (Ir.Cint 21);
  }

(* ---------- JDK-style collections as data classes (paper 3.6) ---------- *)


let array_list_name ~elem = "ArrayList_" ^ elem
let int_hash_map_name ~elem = "IntHashMap_" ^ elem

(* ---------- ArrayList ---------- *)

let array_list ~elem =
  let name = array_list_name ~elem in
  let elem_t = Jtype.Ref elem in
  let arr_t = Jtype.Array elem_t in
  let init =
    let m = B.create ctor_name in
    let b = B.entry m in
    let cap = B.fresh m int_t in
    let arr = B.fresh m arr_t in
    let zero = B.fresh m int_t in
    B.const_i b cap 4;
    B.new_array b arr elem_t ~len:cap;
    B.fstore b ~obj:"this" ~field:"data" ~src:arr;
    B.const_i b zero 0;
    B.fstore b ~obj:"this" ~field:"size" ~src:zero;
    B.ret b None;
    B.finish m
  in
  let add =
    let m = B.create "add" ~params:[ ("e", elem_t) ] in
    B.declare m "n" int_t;
    B.declare m "arr" arr_t;
    B.declare m "cap" int_t;
    B.declare m "cond" int_t;
    B.declare m "two" int_t;
    B.declare m "ncap" int_t;
    B.declare m "narr" arr_t;
    B.declare m "zero" int_t;
    B.declare m "arr2" arr_t;
    B.declare m "one" int_t;
    B.declare m "n1" int_t;
    let b0 = B.entry m in
    let b_grow = B.block m in
    let b_store = B.block m in
    B.fload b0 ~dst:"n" ~obj:"this" ~field:"size";
    B.fload b0 ~dst:"arr" ~obj:"this" ~field:"data";
    B.alen b0 ~dst:"cap" ~arr:"arr";
    B.binop b0 "cond" Ir.Eq "n" "cap";
    B.branch b0 "cond" ~then_:b_grow ~else_:b_store;
    (* Growth doubles the backing array and copies with the modelled
       System.arraycopy — on pages in P'. *)
    B.const_i b_grow "two" 2;
    B.binop b_grow "ncap" Ir.Mul "cap" "two";
    B.new_array b_grow "narr" elem_t ~len:"ncap";
    B.const_i b_grow "zero" 0;
    B.add b_grow
      (Ir.Intrinsic
         ( None,
           Facade_compiler.Rt_names.arraycopy,
           [ Ir.Var "arr"; Ir.Var "zero"; Ir.Var "narr"; Ir.Var "zero"; Ir.Var "n" ] ));
    B.fstore b_grow ~obj:"this" ~field:"data" ~src:"narr";
    B.jump b_grow b_store;
    B.fload b_store ~dst:"arr2" ~obj:"this" ~field:"data";
    B.astore b_store ~arr:"arr2" ~idx:"n" ~src:"e";
    B.const_i b_store "one" 1;
    B.binop b_store "n1" Ir.Add "n" "one";
    B.fstore b_store ~obj:"this" ~field:"size" ~src:"n1";
    B.ret b_store None;
    B.finish m
  in
  let get =
    let m = B.create "get" ~params:[ ("i", int_t) ] ~ret:elem_t in
    let b = B.entry m in
    let arr = B.fresh m arr_t in
    let v = B.fresh m elem_t in
    B.fload b ~dst:arr ~obj:"this" ~field:"data";
    B.aload b ~dst:v ~arr ~idx:"i";
    B.ret b (Some v);
    B.finish m
  in
  let size =
    let m = B.create "size" ~ret:int_t in
    let b = B.entry m in
    let n = B.fresh m int_t in
    B.fload b ~dst:n ~obj:"this" ~field:"size";
    B.ret b (Some n);
    B.finish m
  in
  B.cls name
    ~fields:[ B.field "data" arr_t; B.field "size" int_t ]
    ~methods:[ init; add; get; size ]

(* ---------- IntHashMap (open addressing, linear probing) ---------- *)

let int_hash_map ~elem =
  let name = int_hash_map_name ~elem in
  let elem_t = Jtype.Ref elem in
  let vals_t = Jtype.Array elem_t in
  let ints_t = Jtype.Array int_t in
  let init =
    let m = B.create ctor_name in
    let b = B.entry m in
    let cap = B.fresh m int_t in
    let ks = B.fresh m ints_t in
    let vs = B.fresh m vals_t in
    let ss = B.fresh m ints_t in
    let zero = B.fresh m int_t in
    B.const_i b cap 8;
    B.new_array b ks int_t ~len:cap;
    B.new_array b vs elem_t ~len:cap;
    B.new_array b ss int_t ~len:cap;
    B.fstore b ~obj:"this" ~field:"keys" ~src:ks;
    B.fstore b ~obj:"this" ~field:"vals" ~src:vs;
    B.fstore b ~obj:"this" ~field:"states" ~src:ss;
    B.const_i b zero 0;
    B.fstore b ~obj:"this" ~field:"size" ~src:zero;
    B.ret b None;
    B.finish m
  in
  let put =
    let m = B.create "put" ~params:[ ("k", int_t); ("v", elem_t) ] in
    List.iter
      (fun (v, t) -> B.declare m v t)
      [
        ("n", int_t); ("ks", ints_t); ("vs", vals_t); ("ss", ints_t); ("cap", int_t);
        ("n2", int_t); ("two", int_t); ("cond", int_t); ("idx", int_t); ("st", int_t);
        ("ek", int_t); ("one", int_t); ("n1", int_t); ("oneS", int_t);
      ];
    let b0 = B.entry m in
    let b_resize = B.block m in
    let b_put = B.block m in
    let b_probe = B.block m in
    let b_checkkey = B.block m in
    let b_next = B.block m in
    let b_insert = B.block m in
    let b_overwrite = B.block m in
    B.fload b0 ~dst:"n" ~obj:"this" ~field:"size";
    B.fload b0 ~dst:"ks" ~obj:"this" ~field:"keys";
    B.alen b0 ~dst:"cap" ~arr:"ks";
    B.const_i b0 "two" 2;
    B.binop b0 "n2" Ir.Mul "n" "two";
    B.binop b0 "cond" Ir.Ge "n2" "cap";
    B.branch b0 "cond" ~then_:b_resize ~else_:b_put;
    B.call b_resize ~recv:"this" ~kind:Ir.Virtual ~cls:name ~name:"resize" [];
    B.jump b_resize b_put;
    B.fload b_put ~dst:"ks" ~obj:"this" ~field:"keys";
    B.fload b_put ~dst:"vs" ~obj:"this" ~field:"vals";
    B.fload b_put ~dst:"ss" ~obj:"this" ~field:"states";
    B.alen b_put ~dst:"cap" ~arr:"ks";
    B.binop b_put "idx" Ir.Rem "k" "cap";
    B.jump b_put b_probe;
    B.aload b_probe ~dst:"st" ~arr:"ss" ~idx:"idx";
    B.branch b_probe "st" ~then_:b_checkkey ~else_:b_insert;
    B.aload b_checkkey ~dst:"ek" ~arr:"ks" ~idx:"idx";
    B.binop b_checkkey "cond" Ir.Eq "ek" "k";
    B.branch b_checkkey "cond" ~then_:b_overwrite ~else_:b_next;
    B.const_i b_next "one" 1;
    B.binop b_next "idx" Ir.Add "idx" "one";
    B.binop b_next "idx" Ir.Rem "idx" "cap";
    B.jump b_next b_probe;
    B.astore b_insert ~arr:"ks" ~idx:"idx" ~src:"k";
    B.astore b_insert ~arr:"vs" ~idx:"idx" ~src:"v";
    B.const_i b_insert "oneS" 1;
    B.astore b_insert ~arr:"ss" ~idx:"idx" ~src:"oneS";
    B.fload b_insert ~dst:"n" ~obj:"this" ~field:"size";
    B.const_i b_insert "one" 1;
    B.binop b_insert "n1" Ir.Add "n" "one";
    B.fstore b_insert ~obj:"this" ~field:"size" ~src:"n1";
    B.ret b_insert None;
    B.astore b_overwrite ~arr:"vs" ~idx:"idx" ~src:"v";
    B.ret b_overwrite None;
    B.finish m
  in
  let resize =
    let m = B.create "resize" in
    List.iter
      (fun (v, t) -> B.declare m v t)
      [
        ("oks", ints_t); ("ovs", vals_t); ("oss", ints_t); ("ocap", int_t); ("two", int_t);
        ("ncap", int_t); ("nks", ints_t); ("nvs", vals_t); ("nss", ints_t); ("zero", int_t);
        ("i", int_t); ("cond", int_t); ("st", int_t); ("k", int_t); ("v", elem_t);
        ("one", int_t);
      ];
    let b0 = B.entry m in
    let b_loop = B.block m in
    let b_body = B.block m in
    let b_reput = B.block m in
    let b_inc = B.block m in
    let b_end = B.block m in
    B.fload b0 ~dst:"oks" ~obj:"this" ~field:"keys";
    B.fload b0 ~dst:"ovs" ~obj:"this" ~field:"vals";
    B.fload b0 ~dst:"oss" ~obj:"this" ~field:"states";
    B.alen b0 ~dst:"ocap" ~arr:"oks";
    B.const_i b0 "two" 2;
    B.binop b0 "ncap" Ir.Mul "ocap" "two";
    B.new_array b0 "nks" int_t ~len:"ncap";
    B.new_array b0 "nvs" elem_t ~len:"ncap";
    B.new_array b0 "nss" int_t ~len:"ncap";
    B.fstore b0 ~obj:"this" ~field:"keys" ~src:"nks";
    B.fstore b0 ~obj:"this" ~field:"vals" ~src:"nvs";
    B.fstore b0 ~obj:"this" ~field:"states" ~src:"nss";
    B.const_i b0 "zero" 0;
    B.fstore b0 ~obj:"this" ~field:"size" ~src:"zero";
    B.const_i b0 "i" 0;
    B.jump b0 b_loop;
    B.binop b_loop "cond" Ir.Lt "i" "ocap";
    B.branch b_loop "cond" ~then_:b_body ~else_:b_end;
    B.aload b_body ~dst:"st" ~arr:"oss" ~idx:"i";
    B.branch b_body "st" ~then_:b_reput ~else_:b_inc;
    B.aload b_reput ~dst:"k" ~arr:"oks" ~idx:"i";
    B.aload b_reput ~dst:"v" ~arr:"ovs" ~idx:"i";
    B.call b_reput ~recv:"this" ~kind:Ir.Virtual ~cls:name ~name:"put" [ "k"; "v" ];
    B.jump b_reput b_inc;
    B.const_i b_inc "one" 1;
    B.binop b_inc "i" Ir.Add "i" "one";
    B.jump b_inc b_loop;
    B.ret b_end None;
    B.finish m
  in
  let get =
    let m = B.create "get" ~params:[ ("k", int_t) ] ~ret:elem_t in
    List.iter
      (fun (v, t) -> B.declare m v t)
      [
        ("ks", ints_t); ("vs", vals_t); ("ss", ints_t); ("cap", int_t); ("idx", int_t);
        ("st", int_t); ("ek", int_t); ("cond", int_t); ("one", int_t); ("v", elem_t);
        ("vnull", elem_t);
      ];
    let b0 = B.entry m in
    let b_probe = B.block m in
    let b_check = B.block m in
    let b_next = B.block m in
    let b_found = B.block m in
    let b_null = B.block m in
    B.fload b0 ~dst:"ks" ~obj:"this" ~field:"keys";
    B.fload b0 ~dst:"vs" ~obj:"this" ~field:"vals";
    B.fload b0 ~dst:"ss" ~obj:"this" ~field:"states";
    B.alen b0 ~dst:"cap" ~arr:"ks";
    B.binop b0 "idx" Ir.Rem "k" "cap";
    B.jump b0 b_probe;
    B.aload b_probe ~dst:"st" ~arr:"ss" ~idx:"idx";
    B.branch b_probe "st" ~then_:b_check ~else_:b_null;
    B.aload b_check ~dst:"ek" ~arr:"ks" ~idx:"idx";
    B.binop b_check "cond" Ir.Eq "ek" "k";
    B.branch b_check "cond" ~then_:b_found ~else_:b_next;
    B.const_i b_next "one" 1;
    B.binop b_next "idx" Ir.Add "idx" "one";
    B.binop b_next "idx" Ir.Rem "idx" "cap";
    B.jump b_next b_probe;
    B.aload b_found ~dst:"v" ~arr:"vs" ~idx:"idx";
    B.ret b_found (Some "v");
    B.const_null b_null "vnull";
    B.ret b_null (Some "vnull");
    B.finish m
  in
  let size =
    let m = B.create "size" ~ret:int_t in
    let b = B.entry m in
    let n = B.fresh m int_t in
    B.fload b ~dst:n ~obj:"this" ~field:"size";
    B.ret b (Some n);
    B.finish m
  in
  B.cls name
    ~fields:
      [
        B.field "keys" ints_t;
        B.field "vals" vals_t;
        B.field "states" ints_t;
        B.field "size" int_t;
      ]
    ~methods:[ init; put; resize; get; size ]

(* ---------- the sample program ---------- *)

let collections =
  let item =
    B.cls "Item"
      ~fields:[ B.field "key" int_t; B.field "weight" int_t ]
      ~methods:
        [
          (let m = B.create ctor_name in
           B.ret (B.entry m) None;
           B.finish m);
        ]
  in
  let list_name = array_list_name ~elem:"Item" in
  let map_name = int_hash_map_name ~elem:"Item" in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    List.iter
      (fun (v, t) -> B.declare m v t)
      [
        ("list", Jtype.Ref list_name); ("map", Jtype.Ref map_name);
        ("it", Jtype.Ref "Item"); ("it2", Jtype.Ref "Item"); ("i", int_t); ("one", int_t);
        ("limit", int_t); ("cond", int_t); ("w", int_t); ("k", int_t); ("three", int_t);
        ("acc", int_t); ("vnull", Jtype.Ref "Item"); ("missing", Jtype.Ref "Item");
        ("isnull", int_t); ("big", int_t); ("sz1", int_t); ("sz2", int_t); ("r", int_t);
        ("w2", int_t);
      ];
    let b0 = B.entry m in
    let b_fill_cond = B.block m in
    let b_fill = B.block m in
    let b_read_init = B.block m in
    let b_read_cond = B.block m in
    let b_read = B.block m in
    let b_fin = B.block m in
    B.new_obj b0 "list" list_name;
    B.call b0 ~recv:"list" ~kind:Ir.Special ~cls:list_name ~name:ctor_name [];
    B.new_obj b0 "map" map_name;
    B.call b0 ~recv:"map" ~kind:Ir.Special ~cls:map_name ~name:ctor_name [];
    B.const_i b0 "i" 0;
    B.const_i b0 "one" 1;
    B.const_i b0 "three" 3;
    B.const_i b0 "limit" 20;
    B.jump b0 b_fill_cond;
    B.binop b_fill_cond "cond" Ir.Lt "i" "limit";
    B.branch b_fill_cond "cond" ~then_:b_fill ~else_:b_read_init;
    B.new_obj b_fill "it" "Item";
    B.call b_fill ~recv:"it" ~kind:Ir.Special ~cls:"Item" ~name:ctor_name [];
    B.binop b_fill "k" Ir.Mul "i" "three";
    B.fstore b_fill ~obj:"it" ~field:"key" ~src:"k";
    B.binop b_fill "w" Ir.Mul "i" "i";
    B.fstore b_fill ~obj:"it" ~field:"weight" ~src:"w";
    B.call b_fill ~recv:"list" ~kind:Ir.Virtual ~cls:list_name ~name:"add" [ "it" ];
    B.call b_fill ~recv:"map" ~kind:Ir.Virtual ~cls:map_name ~name:"put" [ "k"; "it" ];
    B.binop b_fill "i" Ir.Add "i" "one";
    B.jump b_fill b_fill_cond;
    B.const_i b_read_init "acc" 0;
    B.const_i b_read_init "i" 0;
    B.jump b_read_init b_read_cond;
    B.binop b_read_cond "cond" Ir.Lt "i" "limit";
    B.branch b_read_cond "cond" ~then_:b_read ~else_:b_fin;
    (* Read back through both collections and check they agree. *)
    B.call b_read ~ret:"it" ~recv:"list" ~kind:Ir.Virtual ~cls:list_name ~name:"get" [ "i" ];
    B.fload b_read ~dst:"w" ~obj:"it" ~field:"weight";
    B.binop b_read "k" Ir.Mul "i" "three";
    B.call b_read ~ret:"it2" ~recv:"map" ~kind:Ir.Virtual ~cls:map_name ~name:"get" [ "k" ];
    B.fload b_read ~dst:"w2" ~obj:"it2" ~field:"weight";
    B.binop b_read "acc" Ir.Add "acc" "w";
    B.binop b_read "acc" Ir.Add "acc" "w2";
    B.binop b_read "i" Ir.Add "i" "one";
    B.jump b_read b_read_cond;
    B.const_i b_fin "big" 999;
    B.call b_fin ~ret:"missing" ~recv:"map" ~kind:Ir.Virtual ~cls:map_name ~name:"get" [ "big" ];
    B.const_null b_fin "vnull";
    B.binop b_fin "isnull" Ir.Eq "missing" "vnull";
    B.call b_fin ~ret:"sz1" ~recv:"list" ~kind:Ir.Virtual ~cls:list_name ~name:"size" [];
    B.call b_fin ~ret:"sz2" ~recv:"map" ~kind:Ir.Virtual ~cls:map_name ~name:"size" [];
    B.binop b_fin "r" Ir.Add "acc" "isnull";
    B.binop b_fin "r" Ir.Add "r" "sz1";
    B.binop b_fin "r" Ir.Add "r" "sz2";
    B.ret b_fin (Some "r");
    B.finish m
  in
  {
    name = "collections";
    program =
      Program.make ~entry:("Main", "main")
        [
          item;
          array_list ~elem:"Item";
          int_hash_map ~elem:"Item";
          B.cls "Main" ~methods:[ main ];
        ];
    spec =
      {
        Facade_compiler.Classify.data_roots = [ "Item"; list_name; map_name; "Main" ];
        boundary = [];
      };
    (* acc = 2 * sum i^2 (i<20) = 4940; + isnull 1 + sizes 20 + 20 *)
    expected = Some (Ir.Cint 4981);
  }


(* ---------- threads: per-thread pools and the shared lock pool ---------- *)

let threads =
  let worker =
    (* A Counter is both the shared data and the Runnable. *)
    let inc =
      let m = B.create "inc" in
      let b = B.entry m in
      let c = B.fresh m int_t in
      let one = B.fresh m int_t in
      let c2 = B.fresh m int_t in
      B.monitor_enter b "this";
      B.fload b ~dst:c ~obj:"this" ~field:"count";
      B.const_i b one 1;
      B.binop b c2 Ir.Add c one;
      B.fstore b ~obj:"this" ~field:"count" ~src:c2;
      B.monitor_exit b "this";
      B.ret b None;
      B.finish m
    in
    let run =
      let m = B.create "run" in
      B.declare m "i" int_t;
      B.declare m "one" int_t;
      B.declare m "limit" int_t;
      B.declare m "cond" int_t;
      let b0 = B.entry m in
      let b_cond = B.block m in
      let b_body = B.block m in
      let b_end = B.block m in
      B.const_i b0 "i" 0;
      B.const_i b0 "one" 1;
      B.const_i b0 "limit" 100;
      B.jump b0 b_cond;
      B.binop b_cond "cond" Ir.Lt "i" "limit";
      B.branch b_cond "cond" ~then_:b_body ~else_:b_end;
      B.call b_body ~recv:"this" ~kind:Ir.Virtual ~cls:"SharedCounter" ~name:"inc" [];
      B.binop b_body "i" Ir.Add "i" "one";
      B.jump b_body b_cond;
      B.ret b_end None;
      B.finish m
    in
    B.cls "SharedCounter"
      ~fields:[ B.field "count" int_t ]
      ~methods:[ empty_init (); inc; run ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let c = B.fresh m (Jtype.Ref "SharedCounter") in
    let r = B.fresh m int_t in
    B.new_obj b c "SharedCounter";
    B.call b ~recv:c ~kind:Ir.Special ~cls:"SharedCounter" ~name:ctor_name [];
    (* Two worker threads plus the main thread all bump the counter. The
       iteration frame is the join barrier: the spawner only reads [count]
       after iter_end, so the result is deterministic even when the
       runnables execute on pool domains. *)
    B.iter_start b;
    B.add b (Ir.Intrinsic (None, Facade_compiler.Rt_names.run_thread, [ Ir.Var c ]));
    B.add b (Ir.Intrinsic (None, Facade_compiler.Rt_names.run_thread, [ Ir.Var c ]));
    B.iter_end b;
    B.call b ~recv:c ~kind:Ir.Virtual ~cls:"SharedCounter" ~name:"inc" [];
    B.fload b ~dst:r ~obj:c ~field:"count";
    B.ret b (Some r);
    B.finish m
  in
  {
    name = "threads";
    program =
      Program.make ~entry:("Main", "main") [ worker; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "SharedCounter"; "Main" ];
    expected = Some (Ir.Cint 201);
  }

(* The seeded racy twin of [threads]: same spawn/join structure, but [inc]
   bumps the shared counter without taking the monitor. The static race
   detector must flag it; it is exported for the analysis tests but kept
   out of [all] (the parallel differential would be genuinely racy).
   Sequentially the spawned runnables execute inline, so the expected
   result still holds on the non-parallel paths. *)
let racy_counter =
  let worker =
    let inc =
      let m = B.create "inc" in
      let b = B.entry m in
      let c = B.fresh m int_t in
      let one = B.fresh m int_t in
      let c2 = B.fresh m int_t in
      B.fload b ~dst:c ~obj:"this" ~field:"count";
      B.const_i b one 1;
      B.binop b c2 Ir.Add c one;
      B.fstore b ~obj:"this" ~field:"count" ~src:c2;
      B.ret b None;
      B.finish m
    in
    let run =
      let m = B.create "run" in
      B.declare m "i" int_t;
      B.declare m "one" int_t;
      B.declare m "limit" int_t;
      B.declare m "cond" int_t;
      let b0 = B.entry m in
      let b_cond = B.block m in
      let b_body = B.block m in
      let b_end = B.block m in
      B.const_i b0 "i" 0;
      B.const_i b0 "one" 1;
      B.const_i b0 "limit" 100;
      B.jump b0 b_cond;
      B.binop b_cond "cond" Ir.Lt "i" "limit";
      B.branch b_cond "cond" ~then_:b_body ~else_:b_end;
      B.call b_body ~recv:"this" ~kind:Ir.Virtual ~cls:"SharedCounter" ~name:"inc" [];
      B.binop b_body "i" Ir.Add "i" "one";
      B.jump b_body b_cond;
      B.ret b_end None;
      B.finish m
    in
    B.cls "SharedCounter"
      ~fields:[ B.field "count" int_t ]
      ~methods:[ empty_init (); inc; run ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let c = B.fresh m (Jtype.Ref "SharedCounter") in
    let r = B.fresh m int_t in
    B.new_obj b c "SharedCounter";
    B.call b ~recv:c ~kind:Ir.Special ~cls:"SharedCounter" ~name:ctor_name [];
    B.iter_start b;
    B.add b (Ir.Intrinsic (None, Facade_compiler.Rt_names.run_thread, [ Ir.Var c ]));
    B.add b (Ir.Intrinsic (None, Facade_compiler.Rt_names.run_thread, [ Ir.Var c ]));
    B.iter_end b;
    B.call b ~recv:c ~kind:Ir.Virtual ~cls:"SharedCounter" ~name:"inc" [];
    B.fload b ~dst:r ~obj:c ~field:"count";
    B.ret b (Some r);
    B.finish m
  in
  {
    name = "racy_counter";
    program =
      Program.make ~entry:("Main", "main") [ worker; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "SharedCounter"; "Main" ];
    expected = Some (Ir.Cint 201);
  }

(* ---------- boundary classes (annotated data fields, paper 4.1) ---------- *)

let boundary =
  let meta =
    B.cls "Meta" ~fields:[ B.field "id" int_t ] ~methods:[ empty_init () ]
  in
  (* Holder stays a heap class; its [cache] field is annotated as a data
     field and becomes a page reference in P'. *)
  let holder =
    let set =
      let m = B.create "set" ~params:[ ("mv", Jtype.Ref "Meta") ] in
      let b = B.entry m in
      let h = B.fresh m int_t in
      let one = B.fresh m int_t in
      let h2 = B.fresh m int_t in
      B.fstore b ~obj:"this" ~field:"cache" ~src:"mv";
      B.fload b ~dst:h ~obj:"this" ~field:"hits";
      B.const_i b one 1;
      B.binop b h2 Ir.Add h one;
      B.fstore b ~obj:"this" ~field:"hits" ~src:h2;
      B.ret b None;
      B.finish m
    in
    let get =
      let m = B.create "get" ~ret:(Jtype.Ref "Meta") in
      let b = B.entry m in
      let v = B.fresh m (Jtype.Ref "Meta") in
      B.fload b ~dst:v ~obj:"this" ~field:"cache";
      B.ret b (Some v);
      B.finish m
    in
    B.cls "Holder"
      ~fields:[ B.field "cache" (Jtype.Ref "Meta"); B.field "hits" int_t ]
      ~methods:[ empty_init (); set; get ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let h = B.fresh m (Jtype.Ref "Holder") in
    let mv = B.fresh m (Jtype.Ref "Meta") in
    let g = B.fresh m (Jtype.Ref "Meta") in
    let five = B.fresh m int_t in
    let gid = B.fresh m int_t in
    let hits = B.fresh m int_t in
    let r = B.fresh m int_t in
    B.new_obj b h "Holder";
    B.call b ~recv:h ~kind:Ir.Special ~cls:"Holder" ~name:ctor_name [];
    B.new_obj b mv "Meta";
    B.call b ~recv:mv ~kind:Ir.Special ~cls:"Meta" ~name:ctor_name [];
    B.const_i b five 5;
    B.fstore b ~obj:mv ~field:"id" ~src:five;
    B.call b ~recv:h ~kind:Ir.Virtual ~cls:"Holder" ~name:"set" [ mv ];
    B.call b ~ret:g ~recv:h ~kind:Ir.Virtual ~cls:"Holder" ~name:"get" [];
    B.fload b ~dst:gid ~obj:g ~field:"id";
    B.fload b ~dst:hits ~obj:h ~field:"hits";
    B.binop b r Ir.Add gid hits;
    B.ret b (Some r);
    B.finish m
  in
  {
    name = "boundary";
    program =
      Program.make ~entry:("Main", "main") [ meta; holder; B.cls "Main" ~methods:[ main ] ];
    spec = spec ~boundary:[ ("Holder", [ "cache" ]) ] [ "Meta"; "Main" ];
    expected = Some (Ir.Cint 6);
  }

(* ---------- deep (recursive, cyclic) conversion at IPs ---------- *)

let deep_conversion =
  let chain =
    B.cls "Chain"
      ~fields:
        [
          B.field "v" int_t;
          B.field "next" (Jtype.Ref "Chain");
          B.field "nums" (Jtype.Array int_t);
        ]
      ~methods:[ empty_init () ]
  in
  (* Control-path container: the chain crosses the boundary both ways. *)
  let box = B.cls "Box" ~fields:[ B.field "kept" (Jtype.Ref "Chain") ] ~methods:[ empty_init () ] in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let c1 = B.fresh m (Jtype.Ref "Chain") in
    let c2 = B.fresh m (Jtype.Ref "Chain") in
    let bx = B.fresh m (Jtype.Ref "Box") in
    let q = B.fresh m (Jtype.Ref "Chain") in
    let q2 = B.fresh m (Jtype.Ref "Chain") in
    let q3 = B.fresh m (Jtype.Ref "Chain") in
    let arr = B.fresh m (Jtype.Array int_t) in
    let narr = B.fresh m (Jtype.Array int_t) in
    let four = B.fresh m int_t in
    let ten = B.fresh m int_t in
    let twenty = B.fresh m int_t in
    let seven = B.fresh m int_t in
    let one = B.fresh m int_t in
    let a = B.fresh m int_t in
    let v1 = B.fresh m int_t in
    let v2 = B.fresh m int_t in
    let v3 = B.fresh m int_t in
    let acc = B.fresh m int_t in
    B.new_obj b c1 "Chain";
    B.call b ~recv:c1 ~kind:Ir.Special ~cls:"Chain" ~name:ctor_name [];
    B.new_obj b c2 "Chain";
    B.call b ~recv:c2 ~kind:Ir.Special ~cls:"Chain" ~name:ctor_name [];
    B.const_i b ten 10;
    B.const_i b twenty 20;
    B.fstore b ~obj:c1 ~field:"v" ~src:ten;
    B.fstore b ~obj:c2 ~field:"v" ~src:twenty;
    (* A cycle: c1 -> c2 -> c1; the conversion functions must not loop. *)
    B.fstore b ~obj:c1 ~field:"next" ~src:c2;
    B.fstore b ~obj:c2 ~field:"next" ~src:c1;
    B.const_i b four 4;
    B.new_array b arr int_t ~len:four;
    B.const_i b seven 7;
    B.const_i b one 1;
    B.astore b ~arr ~idx:one ~src:seven;
    B.fstore b ~obj:c1 ~field:"nums" ~src:arr;
    (* Across the boundary and back: a deep copy of the cyclic structure. *)
    B.new_obj b bx "Box";
    B.call b ~recv:bx ~kind:Ir.Special ~cls:"Box" ~name:ctor_name [];
    B.fstore b ~obj:bx ~field:"kept" ~src:c1;
    B.fload b ~dst:q ~obj:bx ~field:"kept";
    B.fload b ~dst:q2 ~obj:q ~field:"next";
    B.fload b ~dst:q3 ~obj:q2 ~field:"next";
    B.fload b ~dst:v1 ~obj:q ~field:"v";
    B.fload b ~dst:v2 ~obj:q2 ~field:"v";
    B.fload b ~dst:v3 ~obj:q3 ~field:"v";
    B.fload b ~dst:narr ~obj:q ~field:"nums";
    B.aload b ~dst:a ~arr:narr ~idx:one;
    B.binop b acc Ir.Add v1 v2;
    B.binop b acc Ir.Add acc v3;
    B.binop b acc Ir.Add acc a;
    B.ret b (Some acc);
    B.finish m
  in
  {
    name = "deep_conversion";
    program =
      Program.make ~entry:("Main", "main") [ chain; box; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Chain"; "Main" ];
    expected = Some (Ir.Cint 47);  (* 10 + 20 + 10 (cycle) + 7 *)
  }

(* ---------- pagerank: the paper's GraphChi workload in miniature ---------- *)

let pagerank_sized ~n ~iters =
  let deg = 4 in
  let vertex =
    B.cls "Vertex"
      ~fields:
        [ B.field "rank" double_t; B.field "accum" double_t; B.field "outdeg" int_t ]
      ~methods:[ empty_init () ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:double_t in
    List.iter
      (fun (v, t) -> B.declare m v t)
      [
        ("i", int_t); ("j", int_t); ("e", int_t); ("k", int_t); ("dst", int_t);
        ("s", int_t); ("round", int_t); ("cond", int_t); ("one", int_t);
        ("nv", int_t); ("nd", int_t); ("degv", int_t); ("iters", int_t);
        ("lcg_a", int_t); ("lcg_c", int_t); ("lcg_m", int_t); ("d", int_t);
        ("verts", Jtype.Array (Jtype.Ref "Vertex"));
        ("edges", Jtype.Array int_t);
        ("v", Jtype.Ref "Vertex"); ("w", Jtype.Ref "Vertex");
        ("zero_f", double_t); ("inv_n", double_t); ("base", double_t);
        ("damp", double_t); ("share", double_t); ("a", double_t);
        ("r2", double_t); ("sum", double_t);
      ];
    let b0 = B.entry m in
    let b_ic = B.block m in   (* init loop: cond / body / per-vertex edges / next *)
    let b_ib = B.block m in
    let b_ec = B.block m in
    let b_eb = B.block m in
    let b_in = B.block m in
    let b_rc = B.block m in   (* superstep loop *)
    let b_rb = B.block m in
    let b_zc = B.block m in   (* zero the accumulators *)
    let b_zb = B.block m in
    let b_sp = B.block m in   (* scatter rank/outdeg along each edge *)
    let b_sc = B.block m in
    let b_sb = B.block m in
    let b_sec = B.block m in
    let b_seb = B.block m in
    let b_sn = B.block m in
    let b_gp = B.block m in   (* gather: rank = base + damp * accum *)
    let b_gc = B.block m in
    let b_gb = B.block m in
    let b_re = B.block m in
    let b_su = B.block m in   (* checksum: sum of final ranks *)
    let b_suc = B.block m in
    let b_sub = B.block m in
    let b_end = B.block m in
    B.const_i b0 "nv" n;
    B.const_i b0 "degv" deg;
    B.const_i b0 "iters" iters;
    B.const_i b0 "one" 1;
    B.const_i b0 "round" 0;
    B.const_i b0 "s" 1;
    B.const_i b0 "lcg_a" 1103515245;
    B.const_i b0 "lcg_c" 12345;
    B.const_i b0 "lcg_m" 1073741824;
    B.const_f b0 "zero_f" 0.0;
    B.const_f b0 "inv_n" (1.0 /. float_of_int n);
    B.const_f b0 "base" (0.15 /. float_of_int n);
    B.const_f b0 "damp" 0.85;
    B.binop b0 "nd" Ir.Mul "nv" "degv";
    B.new_array b0 "verts" (Jtype.Ref "Vertex") ~len:"nv";
    B.new_array b0 "edges" int_t ~len:"nd";
    B.const_i b0 "i" 0;
    B.jump b0 b_ic;
    (* One vertex per pass, plus its [deg] out-edges from a little LCG
       (kept under 2^30 so products stay exact). *)
    B.binop b_ic "cond" Ir.Lt "i" "nv";
    B.branch b_ic "cond" ~then_:b_ib ~else_:b_rc;
    B.new_obj b_ib "v" "Vertex";
    B.call b_ib ~recv:"v" ~kind:Ir.Special ~cls:"Vertex" ~name:ctor_name [];
    B.fstore b_ib ~obj:"v" ~field:"rank" ~src:"inv_n";
    B.fstore b_ib ~obj:"v" ~field:"accum" ~src:"zero_f";
    B.fstore b_ib ~obj:"v" ~field:"outdeg" ~src:"degv";
    B.astore b_ib ~arr:"verts" ~idx:"i" ~src:"v";
    B.const_i b_ib "e" 0;
    B.jump b_ib b_ec;
    B.binop b_ec "cond" Ir.Lt "e" "degv";
    B.branch b_ec "cond" ~then_:b_eb ~else_:b_in;
    B.binop b_eb "s" Ir.Mul "s" "lcg_a";
    B.binop b_eb "s" Ir.Add "s" "lcg_c";
    B.binop b_eb "s" Ir.Rem "s" "lcg_m";
    B.binop b_eb "dst" Ir.Rem "s" "nv";
    B.binop b_eb "k" Ir.Mul "i" "degv";
    B.binop b_eb "k" Ir.Add "k" "e";
    B.astore b_eb ~arr:"edges" ~idx:"k" ~src:"dst";
    B.binop b_eb "e" Ir.Add "e" "one";
    B.jump b_eb b_ec;
    B.binop b_in "i" Ir.Add "i" "one";
    B.jump b_in b_ic;
    (* Each superstep is one iteration frame, GraphChi-style. *)
    B.binop b_rc "cond" Ir.Lt "round" "iters";
    B.branch b_rc "cond" ~then_:b_rb ~else_:b_su;
    B.iter_start b_rb;
    B.const_i b_rb "j" 0;
    B.jump b_rb b_zc;
    B.binop b_zc "cond" Ir.Lt "j" "nv";
    B.branch b_zc "cond" ~then_:b_zb ~else_:b_sp;
    B.aload b_zb ~dst:"w" ~arr:"verts" ~idx:"j";
    B.fstore b_zb ~obj:"w" ~field:"accum" ~src:"zero_f";
    B.binop b_zb "j" Ir.Add "j" "one";
    B.jump b_zb b_zc;
    B.const_i b_sp "i" 0;
    B.jump b_sp b_sc;
    B.binop b_sc "cond" Ir.Lt "i" "nv";
    B.branch b_sc "cond" ~then_:b_sb ~else_:b_gp;
    B.aload b_sb ~dst:"v" ~arr:"verts" ~idx:"i";
    B.fload b_sb ~dst:"share" ~obj:"v" ~field:"rank";
    B.fload b_sb ~dst:"d" ~obj:"v" ~field:"outdeg";
    B.binop b_sb "share" Ir.Div "share" "d";
    B.const_i b_sb "e" 0;
    B.jump b_sb b_sec;
    B.binop b_sec "cond" Ir.Lt "e" "degv";
    B.branch b_sec "cond" ~then_:b_seb ~else_:b_sn;
    B.binop b_seb "k" Ir.Mul "i" "degv";
    B.binop b_seb "k" Ir.Add "k" "e";
    B.aload b_seb ~dst:"dst" ~arr:"edges" ~idx:"k";
    B.aload b_seb ~dst:"w" ~arr:"verts" ~idx:"dst";
    B.fload b_seb ~dst:"a" ~obj:"w" ~field:"accum";
    B.binop b_seb "a" Ir.Add "a" "share";
    B.fstore b_seb ~obj:"w" ~field:"accum" ~src:"a";
    B.binop b_seb "e" Ir.Add "e" "one";
    B.jump b_seb b_sec;
    B.binop b_sn "i" Ir.Add "i" "one";
    B.jump b_sn b_sc;
    B.const_i b_gp "j" 0;
    B.jump b_gp b_gc;
    B.binop b_gc "cond" Ir.Lt "j" "nv";
    B.branch b_gc "cond" ~then_:b_gb ~else_:b_re;
    B.aload b_gb ~dst:"w" ~arr:"verts" ~idx:"j";
    B.fload b_gb ~dst:"a" ~obj:"w" ~field:"accum";
    B.binop b_gb "r2" Ir.Mul "damp" "a";
    B.binop b_gb "r2" Ir.Add "base" "r2";
    B.fstore b_gb ~obj:"w" ~field:"rank" ~src:"r2";
    B.binop b_gb "j" Ir.Add "j" "one";
    B.jump b_gb b_gc;
    B.iter_end b_re;
    B.binop b_re "round" Ir.Add "round" "one";
    B.jump b_re b_rc;
    B.const_f b_su "sum" 0.0;
    B.const_i b_su "j" 0;
    B.jump b_su b_suc;
    B.binop b_suc "cond" Ir.Lt "j" "nv";
    B.branch b_suc "cond" ~then_:b_sub ~else_:b_end;
    B.aload b_sub ~dst:"w" ~arr:"verts" ~idx:"j";
    B.fload b_sub ~dst:"a" ~obj:"w" ~field:"rank";
    B.binop b_sub "sum" Ir.Add "sum" "a";
    B.binop b_sub "j" Ir.Add "j" "one";
    B.jump b_sub b_suc;
    B.add b_end (Ir.Intrinsic (None, Facade_compiler.Rt_names.print, [ Ir.Var "sum" ]));
    B.ret b_end (Some "sum");
    B.finish m
  in
  {
    name = "pagerank";
    program = Program.make ~entry:("Main", "main") [ vertex; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Vertex"; "Main" ];
    expected = None;
  }

let pagerank = pagerank_sized ~n:32 ~iters:10

(* ---------- pagerank-par: domain-parallel supersteps ----------

   The multi-threaded shape of the paper's scalability runs: each
   superstep spawns [nw] PrWorker runnables over disjoint vertex ranges;
   every worker scatters into its own private accumulator array, and the
   main thread gathers the per-worker accumulators in a fixed order after
   the join at iteration end. All cross-thread writes are disjoint and
   the reduction order is fixed, so the result is identical whatever the
   worker-pool size — the property the parallel-vs-sequential
   differential suite pins. *)

let pagerank_par_sized ~name ~nv ~degv ~iters ~nw ~io_units =
  let worker =
    let run =
      let m = B.create "run" in
      List.iter
        (fun (v, t) -> B.declare m v t)
        [
          ("i", int_t); ("e", int_t); ("k", int_t); ("dstv", int_t);
          ("cond", int_t); ("one", int_t); ("j", int_t);
          ("from", int_t); ("to_", int_t); ("n", int_t); ("d", int_t);
          ("ranks", Jtype.Array double_t); ("accum", Jtype.Array double_t);
          ("edges", Jtype.Array int_t);
          ("zero_f", double_t); ("share", double_t); ("a", double_t);
        ];
      if io_units > 0 then B.declare m "iou" int_t;
      let b0 = B.entry m in
      (* One simulated device read per worker per superstep: the shard of
         the edge file this worker scans. Charged as [Load] latency; under
         a nonzero [io_scale] the reads overlap across domains. *)
      if io_units > 0 then begin
        B.const_i b0 "iou" io_units;
        B.add b0
          (Ir.Intrinsic (None, Facade_compiler.Rt_names.io_read, [ Ir.Var "iou" ]))
      end;
      let b_zc = B.block m in  (* zero own accumulator *)
      let b_zb = B.block m in
      let b_sp = B.block m in
      let b_sc = B.block m in  (* per-source-vertex loop over [from, to) *)
      let b_sb = B.block m in
      let b_ec = B.block m in  (* per-out-edge loop *)
      let b_eb = B.block m in
      let b_sn = B.block m in
      let b_end = B.block m in
      B.const_i b0 "one" 1;
      B.const_f b0 "zero_f" 0.0;
      B.fload b0 ~dst:"from" ~obj:"this" ~field:"efrom";
      B.fload b0 ~dst:"to_" ~obj:"this" ~field:"eto";
      B.fload b0 ~dst:"n" ~obj:"this" ~field:"nv";
      B.fload b0 ~dst:"d" ~obj:"this" ~field:"degv";
      B.fload b0 ~dst:"ranks" ~obj:"this" ~field:"ranks";
      B.fload b0 ~dst:"accum" ~obj:"this" ~field:"accum";
      B.fload b0 ~dst:"edges" ~obj:"this" ~field:"edges";
      B.const_i b0 "j" 0;
      B.jump b0 b_zc;
      B.binop b_zc "cond" Ir.Lt "j" "n";
      B.branch b_zc "cond" ~then_:b_zb ~else_:b_sp;
      B.astore b_zb ~arr:"accum" ~idx:"j" ~src:"zero_f";
      B.binop b_zb "j" Ir.Add "j" "one";
      B.jump b_zb b_zc;
      B.move b_sp ~dst:"i" ~src:"from";
      B.jump b_sp b_sc;
      B.binop b_sc "cond" Ir.Lt "i" "to_";
      B.branch b_sc "cond" ~then_:b_sb ~else_:b_end;
      B.aload b_sb ~dst:"share" ~arr:"ranks" ~idx:"i";
      B.binop b_sb "share" Ir.Div "share" "d";
      B.const_i b_sb "e" 0;
      B.jump b_sb b_ec;
      B.binop b_ec "cond" Ir.Lt "e" "d";
      B.branch b_ec "cond" ~then_:b_eb ~else_:b_sn;
      B.binop b_eb "k" Ir.Mul "i" "d";
      B.binop b_eb "k" Ir.Add "k" "e";
      B.aload b_eb ~dst:"dstv" ~arr:"edges" ~idx:"k";
      B.aload b_eb ~dst:"a" ~arr:"accum" ~idx:"dstv";
      B.binop b_eb "a" Ir.Add "a" "share";
      B.astore b_eb ~arr:"accum" ~idx:"dstv" ~src:"a";
      B.binop b_eb "e" Ir.Add "e" "one";
      B.jump b_eb b_ec;
      B.binop b_sn "i" Ir.Add "i" "one";
      B.jump b_sn b_sc;
      B.ret b_end None;
      B.finish m
    in
    B.cls "PrWorker"
      ~fields:
        [
          B.field "ranks" (Jtype.Array double_t);
          B.field "accum" (Jtype.Array double_t);
          B.field "edges" (Jtype.Array int_t);
          B.field "efrom" int_t; B.field "eto" int_t;
          B.field "nv" int_t; B.field "degv" int_t;
        ]
      ~methods:[ empty_init (); run ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:double_t in
    List.iter
      (fun (v, t) -> B.declare m v t)
      [
        ("i", int_t); ("j", int_t); ("k", int_t); ("w", int_t); ("dstv", int_t);
        ("s", int_t); ("round", int_t); ("cond", int_t); ("one", int_t);
        ("n", int_t); ("nd", int_t); ("d", int_t); ("rounds", int_t);
        ("workers_n", int_t); ("chunk", int_t); ("from", int_t); ("to_", int_t);
        ("lcg_a", int_t); ("lcg_c", int_t); ("lcg_m", int_t);
        ("ranks", Jtype.Array double_t);
        ("edges", Jtype.Array int_t);
        ("acc", Jtype.Array double_t);
        ("workers", Jtype.Array (Jtype.Ref "PrWorker"));
        ("wk", Jtype.Ref "PrWorker");
        ("zero_f", double_t); ("inv_n", double_t); ("base", double_t);
        ("damp", double_t); ("a", double_t); ("x", double_t);
        ("r2", double_t); ("sum", double_t);
      ];
    let b0 = B.entry m in
    let b_irc = B.block m in  (* init ranks: cond / body *)
    let b_irb = B.block m in
    let b_iep = B.block m in  (* init edges via LCG: pre / cond / body *)
    let b_iec = B.block m in
    let b_ieb = B.block m in
    let b_wp = B.block m in   (* build workers: pre / cond / body *)
    let b_wc = B.block m in
    let b_wb = B.block m in
    let b_rc = B.block m in   (* superstep loop: cond / body *)
    let b_rb = B.block m in
    let b_tc = B.block m in   (* spawn one thread per worker: cond / body *)
    let b_tb = B.block m in
    let b_join = B.block m in (* iteration end = join barrier *)
    let b_gc = B.block m in   (* gather per vertex: cond / body *)
    let b_gb = B.block m in
    let b_hc = B.block m in   (* inner fold over workers, fixed order *)
    let b_hb = B.block m in
    let b_gf = B.block m in   (* write back the damped rank *)
    let b_re = B.block m in
    let b_sup = B.block m in  (* checksum: pre / cond / body *)
    let b_suc = B.block m in
    let b_sub = B.block m in
    let b_end = B.block m in
    B.const_i b0 "n" nv;
    B.const_i b0 "d" degv;
    B.const_i b0 "rounds" iters;
    B.const_i b0 "workers_n" nw;
    B.const_i b0 "one" 1;
    B.const_i b0 "round" 0;
    B.const_i b0 "s" 1;
    B.const_i b0 "lcg_a" 1103515245;
    B.const_i b0 "lcg_c" 12345;
    B.const_i b0 "lcg_m" 1073741824;
    B.const_f b0 "zero_f" 0.0;
    B.const_f b0 "inv_n" (1.0 /. float_of_int nv);
    B.const_f b0 "base" (0.15 /. float_of_int nv);
    B.const_f b0 "damp" 0.85;
    B.binop b0 "nd" Ir.Mul "n" "d";
    B.binop b0 "chunk" Ir.Div "n" "workers_n";
    B.new_array b0 "ranks" double_t ~len:"n";
    B.new_array b0 "edges" int_t ~len:"nd";
    B.new_array b0 "workers" (Jtype.Ref "PrWorker") ~len:"workers_n";
    B.const_i b0 "i" 0;
    B.jump b0 b_irc;
    B.binop b_irc "cond" Ir.Lt "i" "n";
    B.branch b_irc "cond" ~then_:b_irb ~else_:b_iep;
    B.astore b_irb ~arr:"ranks" ~idx:"i" ~src:"inv_n";
    B.binop b_irb "i" Ir.Add "i" "one";
    B.jump b_irb b_irc;
    B.const_i b_iep "k" 0;
    B.jump b_iep b_iec;
    B.binop b_iec "cond" Ir.Lt "k" "nd";
    B.branch b_iec "cond" ~then_:b_ieb ~else_:b_wp;
    B.binop b_ieb "s" Ir.Mul "s" "lcg_a";
    B.binop b_ieb "s" Ir.Add "s" "lcg_c";
    B.binop b_ieb "s" Ir.Rem "s" "lcg_m";
    B.binop b_ieb "dstv" Ir.Rem "s" "n";
    B.astore b_ieb ~arr:"edges" ~idx:"k" ~src:"dstv";
    B.binop b_ieb "k" Ir.Add "k" "one";
    B.jump b_ieb b_iec;
    B.const_i b_wp "w" 0;
    B.jump b_wp b_wc;
    B.binop b_wc "cond" Ir.Lt "w" "workers_n";
    B.branch b_wc "cond" ~then_:b_wb ~else_:b_rc;
    B.new_obj b_wb "wk" "PrWorker";
    B.call b_wb ~recv:"wk" ~kind:Ir.Special ~cls:"PrWorker" ~name:ctor_name [];
    B.new_array b_wb "acc" double_t ~len:"n";
    B.binop b_wb "from" Ir.Mul "w" "chunk";
    B.binop b_wb "to_" Ir.Add "from" "chunk";
    B.fstore b_wb ~obj:"wk" ~field:"ranks" ~src:"ranks";
    B.fstore b_wb ~obj:"wk" ~field:"accum" ~src:"acc";
    B.fstore b_wb ~obj:"wk" ~field:"edges" ~src:"edges";
    B.fstore b_wb ~obj:"wk" ~field:"efrom" ~src:"from";
    B.fstore b_wb ~obj:"wk" ~field:"eto" ~src:"to_";
    B.fstore b_wb ~obj:"wk" ~field:"nv" ~src:"n";
    B.fstore b_wb ~obj:"wk" ~field:"degv" ~src:"d";
    B.astore b_wb ~arr:"workers" ~idx:"w" ~src:"wk";
    B.binop b_wb "w" Ir.Add "w" "one";
    B.jump b_wb b_wc;
    (* One superstep = one iteration frame; threads spawned inside it are
       joined at its end. *)
    B.binop b_rc "cond" Ir.Lt "round" "rounds";
    B.branch b_rc "cond" ~then_:b_rb ~else_:b_sup;
    B.iter_start b_rb;
    B.const_i b_rb "w" 0;
    B.jump b_rb b_tc;
    B.binop b_tc "cond" Ir.Lt "w" "workers_n";
    B.branch b_tc "cond" ~then_:b_tb ~else_:b_join;
    B.aload b_tb ~dst:"wk" ~arr:"workers" ~idx:"w";
    B.add b_tb (Ir.Intrinsic (None, Facade_compiler.Rt_names.run_thread, [ Ir.Var "wk" ]));
    B.binop b_tb "w" Ir.Add "w" "one";
    B.jump b_tb b_tc;
    B.iter_end b_join;
    B.const_i b_join "j" 0;
    B.jump b_join b_gc;
    B.binop b_gc "cond" Ir.Lt "j" "n";
    B.branch b_gc "cond" ~then_:b_gb ~else_:b_re;
    B.const_f b_gb "a" 0.0;
    B.const_i b_gb "w" 0;
    B.jump b_gb b_hc;
    B.binop b_hc "cond" Ir.Lt "w" "workers_n";
    B.branch b_hc "cond" ~then_:b_hb ~else_:b_gf;
    B.aload b_hb ~dst:"wk" ~arr:"workers" ~idx:"w";
    B.fload b_hb ~dst:"acc" ~obj:"wk" ~field:"accum";
    B.aload b_hb ~dst:"x" ~arr:"acc" ~idx:"j";
    B.binop b_hb "a" Ir.Add "a" "x";
    B.binop b_hb "w" Ir.Add "w" "one";
    B.jump b_hb b_hc;
    B.binop b_gf "r2" Ir.Mul "damp" "a";
    B.binop b_gf "r2" Ir.Add "base" "r2";
    B.astore b_gf ~arr:"ranks" ~idx:"j" ~src:"r2";
    B.binop b_gf "j" Ir.Add "j" "one";
    B.jump b_gf b_gc;
    B.binop b_re "round" Ir.Add "round" "one";
    B.jump b_re b_rc;
    B.const_f b_sup "sum" 0.0;
    B.const_i b_sup "j" 0;
    B.jump b_sup b_suc;
    B.binop b_suc "cond" Ir.Lt "j" "n";
    B.branch b_suc "cond" ~then_:b_sub ~else_:b_end;
    B.aload b_sub ~dst:"x" ~arr:"ranks" ~idx:"j";
    B.binop b_sub "sum" Ir.Add "sum" "x";
    B.binop b_sub "j" Ir.Add "j" "one";
    B.jump b_sub b_suc;
    B.add b_end (Ir.Intrinsic (None, Facade_compiler.Rt_names.print, [ Ir.Var "sum" ]));
    B.ret b_end (Some "sum");
    B.finish m
  in
  {
    name;
    program =
      Program.make ~entry:("Main", "main") [ worker; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "PrWorker"; "Main" ];
    expected = None;
  }

let pagerank_par =
  pagerank_par_sized ~name:"pagerank-par" ~nv:32 ~degv:4 ~iters:6 ~nw:4
    ~io_units:0

let pagerank_par_large =
  pagerank_par_sized ~name:"pagerank-par-large" ~nv:256 ~degv:8 ~iters:6 ~nw:8
    ~io_units:20_000

(* ---------- scaled locking: the lock pool under domain parallelism ----- *)

(* [nw] workers, each doing [rounds] rounds of: take the shared counter's
   monitor, then (nested, so two pool entries are simultaneously in use)
   the worker's own counter's monitor, and bump both. The own lock is only
   ever taken while holding the shared one, so peak pool occupancy is
   exactly 2 at any worker count; the shared counter is protected by its
   monitor, so the final total is deterministic: [2 * nw * rounds]. With
   [io_units > 0] each worker opens with one [sys.io_read io_units] — the
   simulated fetch of its work quantum — so the workload scales with
   domains under a nonzero [io_scale] even on a single-core host. *)
let locking_sized ~name ~nw ~rounds ~io_units =
  let counter =
    B.cls "LkCell" ~fields:[ B.field "count" int_t ] ~methods:[ empty_init () ]
  in
  let worker =
    let run =
      let m = B.create "run" in
      List.iter
        (fun (v, t) -> B.declare m v t)
        [
          ("i", int_t); ("one", int_t); ("limit", int_t); ("cond", int_t);
          ("c", int_t); ("c2", int_t);
          ("sh", Jtype.Ref "LkCell"); ("own", Jtype.Ref "LkCell");
        ];
      if io_units > 0 then B.declare m "iou" int_t;
      let b0 = B.entry m in
      let b_cond = B.block m in
      let b_body = B.block m in
      let b_end = B.block m in
      if io_units > 0 then begin
        B.const_i b0 "iou" io_units;
        B.add b0
          (Ir.Intrinsic (None, Facade_compiler.Rt_names.io_read, [ Ir.Var "iou" ]))
      end;
      B.const_i b0 "i" 0;
      B.const_i b0 "one" 1;
      B.const_i b0 "limit" rounds;
      B.fload b0 ~dst:"sh" ~obj:"this" ~field:"shared";
      B.fload b0 ~dst:"own" ~obj:"this" ~field:"own";
      B.jump b0 b_cond;
      B.binop b_cond "cond" Ir.Lt "i" "limit";
      B.branch b_cond "cond" ~then_:b_body ~else_:b_end;
      B.monitor_enter b_body "sh";
      B.fload b_body ~dst:"c" ~obj:"sh" ~field:"count";
      B.binop b_body "c2" Ir.Add "c" "one";
      B.fstore b_body ~obj:"sh" ~field:"count" ~src:"c2";
      B.monitor_enter b_body "own";  (* nested: two locks in use *)
      B.fload b_body ~dst:"c" ~obj:"own" ~field:"count";
      B.binop b_body "c2" Ir.Add "c" "one";
      B.fstore b_body ~obj:"own" ~field:"count" ~src:"c2";
      B.monitor_exit b_body "own";
      B.monitor_exit b_body "sh";
      B.binop b_body "i" Ir.Add "i" "one";
      B.jump b_body b_cond;
      B.ret b_end None;
      B.finish m
    in
    B.cls "LkWorker"
      ~fields:
        [ B.field "shared" (Jtype.Ref "LkCell"); B.field "own" (Jtype.Ref "LkCell") ]
      ~methods:[ empty_init (); run ]
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    List.iter
      (fun (v, t) -> B.declare m v t)
      [
        ("w", int_t); ("one", int_t); ("workers_n", int_t); ("cond", int_t);
        ("total", int_t); ("v", int_t);
        ("sh", Jtype.Ref "LkCell"); ("oc", Jtype.Ref "LkCell");
        ("wk", Jtype.Ref "LkWorker");
        ("workers", Jtype.Array (Jtype.Ref "LkWorker"));
      ];
    let b0 = B.entry m in
    let b_wc = B.block m in   (* build workers *)
    let b_wb = B.block m in
    let b_run = B.block m in  (* spawn inside one iteration frame *)
    let b_tc = B.block m in
    let b_tb = B.block m in
    let b_join = B.block m in
    let b_gc = B.block m in   (* gather own counters *)
    let b_gb = B.block m in
    let b_end = B.block m in
    B.const_i b0 "one" 1;
    B.const_i b0 "workers_n" nw;
    B.new_obj b0 "sh" "LkCell";
    B.call b0 ~recv:"sh" ~kind:Ir.Special ~cls:"LkCell" ~name:ctor_name [];
    B.new_array b0 "workers" (Jtype.Ref "LkWorker") ~len:"workers_n";
    B.const_i b0 "w" 0;
    B.jump b0 b_wc;
    B.binop b_wc "cond" Ir.Lt "w" "workers_n";
    B.branch b_wc "cond" ~then_:b_wb ~else_:b_run;
    B.new_obj b_wb "wk" "LkWorker";
    B.call b_wb ~recv:"wk" ~kind:Ir.Special ~cls:"LkWorker" ~name:ctor_name [];
    B.new_obj b_wb "oc" "LkCell";
    B.call b_wb ~recv:"oc" ~kind:Ir.Special ~cls:"LkCell" ~name:ctor_name [];
    B.fstore b_wb ~obj:"wk" ~field:"shared" ~src:"sh";
    B.fstore b_wb ~obj:"wk" ~field:"own" ~src:"oc";
    B.astore b_wb ~arr:"workers" ~idx:"w" ~src:"wk";
    B.binop b_wb "w" Ir.Add "w" "one";
    B.jump b_wb b_wc;
    B.iter_start b_run;
    B.const_i b_run "w" 0;
    B.jump b_run b_tc;
    B.binop b_tc "cond" Ir.Lt "w" "workers_n";
    B.branch b_tc "cond" ~then_:b_tb ~else_:b_join;
    B.aload b_tb ~dst:"wk" ~arr:"workers" ~idx:"w";
    B.add b_tb (Ir.Intrinsic (None, Facade_compiler.Rt_names.run_thread, [ Ir.Var "wk" ]));
    B.binop b_tb "w" Ir.Add "w" "one";
    B.jump b_tb b_tc;
    B.iter_end b_join;
    B.fload b_join ~dst:"total" ~obj:"sh" ~field:"count";
    B.const_i b_join "w" 0;
    B.jump b_join b_gc;
    B.binop b_gc "cond" Ir.Lt "w" "workers_n";
    B.branch b_gc "cond" ~then_:b_gb ~else_:b_end;
    B.aload b_gb ~dst:"wk" ~arr:"workers" ~idx:"w";
    B.fload b_gb ~dst:"oc" ~obj:"wk" ~field:"own";
    B.fload b_gb ~dst:"v" ~obj:"oc" ~field:"count";
    B.binop b_gb "total" Ir.Add "total" "v";
    B.binop b_gb "w" Ir.Add "w" "one";
    B.jump b_gb b_gc;
    B.ret b_end (Some "total");
    B.finish m
  in
  {
    name;
    program =
      Program.make ~entry:("Main", "main")
        [ counter; worker; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "LkCell"; "LkWorker"; "Main" ];
    expected = Some (Ir.Cint (2 * nw * rounds));
  }

let locking_large =
  locking_sized ~name:"locking-large" ~nw:8 ~rounds:400 ~io_units:10_000

(* ---------- original methods called from control code ---------- *)

(* Original methods in P′: control code reads a [Circle] through an
   interaction point ([Ctl.measure] receives a [convert.to] copy) and calls
   [area] on it typed at [Shape], whose override lives in the data subclass
   [Circle]; that override calls a second original method, [r2], and hands
   its heap [this] back to control code ([Ctl.log]). Control code also
   spawns a data class's [run] ([Ctl.spawn] on a converted [Worker]), which
   the runtime dispatches with no [Call] instruction. [perimeter] and every
   constructor are called only from data code. *)
let original_calls =
  let int_m ?(static = false) ?(params = []) name body =
    let m = B.create ~static ~params ~ret:int_t name in
    let b = B.entry m in
    let r = body m b in
    B.ret b (Some r);
    B.finish m
  in
  let load m b obj field =
    let v = B.fresh m int_t in
    B.fload b ~dst:v ~obj ~field;
    v
  in
  let binop_k m b op x k =
    let c = B.fresh m int_t and v = B.fresh m int_t in
    B.const_i b c k;
    B.binop b v op x c;
    v
  in
  let call m b ?recv ~kind ~cls ~name args =
    let v = B.fresh m int_t in
    B.call b ~ret:v ?recv ~kind ~cls ~name args;
    v
  in
  let sum m b x y =
    let v = B.fresh m int_t in
    B.binop b v Ir.Add x y;
    v
  in
  let print b v = B.add b (Ir.Intrinsic (None, Facade_compiler.Rt_names.print, [ Ir.Var v ])) in
  let shape =
    B.cls "Shape"
      ~fields:[ B.field "side" int_t ]
      ~methods:
        [
          empty_init ();
          int_m "area" (fun m b ->
              let s = load m b "this" "side" in
              let v = B.fresh m int_t in
              B.binop b v Ir.Mul s s;
              v);
        ]
  in
  let circle =
    B.cls "Circle" ~super:"Shape"
      ~fields:[ B.field "r" int_t ]
      ~methods:
        [
          empty_init ();
          int_m "area" (fun m b ->
              let q = call m b ~recv:"this" ~kind:Ir.Special ~cls:"Circle" ~name:"r2" [] in
              let a = binop_k m b Ir.Mul q 3 in
              let logged = call m b ~kind:Ir.Static ~cls:"Ctl" ~name:"log" [ "this" ] in
              sum m b a logged);
          int_m "r2" (fun m b ->
              let r = load m b "this" "r" in
              let v = B.fresh m int_t in
              B.binop b v Ir.Mul r r;
              v);
          int_m "perimeter" (fun m b -> binop_k m b Ir.Mul (load m b "this" "r") 6);
        ]
  in
  let worker =
    let run =
      let m = B.create "run" in
      let b = B.entry m in
      let n = load m b "this" "n" in
      print b (binop_k m b Ir.Mul n 2);
      B.ret b None;
      B.finish m
    in
    B.cls "Worker" ~fields:[ B.field "n" int_t ] ~methods:[ empty_init (); run ]
  in
  let ctl =
    let spawn =
      let m = B.create ~static:true ~params:[ ("w", Jtype.Ref "Worker") ] "spawn" in
      let b = B.entry m in
      B.add b (Ir.Intrinsic (None, Facade_compiler.Rt_names.run_thread, [ Ir.Var "w" ]));
      B.ret b None;
      B.finish m
    in
    B.cls "Ctl"
      ~methods:
        [
          int_m ~static:true ~params:[ ("s", Jtype.Ref "Shape") ] "measure" (fun m b ->
              call m b ~recv:"s" ~kind:Ir.Virtual ~cls:"Shape" ~name:"area" []);
          int_m ~static:true ~params:[ ("s", Jtype.Ref "Shape") ] "log" (fun m b ->
              load m b "s" "side");
          spawn;
        ]
  in
  let main =
    int_m ~static:true "main" (fun m b ->
        let obj cls fields =
          let o = B.fresh m (Jtype.Ref cls) in
          B.new_obj b o cls;
          B.call b ~recv:o ~kind:Ir.Special ~cls ~name:ctor_name [];
          List.iter
            (fun (field, k) ->
              let v = B.fresh m int_t in
              B.const_i b v k;
              B.fstore b ~obj:o ~field ~src:v)
            fields;
          o
        in
        let c = obj "Circle" [ ("side", 2); ("r", 5) ] in
        let p = call m b ~recv:c ~kind:Ir.Virtual ~cls:"Circle" ~name:"perimeter" [] in
        let a = call m b ~kind:Ir.Static ~cls:"Ctl" ~name:"measure" [ c ] in
        let w = obj "Worker" [ ("n", 7) ] in
        B.call b ~kind:Ir.Static ~cls:"Ctl" ~name:"spawn" [ w ];
        print b a;
        print b p;
        sum m b a p)
  in
  {
    name = "original_calls";
    program =
      Program.make ~entry:("Main", "main")
        [ shape; circle; worker; ctl; B.cls "Main" ~methods:[ main ] ];
    spec = spec [ "Shape"; "Worker"; "Main" ];
    expected = Some (Ir.Cint 107);  (* area 25 * 3 + side 2, perimeter 30 *)
  }

let all =
  [
    fig2;
    linked_list;
    dispatch;
    prim_arrays;
    conversion;
    locking;
    iteration;
    statics;
    strings;
    interfaces;
    nested_iteration;
    collections;
    threads;
    boundary;
    deep_conversion;
    pagerank;
    pagerank_par;
    pagerank_par_large;
    locking_large;
  ]

(* ---------- synthetic programs for transformation-speed benches ---------- *)

let synthetic ~classes ~methods_per_class =
  let cname i = Printf.sprintf "Data%03d" i in
  let mk_class i =
    let methods =
      List.init methods_per_class (fun k ->
          let m =
            B.create (Printf.sprintf "m%d" k)
              ~params:[ ("x", Jtype.Ref (cname i)) ]
              ~ret:int_t
          in
          let b = B.entry m in
          let v = B.fresh m int_t in
          let w = B.fresh m int_t in
          let s = B.fresh m int_t in
          B.fload b ~dst:v ~obj:"this" ~field:"a";
          B.fload b ~dst:w ~obj:"x" ~field:"a";
          B.binop b s Ir.Add v w;
          B.fstore b ~obj:"this" ~field:"a" ~src:s;
          (if k + 1 < methods_per_class then begin
             let r = B.fresh m int_t in
             B.call b ~ret:r ~recv:"x" ~kind:Ir.Virtual ~cls:(cname i)
               ~name:(Printf.sprintf "m%d" (k + 1))
               [ "x" ];
             B.binop b s Ir.Add s r
           end);
          B.ret b (Some s);
          B.finish m)
    in
    B.cls (cname i)
      ~fields:[ B.field "a" int_t; B.field "peer" (Jtype.Ref (cname ((i + 1) mod classes))) ]
      ~methods:(empty_init () :: methods)
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let z = B.fresh m int_t in
    B.const_i b z 0;
    B.ret b (Some z);
    B.finish m
  in
  let classes_l = List.init classes mk_class @ [ B.cls "Main" ~methods:[ main ] ] in
  let program = Program.make ~entry:("Main", "main") classes_l in
  (program, spec (List.init classes cname @ [ "Main" ]))
