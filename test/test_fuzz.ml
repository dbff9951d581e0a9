(* Differential fuzzing of the FACADE transformation: random well-formed
   data-path programs are generated, compiled, and executed in both modes;
   P and P' must agree on the final checksum. This is the strongest
   semantics-preservation evidence in the suite — every instruction kind
   the generator emits exercises a Table 1 rule. *)

open Jir
module B = Builder

let int_t = Jtype.Prim Jtype.Int
let double_t = Jtype.Prim Jtype.Double
let ctor = Facade_compiler.Transform.constructor_name

(* The op language the fuzzer draws from; all ops are safe by construction
   (variables are initialized to fresh records up front, array indices are
   in bounds, links never produce dangling reads). *)
type op =
  | Fresh of int                 (* vi = new D (re-initialize) *)
  | Flip of int                  (* vi = new E (subclass: combine overridden) *)
  | Set_a of int * int           (* vi.a = const *)
  | Set_f of int * float         (* vi.f = const *)
  | Add_a of int * int           (* vi.a = vi.a + vj.a *)
  | Link of int * int            (* vi.next = vj *)
  | Follow of int * int          (* vi = vj.next (vj.next always set first) *)
  | Swap of int * int            (* vi = vj *)
  | Arr_set of int * int * int   (* vi.arr[idx] = const *)
  | Arr_accum of int * int       (* vi.a = vi.a + vi.arr[idx] *)
  | Combine of int * int         (* Main.comb(vi, vj): virtual vi.combine(vj) *)
  | Sync of int                  (* Main.bump(vi): monitored vi.a += 1 *)
  | Spin of int                  (* Main.spin(vi, 40): loop vi.a += 1, 40x *)
  | Nudge of int                 (* Main.nudge(vi): vi.a += 3 past a two-way goto *)

let nvars = 4

let op_gen =
  let open QCheck.Gen in
  let var = int_bound (nvars - 1) in
  let idx = int_bound 3 in
  frequency
    [
      (1, map (fun i -> Fresh i) var);
      (1, map (fun i -> Flip i) var);
      (3, map2 (fun i c -> Set_a (i, c)) var (int_bound 1000));
      (2, map2 (fun i c -> Set_f (i, c)) var (float_bound_inclusive 100.0));
      (3, map2 (fun i j -> Add_a (i, j)) var var);
      (2, map2 (fun i j -> Link (i, j)) var var);
      (2, map2 (fun i j -> Swap (i, j)) var var);
      (3, map3 (fun i k c -> Arr_set (i, k, c)) var idx (int_bound 100));
      (2, map2 (fun i k -> Arr_accum (i, k)) var idx);
      (2, map2 (fun i j -> Combine (i, j)) var var);
      (1, map (fun i -> Sync i) var);
      (1, map (fun i -> Spin i) var);
      (1, map (fun i -> Nudge i) var);
      (1, map2 (fun i j -> Follow (i, j)) var var);
    ]

(* Build the program for an op list. *)
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
      (* next points to self so Follow never reads null. *)
      B.fstore b ~obj:"this" ~field:"next" ~src:"this";
      B.ret b None;
      B.finish m
    in
    let combine =
      let m = B.create "combine" ~params:[ ("o", Jtype.Ref "D") ] in
      let b = B.entry m in
      let x = B.fresh m int_t in
      let y = B.fresh m int_t in
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
          B.field "f" double_t;
          B.field "next" (Jtype.Ref "D");
          B.field "arr" (Jtype.Array int_t);
        ]
      ~methods:[ init; combine ]
  in
  (* Subclass with an observably different [combine]: a Flip op swaps a
     variable to an [E] receiver, which mid-method invalidates any warm
     monomorphic inline cache — the tier-2 polymorphic-deopt trigger. *)
  let sub_cls =
    let init =
      let m = B.create ctor in
      let b = B.entry m in
      B.call b ~recv:"this" ~kind:Ir.Special ~cls:"D" ~name:ctor [];
      B.ret b None;
      B.finish m
    in
    let combine =
      let m = B.create "combine" ~params:[ ("o", Jtype.Ref "D") ] in
      let b = B.entry m in
      let x = B.fresh m int_t in
      let y = B.fresh m int_t in
      let s = B.fresh m int_t in
      B.fload b ~dst:x ~obj:"this" ~field:"a";
      B.fload b ~dst:y ~obj:"o" ~field:"a";
      B.binop b s Ir.Add x y;
      B.binop b s Ir.Add s y;
      B.fstore b ~obj:"this" ~field:"a" ~src:s;
      B.ret b None;
      B.finish m
    in
    B.cls "E" ~super:"D" ~methods:[ init; combine ]
  in
  (* Static helpers the random ops call through: each compiles at its
     first call, so the virtual dispatch and the monitor region execute
     inside compiled code. *)
  let comb_helper =
    let m =
      B.create ~static:true "comb" ~params:[ ("x", Jtype.Ref "D"); ("y", Jtype.Ref "D") ]
    in
    let b = B.entry m in
    B.call b ~recv:"x" ~kind:Ir.Virtual ~cls:"D" ~name:"combine" [ "y" ];
    B.ret b None;
    B.finish m
  in
  let bump_helper =
    let m = B.create ~static:true "bump" ~params:[ ("x", Jtype.Ref "D") ] in
    let b = B.entry m in
    let t = B.fresh m int_t in
    let one = B.fresh m int_t in
    B.monitor_enter b "x";
    B.fload b ~dst:t ~obj:"x" ~field:"a";
    B.const_i b one 1;
    B.binop b t Ir.Add t one;
    B.fstore b ~obj:"x" ~field:"a" ~src:t;
    B.monitor_exit b "x";
    B.ret b None;
    B.finish m
  in
  (* A real loop: a single Spin runs 40 iterations of compiled code, so
     a later Flip or Sync deopts a method whose loop already ran in
     tier 2. *)
  let spin_helper =
    let m =
      B.create ~static:true "spin"
        ~params:[ ("x", Jtype.Ref "D"); ("n", int_t) ]
    in
    let b0 = B.entry m in
    let hdr = B.block m in
    let body = B.block m in
    let exit_ = B.block m in
    let i = B.fresh m int_t in
    let one = B.fresh m int_t in
    let c = B.fresh m int_t in
    let t = B.fresh m int_t in
    B.const_i b0 i 0;
    B.const_i b0 one 1;
    B.jump b0 hdr;
    B.binop hdr c Ir.Lt i "n";
    B.branch hdr c ~then_:body ~else_:exit_;
    B.fload body ~dst:t ~obj:"x" ~field:"a";
    B.binop body t Ir.Add t one;
    B.fstore body ~obj:"x" ~field:"a" ~src:t;
    B.binop body i Ir.Add i one;
    B.jump body hdr;
    B.ret exit_ None;
    B.finish m
  in
  (* A branch whose arms are the same block: const_fold's only rewrite
     here is turning it into a jump, a rewrite it counts but does not
     report, so the optimizer-exactness property sees whether the pass
     still tells the driver the method changed. *)
  let nudge_helper =
    let m = B.create ~static:true "nudge" ~params:[ ("x", Jtype.Ref "D") ] in
    let b0 = B.entry m in
    let b1 = B.block m in
    let t = B.fresh m int_t in
    let lim = B.fresh m int_t in
    let c = B.fresh m int_t in
    let three = B.fresh m int_t in
    B.fload b0 ~dst:t ~obj:"x" ~field:"a";
    B.const_i b0 lim 500;
    B.binop b0 c Ir.Lt t lim;
    B.branch b0 c ~then_:b1 ~else_:b1;
    B.const_i b1 three 3;
    B.fload b1 ~dst:t ~obj:"x" ~field:"a";
    B.binop b1 t Ir.Add t three;
    B.fstore b1 ~obj:"x" ~field:"a" ~src:t;
    B.ret b1 None;
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let v i = Printf.sprintf "v%d" i in
    for i = 0 to nvars - 1 do
      B.declare m (v i) (Jtype.Ref "D")
    done;
    let fresh_rec dst =
      B.new_obj b dst "D";
      B.call b ~recv:dst ~kind:Ir.Special ~cls:"D" ~name:ctor []
    in
    for i = 0 to nvars - 1 do
      fresh_rec (v i)
    done;
    let tmp_i = B.fresh m int_t in
    let tmp_j = B.fresh m int_t in
    let tmp_s = B.fresh m int_t in
    let tmp_f = B.fresh m double_t in
    let tmp_arr = B.fresh m (Jtype.Array int_t) in
    let flip_rec dst =
      B.new_obj b dst "E";
      B.call b ~recv:dst ~kind:Ir.Special ~cls:"E" ~name:ctor []
    in
    let emit = function
      | Fresh i -> fresh_rec (v i)
      | Flip i -> flip_rec (v i)
      | Set_a (i, c) ->
          B.const_i b tmp_i c;
          B.fstore b ~obj:(v i) ~field:"a" ~src:tmp_i
      | Set_f (i, c) ->
          B.const_f b tmp_f c;
          B.fstore b ~obj:(v i) ~field:"f" ~src:tmp_f
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
          B.call b ~kind:Ir.Static ~cls:"Main" ~name:"comb" [ v i; v j ]
      | Sync i -> B.call b ~kind:Ir.Static ~cls:"Main" ~name:"bump" [ v i ]
      | Spin i ->
          B.const_i b tmp_j 40;
          B.call b ~kind:Ir.Static ~cls:"Main" ~name:"spin" [ v i; tmp_j ]
      | Nudge i -> B.call b ~kind:Ir.Static ~cls:"Main" ~name:"nudge" [ v i ]
    in
    List.iter emit ops;
    (* Checksum over every variable: ints, array slots, a float signal. *)
    let acc = B.fresh m int_t in
    let hundred = B.fresh m int_t in
    B.const_i b acc 0;
    B.const_i b hundred 100;
    for i = 0 to nvars - 1 do
      B.fload b ~dst:tmp_i ~obj:(v i) ~field:"a";
      B.binop b acc Ir.Add acc tmp_i;
      for k = 0 to 3 do
        B.fload b ~dst:tmp_arr ~obj:(v i) ~field:"arr";
        B.const_i b tmp_j k;
        B.aload b ~dst:tmp_s ~arr:tmp_arr ~idx:tmp_j;
        B.binop b acc Ir.Add acc tmp_s
      done;
      (* Print the float field so output comparison covers doubles. *)
      B.fload b ~dst:tmp_f ~obj:(v i) ~field:"f";
      B.add b (Ir.Intrinsic (None, Facade_compiler.Rt_names.print, [ Ir.Var tmp_f ]));
      ignore hundred
    done;
    B.ret b (Some acc);
    B.finish m
  in
  Program.make ~entry:("Main", "main")
    [
      data_cls; sub_cls;
      B.cls "Main" ~methods:[ comb_helper; bump_helper; spin_helper; nudge_helper; main ];
    ]

let spec =
  { Facade_compiler.Classify.data_roots = [ "D"; "E"; "Main" ]; boundary = [] }

(* Every generated program is verifier-clean, so the flow-sensitive
   analyses must terminate without crashing and report nothing — on the
   original P and on the transformed P'. *)
let analyses_clean p =
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (m : Ir.meth) ->
          let where = c.Ir.cname ^ "." ^ m.Ir.mname in
          ignore (Analysis.Liveness.analyze m);
          match Analysis.Lint.check_method ~where m with
          | [] -> ()
          | fs ->
              failwith
                (String.concat "; " (List.map Analysis.Finding.to_string fs)))
        c.Ir.cmethods)
    (Program.classes p)

let run_differential ops =
  let program = program_of_ops ops in
  Verify.check_or_fail program;
  analyses_clean program;
  let pl = Facade_compiler.Pipeline.compile ~spec program in
  Verify.check_or_fail pl.Facade_compiler.Pipeline.transformed;
  analyses_clean pl.Facade_compiler.Pipeline.transformed;
  let is_data c =
    Facade_compiler.Classify.is_data_class pl.Facade_compiler.Pipeline.classification c
  in
  let o1 = Vm_runs.run_object ~is_data program in
  let o2 = Facade_vm.Interp.run_facade pl in
  let same_result =
    match o1.Facade_vm.Interp.result, o2.Facade_vm.Interp.result with
    | Some a, Some b -> Facade_vm.Value.equal_ref a b
    | _ -> false
  in
  same_result
  && Facade_vm.Exec_stats.output_lines o1.Facade_vm.Interp.stats
     = Facade_vm.Exec_stats.output_lines o2.Facade_vm.Interp.stats
  && o2.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects = 0

let prop_differential =
  QCheck.Test.make ~name:"random data-path programs: P = P'" ~count:120
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    run_differential

(* The driver (cleanup round on touched methods only) against the plain
   nine-pass composition, on P and P′: same program text, same report. *)
let prop_opt_exact =
  QCheck.Test.make ~name:"random programs: optimizer = nine-pass reference" ~count:80
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    (fun ops ->
      Opt_reference.check ~name:"fuzz" ~spec (program_of_ops ops);
      true)

(* The optimizer's early exits on random programs, P and P′ ({!Exits}). *)
let prop_opt_exits =
  QCheck.Test.make ~name:"random programs: opt exits only where solve is a no-op" ~count:200
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    (fun ops ->
      let p = program_of_ops ops in
      ignore (Exits.check_program ~name:"P" p : int);
      ignore (Exits.check_pipeline ~name:"P′" (Facade_compiler.Pipeline.compile ~spec p) : int);
      true)

(* Observables both tiers must agree on. *)
let tier_key (o : Facade_vm.Interp.outcome) =
  ( Exact.exact_result o.Facade_vm.Interp.result,
    Facade_vm.Exec_stats.output_lines o.Facade_vm.Interp.stats,
    o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.steps,
    o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects,
    o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.page_records )

(* A fresh tier on the pipeline's cached link. After a tier-1
   [run_facade] on the same pipeline, that link's inline caches are
   warm, so every virtual site that ran compiles against the tier-1
   snapshot. *)
let warm_facade ?workers pl =
  let tier = Vm_runs.facade_tier pl in
  Vm_runs.with_workers workers (fun pool -> Facade_vm.Interp.run_facade ?pool ~tier pl)

(* The tier-2 deopt fuzzer: the same random programs, each executed by
   the interpreter and by the closure compiler — once on a fresh
   link, where every site compiles cold at its method's first
   call, and once on a link warmed by a tier-1 run, where [comb]'s
   virtual site compiles against the receiver class the warm-up saw
   last, so Flip ops miss the snapshot inside compiled code and Sync
   ops hit the monitor deopt. Both modes must be bit-identical across
   tiers: result, printed output, step count, and heap/page totals. *)
let run_tier_differential ops =
  let program = program_of_ops ops in
  let pl = Facade_compiler.Pipeline.compile ~spec program in
  let is_data c =
    Facade_compiler.Classify.is_data_class pl.Facade_compiler.Pipeline.classification c
  in
  let rp = Facade_vm.Link.object_program ~is_data program in
  let obj1 = tier_key (Facade_vm.Interp.run_object_linked rp) in
  let fac1 = tier_key (Facade_vm.Interp.run_facade pl) in
  obj1 = tier_key (Vm_runs.run_object ~is_data ~tier2:true program)
  && obj1 = tier_key (Facade_vm.Interp.run_object_linked ~tier:(Facade_vm.Interp.make_tier rp) rp)
  && fac1 = tier_key (warm_facade pl)

let prop_tier_differential =
  QCheck.Test.make ~name:"random programs: tier2 = tier1 in both modes" ~count:100
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    run_tier_differential

(* The warm-snapshot fuzzer in facade mode, sequentially and on a
   4-domain pool: each run attaches a fresh tier to a link a tier-1 run
   just warmed, so snapshot misses and monitor deopts happen inside
   compiled code on every domain. Every observable must match plain
   tier 1. *)
let run_warm_differential ops =
  let pl = Facade_compiler.Pipeline.compile ~spec (program_of_ops ops) in
  let fac1 = tier_key (Facade_vm.Interp.run_facade pl) in
  fac1 = tier_key (warm_facade pl) && fac1 = tier_key (warm_facade ~workers:4 pl)

let prop_warm_differential =
  QCheck.Test.make ~name:"random programs: warm-snapshot tier2 = tier1, workers 1/4"
    ~count:60
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    run_warm_differential

(* ---------- mixed-kind arithmetic ---------- *)

(* Random arithmetic over int and double locals, inside a bounded loop,
   for tier 2's typed frame slots. Locals i0-i2 are ints and d0-d2
   doubles; most ops keep a local to its declared kind, so tier 2 pins
   it unboxed, while [m] (declared int) takes doubles and a rare op
   writes any kind anywhere, so those locals must stay boxed. Every
   binop appears, comparisons and Eq/Ne across kinds, Div/Rem by values
   that are often zero, Not/Neg, and branches on double locals (every
   double is truthy, 0.0 included). [p] carries values to sys.print. *)
let mvars = [| "i0"; "i1"; "i2"; "d0"; "d1"; "d2"; "m" |]
let is_dbl v = v >= 3 && v <= 5

type mop =
  | Mbin of int * Ir.binop * int * int  (* d = x op y *)
  | Mconst of int * Ir.const
  | Mneg of int * int
  | Mnot of int * int
  | Mmove of int * int
  | Mif of int * int * int  (* if c then d = d + x *)
  | Mprint of int

let mop_gen =
  let open QCheck.Gen in
  let ivar = int_bound 2 and dvar = map (fun i -> 3 + i) (int_bound 2) in
  let any = int_bound 6 in
  let num = oneof [ ivar; dvar ] in
  let int_op =
    frequencyl Ir.[ (3, Add); (3, Sub); (3, Mul); (1, Div); (1, Rem); (1, And); (1, Or);
                    (1, Xor); (1, Shl); (1, Shr) ]
  in
  let flt_op = oneofl Ir.[ Add; Sub; Mul; Div; Rem ] in
  let cmp_op = oneofl Ir.[ Lt; Le; Gt; Ge; Eq; Ne ] in
  let all_op =
    oneofl Ir.[ Add; Sub; Mul; Div; Rem; Lt; Le; Gt; Ge; Eq; Ne; And; Or; Xor; Shl; Shr ]
  in
  let iconst = oneofl [ 0; 1; -1; 3; 7; 62; max_int / 3; min_int + 5; 123456789 ] in
  let fconst = oneofl [ 0.0; -0.0; 0.5; -2.25; 3.0; 1e308; 1e-300; 0.1 ] in
  let bin d op x y = map3 (fun d op (x, y) -> Mbin (d, op, x, y)) d op (pair x y) in
  frequency
    [
      (6, bin ivar int_op ivar ivar);
      (6, bin dvar flt_op num num);
      (3, bin ivar cmp_op any any);
      (2, map2 (fun d c -> Mconst (d, Ir.Cint c)) ivar iconst);
      (2, map2 (fun d c -> Mconst (d, Ir.Cfloat c)) dvar fconst);
      (1, bin (return 6) flt_op num dvar);
      (1, map (fun s -> Mmove (6, s)) any);
      (1, bin any all_op any any);
      (1, map2 (fun d s -> Mneg (d, s)) ivar ivar);
      (1, map2 (fun d s -> Mneg (d, s)) dvar dvar);
      (1, map2 (fun d s -> Mnot (d, s)) ivar any);
      (1, map2 (fun d s -> Mmove (d, s)) ivar ivar);
      (1, map2 (fun d s -> Mmove (d, s)) dvar num);
      (2, map3 (fun c d x -> Mif (c, d, x)) any ivar ivar);
      (2, map3 (fun c d x -> Mif (c, d, x)) any dvar num);
      (1, map (fun v -> Mprint v) any);
    ]

let mixed_program (ops, iters, ret) =
  let m = B.create ~static:true "main" ~ret:(if is_dbl ret then double_t else int_t) in
  Array.iteri (fun i v -> B.declare m v (if is_dbl i then double_t else int_t)) mvars;
  let c = B.fresh m int_t and n = B.fresh m int_t and one = B.fresh m int_t in
  let cond = B.fresh m int_t and p = B.fresh m double_t in
  let b0 = B.entry m in
  List.iteri (fun i k -> B.const_i b0 mvars.(i) k) [ 3; -7; 0 ];
  List.iteri (fun i x -> B.const_f b0 mvars.(3 + i) x) [ 0.0; 2.5; -1.0 ];
  B.const_i b0 mvars.(6) 5;
  B.const_f b0 p 0.0;
  B.const_i b0 c 0;
  B.const_i b0 n iters;
  B.const_i b0 one 1;
  let hdr = B.block m and body = B.block m and exit_ = B.block m in
  B.jump b0 hdr;
  B.binop hdr cond Ir.Lt c n;
  B.branch hdr cond ~then_:body ~else_:exit_;
  let cur = ref body in
  let v i = mvars.(i) in
  List.iter
    (function
      | Mbin (d, op, x, y) -> B.binop !cur (v d) op (v x) (v y)
      | Mconst (d, k) -> B.add !cur (Ir.Const (v d, k))
      | Mneg (d, s) -> B.add !cur (Ir.Unop (v d, Ir.Neg, v s))
      | Mnot (d, s) -> B.add !cur (Ir.Unop (v d, Ir.Not, v s))
      | Mmove (d, s) -> B.move !cur ~dst:(v d) ~src:(v s)
      | Mif (cv, d, x) ->
          let t = B.block m and j = B.block m in
          B.branch !cur (v cv) ~then_:t ~else_:j;
          B.binop t (v d) Ir.Add (v d) (v x);
          B.jump t j;
          cur := j
      | Mprint s ->
          B.move !cur ~dst:p ~src:(v s);
          B.add !cur (Ir.Intrinsic (None, Facade_compiler.Rt_names.print, [ Ir.Var p ])))
    ops;
  B.binop !cur c Ir.Add c one;
  B.jump !cur hdr;
  B.ret exit_ (Some (v ret));
  Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ B.finish m ] ]

(* Result (bit-exact), output and steps, or the error text. *)
let mixed_outcome run =
  match run () with
  | (o : Facade_vm.Interp.outcome) ->
      Ok
        ( Exact.exact_result o.Facade_vm.Interp.result,
          Facade_vm.Exec_stats.output_lines o.Facade_vm.Interp.stats,
          o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.steps )
  | exception Facade_vm.Interp.Vm_error e -> Error e

(* The name-based baseline, tier 1 and tier 2 agree exactly — result,
   output, steps and error text — on the program and on the facade
   transform's program. Tier 2 fuses pairs, but a fused form charges
   every step it replaced, and a bad-operands message names the
   operands in source order, whichever side a constant or a fused value
   stands on. The program and its facade transform
   (P and P') agree on result, output and error text; their steps
   differ, since the transform adds instructions. *)
let run_mixed case =
  let module I = Facade_vm.Interp in
  let p = mixed_program case in
  Verify.check_or_fail p;
  let pl =
    Facade_compiler.Pipeline.compile
      ~spec:{ Facade_compiler.Classify.data_roots = [ "Main" ]; boundary = [] }
      p
  in
  let base = mixed_outcome (fun () -> Facade_vm.Interp_baseline.run_object p) in
  let t1 = mixed_outcome (fun () -> Vm_runs.run_object p) in
  let t2 = mixed_outcome (fun () -> Vm_runs.run_object ~tier2:true p) in
  let fbase = mixed_outcome (fun () -> Facade_vm.Interp_baseline.run_facade pl) in
  let f1 = mixed_outcome (fun () -> I.run_facade pl) in
  let f2 = mixed_outcome (fun () -> I.run_facade ~tier:(Vm_runs.facade_tier pl) pl) in
  let seen = function Ok (r, out, _) -> Ok (r, out) | Error e -> Error e in
  (base = t1 && t1 = t2 && fbase = f1 && f1 = f2 && seen base = seen fbase)
  ||
  let show = function
    | Ok (r, out, steps) -> Printf.sprintf "%s [%s] steps=%d" r (String.concat "; " out) steps
    | Error e -> "error: " ^ e
  in
  QCheck.Test.fail_reportf "%s\n%s"
    (Text_format.to_string p)
    (String.concat "\n"
       (List.map
          (fun (n, o) -> n ^ ": " ^ show o)
          [ ("baseline", base); ("tier1", t1); ("tier2", t2); ("facade baseline", fbase);
            ("facade tier1", f1); ("facade tier2", f2) ]))

let prop_mixed_kinds =
  QCheck.Test.make ~name:"mixed int/double arithmetic: baseline = tier1 = tier2" ~count:300
    (QCheck.make
       ~print:(fun (ops, iters, ret) ->
         Printf.sprintf "<%d ops, %d iterations, return %s>" (List.length ops) iters mvars.(ret))
       QCheck.Gen.(
         triple
           (list_size (int_range 1 24) mop_gen)
           (int_range 1 4)
           (frequency [ (3, map (fun i -> 3 + i) (int_bound 2)); (1, int_bound 6) ])))
    run_mixed

let test_empty_program () =
  Alcotest.(check bool) "no ops" true (run_differential [])

let test_directed_cases () =
  (* A few hand-picked op sequences covering aliasing through links. *)
  List.iter
    (fun ops -> Alcotest.(check bool) "directed" true (run_differential ops))
    [
      [ Set_a (0, 5); Link (1, 0); Follow (2, 1); Add_a (2, 0) ];
      [ Swap (0, 1); Set_a (0, 9); Add_a (1, 0) ];  (* alias: v0 == v1 *)
      [ Arr_set (3, 2, 41); Arr_accum (3, 2); Combine (0, 3) ];
      [ Fresh 0; Fresh 0; Set_f (0, 2.5); Follow (0, 0) ];
      [ Flip 0; Set_a (0, 3); Combine (0, 1); Sync 0; Combine (1, 0) ];
    ]

let test_directed_tier_flip () =
  (* The warm-up run leaves [comb]'s cache on a D receiver; the warm
     tier compiles against it, then the flip misses the snapshot: the
     deopt must be invisible in the checksum, output, and step count. *)
  let warm = List.init 5 (fun _ -> Combine (0, 1)) in
  List.iter
    (fun ops -> Alcotest.(check bool) "tier flip" true (run_tier_differential ops))
    [
      warm @ [ Flip 0; Combine (0, 1); Combine (1, 0) ];
      warm @ [ Flip 1; Sync 1; Combine (0, 1); Sync 0; Sync 0; Sync 0 ];
      [ Sync 2; Sync 2; Sync 2; Sync 2; Flip 2; Sync 2; Combine (2, 2) ];
    ]

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        [
          Alcotest.test_case "empty" `Quick test_empty_program;
          Alcotest.test_case "directed" `Quick test_directed_cases;
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_opt_exact;
          QCheck_alcotest.to_alcotest prop_opt_exits;
        ] );
      ( "tier",
        [
          Alcotest.test_case "directed receiver flips" `Quick test_directed_tier_flip;
          QCheck_alcotest.to_alcotest prop_tier_differential;
          QCheck_alcotest.to_alcotest prop_warm_differential;
          QCheck_alcotest.to_alcotest prop_mixed_kinds;
        ] );
    ]
