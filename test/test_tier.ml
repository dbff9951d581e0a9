(* Tier-2 vs tier-1 differential: the closure compiler must be
   observationally identical to the interpreter — results, printed
   output, step counts, heap totals, page-store totals, facade pool
   peaks — over every shipped sample, sequentially and under every
   worker-pool size, plus directed tests that pin the first-call
   tier-up rule, that force each deopt trigger (polymorphic receiver,
   monitor region, step-budget expiry) through both virtual-call
   templates — sites cold at compile time and sites compiled against a
   warm inline-cache snapshot — and check the interpreter resumes
   bit-exactly, that drive the compiled kernels into their error paths,
   and that nest compiled activations. *)

open Jir
module B = Builder
module I = Facade_vm.Interp
module Stats = Facade_vm.Exec_stats
module Store = Pagestore.Store
module Heap = Heapsim.Heap

let int_t = Jtype.Prim Jtype.Int
let ctor = Facade_compiler.Transform.constructor_name

let empty_init () =
  let m = B.create ctor in
  B.ret (B.entry m) None;
  B.finish m

let big_heap () = Heap.create (Heapsim.Hconfig.make ~heap_bytes:(1 lsl 26) ())

(* Same observables as the parallel differential in test_parallel: one
   line per quantity the tier must preserve. Inline-cache hit/miss
   counters are deliberately absent — field sites and compile-time-cold
   call sites guard against the live cache word, but warm virtual sites
   compile against a snapshot, so those counters may legally drift
   while everything observable stays exact. *)
let fingerprint ?workers ?(tier2 = false) pl =
  let heap = big_heap () in
  let tier = if tier2 then Some (Vm_runs.facade_tier pl) else None in
  let o = Vm_runs.with_workers workers (fun pool -> I.run_facade ~heap ?pool ?tier pl) in
  let gs = Heap.stats heap in
  let records, live =
    match o.I.store_stats with
    | Some st -> (st.Store.records_allocated, st.Store.live_pages)
    | None -> (0, 0)
  in
  let result = Exact.exact_result o.I.result in
  let pool_peaks =
    Hashtbl.fold (fun tid idx acc -> (tid, idx) :: acc) o.I.stats.Stats.max_pool_index []
    |> List.sort compare
    |> List.map (fun (t, i) -> Printf.sprintf "%d:%d" t i)
    |> String.concat ","
  in
  [
    "result=" ^ result;
    Printf.sprintf "facades=%d locks_peak=%d" o.I.facades_allocated o.I.locks_peak;
    Printf.sprintf "page_records=%d steps=%d" o.I.stats.Stats.page_records
      o.I.stats.Stats.steps;
    Printf.sprintf "dispatches static=%d virtual=%d" o.I.stats.Stats.static_dispatches
      o.I.stats.Stats.virtual_dispatches;
    Printf.sprintf "store_records=%d live_pages=%d" records live;
    Printf.sprintf "heap_objects=%d heap_bytes=%d" gs.Heapsim.Gc_stats.objects_allocated
      gs.Heapsim.Gc_stats.bytes_allocated;
    Printf.sprintf "native=%d live_objects=%d live_bytes=%d" (Heap.native_bytes heap)
      (Heap.live_objects heap) (Heap.live_bytes heap);
    "pool_peaks=" ^ pool_peaks;
  ]
  @ Stats.output_lines o.I.stats

let test_facade_differential () =
  List.iter
    (fun (s : Samples.sample) ->
      let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
      let base = fingerprint pl in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: tier2 sequential matches tier1" s.Samples.name)
        base
        (fingerprint ~tier2:true pl);
      List.iter
        (fun w ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: tier2 workers=%d matches tier1 sequential" s.Samples.name
               w)
            base
            (fingerprint ~workers:w ~tier2:true pl))
        [ 1; 2; 4; 8 ])
    Samples.all

let method_index (rp : Facade_vm.Resolved.program) cls name =
  let ms = rp.Facade_vm.Resolved.methods in
  let rec find i =
    let m = ms.(i) in
    if m.Facade_vm.Resolved.m_name = name && m.Facade_vm.Resolved.m_cls = cls then i
    else find (i + 1)
  in
  find 0

(* Object mode: same program, both tiers, bit-equal outcome and steps. *)
let observe (o : I.outcome) =
  ( Exact.exact_result o.I.result,
    Stats.output_lines o.I.stats,
    o.I.stats.Stats.steps,
    o.I.stats )

let object_outcome ?tier2 ?max_steps ~is_data p =
  observe (Vm_runs.run_object ~is_data ?max_steps ?tier2 p)

(* Tier 2 on a linked program that already ran once, unbounded, in tier
   1: the run leaves every inline cache it reached warm, so a method
   compiled at its first call in the tier-2 run builds its virtual sites
   against that snapshot instead of guarding the live cache word. *)
let warm_outcome ?feedback ?max_steps ~is_data p =
  let rp = Facade_vm.Link.object_program ~is_data p in
  ignore (I.run_object_linked rp);
  observe (I.run_object_linked ?max_steps ~tier:(I.make_tier ?feedback rp) rp)

let test_object_differential () =
  List.iter
    (fun (s : Samples.sample) ->
      let cl =
        (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
          .Facade_compiler.Pipeline.classification
      in
      let is_data c = Facade_compiler.Classify.is_data_class cl c in
      let r1, out1, steps1, _ = object_outcome ~is_data s.Samples.program in
      let r2, out2, steps2, st2 = object_outcome ~tier2:true ~is_data s.Samples.program in
      Alcotest.(check string) (s.Samples.name ^ ": result") r1 r2;
      Alcotest.(check (list string)) (s.Samples.name ^ ": output") out1 out2;
      Alcotest.(check int) (s.Samples.name ^ ": steps") steps1 steps2;
      Alcotest.(check bool)
        (s.Samples.name ^ ": tier2 actually ran")
        true
        (st2.Stats.tier2_compiles > 0 && st2.Stats.tier2_entries > 0))
    Samples.all

(* ---------- directed deopt triggers ---------- *)

(* A virtual call site compiled against a warm snapshot, then fed a
   receiver of the other class: the compiled guard must raise, and
   tier-1 must resume at the call with identical accounting. The call is
   routed through a static helper so the site lives in its own compiled
   method. *)
let flip_program =
  let combine_m ret_v =
    let m = B.create "combine" ~ret:int_t in
    let b = B.entry m in
    let r = B.fresh m int_t in
    B.const_i b r ret_v;
    B.ret b (Some r);
    B.finish m
  in
  let a_cls = B.cls "A" ~methods:[ empty_init (); combine_m 1 ] in
  let b_cls = B.cls "B2" ~super:"A" ~methods:[ empty_init (); combine_m 2 ] in
  let work =
    let m = B.create ~static:true "work" ~params:[ ("x", Jtype.Ref "A") ] ~ret:int_t in
    let b = B.entry m in
    let r = B.fresh m int_t in
    B.call b ~ret:r ~recv:"x" ~kind:Ir.Virtual ~cls:"A" ~name:"combine" [];
    B.ret b (Some r);
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m (Jtype.Ref "A") in
    let bb = B.fresh m (Jtype.Ref "A") in
    let r = B.fresh m int_t in
    let acc = B.fresh m int_t in
    B.new_obj b a "A";
    B.call b ~recv:a ~kind:Ir.Special ~cls:"A" ~name:ctor [];
    B.new_obj b bb "B2";
    B.call b ~recv:bb ~kind:Ir.Special ~cls:"B2" ~name:ctor [];
    B.const_i b acc 0;
    for _ = 1 to 6 do
      B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"work" [ a ];
      B.binop b acc Ir.Add acc r
    done;
    B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"work" [ bb ];
    B.binop b acc Ir.Add acc r;
    B.ret b (Some acc);
    B.finish m
  in
  Program.make ~entry:("Main", "main")
    [ a_cls; b_cls; B.cls "Main" ~methods:[ work; main ] ]

let test_polymorphic_deopt () =
  let is_data _ = false in
  (* The tier-1 warm-up ends on the [B2] call, so [work] compiles against
     a [B2] snapshot and each of the six [A] calls misses it inside
     compiled code; [combine] has two implementations, so every miss
     deopts. *)
  let r1, out1, steps1, _ = object_outcome ~is_data flip_program in
  let r2, out2, steps2, st2 = warm_outcome ~is_data flip_program in
  Alcotest.(check string) "result" "8" r2;
  Alcotest.(check string) "tier1 = tier2 result" r1 r2;
  Alcotest.(check (list string)) "output" out1 out2;
  Alcotest.(check int) "steps" steps1 steps2;
  Alcotest.(check int) "every A call deopts" 6 st2.Stats.tier2_deopts

(* A compiled method whose body holds a monitor region: tier 2 treats
   monitors as an unconditional lock-contention deopt, so every compiled
   entry bails to tier 1, and after {!Compile_tier.deopt_limit} strikes
   the method retires to T_dead. Outcome must not change at any point. *)
let monitor_program =
  let a_cls = B.cls "A" ~fields:[ B.field "n" int_t ] ~methods:[ empty_init () ] in
  let locked =
    let m = B.create ~static:true "locked" ~params:[ ("x", Jtype.Ref "A") ] ~ret:int_t in
    let b = B.entry m in
    let r = B.fresh m int_t in
    B.monitor_enter b "x";
    B.fload b ~dst:r ~obj:"x" ~field:"n";
    B.monitor_exit b "x";
    B.ret b (Some r);
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m (Jtype.Ref "A") in
    let one = B.fresh m int_t in
    let r = B.fresh m int_t in
    let acc = B.fresh m int_t in
    B.new_obj b a "A";
    B.call b ~recv:a ~kind:Ir.Special ~cls:"A" ~name:ctor [];
    B.const_i b one 1;
    B.fstore b ~obj:a ~field:"n" ~src:one;
    B.const_i b acc 0;
    for _ = 1 to 14 do
      B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"locked" [ a ];
      B.binop b acc Ir.Add acc r
    done;
    B.ret b (Some acc);
    B.finish m
  in
  Program.make ~entry:("Main", "main") [ a_cls; B.cls "Main" ~methods:[ locked; main ] ]

let test_monitor_deopt_and_retire () =
  let is_data _ = false in
  let r1, out1, steps1, _ = object_outcome ~is_data monitor_program in
  let r2, out2, steps2, st2 = warm_outcome ~is_data monitor_program in
  Alcotest.(check string) "result" "14" r2;
  Alcotest.(check string) "tier1 = tier2 result" r1 r2;
  Alcotest.(check (list string)) "output" out1 out2;
  Alcotest.(check int) "steps" steps1 steps2;
  (* 14 calls: every entry deopts until the method retires at the
     limit, and the remaining calls run tier 1. *)
  Alcotest.(check int)
    (Printf.sprintf "retired after %d deopts" Facade_vm.Compile_tier.deopt_limit)
    Facade_vm.Compile_tier.deopt_limit st2.Stats.tier2_deopts

(* Step-budget expiry inside compiled code: the bulk-segment precheck
   deopts, tier 1 replays, and the budget error fires at exactly the
   same instruction as a pure tier-1 run. The tier-2 runs attach to a
   warm link, so the sample's virtual sites run the snapshot template. *)
let test_budget_deopt () =
  let s = List.find (fun s -> s.Samples.name = "linked_list") Samples.all in
  let cl =
    (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
      .Facade_compiler.Pipeline.classification
  in
  let is_data c = Facade_compiler.Classify.is_data_class cl c in
  let _, _, total, _ = object_outcome ~is_data s.Samples.program in
  let cut = total / 2 in
  let budget_err = I.Vm_error "step budget exceeded" in
  Alcotest.check_raises "tier1 trips the budget" budget_err (fun () ->
      ignore (object_outcome ~is_data ~max_steps:cut s.Samples.program));
  Alcotest.check_raises "tier2 trips the budget identically" budget_err (fun () ->
      ignore (warm_outcome ~is_data ~max_steps:cut s.Samples.program));
  (* With the budget exactly at the total, both tiers complete. *)
  let _, _, steps2, _ = warm_outcome ~is_data ~max_steps:total s.Samples.program in
  Alcotest.(check int) "same total under the exact budget" total steps2

(* ---------- tier-up at first call ---------- *)

(* A loop inside a method called exactly once: the method compiles at
   that call and the whole loop runs compiled. A monitor region guarded
   to fire on a late iteration then deopts *inside* the loop, and tier 1
   must resume bit-exactly. Sum of 0..59 either way. *)
let loop_program =
  let a_cls = B.cls "A" ~methods:[ empty_init () ] in
  let loop =
    let m =
      B.create ~static:true "loop"
        ~params:[ ("x", Jtype.Ref "A"); ("n", int_t) ]
        ~ret:int_t
    in
    let b0 = B.entry m in
    let hdr = B.block m in
    let body = B.block m in
    let mon = B.block m in
    let cont = B.block m in
    let exit_ = B.block m in
    let i = B.fresh m int_t in
    let acc = B.fresh m int_t in
    let one = B.fresh m int_t in
    let trip = B.fresh m int_t in
    let c = B.fresh m int_t in
    let is_trip = B.fresh m int_t in
    B.const_i b0 i 0;
    B.const_i b0 acc 0;
    B.const_i b0 one 1;
    B.const_i b0 trip 55;
    B.jump b0 hdr;
    B.binop hdr c Ir.Lt i "n";
    B.branch hdr c ~then_:body ~else_:exit_;
    B.binop body is_trip Ir.Eq i trip;
    B.branch body is_trip ~then_:mon ~else_:cont;
    B.monitor_enter mon "x";
    B.monitor_exit mon "x";
    B.jump mon cont;
    B.binop cont acc Ir.Add acc i;
    B.binop cont i Ir.Add i one;
    B.jump cont hdr;
    B.ret exit_ (Some acc);
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m (Jtype.Ref "A") in
    let n = B.fresh m int_t in
    let r = B.fresh m int_t in
    B.new_obj b a "A";
    B.call b ~recv:a ~kind:Ir.Special ~cls:"A" ~name:ctor [];
    B.const_i b n 60;
    B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"loop" [ a; n ];
    B.ret b (Some r);
    B.finish m
  in
  Program.make ~entry:("Main", "main") [ a_cls; B.cls "Main" ~methods:[ loop; main ] ]

let test_first_call_loop () =
  let is_data _ = false in
  let r1, out1, steps1, _ = object_outcome ~is_data loop_program in
  let r2, out2, steps2, st2 = object_outcome ~tier2:true ~is_data loop_program in
  Alcotest.(check string) "result" "1770" r2;
  Alcotest.(check string) "tier1 = tier2 result" r1 r2;
  Alcotest.(check (list string)) "output" out1 out2;
  Alcotest.(check int) "steps" steps1 steps2;
  (* [main] and [loop], each entered once; the constructor is a leaf
     that compiled [main] runs inline. *)
  Alcotest.(check int) "loop entered compiled at its only call" 2
    st2.Stats.tier2_entries;
  Alcotest.(check int) "deopted once, inside the loop" 1 st2.Stats.tier2_deopts

(* One method, one virtual site, receiver selected by iteration number:
   [A] for i<60, [B2] after; the method is called once with n=120.
   [fb_mono] marks [combine] CHA-unsafe-but-forced mono, so a receiver
   that misses the site's cache delegates the single dispatch instead
   of deoptimizing. Compiled at first call on a fresh link, the site is
   cold and guards the live cache word: the [B2] flip misses once and
   later [B2] calls hit the re-filled word. Compiled against the warm
   snapshot a tier-1 run leaves behind ([B2], its last receiver), every
   [A] call misses and delegates. Neither run deopts. *)
let flip_loop_program =
  let combine_m ret_v =
    let m = B.create "combine" ~ret:int_t in
    let b = B.entry m in
    let r = B.fresh m int_t in
    B.const_i b r ret_v;
    B.ret b (Some r);
    B.finish m
  in
  let a_cls = B.cls "A" ~methods:[ empty_init (); combine_m 1 ] in
  let b_cls = B.cls "B2" ~super:"A" ~methods:[ empty_init (); combine_m 2 ] in
  let loop =
    let m =
      B.create ~static:true "loop"
        ~params:[ ("a", Jtype.Ref "A"); ("b", Jtype.Ref "A"); ("n", int_t) ]
        ~ret:int_t
    in
    let b0 = B.entry m in
    let hdr = B.block m in
    let body = B.block m in
    let early = B.block m in
    let late = B.block m in
    let callb = B.block m in
    let exit_ = B.block m in
    let i = B.fresh m int_t in
    let acc = B.fresh m int_t in
    let one = B.fresh m int_t in
    let flip = B.fresh m int_t in
    let c = B.fresh m int_t in
    let is_early = B.fresh m int_t in
    let recv = B.fresh m (Jtype.Ref "A") in
    let r = B.fresh m int_t in
    B.const_i b0 i 0;
    B.const_i b0 acc 0;
    B.const_i b0 one 1;
    B.const_i b0 flip 60;
    B.jump b0 hdr;
    B.binop hdr c Ir.Lt i "n";
    B.branch hdr c ~then_:body ~else_:exit_;
    B.binop body is_early Ir.Lt i flip;
    B.branch body is_early ~then_:early ~else_:late;
    B.move early ~dst:recv ~src:"a";
    B.jump early callb;
    B.move late ~dst:recv ~src:"b";
    B.jump late callb;
    B.call callb ~ret:r ~recv ~kind:Ir.Virtual ~cls:"A" ~name:"combine" [];
    B.binop callb acc Ir.Add acc r;
    B.binop callb i Ir.Add i one;
    B.jump callb hdr;
    B.ret exit_ (Some acc);
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let a = B.fresh m (Jtype.Ref "A") in
    let bb = B.fresh m (Jtype.Ref "A") in
    let n = B.fresh m int_t in
    let r = B.fresh m int_t in
    B.new_obj b a "A";
    B.call b ~recv:a ~kind:Ir.Special ~cls:"A" ~name:ctor [];
    B.new_obj b bb "B2";
    B.call b ~recv:bb ~kind:Ir.Special ~cls:"B2" ~name:ctor [];
    B.const_i b n 120;
    B.call b ~ret:r ~kind:Ir.Static ~cls:"Main" ~name:"loop" [ a; bb; n ];
    B.ret b (Some r);
    B.finish m
  in
  Program.make ~entry:("Main", "main")
    [ a_cls; b_cls; B.cls "Main" ~methods:[ loop; main ] ]

let test_first_call_mono_delegates () =
  let is_data _ = false in
  let feedback = { Facade_vm.Compile_tier.fb_mono = [ "combine" ]; fb_leaves = [] } in
  let r1, out1, steps1, _ = object_outcome ~is_data flip_loop_program in
  List.iter
    (fun warm ->
      let label = if warm then "warm snapshot" else "cold site" in
      let rp = Facade_vm.Link.object_program ~is_data flip_loop_program in
      if warm then ignore (I.run_object_linked rp);
      let tier = I.make_tier ~feedback rp in
      let r2, out2, steps2, st2 = observe (I.run_object_linked ~tier rp) in
      (* 60 iterations of A.combine=1 plus 60 of B2.combine=2. *)
      Alcotest.(check string) (label ^ ": result") "180" r2;
      Alcotest.(check string) (label ^ ": tier1 = tier2 result") r1 r2;
      Alcotest.(check (list string)) (label ^ ": output") out1 out2;
      Alcotest.(check int) (label ^ ": steps") steps1 steps2;
      Alcotest.(check int) (label ^ ": misses delegate, never deopt") 0
        st2.Stats.tier2_deopts;
      match tier.Facade_vm.Vm_state.t_code.(method_index rp "Main" "loop") with
      | Facade_vm.Vm_state.T_fn _ -> ()
      | _ -> Alcotest.fail (label ^ ": loop is not compiled"))
    [ false; true ]

(* A tier built with [make_tier] persists compiled code across runs of
   the same linked program — the warm-service pattern the benchmarks
   use. The second run must stay observably identical to tier 1 while
   compiling nothing: all its tier-2 entries hit code the first run
   installed. *)
let test_shared_tier () =
  let s = List.find (fun s -> s.Samples.name = "collections") Samples.all in
  let cl =
    (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
      .Facade_compiler.Pipeline.classification
  in
  let is_data c = Facade_compiler.Classify.is_data_class cl c in
  let rp = Facade_vm.Link.object_program ~is_data s.Samples.program in
  let obs (o : I.outcome) =
    ( Exact.exact_result o.I.result,
      Stats.output_lines o.I.stats,
      o.I.stats.Stats.steps )
  in
  let o1 = obs (I.run_object_linked rp) in
  let tier = I.make_tier rp in
  let w1 = I.run_object_linked ~tier rp in
  (* Every method the program reaches compiled (or retired) at its first
     call in run 1, so run 2 is steady state. *)
  let w2 = I.run_object_linked ~tier rp in
  Alcotest.(check bool) "first warm run compiles" true
    (w1.I.stats.Stats.tier2_compiles > 0);
  Alcotest.(check int) "second run compiles nothing" 0
    w2.I.stats.Stats.tier2_compiles;
  Alcotest.(check bool) "second run enters compiled code" true
    (w2.I.stats.Stats.tier2_entries > 0);
  Alcotest.(check (triple string (list string) int)) "warm run == tier1" o1 (obs w1);
  Alcotest.(check (triple string (list string) int)) "second run == tier1" o1 (obs w2)

(* The same warm-service pattern in facade mode: compiled facade
   segments take the page pool from the running [st] at segment entry
   instead of capturing one run's store, so a [make_tier] tier is
   shareable across [run_facade] runs of the same linked pipeline. Every
   called method compiles during the first warm run, and the second run
   must compile nothing while staying observably identical to tier 1. *)
let test_shared_facade_tier () =
  let s = List.find (fun s -> s.Samples.name = "collections") Samples.all in
  let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
  let obs (o : I.outcome) =
    ( Exact.exact_result o.I.result,
      Stats.output_lines o.I.stats,
      o.I.stats.Stats.steps )
  in
  let o1 = obs (I.run_facade pl) in
  (* The pipeline's link is cached, so this resolved program is the one
     [run_facade] executes. *)
  let rp = Facade_vm.Link.facade_program pl in
  let tier = I.make_tier rp in
  let w1 = I.run_facade ~tier pl in
  let w2 = I.run_facade ~tier pl in
  Alcotest.(check bool) "first warm run compiles" true
    (w1.I.stats.Stats.tier2_compiles > 0);
  Alcotest.(check int) "second run compiles nothing" 0
    w2.I.stats.Stats.tier2_compiles;
  Alcotest.(check bool) "second run enters compiled code" true
    (w2.I.stats.Stats.tier2_entries > 0);
  Alcotest.(check (triple string (list string) int)) "warm run == tier1" o1 (obs w1);
  Alcotest.(check (triple string (list string) int)) "second run == tier1" o1 (obs w2)

(* ---------- directed error paths of the compiled kernels ---------- *)

(* The tier-2 templates restate the page, frame and boxing accessors
   inline and hand every failure to the owning module's function; these
   facade programs drive each restated kernel into its failure branch
   from inside a compiled segment (the entry method compiles at its call)
   and check tier 2 raises tier 1's exact error, or — for operands that
   leave the inline int/float cases — computes tier 1's exact result. *)

let facade_pl ~data text =
  Facade_compiler.Pipeline.compile
    ~spec:{ Facade_compiler.Classify.data_roots = data; boundary = [] }
    (Text_format.parse text)

(* Everything the tiers must agree on for one run, or the error text. *)
let run_outcome ?workers ?tier pl =
  match Vm_runs.with_workers workers (fun pool -> I.run_facade ?pool ?tier pl) with
  | o ->
      Ok
        ( Exact.exact_result o.I.result,
          Stats.output_lines o.I.stats,
          o.I.stats.Stats.steps )
  | exception I.Vm_error e -> Error e

let outcome_t = Alcotest.(result (pair (pair string (list string)) int) string)
let flat = Result.map (fun (r, o, s) -> ((r, o), s))

(* The linked entry method holds an instruction [pred] accepts — the
   kernel under test runs compiled, not delegated. *)
let entry_has pl pred =
  let rp = Facade_vm.Link.facade_program pl in
  let m = rp.Facade_vm.Resolved.methods.(rp.Facade_vm.Resolved.entry) in
  Array.exists
    (fun (b : Facade_vm.Resolved.block) -> Array.exists pred b.Facade_vm.Resolved.code)
    m.Facade_vm.Resolved.m_body

let main_only ~locals body =
  Printf.sprintf
    "class Cell {\n\
    \  field int v;\n\
    \  method <init>() {\n\
    \    b0:\n\
    \      return;\n\
    \  }\n\
     }\n\n\
     class Main {\n\
    \  static method main() : int {\n\
     %s    b0:\n\
     %s  }\n\
     }\n\n\
     entry Main.main\n"
    (String.concat "" (List.map (fun l -> "    local " ^ l ^ ";\n") locals))
    (String.concat "" (List.map (fun l -> "      " ^ l ^ "\n") body))

let int_locals = [ "n: int"; "i: int"; "j: int"; "k: int"; "x: int"; "big: int" ]

let error_cases =
  let module R = Facade_vm.Resolved in
  [
    ( "Raget index at the length",
      main_only ~locals:(int_locals @ [ "arr: int[]" ])
        [ "n = 4;"; "arr = new int[n];"; "i = 4;"; "x = arr[i];"; "return x;" ],
      (function R.Raget _ -> true | _ -> false),
      "ArrayIndexOutOfBoundsException: 4" );
    ( "Raset negative index",
      main_only ~locals:(int_locals @ [ "arr: int[]" ])
        [ "n = 4;"; "arr = new int[n];"; "i = -1;"; "arr[i] = n;"; "x = arr[n];"; "return x;" ],
      (function R.Raset _ -> true | _ -> false),
      "ArrayIndexOutOfBoundsException: -1" );
    ( "Raget_aget outer index",
      main_only
        ~locals:(int_locals @ [ "idx: int[]"; "vals: int[]" ])
        [
          "n = 4;"; "idx = new int[n];"; "vals = new int[n];"; "k = 4;"; "j = idx[k];";
          "x = vals[j];"; "return x;";
        ],
      (function R.Raget_aget _ -> true | _ -> false),
      "ArrayIndexOutOfBoundsException: 4" );
    ( "Raget_aget inner index",
      main_only
        ~locals:(int_locals @ [ "idx: int[]"; "vals: int[]" ])
        [
          "n = 4;"; "idx = new int[n];"; "vals = new int[n];"; "k = 0;"; "big = 4;";
          "idx[k] = big;"; "j = idx[k];"; "x = vals[j];"; "return x;";
        ],
      (function R.Raget_aget _ -> true | _ -> false),
      "ArrayIndexOutOfBoundsException: 4" );
    ( "null page reference",
      main_only ~locals:(int_locals @ [ "c: Cell" ])
        [ "c = null;"; "x = c.v;"; "return x;" ],
      (function R.Rget _ | R.Rget_bin _ -> true | _ -> false),
      "NullPointerException: null page reference" );
    ( "int divide by zero",
      main_only ~locals:(int_locals @ [ "arr: int[]" ])
        [
          "n = 4;"; "arr = new int[n];"; "k = 0;"; "i = arr[k];"; "x = n / i;"; "return x;";
        ],
      (function R.Rbinop (_, Ir.Div, _, _) -> true | _ -> false),
      "ArithmeticException: / by zero" );
    (* The page templates' boxed form: the reference or array is boxed,
       since a delegated intrinsic reads it (an [instanceof] test or an
       array length), and the index or value pinned. *)
    ( "Rget through a boxed null reference",
      main_only ~locals:(int_locals @ [ "c: Cell" ])
        [ "c = null;"; "x = c.v;"; "k = c instanceof Cell;"; "return x;" ],
      (function R.Rget _ | R.Rget_bin _ -> true | _ -> false),
      "NullPointerException: null page reference" );
    ( "Rset through a boxed null reference",
      main_only ~locals:(int_locals @ [ "c: Cell" ])
        [ "c = null;"; "n = 4;"; "c.v = n;"; "k = c instanceof Cell;"; "return n;" ],
      (function R.Rset _ -> true | _ -> false),
      "NullPointerException: null page reference" );
  ]
  @ List.concat_map
      (fun i ->
        let boxed arr body =
          main_only
            ~locals:(int_locals @ [ "arr: int[]"; "idx: int[]" ])
            ([ "n = 4;"; "arr = new int[n];"; "idx = new int[n];"; "k = " ^ i ^ ";" ]
            @ body
            @ [ "big = len " ^ arr ^ ";"; "return x;" ])
        in
        let oob = "ArrayIndexOutOfBoundsException: " ^ i in
        [
          ( "Raget at " ^ i ^ ", boxed array",
            boxed "arr" [ "x = arr[k];" ],
            (function R.Raget _ -> true | _ -> false),
            oob );
          ( "Raset at " ^ i ^ ", boxed array",
            boxed "arr" [ "arr[k] = n;"; "x = n;" ],
            (function R.Raset _ -> true | _ -> false),
            oob );
          ( "Raget_aget outer index " ^ i ^ ", boxed array",
            boxed "idx" [ "j = idx[k];"; "x = arr[j];" ],
            (function R.Raget_aget _ -> true | _ -> false),
            oob );
        ])
      [ "-1"; "4" ]

let test_kernel_errors () =
  List.iter
    (fun (name, text, pred, expect) ->
      let pl = facade_pl ~data:[ "Cell"; "Main" ] text in
      Alcotest.(check bool) (name ^ ": kernel is in the compiled entry") true
        (entry_has pl pred);
      let t1 = run_outcome pl in
      Alcotest.check outcome_t (name ^ ": tier 1 raises") (Error expect) (flat t1);
      Alcotest.check outcome_t (name ^ ": tier 2 raises tier 1's error") (flat t1)
        (flat (run_outcome ~tier:(Vm_runs.facade_tier pl) pl)))
    error_cases

(* Int/Float operand pairs leave the inline int and float cases of the
   specialized Add/Sub/Mul binops and the int compare-and-branch: the
   fallback must compute tier 1's coercions. The loop runs compiled,
   deciding its exit on a float-vs-int compare, and prints every mixed
   result. *)
let mixed_program =
  "class Main {\n\
  \  static method main() : double {\n\
  \    local i: int;\n\
  \    local n: int;\n\
  \    local one: int;\n\
  \    local cond: int;\n\
  \    local f: double;\n\
  \    local half: double;\n\
  \    local a: double;\n\
  \    local s: double;\n\
  \    local m: double;\n\
  \    b0:\n\
  \      i = 0;\n\
  \      n = 5;\n\
  \      one = 1;\n\
  \      half = 0x1p-1;\n\
  \      f = 0x0p+0;\n\
  \      goto b1;\n\
  \    b1:\n\
  \      cond = f < n;\n\
  \      if cond goto b2 else b3;\n\
  \    b2:\n\
  \      a = i + half;\n\
  \      s = a - i;\n\
  \      m = i * half;\n\
  \      f = f + one;\n\
  \      a = a + m;\n\
  \      a = a + s;\n\
  \      @sys.print(a);\n\
  \      i = i + one;\n\
  \      goto b1;\n\
  \    b3:\n\
  \      return f;\n\
  \  }\n\
   }\n\n\
   entry Main.main\n"

let test_mixed_operands () =
  let module R = Facade_vm.Resolved in
  let pl = facade_pl ~data:[ "Main" ] mixed_program in
  let rp = Facade_vm.Link.facade_program pl in
  let m = rp.R.methods.(rp.R.entry) in
  Alcotest.(check bool) "compare-and-branch is fused" true
    (Array.exists
       (fun (b : R.block) -> match b.R.term with R.Rcmp_branch _ -> true | _ -> false)
       m.R.m_body);
  List.iter
    (fun op ->
      Alcotest.(check bool) "specialized binop present" true
        (entry_has pl (function
          | R.Rbinop (_, o, _, _) | R.Rbinop_imm (_, o, _, _, _) -> o = op
          | _ -> false)))
    [ Ir.Add; Ir.Sub; Ir.Mul ];
  let t1 = run_outcome pl in
  (match t1 with
  | Ok (r, out, _) ->
      Alcotest.(check string) "tier 1 result" "0x1.4p+2" r;
      Alcotest.(check int) "tier 1 printed each round" 5 (List.length out)
  | Error e -> Alcotest.fail e);
  Alcotest.check outcome_t "tier 2 == tier 1" (flat t1)
    (flat (run_outcome ~tier:(Vm_runs.facade_tier pl) pl))

(* ---------- re-entrant compiled code ---------- *)

(* Every compiled-method entry allocates its own activation record; a
   record shared between activations would let a callee's frame or
   resolved pool leak into its caller. [sum] is recursive over a paged
   list, so compiled activations nest dozens deep, and reads each node
   through the single-block leaf [val], which the compiled [sum]
   inlines on a fresh activation. Four workers run the recursion
   concurrently over one shared list; the same program then runs on 4
   domains against one warm tier. *)
let reentrant_program =
  "class Node {\n\
  \  field int v;\n\
  \  field Node next;\n\
  \  method <init>() {\n\
  \    b0:\n\
  \      return;\n\
  \  }\n\
   }\n\n\
   class Worker {\n\
  \  field Node head;\n\
  \  field int bias;\n\
  \  field int out;\n\
  \  method <init>() {\n\
  \    b0:\n\
  \      return;\n\
  \  }\n\
  \  method run() {\n\
  \    local h: Node;\n\
  \    local b: int;\n\
  \    local r: int;\n\
  \    local acc: int;\n\
  \    local i: int;\n\
  \    local one: int;\n\
  \    local lim: int;\n\
  \    local cond: int;\n\
  \    b0:\n\
  \      h = this.head;\n\
  \      b = this.bias;\n\
  \      acc = 0;\n\
  \      i = 0;\n\
  \      one = 1;\n\
  \      lim = 6;\n\
  \      goto b1;\n\
  \    b1:\n\
  \      cond = i < lim;\n\
  \      if cond goto b2 else b3;\n\
  \    b2:\n\
  \      r = static Main.sum(h);\n\
  \      acc = acc + r;\n\
  \      acc = acc + b;\n\
  \      i = i + one;\n\
  \      goto b1;\n\
  \    b3:\n\
  \      this.out = acc;\n\
  \      return;\n\
  \  }\n\
   }\n\n\
   class Main {\n\
  \  static method val(p: Node) : int {\n\
  \    local x: int;\n\
  \    b0:\n\
  \      x = p.v;\n\
  \      return x;\n\
  \  }\n\
  \  static method sum(p: Node) : int {\n\
  \    local z: Node;\n\
  \    local cond: int;\n\
  \    local x: int;\n\
  \    local q: Node;\n\
  \    local r: int;\n\
  \    b0:\n\
  \      z = null;\n\
  \      cond = p == z;\n\
  \      if cond goto b1 else b2;\n\
  \    b1:\n\
  \      r = 0;\n\
  \      return r;\n\
  \    b2:\n\
  \      x = static Main.val(p);\n\
  \      q = p.next;\n\
  \      r = static Main.sum(q);\n\
  \      r = r + x;\n\
  \      return r;\n\
  \  }\n\
  \  static method main() : int {\n\
  \    local n: int;\n\
  \    local i: int;\n\
  \    local one: int;\n\
  \    local cond: int;\n\
  \    local sq: int;\n\
  \    local head: Node;\n\
  \    local node: Node;\n\
  \    local w0: Worker;\n\
  \    local w1: Worker;\n\
  \    local w2: Worker;\n\
  \    local w3: Worker;\n\
  \    local total: int;\n\
  \    local t: int;\n\
  \    b0:\n\
  \      n = 40;\n\
  \      i = 0;\n\
  \      one = 1;\n\
  \      head = null;\n\
  \      goto b1;\n\
  \    b1:\n\
  \      cond = i < n;\n\
  \      if cond goto b2 else b3;\n\
  \    b2:\n\
  \      node = new Node;\n\
  \      special node.Node.<init>();\n\
  \      sq = i * i;\n\
  \      node.v = sq;\n\
  \      node.next = head;\n\
  \      head = node;\n\
  \      i = i + one;\n\
  \      goto b1;\n\
  \    b3:\n\
  \      w0 = new Worker;\n\
  \      special w0.Worker.<init>();\n\
  \      w0.head = head;\n\
  \      t = 0;\n\
  \      w0.bias = t;\n\
  \      w1 = new Worker;\n\
  \      special w1.Worker.<init>();\n\
  \      w1.head = head;\n\
  \      t = 1;\n\
  \      w1.bias = t;\n\
  \      w2 = new Worker;\n\
  \      special w2.Worker.<init>();\n\
  \      w2.head = head;\n\
  \      t = 2;\n\
  \      w2.bias = t;\n\
  \      w3 = new Worker;\n\
  \      special w3.Worker.<init>();\n\
  \      w3.head = head;\n\
  \      t = 3;\n\
  \      w3.bias = t;\n\
  \      iterstart;\n\
  \      @sys.run_thread(w0);\n\
  \      @sys.run_thread(w1);\n\
  \      @sys.run_thread(w2);\n\
  \      @sys.run_thread(w3);\n\
  \      iterend;\n\
  \      total = static Main.sum(head);\n\
  \      t = w0.out;\n\
  \      total = total + t;\n\
  \      t = w1.out;\n\
  \      total = total + t;\n\
  \      t = w2.out;\n\
  \      total = total + t;\n\
  \      t = w3.out;\n\
  \      total = total + t;\n\
  \      @sys.print(total);\n\
  \      return total;\n\
  \  }\n\
   }\n\n\
   entry Main.main\n"

let test_reentrant () =
  let pl = facade_pl ~data:[ "Node"; "Worker"; "Main" ] reentrant_program in
  let t1 = run_outcome pl in
  (* sum_{i<40} i^2 = 20540: one sum in main, six per worker, plus
     6 * (0+1+2+3) of worker bias. *)
  (match t1 with
  | Ok (r, _, _) -> Alcotest.(check string) "tier 1 result" "513536" r
  | Error e -> Alcotest.fail e);
  Alcotest.check outcome_t "sequential tier 2 == tier 1" (flat t1)
    (flat (run_outcome ~tier:(Vm_runs.facade_tier pl) pl));
  let rp = Facade_vm.Link.facade_program pl in
  let tier = I.make_tier rp in
  (* P' runs the generated facade class's copy of each Main method. *)
  let midx = method_index rp (Facade_compiler.Transform.facade_name "Main") in
  Alcotest.(check bool) "the leaf inlines into sum" true
    tier.Facade_vm.Vm_state.t_leaves.(midx "val");
  for run = 1 to 3 do
    Alcotest.check outcome_t
      (Printf.sprintf "4 workers, shared warm tier, run %d == tier 1" run)
      (flat t1)
      (flat (run_outcome ~workers:4 ~tier pl));
    match tier.Facade_vm.Vm_state.t_code.(midx "sum") with
    | Facade_vm.Vm_state.T_fn _ -> ()
    | _ -> Alcotest.fail "recursive sum is not running compiled"
  done

(* ---------- typed frame slots ---------- *)

(* Tier 2 keeps a local unboxed in an int or float array when every
   value it can hold is an int (or a float) and only typed templates
   touch it; the frame slot is written back only at a deopt. These
   programs pin such slots and drive them through each place where the
   unboxed templates could part from tier 1. *)

let main_blocks ?(classes = "") ~ret ~locals blocks =
  Printf.sprintf "%sclass Main {\n  static method main() : %s {\n%s%s  }\n}\n\nentry Main.main\n"
    classes ret
    (String.concat "" (List.map (fun l -> "    local " ^ l ^ ";\n") locals))
    (String.concat ""
       (List.map
          (fun (label, lines) ->
            Printf.sprintf "    %s:\n%s" label
              (String.concat "" (List.map (fun l -> "      " ^ l ^ "\n") lines)))
          blocks))

let cell_f32 =
  "class Cell {\n\
  \  field float x;\n\
  \  method <init>() {\n\
  \    b0:\n\
  \      return;\n\
  \  }\n\
   }\n\n"

(* One case per way an unboxed template could part from [arith] and
   [truthy]: name, program, data classes, tier 1's exact outcome. *)
let trap_cases =
  [
    ( "a float 0.0 is truthy",
      main_blocks ~ret:"int"
        ~locals:[ "f: double"; "r: int"; "n: int" ]
        [
          ("b0", [ "f = 0x0p+0;"; "r = 1;"; "if f goto b1 else b2;" ]);
          ("b1", [ "n = !f;"; "r = r + n;"; "r = r + r;"; "return r;" ]);
          ("b2", [ "return r;" ]);
        ],
      [ "Main" ],
      Ok "2" );
    ( "Eq/Ne across int and float are false/true, Lt promotes",
      main_blocks ~ret:"int"
        ~locals:
          [ "i: int"; "f: double"; "g: double"; "e: int"; "n: int"; "l: int"; "c: int"; "r: int";
            "k: int" ]
        [
          ( "b0",
            [
              "i = 1;"; "i = i + i;"; "f = 0x1p+0;"; "f = f + f;"; "g = 0x1.4p+1;"; "e = i == f;";
              "n = i != f;"; "l = i < g;";
              "k = 10;"; "r = e * k;"; "r = r * k;"; "n = n * k;"; "r = r + n;"; "r = r + l;";
              "c = f == i;"; "if c goto b1 else b2;";
            ] );
          ("b1", [ "return i;" ]);
          ("b2", [ "c = i < g;"; "if c goto b3 else b1;" ]);
          ("b3", [ "return r;" ]);
        ],
      [ "Main" ],
      Ok "11" );
    ( "float division rounds once (%g cannot tell)",
      main_blocks ~ret:"double"
        ~locals:[ "x: double"; "y: double"; "z: double" ]
        [ ("b0", [ "x = 0x1.4p+2;"; "y = 0x1.8p+1;"; "z = x / y;"; "return z;" ]) ],
      [ "Main" ],
      Ok "0x1.aaaaaaaaaaaabp+0" );
    ( "int Div by zero raises arith's text",
      main_blocks ~ret:"int"
        ~locals:[ "i: int"; "z: int"; "r: int" ]
        [ ("b0", [ "i = 7;"; "z = i - i;"; "r = i / z;"; "return r;" ]) ],
      [ "Main" ],
      Error "ArithmeticException: / by zero" );
    ( "int Rem by a zero constant raises arith's text",
      main_blocks ~ret:"int"
        ~locals:[ "i: int"; "z: int"; "r: int" ]
        [ ("b0", [ "i = 7;"; "z = 0;"; "r = i % z;"; "return r;" ]) ],
      [ "Main" ],
      Error "ArithmeticException: % by zero" );
    ( "int arithmetic wraps at 63 bits",
      main_blocks ~ret:"int"
        ~locals:[ "big: int"; "one: int"; "r: int"; "s: int" ]
        [
          ( "b0",
            [ "big = 4611686018427387903;"; "one = 1;"; "r = big + one;"; "s = big * big;";
              "r = r + s;"; "return r;" ] );
        ],
      [ "Main" ],
      Ok "-4611686018427387903" );
    ( "f32 page reads round as Page.read_f32",
      main_blocks ~classes:cell_f32 ~ret:"double"
        ~locals:[ "c: Cell"; "d: double"; "y: double"; "z: double" ]
        [
          ( "b0",
            [
              "c = new Cell;"; "special c.Cell.<init>();"; "d = 0x1.999999999999ap-4;"; "c.x = d;";
              "y = c.x;"; "z = y * d;"; "z = z + y;"; "return z;";
            ] );
        ],
      [ "Cell"; "Main" ],
      Ok (Printf.sprintf "%h" ((Int32.float_of_bits (Int32.bits_of_float 0.1) *. 0.1)
                               +. Int32.float_of_bits (Int32.bits_of_float 0.1))) );
    ( "mixed rare operands box and take arith's error",
      main_blocks ~ret:"int"
        ~locals:[ "i: int"; "f: double"; "r: int" ]
        [ ("b0", [ "i = 2;"; "f = 0x1.4p+1;"; "r = i & f;"; "return r;" ]) ],
      [ "Main" ],
      Error "bad operands for binop: 2, 2.5" );
  ]

let slots_pinned (o : I.outcome) =
  o.I.stats.Stats.tier2_int_slots + o.I.stats.Stats.tier2_float_slots

let test_typed_traps () =
  List.iter
    (fun (name, text, data, expect) ->
      let pl = facade_pl ~data text in
      let t1 = run_outcome pl in
      Alcotest.(check (result string string))
        (name ^ ": tier 1") expect
        (Result.map (fun (r, _, _) -> r) t1);
      Alcotest.check outcome_t (name ^ ": tier 2 == tier 1") (flat t1)
        (flat (run_outcome ~tier:(Vm_runs.facade_tier pl) pl));
      if Result.is_ok expect then
        Alcotest.(check bool) (name ^ ": slots pinned") true
          (slots_pinned (I.run_facade ~tier:(Vm_runs.facade_tier pl) pl) > 0))
    trap_cases

(* A loop whose int and float accumulators are pinned (the int one
   wraps, the float one carries full-precision bits), called once, so
   it runs compiled from its first instruction. On iteration [trip] a
   monitor region deopts: the deopt handler must write every pinned
   slot back so tier 1 finishes the loop from the live values. With
   [~fail:true] the exit divides by a zero derived from the loop
   counter, so the run ends in an error at a fixed step. *)
let pinned_loop_program ~trip ~fail =
  Text_format.parse
    (Printf.sprintf
       "class A {\n\
       \  method <init>() {\n\
       \    b0:\n\
       \      return;\n\
       \  }\n\
        }\n\n\
        class Main {\n\
       \  static method loop(x: A, n: int) : double {\n\
       \    local i: int;\n\
       \    local acc: int;\n\
       \    local f: double;\n\
       \    local g: double;\n\
       \    local c: int;\n\
       \    local t: int;\n\
       \    local z: int;\n\
       \    local one: int;\n\
       \    local trip: int;\n\
       \    local mul: int;\n\
       \    local m: int;\n\
       \    local grow: double;\n\
       \    local step: double;\n\
       \    b0:\n\
       \      i = 0;\n\
       \      acc = 1;\n\
       \      f = 0x1p-3;\n\
       \      one = 1;\n\
       \      trip = %d;\n\
       \      mul = 1000003;\n\
       \      m = %s;\n\
       \      grow = 0x1.0000001p+0;\n\
       \      step = 0x1.999999999999ap-4;\n\
       \      goto b1;\n\
       \    b1:\n\
       \      c = i < n;\n\
       \      if c goto b2 else b5;\n\
       \    b2:\n\
       \      t = i == trip;\n\
       \      if t goto b3 else b4;\n\
       \    b3:\n\
       \      monitorenter x;\n\
       \      monitorexit x;\n\
       \      goto b4;\n\
       \    b4:\n\
       \      acc = acc * mul;\n\
       \      acc = acc + i;\n\
       \      f = f * grow;\n\
       \      g = i * step;\n\
       \      f = f + g;\n\
       \      i = i + one;\n\
       \      goto b1;\n\
       \    b5:\n\
       \      z = i - n;\n\
       \      m = m + z;\n\
       \      t = acc %% m;\n\
       \      f = f + t;\n\
       \      return f;\n\
       \  }\n\
       \  static method main() : double {\n\
       \    local a: A;\n\
       \    local n: int;\n\
       \    local r: double;\n\
       \    b0:\n\
       \      a = new A;\n\
       \      special a.A.<init>();\n\
       \      n = 40;\n\
       \      r = static Main.loop(a, n);\n\
       \      return r;\n\
       \  }\n\
        }\n\n\
        entry Main.main\n"
       trip
       (if fail then "0" else "1000"))

let test_monitor_deopt_pinned () =
  let is_data _ = false in
  let p = pinned_loop_program ~trip:23 ~fail:false in
  let r1, out1, steps1, _ = object_outcome ~is_data p in
  let r2, out2, steps2, st2 = object_outcome ~tier2:true ~is_data p in
  Alcotest.(check string) "tier1 = tier2 result, bit for bit" r1 r2;
  Alcotest.(check (list string)) "output" out1 out2;
  Alcotest.(check int) "steps" steps1 steps2;
  Alcotest.(check int) "deopted once, inside the loop" 1 st2.Stats.tier2_deopts;
  Alcotest.(check bool) "int slots pinned" true (st2.Stats.tier2_int_slots >= 3);
  Alcotest.(check bool) "float slots pinned" true (st2.Stats.tier2_float_slots >= 2)

(* Every step budget across a pinned-slot loop that ends in an error:
   below the erroring step both tiers raise the budget error, from it on
   the division error, so the two tiers must flip at the same budget —
   tier 2's segment prechecks and deopts land on tier 1's exact step. *)
let test_pinned_budget_sweep () =
  let is_data _ = false in
  let p = pinned_loop_program ~trip:1000 ~fail:true in
  let rp1 = Facade_vm.Link.object_program ~is_data p in
  let run ?tier budget =
    match I.run_object_linked ~max_steps:budget ?tier rp1 with
    | o -> Ok (Exact.exact_result o.I.result)
    | exception I.Vm_error e -> Error e
  in
  let budget_err = Error "step budget exceeded" in
  let div_err = Error "ArithmeticException: % by zero" in
  let flip = ref 0 in
  for budget = 1 to 400 do
    let t1 = run budget in
    Alcotest.(check (result string string))
      (Printf.sprintf "budget %d" budget)
      t1
      (run ~tier:(I.make_tier rp1) budget);
    if !flip = 0 && t1 = div_err then flip := budget;
    Alcotest.(check (result string string)) "one error point"
      (if !flip = 0 then budget_err else div_err)
      t1
  done;
  (* 40 iterations of 8 steps (the body's 6, its accumulator update
     fused into one multiply-add that charges both, and the two loop
     tests, each fused into its branch), then the exit *)
  Alcotest.(check bool) "the error point lies after the loop" true (!flip > 200)

(* A single-block leaf with pinned slots, inlined into its compiled
   caller; then the same program with the leaf retired from inlining —
   as its own deopts would retire it — so the leaf runs through its own
   compiled entry. Both must match tier 1 bit for bit, and so must
   every budget that expires inside the inlined leaf. *)
let leaf_program =
  "class Node {\n\
  \  field int v;\n\
  \  field double w;\n\
  \  method <init>() {\n\
  \    b0:\n\
  \      return;\n\
  \  }\n\
   }\n\n\
   class Main {\n\
  \  static method val(p: Node) : double {\n\
  \    local x: int;\n\
  \    local y: double;\n\
  \    local z: double;\n\
  \    local h: double;\n\
  \    b0:\n\
  \      x = p.v;\n\
  \      y = p.w;\n\
  \      h = 0x1.8p+0;\n\
  \      z = y * x;\n\
  \      z = z + h;\n\
  \      return z;\n\
  \  }\n\
  \  static method main() : double {\n\
  \    local n: Node;\n\
  \    local i: int;\n\
  \    local c: int;\n\
  \    local f: double;\n\
  \    local r: double;\n\
  \    local s: double;\n\
  \    local k: double;\n\
  \    local lim: int;\n\
  \    local one: int;\n\
  \    b0:\n\
  \      n = new Node;\n\
  \      special n.Node.<init>();\n\
  \      s = 0x0p+0;\n\
  \      i = 0;\n\
  \      k = 0x1.555p-2;\n\
  \      lim = 12;\n\
  \      one = 1;\n\
  \      goto b1;\n\
  \    b1:\n\
  \      c = i < lim;\n\
  \      if c goto b2 else b3;\n\
  \    b2:\n\
  \      n.v = i;\n\
  \      f = i * k;\n\
  \      n.w = f;\n\
  \      r = static Main.val(n);\n\
  \      s = s + r;\n\
  \      i = i + one;\n\
  \      goto b1;\n\
  \    b3:\n\
  \      @sys.print(s);\n\
  \      return s;\n\
  \  }\n\
   }\n\n\
   entry Main.main\n"

let test_leaf_pinned () =
  let pl = facade_pl ~data:[ "Node"; "Main" ] leaf_program in
  let rp = Facade_vm.Link.facade_program pl in
  let val_ = method_index rp (Facade_compiler.Transform.facade_name "Main") "val" in
  let t1 = run_outcome pl in
  let tier = I.make_tier rp in
  Alcotest.(check bool) "val is an inline leaf" true tier.Facade_vm.Vm_state.t_leaves.(val_);
  Alcotest.check outcome_t "inlined leaf == tier 1" (flat t1) (flat (run_outcome ~tier pl));
  let retired = I.make_tier rp in
  retired.Facade_vm.Vm_state.t_fail.(val_) <- Facade_vm.Compile_tier.deopt_limit;
  Alcotest.check outcome_t "retired leaf == tier 1" (flat t1)
    (flat (run_outcome ~tier:retired pl));
  (match retired.Facade_vm.Vm_state.t_code.(val_) with
  | Facade_vm.Vm_state.T_fn _ -> ()
  | _ -> Alcotest.fail "the retired leaf did not run its own compiled code");
  let steps = match t1 with Ok (_, _, s) -> s | Error e -> Alcotest.fail e in
  let run ?tier budget =
    match I.run_facade ~max_steps:budget ?tier pl with
    | o -> Ok (Exact.exact_result o.I.result)
    | exception I.Vm_error e -> Error e
  in
  for budget = steps / 2 to steps do
    Alcotest.(check (result string string))
      (Printf.sprintf "budget %d" budget)
      (run budget)
      (run ~tier:(I.make_tier rp) budget)
  done

(* The benchmark's PageRank: which of [Main$Facade.main]'s slots tier 2
   pins, through the same optimize-then-link path as facade_cli run. *)
let test_pagerank_slots () =
  let s = List.find (fun s -> s.Samples.name = "pagerank") Samples.all in
  let pl, _ =
    Opt.Driver.optimize_pipeline
      (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
  in
  let st = (I.run_facade ~tier:(Vm_runs.facade_tier pl) pl).I.stats in
  Alcotest.(check int) "only main compiles" 1 st.Stats.tier2_compiles;
  Alcotest.(check (triple int int int))
    "int, float, boxed slots" (20, 6, 7)
    (st.Stats.tier2_int_slots, st.Stats.tier2_float_slots, st.Stats.tier2_boxed_slots)

(* ---------- operands quickening swapped ----------

   Quickening moves a commutative op's constant operand to the right,
   and fuses a page read into the op that reads it from either side.
   The value is the same; a bad-operands error must still name the
   operands in source order, as the name-based baseline does, in tier 1
   and in tier 2. One case per form that carries a swap. *)

let cell_f64 =
  "class Cell {\n\
  \  field double w;\n\
  \  method <init>() {\n\
  \    b0:\n\
  \      return;\n\
  \  }\n\
   }\n\n"

let new_cell = [ "p = new Cell;"; "special p.Cell.<init>();"; "c = 5;"; "goto b1;" ]
let swap_locals = [ "p: Cell"; "c: int"; "k: int"; "f: double"; "x: double"; "r: int" ]

let swap_cases =
  let module R = Facade_vm.Resolved in
  let in_code pred (b : R.block) = Array.exists pred b.R.code in
  [
    ( "a constant left operand (Rbinop_imm)",
      [ ("b0", new_cell); ("b1", [ "f = 0x1.4p+1;"; "r = c & f;"; "return r;" ]) ],
      in_code (function R.Rbinop_imm (_, Ir.And, _, _, true) -> true | _ -> false),
      "bad operands for binop: 5, 2.5" );
    ( "a constant left operand of a fused branch (Rcmp_branch)",
      [
        ("b0", new_cell);
        ("b1", [ "f = 0x1.4p+1;"; "r = c & f;"; "if r goto b2 else b3;" ]);
        ("b2", [ "return c;" ]);
        ("b3", [ "k = 3;"; "return k;" ]);
      ],
      (fun (b : R.block) ->
        match b.R.term with
        | R.Rcmp_branch (Ir.And, R.Oconst _, R.Oslot _, _, _) -> true
        | _ -> false),
      "bad operands for binop: 5, 2.5" );
    ( "a page read as the right operand (Rget_bin)",
      [ ("b0", new_cell); ("b1", [ "k = 3;"; "x = p.w;"; "r = k & x;"; "return r;" ]) ],
      in_code (function R.Rget_bin (_, _, _, _, Ir.And, R.Oslot _, true) -> true | _ -> false),
      "bad operands for binop: 3, 0" );
    ( "a constant left operand of a page read (Rget_bin)",
      [ ("b0", new_cell); ("b1", [ "x = p.w;"; "x = c & x;"; "return c;" ]) ],
      in_code (function R.Rget_bin (_, _, _, _, Ir.And, R.Oconst _, true) -> true | _ -> false),
      "bad operands for binop: 5, 0" );
    ( "a constant left operand of a read-modify-write (Rrmw)",
      [ ("b0", new_cell); ("b1", [ "x = p.w;"; "x = c & x;"; "p.w = x;"; "return c;" ]) ],
      in_code (function R.Rrmw (_, _, _, Ir.And, R.Oconst _, true) -> true | _ -> false),
      "bad operands for binop: 5, 0" );
  ]

let test_swapped_operands () =
  List.iter
    (fun (name, blocks, pred, expect) ->
      let pl =
        facade_pl ~data:[ "Cell"; "Main" ]
          (main_blocks ~classes:cell_f64 ~ret:"int" ~locals:swap_locals blocks)
      in
      let rp = Facade_vm.Link.facade_program pl in
      let m = rp.Facade_vm.Resolved.methods.(rp.Facade_vm.Resolved.entry) in
      Alcotest.(check bool) (name ^ ": the swapped form is linked") true
        (Array.exists pred m.Facade_vm.Resolved.m_body);
      let baseline =
        match Facade_vm.Interp_baseline.run_facade pl with
        | _ -> Ok ()
        | exception I.Vm_error e -> Error e
      in
      Alcotest.(check (result unit string)) (name ^ ": baseline") (Error expect) baseline;
      let t1 = run_outcome pl in
      Alcotest.check outcome_t (name ^ ": tier 1") (Error expect) (flat t1);
      Alcotest.check outcome_t (name ^ ": tier 2") (flat t1)
        (flat (run_outcome ~tier:(Vm_runs.facade_tier pl) pl)))
    swap_cases

(* ---------- allocation and facade-pool intrinsics ----------

   Tier 2 runs rt.alloc, rt.alloc_array, pool.receiver, facade.bind and
   facade.read itself, through the same {!Vm_state} bodies tier 1 runs.
   A loop allocating a record per iteration (its constructor reads the
   facade back) exercises all five; each differential below holds it to
   tier 1's steps, results, errors and page-store effects. *)

let node_class =
  "class Node {\n\
  \  field int v;\n\
  \  field double w;\n\
  \  method <init>() {\n\
  \    b0:\n\
  \      return;\n\
  \  }\n\
   }\n\n"

let alloc_loop n =
  main_blocks ~classes:node_class ~ret:"int"
    ~locals:
      [ "p: Node"; "xs: int[]"; "i: int"; "n: int"; "one: int"; "s: int"; "x: int"; "c: int" ]
    [
      ( "b0",
        [
          Printf.sprintf "n = %d;" n; "i = 0;"; "one = 1;"; "s = 0;"; "xs = new int[n];";
          "goto b1;";
        ] );
      ("b1", [ "c = i < n;"; "if c goto b2 else b3;" ]);
      ( "b2",
        [
          "p = new Node;"; "special p.Node.<init>();"; "p.v = i;"; "x = p.v;"; "xs[i] = x;";
          "s = s + x;"; "i = i + one;"; "goto b1;";
        ] );
      ("b3", [ "return s;" ]);
    ]

let alloc_pl n = facade_pl ~data:[ "Node"; "Main" ] (alloc_loop n)

(* Result or error text of one run; quota trips are reported with their
   payload, as the service reports them. *)
let bounded ?max_steps ?page_bytes ?page_quota ?heap_budget ?heap ~tier2 pl =
  match
    I.run_facade ?max_steps ?page_bytes ?page_quota ?heap_budget ?heap
      ?tier:(if tier2 then Some (Vm_runs.facade_tier pl) else None)
      pl
  with
  | o -> Ok (Exact.exact_result o.I.result)
  | exception I.Vm_error e -> Error e
  | exception (Store.Quota_exceeded _ as e) -> Error (Option.get (Store.quota_message e))

let test_alloc_native () =
  let module R = Facade_vm.Resolved in
  let pl = alloc_pl 12 in
  List.iter
    (fun (name, i) ->
      Alcotest.(check bool) (name ^ " is in the compiled entry") true
        (entry_has pl (function R.Rintrinsic (_, j, _) -> i = j | _ -> false)))
    [ ("rt.alloc", R.I_alloc); ("rt.alloc_array", R.I_alloc_array);
      ("pool.receiver", R.I_pool_receiver); ("facade.bind", R.I_facade_bind) ];
  let t1 = run_outcome pl in
  Alcotest.check outcome_t "tier 2 == tier 1" (flat t1)
    (flat (run_outcome ~tier:(Vm_runs.facade_tier pl) pl));
  Alcotest.(check (list string)) "same dispatches, records and heap" (fingerprint pl)
    (fingerprint ~tier2:true pl);
  let o = I.run_facade ~tier:(Vm_runs.facade_tier pl) pl in
  Alcotest.(check int) "nothing delegated" 0 o.I.stats.Stats.tier2_delegated;
  Alcotest.(check bool) "the loop's page references are pinned" true
    (o.I.stats.Stats.tier2_int_slots >= 2);
  (* Every budget that expires inside the loop, on either side of each
     allocation, stops both tiers at the same instruction. *)
  let steps = match t1 with Ok (_, _, s) -> s | Error e -> Alcotest.fail e in
  for budget = 0 to steps do
    Alcotest.(check (result string string))
      (Printf.sprintf "budget %d" budget)
      (bounded ~max_steps:budget ~tier2:false pl)
      (bounded ~max_steps:budget ~tier2:true pl)
  done

(* A quota trips at the allocation that needs a page past it. The
   40-int array takes an oversize page of 168 bytes, and each Node
   record, over half of a 24-byte page, a page of its own, so the heap's
   native total counts the records allocated before the trip; the
   budget sweep pins the step the trip happens at. *)
let test_alloc_quotas () =
  let pl = alloc_pl 40 in
  let heap_effects ?page_quota ?heap_budget ~tier2 () =
    let heap = big_heap () in
    let r = bounded ~page_bytes:24 ?page_quota ?heap_budget ~heap ~tier2 pl in
    (r, Heap.native_bytes heap, (Heap.stats heap).Heapsim.Gc_stats.objects_allocated)
  in
  let effects_t = Alcotest.(triple (result string string) int int) in
  List.iter
    (fun (name, page_quota, heap_budget, expect, records) ->
      let t1 = heap_effects ?page_quota ?heap_budget ~tier2:false () in
      let (r, native, _) = t1 in
      Alcotest.(check (result string string)) (name ^ ": tier 1 trips") (Error expect) r;
      Alcotest.(check int) (name ^ ": records before the trip") records ((native - 168) / 24);
      Alcotest.check effects_t (name ^ ": tier 2 == tier 1") t1
        (heap_effects ?page_quota ?heap_budget ~tier2:true ());
      for budget = 0 to 200 do
        let run tier2 =
          bounded ~max_steps:budget ~page_bytes:24 ?page_quota ?heap_budget ~tier2 pl
        in
        Alcotest.(check (result string string))
          (Printf.sprintf "%s: budget %d" name budget)
          (run false) (run true)
      done;
      Alcotest.(check (result string string))
        (name ^ ": the sweep reaches the trip")
        (Error expect)
        (bounded ~max_steps:200 ~page_bytes:24 ?page_quota ?heap_budget ~tier2:false pl))
    [
      ("page_quota", Some 9, None, "quota exceeded: pages used=10 limit=9", 8);
      ("heap_budget", None, Some 340, "quota exceeded: heap_bytes used=360 limit=340", 7);
    ]

(* The intrinsics' operands coerce as tier 1's do, last to first. *)
let bad_operand_cases =
  [
    ( "facade.bind of an int",
      [ "i = 5;"; "@facade.bind(i, i);"; "return i;" ],
      "expected a facade, got 5" );
    ( "facade.bind to a double address",
      [ "i = 5;"; "f = 0x1.4p+1;"; "@facade.bind(i, f);"; "return i;" ],
      "expected an int, got 2.5" );
    ( "facade.read of an int",
      [ "i = 3;"; "i = @facade.read(i);"; "return i;" ],
      "expected a facade, got 3" );
  ]

let test_intrinsic_operands () =
  List.iter
    (fun (name, body, expect) ->
      let pl =
        facade_pl ~data:[ "Main" ]
          (main_blocks ~ret:"int" ~locals:[ "i: int"; "f: double" ] [ ("b0", body) ])
      in
      let t1 = run_outcome pl in
      Alcotest.check outcome_t (name ^ ": tier 1") (Error expect) (flat t1);
      Alcotest.check outcome_t (name ^ ": tier 2") (flat t1)
        (flat (run_outcome ~tier:(Vm_runs.facade_tier pl) pl)))
    bad_operand_cases

(* Spawned threads allocate through their own buffered store handle;
   tier 2's allocation templates must take that path too. *)
let test_parallel_alloc () =
  let s = List.find (fun s -> s.Samples.name = "pagerank-par") Samples.all in
  let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
  List.iter
    (fun w ->
      Alcotest.(check (list string))
        (Printf.sprintf "workers=%d: tier 2 == tier 1" w)
        (fingerprint ~workers:w pl)
        (fingerprint ~workers:w ~tier2:true pl))
    [ 2; 4 ]

(* The benchmark's warm facade job hands tier 1 only what tier 2 does
   not compile: its iteration callbacks. Its hot operands are all pinned,
   so the job allocates only a few thousand minor words (5,087 when
   last measured, in the dev and release profiles alike); one hot
   template falling onto the boxed path would allocate thousands more. *)
let test_pagerank_delegated () =
  let iters = 4 in
  let s = Samples.pagerank_sized ~n:2048 ~iters in
  let pl, _ =
    Opt.Driver.optimize_pipeline
      (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
  in
  let tier = I.make_tier (Facade_vm.Link.facade_program pl) in
  ignore (I.run_facade ~tier pl);
  let w0 = Gc.minor_words () in
  let st = (I.run_facade ~tier pl).I.stats in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "warm: nothing compiles" 0 st.Stats.tier2_compiles;
  Alcotest.(check int) "iteration start/end per round" (2 * iters) st.Stats.tier2_delegated;
  Alcotest.(check bool) "at most 6,000 minor words" true (words <= 6000.)

(* ---------- step budgets against the baseline ----------

   Every instruction charges the source instructions it stands for, so
   a budget stops the linked form where it stops the name-based
   baseline. From budget 0 to a run's total steps, tier 1 and tier 2
   must each end with the baseline's result or error text. *)

let budget_outcome run budget =
  match (run budget : I.outcome) with
  | o -> Ok (Exact.exact_result o.I.result)
  | exception I.Vm_error e -> Error e

(* Tier 1 and tier 2 end with [expect budget] at every budget up to
   [upto]. *)
let sweep ~label ~upto ~expect ~tier1 ~tier2 =
  for budget = 0 to upto do
    let e = expect budget in
    let check leg run =
      Alcotest.(check (result string string))
        (Printf.sprintf "%s: %s at budget %d" label leg budget)
        e (budget_outcome run budget)
    in
    check "tier 1" tier1;
    check "tier 2" tier2
  done

(* The baseline counts each instruction before running it, and these
   samples raise no other error, so one unbounded run gives its outcome
   at every budget: the budget error below its total, its result from
   there on. Runs at both sides of that edge confirm it; running the
   baseline at every budget would take minutes. *)
let sweep_against_baseline ~label ~base ~tier1 ~tier2 =
  let full = base I.default_max_steps in
  let total = full.I.stats.Stats.steps in
  let expect budget =
    if budget < total then Error "step budget exceeded"
    else Ok (Exact.exact_result full.I.result)
  in
  List.iter
    (fun budget ->
      Alcotest.(check (result string string))
        (Printf.sprintf "%s: baseline at budget %d" label budget)
        (expect budget) (budget_outcome base budget))
    [ 0; total - 1; total ];
  sweep ~label ~upto:total ~expect ~tier1 ~tier2

let test_budget_sweep_baseline name () =
  let s = List.find (fun s -> s.Samples.name = name) Samples.all in
  let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
  let is_data c =
    Facade_compiler.Classify.is_data_class pl.Facade_compiler.Pipeline.classification c
  in
  let p = s.Samples.program in
  let rp = Facade_vm.Link.object_program ~is_data p in
  sweep_against_baseline ~label:(name ^ "/object")
    ~base:(fun max_steps -> Facade_vm.Interp_baseline.run_object ~is_data ~max_steps p)
    ~tier1:(fun max_steps -> I.run_object_linked ~max_steps rp)
    ~tier2:(fun max_steps -> I.run_object_linked ~max_steps ~tier:(I.make_tier rp) rp);
  sweep_against_baseline ~label:(name ^ "/facade")
    ~base:(fun max_steps -> Facade_vm.Interp_baseline.run_facade ~max_steps pl)
    ~tier1:(fun max_steps -> I.run_facade ~max_steps pl)
    ~tier2:(fun max_steps -> I.run_facade ~max_steps ~tier:(Vm_runs.facade_tier pl) pl)

(* Every budget up to [upto], against the baseline run at each; the
   last one must already reach the run's fault [expect]. *)
let sweep_each ~label ~upto ~expect ~base ~tier1 ~tier2 =
  Alcotest.(check (result string string)) (label ^ ": the sweep reaches the fault")
    (Error expect) (budget_outcome base upto);
  sweep ~label ~upto ~expect:(budget_outcome base) ~tier1 ~tier2

(* A fused form whose second source instruction faults: one budget
   short of that instruction, the baseline stops with the budget error,
   so tier 1 must charge the second step before running the second
   half, and tier 2's deopt must land there too. *)
let fused_fault_cases =
  let module R = Facade_vm.Resolved in
  let cell = [ "c = new Cell;"; "special c.Cell.<init>();" ] in
  [
    ( "Rget_bin",
      main_only ~locals:(int_locals @ [ "c: Cell" ])
        (cell @ [ "k = 0;"; "x = c.v;"; "x = x / k;"; "return x;" ]),
      (function R.Rget_bin (_, _, _, _, Ir.Div, _, _) -> true | _ -> false),
      "ArithmeticException: / by zero" );
    ( "Rrmw",
      main_only ~locals:(int_locals @ [ "c: Cell" ])
        (cell @ [ "k = 0;"; "x = c.v;"; "x = x / k;"; "c.v = x;"; "return k;" ]),
      (function R.Rrmw (_, _, _, Ir.Div, _, _) -> true | _ -> false),
      "ArithmeticException: / by zero" );
    ( "Raget_get",
      main_only ~locals:(int_locals @ [ "c: Cell"; "cs: Cell[]" ])
        [ "n = 4;"; "cs = new Cell[n];"; "k = 0;"; "c = cs[k];"; "x = c.v;"; "return x;" ],
      (function R.Raget_get _ -> true | _ -> false),
      "NullPointerException: null page reference" );
    ( "Raget_aget",
      main_only
        ~locals:(int_locals @ [ "idx: int[]"; "vals: int[]" ])
        [
          "n = 4;"; "idx = new int[n];"; "vals = new int[n];"; "k = 0;"; "big = 4;";
          "idx[k] = big;"; "j = idx[k];"; "x = vals[j];"; "return x;";
        ],
      (function R.Raget_aget _ -> true | _ -> false),
      "ArrayIndexOutOfBoundsException: 4" );
  ]

let test_fused_fault_budgets () =
  List.iter
    (fun (name, text, pred, expect) ->
      let pl = facade_pl ~data:[ "Cell"; "Main" ] text in
      Alcotest.(check bool) (name ^ ": fused in the linked entry") true (entry_has pl pred);
      let base max_steps = Facade_vm.Interp_baseline.run_facade ~max_steps pl in
      sweep_each ~label:name ~upto:40 ~expect ~base
        ~tier1:(fun max_steps -> I.run_facade ~max_steps pl)
        ~tier2:(fun max_steps -> I.run_facade ~max_steps ~tier:(Vm_runs.facade_tier pl) pl))
    fused_fault_cases

(* A loop block of [segment; call; segment] ending in a fused compare:
   tier 2 charges the compare in the trailing segment, after the call.
   Charged any earlier, the callee would run one step ahead of the
   baseline, and the budget that reaches its division by zero on the
   fourth trip would stop it one step early. *)
let call_in_loop_program =
  "class Main {\n\
  \  static method g(x: int) : int {\n\
  \    local z: int;\n\
  \    local r: int;\n\
  \    local six: int;\n\
  \    local hundred: int;\n\
  \    b0:\n\
  \      six = 6;\n\
  \      hundred = 100;\n\
  \      z = x - six;\n\
  \      r = hundred / z;\n\
  \      return r;\n\
  \  }\n\
  \  static method main() : int {\n\
  \    local i: int;\n\
  \    local n: int;\n\
  \    local one: int;\n\
  \    local s: int;\n\
  \    local t: int;\n\
  \    local c: int;\n\
  \    b0:\n\
  \      i = 0;\n\
  \      n = 5;\n\
  \      one = 1;\n\
  \      s = 0;\n\
  \      goto b1;\n\
  \    b1:\n\
  \      s = s + i;\n\
  \      t = static Main.g(s);\n\
  \      i = i + one;\n\
  \      c = i < n;\n\
  \      if c goto b1 else b2;\n\
  \    b2:\n\
  \      return t;\n\
  \  }\n\
   }\n\n\
   entry Main.main\n"

let test_call_in_loop_budgets () =
  let module R = Facade_vm.Resolved in
  let p = Text_format.parse call_in_loop_program in
  let rp = Facade_vm.Link.object_program p in
  let loop = rp.R.methods.(method_index rp "Main" "main").R.m_body.(1) in
  Alcotest.(check bool) "segment, call, segment, fused compare" true
    (match loop.R.code, loop.R.term with
    | [| R.Rbinop _; R.Rcall _; R.Rbinop_imm _ |], R.Rcmp_branch _ -> true
    | _ -> false);
  let base max_steps = Facade_vm.Interp_baseline.run_object ~max_steps p in
  sweep_each ~label:"call in loop" ~upto:60 ~expect:"ArithmeticException: / by zero" ~base
    ~tier1:(fun max_steps -> I.run_object_linked ~max_steps rp)
    ~tier2:(fun max_steps -> I.run_object_linked ~max_steps ~tier:(I.make_tier rp) rp)

(* ---------- pinned templates at their faults ----------

   A template whose every operand is pinned runs a closure built for
   its width and operator, with no test of where an operand lives (the
   int [Rget_bin] fixes only its width and matches its operator at run
   time; an int [Rrmw], like the one below, runs the boxed form even
   with every operand pinned). Each program below leaves every slot of its entry pinned (0 boxed in
   [tier2 slots]) and reaches one such template with an operand that
   faults: a null page reference, an index of -1 or of the array's
   length, an int division by zero. Every slot the entry's code touches
   is pinned: [tier2 slots] counts them all as int or float (the rest
   of the frame is slots fusion left unused). [prog v] puts [v] where
   the fault comes from; [safe] gives the same program, with the same slot kinds,
   that runs to its end. Baseline, tier 1 and tier 2 agree on the safe
   run's result, output and steps, and at every step budget up to the
   fault on the outcome and its error text. *)

(* The slots the linked entry's instructions and terminators name. *)
let touched_slots pl =
  let module Q = Facade_vm.Quicken in
  let rp = Facade_vm.Link.facade_program pl in
  let m = rp.Facade_vm.Resolved.methods.(rp.Facade_vm.Resolved.entry) in
  let seen = Hashtbl.create 16 in
  let add s = Hashtbl.replace seen s () in
  Array.iter
    (fun (b : Facade_vm.Resolved.block) ->
      Array.iter
        (fun ins ->
          Option.iter add (Q.rdef ins);
          Q.iter_uses add ins)
        b.Facade_vm.Resolved.code;
      Q.iter_term_uses add b.Facade_vm.Resolved.term)
    m.Facade_vm.Resolved.m_body;
  Hashtbl.length seen

let cell_all =
  "class Cell {\n\
  \  field int v;\n\
  \  field double w;\n\
  \  method <init>() {\n\
  \    b0:\n\
  \      return;\n\
  \  }\n\
   }\n\n"

(* [cs] holds one cell, at index 0; [c = cs[k]] at [k = v] reads it,
   or a null reference for [v = 1]. *)
let cell_prog ~locals body v =
  main_blocks ~classes:cell_all ~ret:"int"
    ~locals:([ "n: int"; "k: int"; "x: int"; "y: int"; "c: Cell"; "cs: Cell[]" ] @ locals)
    [
      ( "b0",
        [ "n = 2;"; "cs = new Cell[n];"; "k = 0;"; "c = new Cell;"; "cs[k] = c;";
          "x = 6;"; "c.v = x;"; "k = " ^ v ^ ";"; "c = cs[k];" ]
        @ body );
    ]

let arr_prog body =
  main_blocks ~ret:"int"
    ~locals:[ "n: int"; "k: int"; "j: int"; "x: int"; "idx: int[]"; "vals: int[]" ]
    [
      ( "b0",
        [ "n = 4;"; "idx = new int[n];"; "vals = new int[n];"; "x = 3;"; "k = 1;"; "vals[k] = x;" ]
        @ body );
    ]

let pinned_fault_cases =
  let module R = Facade_vm.Resolved in
  let null = "NullPointerException: null page reference" in
  let oob v = "ArrayIndexOutOfBoundsException: " ^ v in
  let is_int_op op = function R.Rbinop (_, o, _, _) -> o = op | _ -> false in
  let cells = [ "Cell"; "Main" ] in
  [
    ( "Rget", cells,
      cell_prog ~locals:[] [ "x = c.v;"; "y = c.v;"; "x = x + y;"; "return x;" ],
      "0", [ ("1", null) ], function R.Rget (_, R.A_i32, _, _) -> true | _ -> false );
    ( "Rset", cells,
      cell_prog ~locals:[] [ "c.v = n;"; "x = c.v;"; "return x;" ],
      "0", [ ("1", null) ], function R.Rset (R.A_i32, _, _, _) -> true | _ -> false );
    ( "Rget_bin f64", cells,
      cell_prog ~locals:[ "f: double"; "g: double" ]
        [ "g = 0x1.8p+1;"; "f = c.w;"; "f = f * g;"; "c.w = g;"; "x = c.v;"; "return x;" ],
      "0", [ ("1", null) ],
      function R.Rget_bin (_, R.A_f64, _, _, Ir.Mul, _, _) -> true | _ -> false );
    ( "Rrmw f64", cells,
      cell_prog ~locals:[ "f: double"; "g: double" ]
        [ "g = 0x1.8p+1;"; "f = c.w;"; "f = f + g;"; "c.w = f;"; "x = c.v;"; "return x;" ],
      "0", [ ("1", null) ],
      function R.Rrmw (R.A_f64, _, _, Ir.Add, _, _) -> true | _ -> false );
    ( "Raget_get", cells,
      cell_prog ~locals:[] [ "x = c.v;"; "return x;" ],
      "0", [ ("1", null) ], function R.Raget_get _ -> true | _ -> false );
    ( "Rget_bin int Div", cells,
      (fun v ->
        cell_prog ~locals:[ "z: int" ]
          [ "z = " ^ v ^ ";"; "x = c.v;"; "x = x / z;"; "y = c.v;"; "x = x + y;"; "return x;" ]
          "0"),
      "2", [ ("0", "ArithmeticException: / by zero") ],
      function R.Rget_bin (_, R.A_i32, _, _, Ir.Div, _, _) -> true | _ -> false );
    ( "Rrmw int Rem", cells,
      (fun v ->
        cell_prog ~locals:[ "z: int" ]
          [ "z = " ^ v ^ ";"; "x = c.v;"; "x = x % z;"; "c.v = x;"; "x = c.v;"; "return x;" ]
          "0"),
      "4", [ ("0", "ArithmeticException: % by zero") ],
      function R.Rrmw (R.A_i32, _, _, Ir.Rem, _, _) -> true | _ -> false );
    ( "Raget", [ "Main" ],
      (fun v -> arr_prog [ "k = " ^ v ^ ";"; "x = vals[k];"; "return x;" ]),
      "1", [ ("-1", oob "-1"); ("4", oob "4") ], function R.Raget _ -> true | _ -> false );
    ( "Raset", [ "Main" ],
      (fun v -> arr_prog [ "k = " ^ v ^ ";"; "vals[k] = n;"; "x = n + k;"; "return x;" ]),
      "1", [ ("-1", oob "-1"); ("4", oob "4") ], function R.Raset _ -> true | _ -> false );
    ( "Raget_aget outer index", [ "Main" ],
      (fun v -> arr_prog [ "k = " ^ v ^ ";"; "j = idx[k];"; "x = vals[j];"; "return x;" ]),
      "1", [ ("-1", oob "-1"); ("4", oob "4") ], function R.Raget_aget _ -> true | _ -> false );
    ( "Raget_aget inner index", [ "Main" ],
      (fun v ->
        arr_prog [ "j = " ^ v ^ ";"; "k = 2;"; "idx[k] = j;"; "j = idx[k];"; "x = vals[j];"; "return x;" ]),
      "1", [ ("-1", oob "-1"); ("4", oob "4") ], function R.Raget_aget _ -> true | _ -> false );
    ( "int Div and Rem", [ "Main" ],
      (fun v -> arr_prog [ "k = " ^ v ^ ";"; "j = n / k;"; "x = n % k;"; "x = x + j;"; "return x;" ]),
      "3", [ ("0", "ArithmeticException: / by zero") ], is_int_op Ir.Rem );
    ( "float divided by an int", [ "Main" ],
      (fun v ->
        main_blocks ~ret:"double" ~locals:[ "f: double"; "g: double"; "k: int"; "t: int" ]
          [
            ( "b0",
              [ "f = 0x1p+0;"; "t = 3;"; "k = " ^ v ^ ";"; "g = f / t;"; "f = g / k;"; "return f;" ] );
          ]),
      "3", [], function R.Rbinop_imm (_, Ir.Div, _, _, _) -> true | _ -> false );
  ]

let test_pinned_faults () =
  let base_outcome pl =
    match Facade_vm.Interp_baseline.run_facade pl with
    | o -> Ok (Exact.exact_result o.I.result, Stats.output_lines o.I.stats, o.I.stats.Stats.steps)
    | exception I.Vm_error e -> Error e
  in
  List.iter
    (fun (name, data, prog, safe, faults, pred) ->
      let pl = facade_pl ~data (prog safe) in
      Alcotest.(check bool) (name ^ ": in the linked entry") true (entry_has pl pred);
      let t1 = run_outcome pl in
      Alcotest.(check bool) (name ^ ": the safe twin runs") true (Result.is_ok t1);
      Alcotest.check outcome_t (name ^ ": baseline == tier 1") (flat (base_outcome pl)) (flat t1);
      Alcotest.check outcome_t (name ^ ": tier 2 == tier 1") (flat t1)
        (flat (run_outcome ~tier:(Vm_runs.facade_tier pl) pl));
      let st = (I.run_facade ~tier:(Vm_runs.facade_tier pl) pl).I.stats in
      Alcotest.(check int) (name ^ ": every touched slot pinned") (touched_slots pl)
        (st.Stats.tier2_int_slots + st.Stats.tier2_float_slots);
      List.iter
        (fun (v, expect) ->
          let pl = facade_pl ~data (prog v) in
          let base max_steps = Facade_vm.Interp_baseline.run_facade ~max_steps pl in
          sweep_each ~label:(name ^ " at " ^ v) ~upto:60 ~expect ~base
            ~tier1:(fun max_steps -> I.run_facade ~max_steps pl)
            ~tier2:(fun max_steps -> I.run_facade ~max_steps ~tier:(Vm_runs.facade_tier pl) pl))
        faults)
    pinned_fault_cases

let () =
  Alcotest.run "tier"
    [
      ( "differential",
        [
          Alcotest.test_case "facade: tier2 == tier1, all samples x workers" `Quick
            test_facade_differential;
          Alcotest.test_case "object: tier2 == tier1, all samples" `Quick
            test_object_differential;
          Alcotest.test_case "shared tier stays warm across runs" `Quick
            test_shared_tier;
          Alcotest.test_case "shared facade tier: zero compiles on run 2" `Quick
            test_shared_facade_tier;
        ] );
      ( "deopt",
        [
          Alcotest.test_case "first call: loop compiles, deopts inside" `Quick
            test_first_call_loop;
          Alcotest.test_case "first call: mono misses delegate, cold and warm" `Quick
            test_first_call_mono_delegates;
          Alcotest.test_case "polymorphic receiver" `Quick test_polymorphic_deopt;
          Alcotest.test_case "monitor region retires the method" `Quick
            test_monitor_deopt_and_retire;
          Alcotest.test_case "step budget" `Quick test_budget_deopt;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "error paths raise tier 1's errors" `Quick test_kernel_errors;
          Alcotest.test_case "mixed int/float operands" `Quick test_mixed_operands;
          Alcotest.test_case "re-entrant activations, 4 workers, warm tier" `Quick
            test_reentrant;
        ] );
      ( "typed-slots",
        [
          Alcotest.test_case "unboxed templates keep tier 1's traps" `Quick test_typed_traps;
          Alcotest.test_case "monitor deopt writes pinned slots back" `Quick
            test_monitor_deopt_pinned;
          Alcotest.test_case "budget sweep over a pinned-slot loop" `Quick
            test_pinned_budget_sweep;
          Alcotest.test_case "pinned leaf, inlined and retired" `Quick test_leaf_pinned;
          Alcotest.test_case "pagerank main's pinned slots" `Quick test_pagerank_slots;
          Alcotest.test_case "pinned templates at their faults" `Quick test_pinned_faults;
        ] );
      ( "swapped-ops",
        [
          Alcotest.test_case "errors name operands in source order" `Quick
            test_swapped_operands;
        ] );
      ( "intrinsics",
        [
          Alcotest.test_case "allocating loop: native, budget sweep" `Quick test_alloc_native;
          Alcotest.test_case "page and heap quota trips" `Quick test_alloc_quotas;
          Alcotest.test_case "bad facade.bind/facade.read operands" `Quick
            test_intrinsic_operands;
          Alcotest.test_case "pagerank-par, 2 and 4 workers" `Quick test_parallel_alloc;
          Alcotest.test_case "warm pagerank job delegates" `Quick test_pagerank_delegated;
        ] );
      ( "budget-sweep",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ ": every budget, baseline = tier 1 = tier 2") `Quick
              (test_budget_sweep_baseline name))
          [ "pagerank"; "prim_arrays"; "iteration" ]
        @ [
            Alcotest.test_case "fused forms faulting in their second half" `Quick
              test_fused_fault_budgets;
            Alcotest.test_case "a call between a loop's segments" `Quick
              test_call_in_loop_budgets;
          ] );
    ]
