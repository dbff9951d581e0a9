open Jir

(* Class-hierarchy-analysis devirtualization with per-site counting: a
   Virtual call whose receiver hierarchy resolves to exactly one concrete
   target becomes a Special call, so the linker emits a direct Rcall and
   the VM skips vtable dispatch. Sound because the class set is closed —
   see DESIGN §10 for the rt.runThread argument. The rewrite is
   Facade_compiler.Optimize's, over one CHA index built per run; this
   pass adds the per-site count. *)

(* Method names with exactly one (non-static) implementation anywhere in
   the closed program: a virtual call on such a name can only ever reach
   that implementation, whatever the receiver. The tier-2 compiler feeds
   on this — at a compiled call site whose inline cache misses on one of
   these names, the dispatch is delegated instead of deoptimizing the
   whole method, since the miss cannot change the target. *)
let monomorphic_names p =
  let impls = Stbl.create 16 in
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (m : Ir.meth) ->
          if not m.Ir.mstatic then
            Stbl.replace impls m.Ir.mname
              (1 + Option.value ~default:0 (Stbl.find_opt impls m.Ir.mname)))
        c.Ir.cmethods)
    (Program.classes p);
  Stbl.fold (fun n count acc -> if count = 1 then n :: acc else acc) impls []
  |> List.sort String.compare

let pass p =
  let cha = Facade_compiler.Optimize.cha p in
  let count = ref 0 in
  Pass.counted count (fun ~cls:_ -> Facade_compiler.Optimize.devirtualize_meth ~count cha)

let run ?changed p = Pass.run ?changed (pass p) p
