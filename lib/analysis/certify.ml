module Fc = Facade_compiler
module Rn = Fc.Rt_names
open Jir

(* The object-boundedness certifier (paper §2.3's O(t·n + p) claim, made
   checkable). The certificate re-derives the per-type facade-pool bounds
   from the *generated* program — the maximal [pool.param] slot index
   actually emitted, plus the "every data type gets slot 0" floor — and is
   cross-checked two ways:

   - statically against {!Fc.Bounds.as_array}, the bound the compiler
     sized the pools with (a mismatch means transform emitted an index
     the pools cannot serve, or reserved space no call site needs);
   - at runtime against [Exec_stats.max_pool_index] (the deepest slot any
     thread touched) and the VM's total facade count, which must be an
     exact multiple of the certified per-pool population.

   [receivers] counts one receiver facade per assigned type id — the
   population {!Pagestore.Facade_pool.create} actually builds per thread,
   a superset of the paper's "one per data class" (array type ids carry a
   receiver slot too even though array accesses never resolve one). *)

type t = {
  params : int array;        (* certified parameter-pool bound, by type id *)
  receivers : int;           (* receiver facades per pool instance *)
  per_thread : int;          (* receivers + Σ params: facades per thread *)
  paper_per_thread : int;    (* the paper's t·n count: data receivers + Σ *)
}

let of_pipeline (pl : Fc.Pipeline.t) =
  let layout = pl.Fc.Pipeline.layout in
  let n = Fc.Layout.num_types layout in
  let params = Array.make n 0 in
  (* returns and allocations bind through slot 0: every data class with a
     type id is served even when no call site passes it as a parameter *)
  List.iter
    (fun c ->
      match Fc.Layout.type_id layout c with
      | id -> params.(id) <- 1
      | exception Not_found -> ())
    (Fc.Classify.data_classes pl.Fc.Pipeline.classification);
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (m : Ir.meth) ->
          Ir.iter_instrs
            (function
              | Ir.Intrinsic (Some _, name, [ Ir.Imm (Ir.Cint tid); Ir.Imm (Ir.Cint idx) ])
                when String.equal name Rn.pool_param ->
                  if tid >= 0 && tid < n then
                    params.(tid) <- max params.(tid) (idx + 1)
              | _ -> ())
            m)
        c.Ir.cmethods)
    (Program.classes pl.Fc.Pipeline.transformed);
  {
    params;
    receivers = n;
    per_thread = n + Array.fold_left ( + ) 0 params;
    paper_per_thread = Fc.Bounds.total_facades_per_thread pl.Fc.Pipeline.bounds;
  }

let static_errors (pl : Fc.Pipeline.t) t =
  let compiled = Fc.Bounds.as_array pl.Fc.Pipeline.bounds in
  let layout = pl.Fc.Pipeline.layout in
  let errs = ref [] in
  if Array.length compiled <> Array.length t.params then
    errs :=
      Printf.sprintf "certificate covers %d type ids, compiler bounds cover %d"
        (Array.length t.params) (Array.length compiled)
      :: !errs
  else
    Array.iteri
      (fun id b ->
        if t.params.(id) <> b then
          errs :=
            Printf.sprintf
              "type %s (id %d): certified parameter bound %d, compiler bound %d"
              (Fc.Layout.name_of_type_id layout id)
              id t.params.(id) b
            :: !errs)
      compiled;
  List.rev !errs

let validate_runtime t ~max_pool_index ~facades_allocated =
  let errs = ref [] in
  List.iter
    (fun (tid, peak) ->
      let bound = if tid >= 0 && tid < Array.length t.params then t.params.(tid) else 0 in
      if peak >= bound then
        errs :=
          Printf.sprintf
            "pool for type id %d reached slot %d, certified bound is %d" tid peak
            bound
          :: !errs)
    (List.sort compare max_pool_index);
  if t.per_thread = 0 then begin
    if facades_allocated <> 0 then
      errs :=
        Printf.sprintf "certificate allows no facades but the VM allocated %d"
          facades_allocated
        :: !errs
  end
  else if facades_allocated mod t.per_thread <> 0 then
    errs :=
      Printf.sprintf
        "VM allocated %d facades, not a multiple of the certified %d per thread"
        facades_allocated t.per_thread
      :: !errs;
  match List.rev !errs with [] -> Ok () | es -> Error es
