(* Quickening, the last step of linking: {!Link} hands every lowered
   method body to [quicken_meth], which applies the one-for-one rewrites
   of {!Resolved} —

   - offset-specialized page accessors ([Rget]/[Rset]/[Raget]/[Raset])
     for rt.get_*/set_*/aget_*/aset_* intrinsics whose offset or element
     width is a link-time constant (the facade transform always emits
     them that way);
   - promotion of once-assigned entry-block constant slots into [Oconst]
     operands of binops and page accessors, each held on the side the
     source wrote it.

   (The linker itself emits virtual calls and field accesses with their
   inline caches.) Every rewrite replaces one instruction with one, so a
   linked block keeps its jir block's length and terminator, a tier-1 pc
   is a source instruction index, and every instruction charges one
   step. Superinstructions are tier 2's: {!Fuse} finds them when a
   method compiles. There is one link form, this one; the [?quicken]
   argument left on {!Link} and {!Interp.run_facade} is ignored, and
   stays only because the benchmark harness under [perfbench/] passes
   it. *)

module R = Resolved

let quicken_meth (m : R.meth) =
  if Array.length m.R.m_body = 0 then m
  else begin
    let nslots = Array.length m.R.m_frame in
    let nparams = m.R.m_nparams + if m.R.m_has_this then 1 else 0 in
    (* Constant-slot promotion is sound when the entry block dominates
       everything (it has no predecessors), the slot is defined exactly
       once in the whole body, and that definition is an entry-block
       Rconst: every use outside the entry block — and after the Rconst
       inside it — then sees the constant. *)
    let entry_is_target =
      Array.exists
        (fun (b : R.block) ->
          match b.R.term with
          | R.Rjump 0 -> true
          | R.Rbranch (_, t, e) -> t = 0 || e = 0
          | R.Rret_void | R.Rret _ | R.Rjump _ -> false)
        m.R.m_body
    in
    let const_val = Hashtbl.create 8 in
    let candidate = function R.Rconst (d, _) -> d >= nparams | _ -> false in
    if (not entry_is_target) && Array.exists candidate m.R.m_body.(0).R.code then begin
      let defs = Array.make nslots 0 in
      Array.iter
        (fun (b : R.block) ->
          Array.iter
            (fun i -> match R.def i with Some d -> defs.(d) <- defs.(d) + 1 | None -> ())
            b.R.code)
        m.R.m_body;
      Array.iter
        (function
          | R.Rconst (d, v) when d >= nparams && defs.(d) = 1 -> Hashtbl.replace const_val d v
          | _ -> ())
        m.R.m_body.(0).R.code
    end;
    let promotes = Hashtbl.length const_val > 0 in
    (* Past the entry block every promoted constant is set; inside it,
       each one is from its [Rconst] on. *)
    let entry_active = Hashtbl.create 8 in
    let no_const _ = None in
    let body =
      Array.mapi
        (fun bi (b : R.block) ->
          let cval =
            if not promotes then no_const
            else if bi > 0 then Hashtbl.find_opt const_val
            else Hashtbl.find_opt entry_active
          in
          let promote op =
            match op with
            | R.Oslot s -> ( match cval s with Some v -> R.Oconst v | None -> op)
            | R.Oconst _ -> op
          in
          let code =
            Array.map
              (fun ins ->
                let ins =
                  match ins with
                  | R.Rbinop (d, op, x, y) when promotes -> R.Rbinop (d, op, promote x, promote y)
                  | R.Rintrinsic (Some d, R.I_get a, [| R.Oslot p; R.Oconst (Value.Int off) |]) ->
                      R.Rget (d, a, p, off)
                  | R.Rintrinsic (None, R.I_set a, [| R.Oslot p; R.Oconst (Value.Int off); src |]) ->
                      R.Rset (a, p, off, promote src)
                  | R.Rintrinsic (Some d, R.I_aget a, [| R.Oslot p; R.Oconst (Value.Int eb); idx |])
                    ->
                      R.Raget (d, a, p, eb, promote idx)
                  | R.Rintrinsic
                      (None, R.I_aset a, [| R.Oslot p; R.Oconst (Value.Int eb); idx; src |]) ->
                      R.Raset (a, p, eb, promote idx, promote src)
                  | _ -> ins
                in
                (match ins with
                | R.Rconst (d, v) when bi = 0 && promotes && Hashtbl.mem const_val d ->
                    Hashtbl.replace entry_active d v
                | _ -> ());
                ins)
              b.R.code
          in
          { b with R.code })
        m.R.m_body
    in
    { m with R.m_body = body }
  end

(* Site counts over a linked program, for `facade_cli opt-report`:
   [fused_pairs] counts the windows {!Fuse} fuses when tier 2 compiles
   each method, and [imm_ops] the binops with a constant operand. *)
type counts = {
  ic_virtual_sites : int;
  ic_field_sites : int;
  specialized_accessors : int;
  fused_pairs : int;
  imm_ops : int;
}

let counts (p : R.program) =
  let icv = ref 0 and icf = ref 0 and spec = ref 0 and fused = ref 0 and imm = ref 0 in
  Array.iter
    (fun (m : R.meth) ->
      fused := !fused + Fuse.windows (Fuse.meth m);
      Array.iter
        (fun (b : R.block) ->
          Array.iter
            (function
              | R.Rcall_virtual_ic _ -> incr icv
              | R.Rfield_load_ic _ | R.Rfield_store_ic _ -> incr icf
              | R.Rget _ | R.Rset _ | R.Raget _ | R.Raset _ -> incr spec
              | R.Rbinop (_, _, R.Oconst _, _) | R.Rbinop (_, _, _, R.Oconst _) -> incr imm
              | _ -> ())
            b.R.code)
        m.R.m_body)
    p.R.methods;
  {
    ic_virtual_sites = !icv;
    ic_field_sites = !icf;
    specialized_accessors = !spec;
    fused_pairs = !fused;
    imm_ops = !imm;
  }

(* Inline-cache sites in one method — the per-method denominator the
   CLI's profile report pairs with the Exec_stats hit/miss counters. *)
let ic_sites (m : R.meth) =
  Array.fold_left
    (fun acc (b : R.block) ->
      Array.fold_left
        (fun acc ins ->
          match ins with
          | R.Rcall_virtual_ic _ | R.Rfield_load_ic _ | R.Rfield_store_ic _ -> acc + 1
          | _ -> acc)
        acc b.R.code)
    0 m.R.m_body
