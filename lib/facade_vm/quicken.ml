(* Quickening, the last step of linking: {!Link} hands every lowered
   method body to [quicken_meth], which rewrites it into the quickened
   opcodes of {!Resolved} —

   - offset-specialized page accessors ([Rget]/[Rset]/[Raget]/[Raset])
     for rt.get_*/set_*/aget_*/aset_* intrinsics whose offset or element
     width is a link-time constant (the facade transform always emits
     them that way);
   - promotion of once-assigned entry-block constant slots into
     immediates ([Rbinop_imm], [Oconst] operands);
   - fused superinstructions for the hot pairs the instruction-mix
     counters surface: mul+add ([Rmul_add], array indexing),
     getfield+arith ([Rget_bin]) and compare+branch ([Rcmp_branch], when
     the condition slot is read nowhere else);
   - jump threading through empty blocks.

   (The linker itself emits virtual calls and field accesses with their
   inline caches.) There is one link form, this one; the [?quicken]
   argument left on {!Link} and {!Interp.run_facade} is ignored, and
   stays only because the benchmark harness under [perfbench/] passes
   it. Every
   form charges the steps of the source instructions it replaced
   ({!Resolved.weight}, and one for a fused compare), so step counts equal
   {!Interp_baseline}'s. Rewrites never reorder effects — fused pairs
   evaluate their operands in the original order, so faults (null page,
   bad operands, bounds) fire at the same program point with the same
   message. Where a commutative op ends up holding its operands the
   other way round (a constant moved to the right, a page read fused
   from either side), the instruction carries a [swapped] flag and its
   error path re-runs the op in source order ({!Vm_state.arith_src}). *)

open Jir
module R = Resolved

let rdef = function
  | R.Rconst (d, _)
  | R.Rmove (d, _)
  | R.Rbinop (d, _, _, _)
  | R.Rneg (d, _)
  | R.Rnot (d, _)
  | R.Rnew (d, _)
  | R.Rnew_array (d, _, _)
  | R.Rfield_load_ic (d, _, _, _)
  | R.Rstatic_load (d, _)
  | R.Rarray_load (d, _, _)
  | R.Rarray_length (d, _)
  | R.Rinstance_of (d, _, _)
  | R.Rcast (d, _, _)
  | R.Rbinop_imm (d, _, _, _, _)
  | R.Rmul_add (d, _, _, _)
  | R.Rmul_add_imm (d, _, _, _, _, _)
  | R.Rget (d, _, _, _)
  | R.Raget (d, _, _, _, _)
  | R.Rget_bin (d, _, _, _, _, _, _) ->
      Some d
  | R.Raget_get (d, _, _, _, _, _) | R.Raget_aget (d, _, _, _, _, _, _) -> Some d
  | R.Rcall (ret, _, _, _)
  | R.Rcall_virtual_ic (ret, _, _, _, _)
  | R.Rintrinsic (ret, _, _) ->
      ret
  | R.Rfield_store_ic _ | R.Rstatic_store _ | R.Rarray_store _
  | R.Rmonitor_enter _ | R.Rmonitor_exit _ | R.Riter_start | R.Riter_end
  | R.Rrun_thread _ | R.Rset _ | R.Raset _ | R.Rrmw _ | R.Rerror _ ->
      None

let op_slots = function R.Oslot s -> [ s ] | R.Oconst _ -> []

let ruses = function
  | R.Rconst _ | R.Rnew _ | R.Rstatic_load _ | R.Riter_start | R.Riter_end
  | R.Rerror _ ->
      []
  | R.Rmove (_, s)
  | R.Rneg (_, s)
  | R.Rnot (_, s)
  | R.Rnew_array (_, _, s)
  | R.Rfield_load_ic (_, s, _, _)
  | R.Rstatic_store (_, s)
  | R.Rarray_length (_, s)
  | R.Rinstance_of (_, s, _)
  | R.Rcast (_, s, _)
  | R.Rmonitor_enter s
  | R.Rmonitor_exit s
  | R.Rbinop_imm (_, _, s, _, _)
  | R.Rget (_, _, s, _) ->
      [ s ]
  | R.Rbinop (_, _, x, y) | R.Rfield_store_ic (x, _, y, _) -> [ x; y ]
  | R.Rarray_load (_, a, i) -> [ a; i ]
  | R.Rarray_store (a, i, s) -> [ a; i; s ]
  | R.Rmul_add (_, x, y, z) -> [ x; y; z ]
  | R.Rmul_add_imm (_, x, _, z, _, _) -> [ x; z ]
  | R.Rcall (_, _, recv, args) ->
      Option.to_list recv @ Array.to_list args
  | R.Rcall_virtual_ic (_, _, r, args, _) -> r :: Array.to_list args
  | R.Rrun_thread op -> op_slots op
  | R.Rintrinsic (_, _, ops) -> Array.to_list ops |> List.concat_map op_slots
  | R.Rset (_, p, _, src) -> p :: op_slots src
  | R.Raget (_, _, p, _, idx) -> p :: op_slots idx
  | R.Raset (_, p, _, idx, src) -> p :: (op_slots idx @ op_slots src)
  | R.Rget_bin (_, _, p, _, _, s, _) -> p :: op_slots s
  | R.Rrmw (_, p, _, _, s, _) -> p :: op_slots s
  | R.Raget_get (_, arr, _, idx, _, _) -> arr :: op_slots idx
  | R.Raget_aget (_, _, arr1, _, idx, arr2, _) -> arr1 :: arr2 :: op_slots idx

let term_uses = function
  | R.Rret s -> [ s ]
  | R.Rbranch (s, _, _) -> [ s ]
  | R.Rcmp_branch (_, x, y, _, _) -> op_slots x @ op_slots y
  | R.Rret_void | R.Rjump _ -> []

(* Operand swap is only safe where [Interp.arith] is symmetric. *)
let commutative = function
  | Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> true
  | _ -> false

let succs = function
  | R.Rret_void | R.Rret _ -> []
  | R.Rjump t -> [ t ]
  | R.Rbranch (_, t, e) | R.Rcmp_branch (_, _, _, t, e) -> [ t; e ]

(* Backward liveness over slots, for the compare+branch fusion: the
   condition slot's write may be dropped only where the slot is dead at
   the block exit. Slot reuse across unrelated temporaries makes any
   whole-body read count useless here. *)
let live_out_sets nslots (body : R.block array) =
  let nb = Array.length body in
  let live_in = Array.init nb (fun _ -> Array.make nslots false) in
  let live_out = Array.init nb (fun _ -> Array.make nslots false) in
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = nb - 1 downto 0 do
      let b = body.(bi) in
      let out = live_out.(bi) in
      List.iter
        (fun s ->
          let si = live_in.(s) in
          for k = 0 to nslots - 1 do
            if si.(k) && not out.(k) then begin
              out.(k) <- true;
              changed := true
            end
          done)
        (succs b.R.term);
      let cur = Array.copy out in
      List.iter (fun s -> cur.(s) <- true) (term_uses b.R.term);
      for i = Array.length b.R.code - 1 downto 0 do
        (match rdef b.R.code.(i) with Some d -> cur.(d) <- false | None -> ());
        List.iter (fun s -> cur.(s) <- true) (ruses b.R.code.(i))
      done;
      let li = live_in.(bi) in
      for k = 0 to nslots - 1 do
        if cur.(k) && not li.(k) then begin
          li.(k) <- true;
          changed := true
        end
      done
    done
  done;
  live_out

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
          | R.Rbranch (_, t, e) | R.Rcmp_branch (_, _, _, t, e) -> t = 0 || e = 0
          | R.Rret_void | R.Rret _ | R.Rjump _ -> false)
        m.R.m_body
    in
    let defs = Array.make nslots 0 in
    Array.iter
      (fun (b : R.block) ->
        Array.iter
          (fun i -> match rdef i with Some d -> defs.(d) <- defs.(d) + 1 | None -> ())
          b.R.code)
      m.R.m_body;
    let const_val = Hashtbl.create 8 in
    if not entry_is_target then
      Array.iter
        (function
          | R.Rconst (d, v) when d >= nparams && defs.(d) = 1 ->
              Hashtbl.replace const_val d v
          | _ -> ())
        m.R.m_body.(0).R.code;
    (* Pass 1: immediates and specialized accessors. *)
    let body =
      Array.mapi
        (fun bi (b : R.block) ->
          let active = Hashtbl.create 8 in
          if bi > 0 then Hashtbl.iter (Hashtbl.replace active) const_val;
          let cval s = Hashtbl.find_opt active s in
          let promote op =
            match op with
            | R.Oslot s -> (
                match cval s with Some v -> R.Oconst v | None -> op)
            | R.Oconst _ -> op
          in
          let code =
            Array.map
              (fun ins ->
                let ins =
                  match ins with
                  | R.Rbinop (d, op, x, y) -> (
                      match cval x, cval y with
                      | _, Some v -> R.Rbinop_imm (d, op, x, v, false)
                      | Some v, None when commutative op -> R.Rbinop_imm (d, op, y, v, true)
                      | _ -> ins)
                  | R.Rintrinsic
                      (Some d, R.I_get a, [| R.Oslot p; R.Oconst (Value.Int off) |])
                    ->
                      R.Rget (d, a, p, off)
                  | R.Rintrinsic
                      (None, R.I_set a, [| R.Oslot p; R.Oconst (Value.Int off); src |])
                    ->
                      R.Rset (a, p, off, promote src)
                  | R.Rintrinsic
                      (Some d, R.I_aget a, [| R.Oslot p; R.Oconst (Value.Int eb); idx |])
                    ->
                      R.Raget (d, a, p, eb, promote idx)
                  | R.Rintrinsic
                      ( None,
                        R.I_aset a,
                        [| R.Oslot p; R.Oconst (Value.Int eb); idx; src |] ) ->
                      R.Raset (a, p, eb, promote idx, promote src)
                  | _ -> ins
                in
                (match ins with
                | R.Rconst (d, v) when bi = 0 && Hashtbl.mem const_val d ->
                    Hashtbl.replace active d v
                | _ -> ());
                ins)
              b.R.code
          in
          { b with R.code })
        m.R.m_body
    in
    (* Pass 2: fuse adjacent pairs. The first instruction's destination is
       overwritten by the second, so the intermediate value is
       unobservable; operand evaluation order is preserved. *)
    let body =
      Array.map
        (fun (b : R.block) ->
          let rec fuse = function
            | R.Rbinop (d, Ir.Mul, x, y) :: R.Rbinop (d2, Ir.Add, a2, b2) :: rest
              when d2 = d && a2 = d && b2 <> d ->
                R.Rmul_add (d, x, y, b2) :: fuse rest
            | R.Rbinop_imm (d, Ir.Mul, x, v, sw) :: R.Rbinop (d2, Ir.Add, a2, b2) :: rest
              when d2 = d && a2 = d && b2 <> d ->
                R.Rmul_add_imm (d, x, v, b2, sw, false) :: fuse rest
            | R.Rbinop_imm (d, Ir.Mul, x, v, sw) :: R.Rbinop (d2, Ir.Add, a2, b2) :: rest
              when d2 = d && b2 = d && a2 <> d ->
                R.Rmul_add_imm (d, x, v, a2, sw, true) :: fuse rest
            | R.Rget (d, acc, p, off) :: R.Rbinop (d2, op, a2, b2) :: rest
              when d2 = d && a2 = d && b2 <> d ->
                R.Rget_bin (d, acc, p, off, op, R.Oslot b2, false) :: fuse rest
            | R.Rget (d, acc, p, off) :: R.Rbinop_imm (d2, op, x2, v, sw) :: rest
              when d2 = d && x2 = d ->
                R.Rget_bin (d, acc, p, off, op, R.Oconst v, sw) :: fuse rest
            | i :: rest -> i :: fuse rest
            | [] -> []
          in
          { b with R.code = Array.of_list (fuse (Array.to_list b.R.code)) })
        body
    in
    (* Pass 3: compare+branch fusion when the condition slot is dead at
       the block exit — the fused branch reads the compare's operands
       directly (their values are unchanged between the two points), and
       the dead write is dropped. *)
    let live_out = live_out_sets nslots body in
    let promote_g op =
      match op with
      | R.Oslot s -> (
          match Hashtbl.find_opt const_val s with
          | Some v -> R.Oconst v
          | None -> op)
      | R.Oconst _ -> op
    in
    let body =
      Array.mapi
        (fun bi (b : R.block) ->
          let n = Array.length b.R.code in
          match (if n > 0 then Some b.R.code.(n - 1) else None), b.R.term with
          | Some (R.Rbinop (c, op, x, y)), R.Rbranch (c', t, e)
            when c' = c && not live_out.(bi).(c) ->
              {
                R.code = Array.sub b.R.code 0 (n - 1);
                term =
                  R.Rcmp_branch (op, promote_g (R.Oslot x), promote_g (R.Oslot y), t, e);
              }
          | Some (R.Rbinop_imm (c, op, x, v, sw)), R.Rbranch (c', t, e)
            when c' = c && not live_out.(bi).(c) ->
              (* both operands may be constants here, so the source order
                 comes back *)
              let x = promote_g (R.Oslot x) and v = R.Oconst v in
              let x, y = if sw then (v, x) else (x, v) in
              { R.code = Array.sub b.R.code 0 (n - 1); term = R.Rcmp_branch (op, x, y, t, e) }
          | _ -> b)
        body
    in
    (* Pass 4: liveness-based pair fusion over dead intermediates —
       get_bin+set on the same page/offset becomes a read-modify-write,
       aget_ref+get becomes a double indirection. Liveness is recomputed
       per instruction (backward within each block from the block's
       live-out) because the intermediate slot is usually a reused
       temporary. *)
    let live_out = live_out_sets nslots body in
    let body =
      Array.mapi
        (fun bi (b : R.block) ->
          let code = b.R.code in
          let n = Array.length code in
          if n < 2 then b
          else begin
            (* live_after.(i) = slots live just after instruction i *)
            let live_after = Array.make n [||] in
            let cur = Array.copy live_out.(bi) in
            List.iter (fun s -> cur.(s) <- true) (term_uses b.R.term);
            for i = n - 1 downto 0 do
              live_after.(i) <- Array.copy cur;
              (match rdef code.(i) with Some d -> cur.(d) <- false | None -> ());
              List.iter (fun s -> cur.(s) <- true) (ruses code.(i))
            done;
            let rec fuse i acc =
              if i >= n then List.rev acc
              else if i + 1 >= n then fuse (i + 1) (code.(i) :: acc)
              else
                match code.(i), code.(i + 1) with
                (* d = page[off] op s; page[off] = d; d dead after. The
                   page slot must differ from d, else the store would
                   have addressed the freshly computed value. *)
                | ( R.Rget_bin (d, a, p, off, op, s, sw),
                    R.Rset (a2, p2, off2, R.Oslot sd) )
                  when a2 = a && p2 = p && off2 = off && sd = d && p <> d
                       && not live_after.(i + 1).(d) ->
                    fuse (i + 2) (R.Rrmw (a, p, off, op, s, sw) :: acc)
                (* w = arr[idx] (ref read); d = w[off]; w dead after. *)
                | ( R.Raget (w, R.A_i64, arr, eb, idx),
                    R.Rget (d, a, w2, off) )
                  when w2 = w && not live_after.(i + 1).(w) ->
                    fuse (i + 2) (R.Raget_get (d, arr, eb, idx, a, off) :: acc)
                (* t = arr1[idx] (i32 index read); d = arr2[t]; t dead
                   after. arr2 must differ from t, else the second aget
                   would address the freshly read value. *)
                | ( R.Raget (t, R.A_i32, arr1, eb1, idx),
                    R.Raget (d, a, arr2, eb2, R.Oslot t2) )
                  when t2 = t && arr2 <> t && not live_after.(i + 1).(t) ->
                    fuse (i + 2)
                      (R.Raget_aget (d, a, arr1, eb1, idx, arr2, eb2) :: acc)
                (* d = page[off]; d2 = d op y (or y op d, op symmetric);
                   d dead after — the general form of pass 2's get+arith
                   fusion, where the arith result lands elsewhere. *)
                | R.Rget (d, a, p, off), R.Rbinop (d2, op, x, y)
                  when x = d && y <> d
                       && (d2 = d || not live_after.(i + 1).(d)) ->
                    fuse (i + 2) (R.Rget_bin (d2, a, p, off, op, R.Oslot y, false) :: acc)
                | R.Rget (d, a, p, off), R.Rbinop (d2, op, x, y)
                  when y = d && x <> d && commutative op
                       && (d2 = d || not live_after.(i + 1).(d)) ->
                    fuse (i + 2) (R.Rget_bin (d2, a, p, off, op, R.Oslot x, true) :: acc)
                | R.Rget (d, a, p, off), R.Rbinop_imm (d2, op, x, v, sw)
                  when x = d && (d2 = d || not live_after.(i + 1).(d)) ->
                    fuse (i + 2) (R.Rget_bin (d2, a, p, off, op, R.Oconst v, sw) :: acc)
                | ins, _ -> fuse (i + 1) (ins :: acc)
            in
            { b with R.code = Array.of_list (fuse 0 []) }
          end)
        body
    in
    (* Pass 5: jump threading. A terminator landing on an empty block
       merely re-dispatches on that block's terminator — and pass 3
       routinely leaves loop headers as empty blocks holding only a
       fused compare+branch. Copying the terminator up (and skipping
       chains of empty jumps) removes one block transition per loop
       iteration. Step counts are unchanged: the bypassed blocks held
       no instructions, and a copied compare charges the step its block
       would have, reading the same slots at the same state. *)
    let body =
      let resolve_jump t0 =
        let rec go t seen =
          if List.mem t seen then t
          else
            match body.(t) with
            | { R.code = [||]; term = R.Rjump u } -> go u (t :: seen)
            | _ -> t
        in
        go t0 []
      in
      let thread = function
        | R.Rjump t -> (
            let t = resolve_jump t in
            match body.(t) with
            | { R.code = [||]; term = R.Rcmp_branch (op, x, y, bt, be) } ->
                R.Rcmp_branch (op, x, y, resolve_jump bt, resolve_jump be)
            | { R.code = [||]; term = R.Rbranch (s, bt, be) } ->
                R.Rbranch (s, resolve_jump bt, resolve_jump be)
            | { R.code = [||]; term = (R.Rret_void | R.Rret _) as tm } -> tm
            | _ -> R.Rjump t)
        | R.Rbranch (s, t, e) -> R.Rbranch (s, resolve_jump t, resolve_jump e)
        | R.Rcmp_branch (op, x, y, t, e) ->
            R.Rcmp_branch (op, x, y, resolve_jump t, resolve_jump e)
        | tm -> tm
      in
      Array.map (fun (b : R.block) -> { b with R.term = thread b.R.term }) body
    in
    { m with R.m_body = body }
  end

(* Site counts over a linked program, for `facade_cli opt-report`. *)
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
      Array.iter
        (fun (b : R.block) ->
          Array.iter
            (fun ins ->
              match ins with
              | R.Rcall_virtual_ic _ -> incr icv
              | R.Rfield_load_ic _ | R.Rfield_store_ic _ -> incr icf
              | R.Rget _ | R.Rset _ | R.Raget _ | R.Raset _ -> incr spec
              | R.Rmul_add _ | R.Rmul_add_imm _ | R.Rget_bin _ | R.Rrmw _
              | R.Raget_get _ | R.Raget_aget _ ->
                  incr fused
              | R.Rbinop_imm _ -> incr imm
              | _ -> ())
            b.R.code;
          match b.R.term with R.Rcmp_branch _ -> incr fused | _ -> ())
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
