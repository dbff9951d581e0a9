open Jir

(* Liveness-based dead-code elimination over [Analysis.Liveness]'s
   bitsets. An instruction is removed only when its result is dead AND
   executing it can neither fault nor touch observable state: allocations
   stay (heapsim/pagestore metrics are part of the differential contract),
   as do loads that can throw (null receiver, bounds), casts, calls,
   intrinsics, and integer division. Iterates to a fixpoint because
   removing one dead instruction can kill the operands feeding it. *)

let is_float_prim = function
  | Some (Jtype.Prim (Jtype.Float | Jtype.Double)) -> true
  | _ -> false

let is_prim = function Some (Jtype.Prim _) -> true | _ -> false

let removable (m : Ir.meth) ins =
  match ins with
  | Ir.Const _ | Ir.Move _ | Ir.Instance_of _ | Ir.Static_load _ -> true
  | Ir.Unop (_, Ir.Not, _) -> true
  | Ir.Unop (_, Ir.Neg, x) -> is_prim (Ir.var_type m x)
  | Ir.Binop (_, op, x, y) -> (
      match op with
      | Ir.Eq | Ir.Ne -> true (* reference equality never faults *)
      | Ir.Div | Ir.Rem ->
          (* float division cannot trap; integer division by zero must *)
          is_prim (Ir.var_type m x) && is_prim (Ir.var_type m y)
          && (is_float_prim (Ir.var_type m x) || is_float_prim (Ir.var_type m y))
      | _ -> is_prim (Ir.var_type m x) && is_prim (Ir.var_type m y))
  | _ -> false

(* Early exit: every def a [removable]-kind instruction makes is read
   later in its own block — by a later instruction or the terminator —
   before any redefinition. Walking each block back from its end, every
   such def is then live whatever the block's live-out, so the first
   sweep drops nothing; instructions of other kinds are never dropped,
   so no later sweep runs. *)
let rec read_later term d = function
  | [] -> Analysis.Defuse.term_reads term d
  | ins :: rest ->
      Analysis.Defuse.reads ins d
      || ((not (Analysis.Defuse.defines ins d)) && read_later term d rest)

let nothing_to_rewrite (m : Ir.meth) =
  Array.for_all
    (fun (blk : Ir.block) ->
      let rec all_read = function
        | [] -> true
        | ins :: rest ->
            (match ins with
            | Ir.Const (d, _)
            | Ir.Move (d, _)
            | Ir.Instance_of (d, _, _)
            | Ir.Static_load (d, _, _)
            | Ir.Unop (d, _, _)
            | Ir.Binop (d, _, _, _) ->
                read_later blk.Ir.term d rest
            | _ -> true)
            && all_read rest
      in
      all_read blk.Ir.instrs)
    m.Ir.body

(* [Analysis.Liveness] numbers the method's variables once, so each
   round re-solves its frame without hashing a name, then sweeps each
   block back from its live-out and drops the dead sites from the frame.
   Removing instructions leaves the terminators, and so the CFG, as
   they are. *)
let solve count (m : Ir.meth) =
  let module L = Analysis.Liveness in
  let fr = L.frame m in
  let changed = ref true in
  while !changed do
    changed := false;
    let live_out = (L.solve fr).L.live_out in
    for b = 0 to Array.length fr.L.sites - 1 do
      let live = Array.copy live_out.(b) in
      Array.iter (L.Bits.add live) fr.L.term_reads.(b);
      let kept =
        List.fold_left
          (fun acc (st : L.site) ->
            if st.def >= 0 && (not (L.Bits.mem live st.def)) && removable m st.ins then begin
              incr count;
              changed := true;
              acc
            end
            else begin
              if st.def >= 0 then L.Bits.remove live st.def;
              Array.iter (L.Bits.add live) st.reads;
              st :: acc
            end)
          [] (List.rev fr.L.sites.(b))
      in
      fr.L.sites.(b) <- kept
    done
  done;
  let body =
    Array.mapi
      (fun b (blk : Ir.block) ->
        { blk with Ir.instrs = List.map (fun (st : L.site) -> st.ins) fr.L.sites.(b) })
      m.Ir.body
  in
  { m with Ir.body }

let run_meth count m = if nothing_to_rewrite m then m else solve count m

let pass () =
  let count = ref 0 in
  Pass.counted count (fun ~cls:_ -> run_meth count)

let run ?only ?changed p = Pass.run ?only ?changed (pass ()) p
