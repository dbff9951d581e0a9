open Jir

(* Liveness-based dead-code elimination (reuses the PR-1 liveness
   analysis). An instruction is removed only when its result is dead AND
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

let solve count (m : Ir.meth) =
  let changed = ref true in
  let m = ref m in
  while !changed do
    changed := false;
    let cur = !m in
    let live = Analysis.Liveness.analyze cur in
    let body =
      Array.mapi
        (fun b (blk : Ir.block) ->
          (* Walk backwards from live-out, removing dead pure defs. *)
          let out =
            List.fold_left
              (fun s v -> Analysis.Vset.add v s)
              (Analysis.Liveness.live_out live b)
              (Analysis.Defuse.term_uses blk.Ir.term)
          in
          let live_set = ref out in
          let kept =
            List.fold_left
              (fun acc ins ->
                let dead =
                  match Analysis.Defuse.def ins with
                  | Some d -> not (Analysis.Vset.mem d !live_set)
                  | None -> false
                in
                if dead && removable cur ins then begin
                  incr count;
                  changed := true;
                  acc
                end
                else begin
                  (match Analysis.Defuse.def ins with
                  | Some d -> live_set := Analysis.Vset.remove d !live_set
                  | None -> ());
                  List.iter
                    (fun v -> live_set := Analysis.Vset.add v !live_set)
                    (Analysis.Defuse.uses ins);
                  ins :: acc
                end)
              []
              (List.rev blk.Ir.instrs)
          in
          { blk with Ir.instrs = kept })
        cur.Ir.body
    in
    m := { cur with Ir.body }
  done;
  !m

let run_meth count m = if nothing_to_rewrite m then m else solve count m

let pass () =
  let count = ref 0 in
  Pass.counted count (fun ~cls:_ -> run_meth count)

let run ?only ?changed p = Pass.run ?only ?changed (pass ()) p
