open Jir

(* Copy propagation: forward "copy-of" environments solved with the PR-1
   worklist solver. A variable maps to the root of its copy chain; any
   redefinition kills both the variable's own entry and every entry that
   named it as a root. Uses are rewritten to the root, which turns the
   inliner's parameter moves into dead code for DCE to sweep. *)

module Smap = Map.Make (String)

type cell = Copy_of of Ir.var | Any

type env = Unreached | Env of cell Smap.t

module L = struct
  type t = env

  let cell_equal a b =
    match a, b with
    | Copy_of x, Copy_of y -> String.equal x y
    | Any, Any -> true
    | _ -> false

  let equal a b =
    match a, b with
    | Unreached, Unreached -> true
    | Env a, Env b -> Smap.equal cell_equal a b
    | _ -> false

  let join a b =
    match a, b with
    | Unreached, x | x, Unreached -> x
    | Env a, Env b ->
        Env
          (Smap.merge
             (fun _ a b ->
               match a, b with
               | Some x, Some y when cell_equal x y -> Some x
               | _ -> Some Any)
             a b)
end

module S = Analysis.Dataflow.Solver (L)

let lookup env v = match Smap.find_opt v env with Some (Copy_of r) -> r | _ -> v

(* Redefining [d] invalidates d's own entry and every chain rooted at d. *)
let kill env d =
  let env = Smap.remove d env in
  Smap.map (function Copy_of r when String.equal r d -> Any | c -> c) env

let transfer_instr env ins =
  match ins with
  | Ir.Move (d, s) ->
      let root = lookup env s in
      let env = kill env d in
      if String.equal root d then env else Smap.add d (Copy_of root) env
  | _ -> (
      match Analysis.Defuse.def ins with Some d -> kill env d | None -> env)

let block_out (blk : Ir.block) env =
  match env with
  | Unreached -> Unreached
  | Env e -> Env (List.fold_left transfer_instr e blk.Ir.instrs)

(* Early exit: only a [Move] creates a [Copy_of] cell, so in a method
   without one every lookup returns its own variable and [solve] would
   rewrite nothing. *)
let nothing_to_rewrite (m : Ir.meth) =
  not
    (Array.exists
       (fun (blk : Ir.block) ->
         List.exists (function Ir.Move _ -> true | _ -> false) blk.Ir.instrs)
       m.Ir.body)

let solve count (m : Ir.meth) =
  let nb = Array.length m.Ir.body in
  if nb = 0 then m
  else begin
    let cfg = Analysis.Cfg.of_method m in
    let r =
      S.solve ~dir:Analysis.Dataflow.Forward ~cfg ~init:(Env Smap.empty)
        ~bottom:Unreached
        ~transfer:(fun b env -> block_out m.Ir.body.(b) env)
    in
    let body =
      Array.mapi
        (fun b (blk : Ir.block) ->
          match r.S.inb.(b) with
          | Unreached -> blk
          | Env env0 ->
              let env = ref env0 in
              let subst v =
                let r = lookup !env v in
                if not (String.equal r v) then incr count;
                r
              in
              let instrs =
                List.map
                  (fun ins ->
                    let ins = Subst.uses_instr subst ins in
                    env := transfer_instr !env ins;
                    ins)
                  blk.Ir.instrs
              in
              let term = Subst.uses_term subst blk.Ir.term in
              { Ir.instrs; term })
        m.Ir.body
    in
    { m with Ir.body }
  end

let run_meth count m = if nothing_to_rewrite m then m else solve count m

let pass () =
  let count = ref 0 in
  Pass.counted count (fun ~cls:_ -> run_meth count)

let run ?only ?changed p = Pass.run ?only ?changed (pass ()) p
