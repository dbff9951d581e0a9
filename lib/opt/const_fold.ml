open Jir

(* Sparse conditional constant propagation at block granularity: a
   worklist over feasible CFG edges with a per-variable constant lattice.
   Folding must be bit-identical to execution, so the evaluator below
   mirrors the VM's [arith]/[truthy] semantics exactly (int/float
   promotion, [Eq]/[Ne] by reference equality, float joins by bits so
   -0.0 and NaN are never conflated) and refuses to fold anything the VM
   would trap on (integer division by zero, ill-typed operands). *)

type fv = FInt of int | FFloat of float | FStr of string | FNull

type cell = Known of fv | Varying

module Smap = Map.Make (String)

type benv = Unreached | Env of cell Smap.t

let fv_of_const = function
  | Ir.Cint n -> FInt n
  | Ir.Cfloat x -> FFloat x
  | Ir.Cbool b -> FInt (if b then 1 else 0)
  | Ir.Cnull -> FNull
  | Ir.Cstr s -> FStr s

let const_of_fv = function
  | FInt n -> Ir.Cint n
  | FFloat x -> Ir.Cfloat x
  | FStr s -> Ir.Cstr s
  | FNull -> Ir.Cnull

let fv_equal a b =
  match a, b with
  | FInt x, FInt y -> x = y
  | FFloat x, FFloat y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | FStr x, FStr y -> String.equal x y
  | FNull, FNull -> true
  | (FInt _ | FFloat _ | FStr _ | FNull), _ -> false

(* Value.truthy: Int 0 and Null are false, everything else (including
   Float 0.0 and "") is true. *)
let truthy = function FInt 0 | FNull -> false | FInt _ | FFloat _ | FStr _ -> true

(* Value.equal_ref restricted to constants. *)
let equal_ref a b =
  match a, b with
  | FNull, FNull -> true
  | FInt x, FInt y -> x = y
  | FFloat x, FFloat y -> x = y
  | FStr x, FStr y -> String.equal x y
  | (FNull | FInt _ | FFloat _ | FStr _), _ -> false

let eval_float op x y =
  match op with
  | Ir.Add -> Some (FFloat (x +. y))
  | Ir.Sub -> Some (FFloat (x -. y))
  | Ir.Mul -> Some (FFloat (x *. y))
  | Ir.Div -> Some (FFloat (x /. y))
  | Ir.Rem -> Some (FFloat (Float.rem x y))
  | _ -> None

let eval_cmp fi ff a b =
  match a, b with
  | FInt x, FInt y -> Some (FInt (if fi x y then 1 else 0))
  | FFloat x, FFloat y -> Some (FInt (if ff x y then 1 else 0))
  | FInt x, FFloat y -> Some (FInt (if ff (float_of_int x) y then 1 else 0))
  | FFloat x, FInt y -> Some (FInt (if ff x (float_of_int y) then 1 else 0))
  | _ -> None

let eval_binop op a b =
  match op, a, b with
  | Ir.Add, FInt x, FInt y -> Some (FInt (x + y))
  | Ir.Sub, FInt x, FInt y -> Some (FInt (x - y))
  | Ir.Mul, FInt x, FInt y -> Some (FInt (x * y))
  | Ir.Div, FInt _, FInt 0 -> None (* VM traps; keep the trap *)
  | Ir.Div, FInt x, FInt y -> Some (FInt (x / y))
  | Ir.Rem, FInt _, FInt 0 -> None
  | Ir.Rem, FInt x, FInt y -> Some (FInt (x mod y))
  | Ir.And, FInt x, FInt y -> Some (FInt (x land y))
  | Ir.Or, FInt x, FInt y -> Some (FInt (x lor y))
  | Ir.Xor, FInt x, FInt y -> Some (FInt (x lxor y))
  | Ir.Shl, FInt x, FInt y -> Some (FInt (x lsl y))
  | Ir.Shr, FInt x, FInt y -> Some (FInt (x asr y))
  | Ir.Add, FFloat x, FFloat y -> Some (FFloat (x +. y))
  | Ir.Sub, FFloat x, FFloat y -> Some (FFloat (x -. y))
  | Ir.Mul, FFloat x, FFloat y -> Some (FFloat (x *. y))
  | Ir.Div, FFloat x, FFloat y -> Some (FFloat (x /. y))
  | Ir.Rem, FFloat x, FFloat y -> Some (FFloat (Float.rem x y))
  | (Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem), FInt x, FFloat y ->
      eval_float op (float_of_int x) y
  | (Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem), FFloat x, FInt y ->
      eval_float op x (float_of_int y)
  | Ir.Lt, x, y -> eval_cmp ( < ) ( < ) x y
  | Ir.Le, x, y -> eval_cmp ( <= ) ( <= ) x y
  | Ir.Gt, x, y -> eval_cmp ( > ) ( > ) x y
  | Ir.Ge, x, y -> eval_cmp ( >= ) ( >= ) x y
  | Ir.Eq, x, y -> Some (FInt (if equal_ref x y then 1 else 0))
  | Ir.Ne, x, y -> Some (FInt (if equal_ref x y then 0 else 1))
  | _ -> None

let eval_unop op a =
  match op, a with
  | Ir.Neg, FInt x -> Some (FInt (-x))
  | Ir.Neg, FFloat x -> Some (FFloat (-.x))
  | Ir.Not, v -> Some (FInt (if truthy v then 0 else 1))
  | Ir.Neg, (FStr _ | FNull) -> None

(* Frame slots start at their type defaults (Value.default_of), so locals
   are Known at entry; params and [this] hold runtime values. *)
let entry_env (m : Ir.meth) =
  let default = function
    | Jtype.Prim (Jtype.Float | Jtype.Double) -> FFloat 0.0
    | Jtype.Prim _ -> FInt 0
    | Jtype.Ref _ | Jtype.Array _ -> FNull
  in
  let env =
    List.fold_left (fun e (v, _) -> Smap.add v Varying e) Smap.empty m.Ir.params
  in
  let env = if m.Ir.mstatic then env else Smap.add "this" Varying env in
  List.fold_left (fun e (v, t) -> Smap.add v (Known (default t)) e) env m.Ir.locals

let cell_join a b =
  match a, b with
  | Known x, Known y when fv_equal x y -> a
  | _ -> Varying

let cell_equal a b =
  match a, b with
  | Known x, Known y -> fv_equal x y
  | Varying, Varying -> true
  | _ -> false

let env_join = Smap.union (fun _ a b -> Some (cell_join a b))

let benv_join a b =
  match a, b with
  | Unreached, x | x, Unreached -> x
  | Env a, Env b -> Env (env_join a b)

let benv_equal a b =
  match a, b with
  | Unreached, Unreached -> true
  | Env a, Env b -> Smap.equal cell_equal a b
  | _ -> false

let lookup env v = try Smap.find v env with Not_found -> Varying

let transfer_instr env ins =
  match ins with
  | Ir.Const (v, c) -> Smap.add v (Known (fv_of_const c)) env
  | Ir.Move (v, s) -> Smap.add v (lookup env s) env
  | Ir.Unop (v, op, x) ->
      let cell =
        match lookup env x with
        | Known a -> (match eval_unop op a with Some k -> Known k | None -> Varying)
        | Varying -> Varying
      in
      Smap.add v cell env
  | Ir.Binop (v, op, x, y) ->
      let cell =
        match lookup env x, lookup env y with
        | Known a, Known b -> (
            match eval_binop op a b with Some k -> Known k | None -> Varying)
        | _ -> Varying
      in
      Smap.add v cell env
  | _ -> (
      match Analysis.Defuse.def ins with
      | Some d -> Smap.add d Varying env
      | None -> env)

let feasible_succs env (term : Ir.terminator) =
  match term with
  | Ir.Ret _ -> []
  | Ir.Jump t -> [ t ]
  | Ir.Branch (v, t, e) -> (
      if t = e then [ t ]
      else
        match lookup env v with
        | Known k -> [ (if truthy k then t else e) ]
        | Varying -> [ t; e ])

let block_out env (blk : Ir.block) = List.fold_left transfer_instr env blk.Ir.instrs

type stats = {
  mutable folded : int;          (* instrs rewritten to Const / Imm operands *)
  mutable branches_folded : int;
  mutable blocks_removed : int;
  mutable jumps : int;  (* branches with equal arms made jumps — not reported *)
}

(* Early exit: a one-block method with no [Const] and no equal-arm
   branch, in which no local is read before the block writes it. Only a
   [Const] or a local's entry default makes a cell Known, so every cell
   stays Varying: nothing folds, the branch (if any) keeps both arms and
   the one block is reachable. *)
let nothing_to_rewrite (m : Ir.meth) =
  Array.length m.Ir.body = 1
  &&
  let blk = m.Ir.body.(0) in
  let rec written_first l = function
    | [] -> not (Analysis.Defuse.term_reads blk.Ir.term l)
    | ins :: rest ->
        (not (Analysis.Defuse.reads ins l))
        && (Analysis.Defuse.defines ins l || written_first l rest)
  in
  (match blk.Ir.term with Ir.Branch (_, t, e) -> t <> e | Ir.Ret _ | Ir.Jump _ -> true)
  && (not (List.exists (function Ir.Const _ -> true | _ -> false) blk.Ir.instrs))
  && List.for_all (fun (l, _) -> written_first l blk.Ir.instrs) m.Ir.locals

let solve stats (m : Ir.meth) =
  let nb = Array.length m.Ir.body in
  if nb = 0 then m
  else begin
    let inenv = Array.make nb Unreached in
    inenv.(0) <- Env (entry_env m);
    let q = Queue.create () in
    let on_q = Array.make nb false in
    let push b =
      if not on_q.(b) then begin
        on_q.(b) <- true;
        Queue.add b q
      end
    in
    push 0;
    while not (Queue.is_empty q) do
      let b = Queue.pop q in
      on_q.(b) <- false;
      match inenv.(b) with
      | Unreached -> ()
      | Env env ->
          let blk = m.Ir.body.(b) in
          let out = block_out env blk in
          List.iter
            (fun s ->
              if s >= 0 && s < nb then begin
                let joined = benv_join inenv.(s) (Env out) in
                if not (benv_equal joined inenv.(s)) then begin
                  inenv.(s) <- joined;
                  push s
                end
              end)
            (feasible_succs out blk.Ir.term)
    done;
    (* Rewrite reachable blocks under their solved in-environments. *)
    let rewritten =
      Array.mapi
        (fun b (blk : Ir.block) ->
          match inenv.(b) with
          | Unreached -> blk
          | Env env0 ->
              let env = ref env0 in
              let instrs =
                List.map
                  (fun ins ->
                    let ins =
                      match ins with
                      | Ir.Binop (v, op, x, y) -> (
                          match lookup !env x, lookup !env y with
                          | Known a, Known b -> (
                              match eval_binop op a b with
                              | Some k ->
                                  stats.folded <- stats.folded + 1;
                                  Ir.Const (v, const_of_fv k)
                              | None -> ins)
                          | _ -> ins)
                      | Ir.Unop (v, op, x) -> (
                          match lookup !env x with
                          | Known a -> (
                              match eval_unop op a with
                              | Some k ->
                                  stats.folded <- stats.folded + 1;
                                  Ir.Const (v, const_of_fv k)
                              | None -> ins)
                          | Varying -> ins)
                      | Ir.Move (v, s) -> (
                          match lookup !env s with
                          | Known k ->
                              stats.folded <- stats.folded + 1;
                              Ir.Const (v, const_of_fv k)
                          | Varying -> ins)
                      | Ir.Intrinsic (ret, n, ops) ->
                          let changed = ref false in
                          let ops =
                            List.map
                              (fun o ->
                                match o with
                                | Ir.Var v -> (
                                    match lookup !env v with
                                    | Known k ->
                                        changed := true;
                                        Ir.Imm (const_of_fv k)
                                    | Varying -> o)
                                | Ir.Imm _ -> o)
                              ops
                          in
                          if !changed then begin
                            stats.folded <- stats.folded + 1;
                            Ir.Intrinsic (ret, n, ops)
                          end
                          else ins
                      | _ -> ins
                    in
                    env := transfer_instr !env ins;
                    ins)
                  blk.Ir.instrs
              in
              let term =
                match blk.Ir.term with
                | Ir.Branch (_, t, e) when t = e ->
                    stats.jumps <- stats.jumps + 1;
                    Ir.Jump t
                | Ir.Branch (v, t, e) as tm -> (
                    match lookup !env v with
                    | Known k ->
                        stats.branches_folded <- stats.branches_folded + 1;
                        Ir.Jump (if truthy k then t else e)
                    | Varying -> tm)
                | tm -> tm
              in
              { Ir.instrs; term })
        m.Ir.body
    in
    (* Drop blocks SCCP proved unreachable, renumbering targets. *)
    let reachable = Array.map (fun e -> e <> Unreached) inenv in
    if Array.for_all Fun.id reachable then { m with Ir.body = rewritten }
    else begin
      let remap = Array.make nb (-1) in
      let next = ref 0 in
      Array.iteri
        (fun b r ->
          if r then begin
            remap.(b) <- !next;
            incr next
          end)
        reachable;
      stats.blocks_removed <- stats.blocks_removed + (nb - !next);
      let body =
        Array.of_list
          (List.filteri
             (fun b _ -> reachable.(b))
             (Array.to_list rewritten))
      in
      let body =
        Array.map
          (fun (blk : Ir.block) ->
            let term =
              match blk.Ir.term with
              | Ir.Jump t -> Ir.Jump remap.(t)
              | Ir.Branch (v, t, e) -> Ir.Branch (v, remap.(t), remap.(e))
              | tm -> tm
            in
            { blk with Ir.term })
          body
      in
      { m with Ir.body }
    end
  end

let run_meth stats m = if nothing_to_rewrite m then m else solve stats m

let reported s = s.folded + s.branches_folded + s.blocks_removed

(* Equal-arm branches made jumps are rewrites too, though not reported:
   the method changed iff any counter moved. *)
let pass () =
  let stats = { folded = 0; branches_folded = 0; blocks_removed = 0; jumps = 0 } in
  let rewrites () = reported stats + stats.jumps in
  {
    Pass.rewrite =
      (fun ~cls:_ m ->
        let before = rewrites () in
        let m' = run_meth stats m in
        (m', rewrites () <> before));
    count = (fun () -> reported stats);
  }

let run ?only ?changed p = Pass.run ?only ?changed (pass ()) p
