open Jir

(* Leaf-method inlining: direct (Static/Special) call sites whose callee
   is a single straight-line block of at most [budget] non-calling,
   non-monitor instructions — the facade accessors and conversion shims
   the transform synthesizes. The callee body is alpha-renamed into the
   caller, parameters become moves (copy propagation erases them), the
   Ret becomes a move of the return value. [may_inline caller callee]
   gates sites; the driver uses it to keep inlining on one side of the
   control/data boundary (DESIGN §10). *)

let inlinable_instr = function
  | Ir.Call _ | Ir.Monitor_enter _ | Ir.Monitor_exit _ | Ir.Iter_start | Ir.Iter_end
    ->
      false
  | _ -> true

(* (class, method) pairs the structural leaf test admits: single
   straight-line returning block of at most [budget] non-calling
   instructions. The pass above inlines the direct-call sites among
   them; the residue (virtual sites, cross-boundary sites) is what the
   tier-2 compiler can still inline at run time, so the driver reports
   this list as feedback. *)
let leaf_candidates ?(budget = 8) p =
  List.concat_map
    (fun (c : Ir.cls) ->
      List.filter_map
        (fun (m : Ir.meth) ->
          if
            Array.length m.Ir.body = 1
            && List.length m.Ir.body.(0).Ir.instrs <= budget
            && List.for_all inlinable_instr m.Ir.body.(0).Ir.instrs
            && match m.Ir.body.(0).Ir.term with Ir.Ret _ -> true | _ -> false
          then Some (c.Ir.cname, m.Ir.mname)
          else None)
        c.Ir.cmethods)
    (Program.classes p)

(* The callee [try_inline] splices in at [ins], if any: a direct call
   across an allowed boundary to a single straight-line block of at most
   [budget] inlinable instructions that returns what the site expects.
   The pass's early exit asks the same question, so the two cannot
   drift. *)
let inline_target p ~budget ~may_inline ~caller_cls ins =
  match ins with
  | Ir.Call (ret, ((Ir.Static | Ir.Special) as kind), cls, name, recv, args)
    when may_inline caller_cls cls -> (
      match Hierarchy.resolve_method p ~cls ~name with
      | Some callee
        when Array.length callee.Ir.body = 1
             && List.length callee.Ir.params = List.length args
             && (match kind with
                | Ir.Static -> callee.Ir.mstatic && recv = None
                | _ -> (not callee.Ir.mstatic) && recv <> None)
             && List.length callee.Ir.body.(0).Ir.instrs <= budget
             && List.for_all inlinable_instr callee.Ir.body.(0).Ir.instrs -> (
          match callee.Ir.body.(0).Ir.term, ret with
          | (Ir.Jump _ | Ir.Branch _), _ -> None
          | Ir.Ret None, Some _ -> None (* site expects a value *)
          | Ir.Ret _, _ -> Some callee)
      | _ -> None)
  | _ -> None

let try_inline p ~budget ~may_inline ~caller_cls ~next_id ~extra_locals ins =
  match inline_target p ~budget ~may_inline ~caller_cls ins, ins with
  | Some callee, Ir.Call (ret, _, cls, _, recv, args) ->
      let blk = callee.Ir.body.(0) in
      let rv = match blk.Ir.term with Ir.Ret rv -> rv | Ir.Jump _ | Ir.Branch _ -> None in
      let id = next_id () in
      let rn = Stbl.create 8 in
      let bind v = Stbl.replace rn v (Printf.sprintf "$inl%d$%s" id v) in
      List.iter (fun (v, _) -> bind v) callee.Ir.params;
      List.iter (fun (v, _) -> bind v) callee.Ir.locals;
      if not callee.Ir.mstatic then bind "this";
      let f v = match Stbl.find_opt rn v with Some v' -> v' | None -> v in
      List.iter
        (fun (v, t) -> extra_locals := (f v, t) :: !extra_locals)
        (callee.Ir.params @ callee.Ir.locals);
      if not callee.Ir.mstatic then
        extra_locals := (f "this", Jtype.Ref cls) :: !extra_locals;
      let moves =
        (match recv with
        | Some r when not callee.Ir.mstatic -> [ Ir.Move (f "this", r) ]
        | _ -> [])
        @ List.map2 (fun (pv, _) a -> Ir.Move (f pv, a)) callee.Ir.params args
      in
      let body = List.map (Subst.rename_instr f) blk.Ir.instrs in
      let ret_move =
        match rv, ret with
        | Some r, Some d -> [ Ir.Move (d, f r) ]
        | _ -> []
      in
      Some (moves @ body @ ret_move)
  | _ -> None

(* Early exit: no instruction of [m] is a site [try_inline] would take. *)
let nothing_to_rewrite p ~budget ~may_inline ~caller_cls m =
  not
    (Ir.exists_instr
       (fun ins -> Option.is_some (inline_target p ~budget ~may_inline ~caller_cls ins))
       m)

let solve p ~budget ~may_inline ~caller_cls ~next_id count (m : Ir.meth) =
  let extra_locals = ref [] in
  let body =
    Array.map
      (fun (blk : Ir.block) ->
        let instrs =
          List.concat_map
            (fun ins ->
              match
                try_inline p ~budget ~may_inline ~caller_cls ~next_id ~extra_locals
                  ins
              with
              | Some spliced ->
                  incr count;
                  spliced
              | None -> [ ins ])
            blk.Ir.instrs
        in
        { blk with Ir.instrs })
      m.Ir.body
  in
  { m with Ir.body; Ir.locals = m.Ir.locals @ List.rev !extra_locals }

let run_meth p ~budget ~may_inline ~caller_cls ~next_id count m =
  if nothing_to_rewrite p ~budget ~may_inline ~caller_cls m then m
  else solve p ~budget ~may_inline ~caller_cls ~next_id count m

(* Callees are looked up in [p], the pass's input, and inlined copies are
   numbered in the order the methods are rewritten. *)
let pass ?(budget = 8) ?(may_inline = fun _ _ -> true) p =
  let count = ref 0 in
  let id = ref 0 in
  let next_id () =
    incr id;
    !id
  in
  Pass.counted count (fun ~cls ->
      run_meth p ~budget ~may_inline ~caller_cls:cls ~next_id count)

let run ?budget ?may_inline ?changed p = Pass.run ?changed (pass ?budget ?may_inline p) p
