open Jir
module Classify = Facade_compiler.Classify
module Rt_names = Facade_compiler.Rt_names

let analysis = "boundary-leak"

let is_data_path cl cname =
  Classify.is_data_class cl cname
  || Classify.is_boundary_class cl cname
  ||
  match Facade_compiler.Transform.facade_base cname with
  | Some base -> Classify.is_data_class cl base
  | None -> false

(* Intrinsics whose results are raw page/data references. *)
let page_ref_producers =
  [
    Rt_names.alloc;
    Rt_names.alloc_array;
    Rt_names.alloc_array_oversize;
    Rt_names.facade_read;
    Rt_names.get_field (Jtype.Ref "");
    Rt_names.array_get (Jtype.Ref "");
    Rt_names.checkcast;
    Rt_names.string_literal;
  ]

let rec is_page_ref_producer n = function
  | [] -> false
  | x :: rest -> String.equal x n || is_page_ref_producer n rest

let is_conversion n =
  String.equal n Rt_names.convert_to || String.equal n Rt_names.convert_from

module S = Dataflow.Solver (struct
  type t = Vset.t

  let equal = Vset.equal
  let join = Vset.union
end)

let check_method cl ~where ~declaring (m : Ir.meth) =
  if Array.length m.Ir.body = 0 then []
  else begin
    let vtype v =
      if String.equal v "this" then Some (Jtype.Ref declaring) else Ir.var_type m v
    in
    let declared_data v =
      match vtype v with Some ty -> Classify.is_data_type cl ty | None -> false
    in
    let class_of v =
      match vtype v with Some (Jtype.Ref c) -> Some c | Some _ | None -> None
    in
    (* Taint of a definition, given the taint set before the instruction. *)
    let def_taint st ins =
      match ins with
      | Ir.Move (_, s) -> Vset.mem s st
      | Ir.Cast (d, s, _) -> Vset.mem s st || declared_data d
      | Ir.New (_, c) -> Classify.is_data_class cl c
      | Ir.New_array (_, ety, _) -> Classify.is_data_type cl (Jtype.Array ety)
      | Ir.Field_load (d, _, _) | Ir.Static_load (d, _, _) | Ir.Array_load (d, _, _) ->
          declared_data d
      | Ir.Call (Some r, _, _, _, _, _) -> declared_data r
      | Ir.Intrinsic (Some _, n, _) ->
          (not (is_conversion n)) && is_page_ref_producer n page_ref_producers
      | Ir.Const _ | Ir.Binop _ | Ir.Unop _ | Ir.Array_length _ | Ir.Instance_of _
      | Ir.Call (None, _, _, _, _, _) | Ir.Intrinsic (None, _, _)
      | Ir.Field_store _ | Ir.Static_store _ | Ir.Array_store _ | Ir.Monitor_enter _
      | Ir.Monitor_exit _ | Ir.Iter_start | Ir.Iter_end ->
          false
    in
    let step st ins =
      match Defuse.def ins with
      | Some d -> if def_taint st ins then Vset.add d st else Vset.remove d st
      | None -> st
    in
    let entry =
      let seed s v = if declared_data v then Vset.add v s else s in
      let s = List.fold_left (fun s (v, _) -> seed s v) Vset.empty m.Ir.params in
      if m.Ir.mstatic then s else seed s "this"
    in
    (* A lone block that returns is entered only with [entry]: most
       methods are one such block, and need no fixpoint. *)
    let inb =
      match m.Ir.body with
      | [| { Ir.term = Ir.Ret _; _ } |] -> [| entry |]
      | _ ->
          let cfg = Cfg.of_method m in
          (S.solve ~dir:Dataflow.Forward ~cfg ~init:entry ~bottom:Vset.empty
             ~transfer:(fun b st -> List.fold_left step st m.Ir.body.(b).Ir.instrs))
            .S.inb
    in
    let findings = ref [] in
    let report block index what =
      findings := Finding.make ~analysis ~where ~block ~index what :: !findings
    in
    let sink st b i ins =
      match ins with
      | Ir.Field_store (a, f, s) when Vset.mem s st -> (
          match class_of a with
          | Some ca when not (is_data_path cl ca) ->
              report b i
                (Printf.sprintf
                   "data reference %s stored into control-path field %s.%s without conversion"
                   s ca f)
          | Some _ | None -> ())
      | Ir.Static_store (c, f, s) when Vset.mem s st && not (is_data_path cl c) ->
          report b i
            (Printf.sprintf
               "data reference %s stored into control-path static %s.%s without conversion"
               s c f)
      | Ir.Array_store (a, _, s)
        when Vset.mem s st && (not (declared_data a)) && not (Vset.mem a st) ->
          report b i
            (Printf.sprintf
               "data reference %s stored into control-path array %s without conversion" s a)
      | Ir.Call (_, _, cls, name, recv, args) when not (is_data_path cl cls) ->
          List.iter
            (fun v ->
              if Vset.mem v st then
                report b i
                  (Printf.sprintf
                     "data reference %s passed to control-path method %s.%s without conversion"
                     v cls name))
            (Option.to_list recv @ args)
      | _ -> ()
    in
    Array.iteri
      (fun b (blk : Ir.block) ->
        let st = ref inb.(b) in
        List.iteri
          (fun i ins ->
            sink !st b i ins;
            st := step !st ins)
          blk.Ir.instrs)
      m.Ir.body;
    List.rev !findings
  end

let check cl (p : Program.t) =
  List.concat_map
    (fun (c : Ir.cls) ->
      let cname = c.Ir.cname in
      if
        c.Ir.cinterface
        || (not (is_data_path cl cname))
        || Facade_compiler.Transform.is_kept_original cl p cname
      then []
      else
        List.concat_map
          (fun (m : Ir.meth) ->
            check_method cl ~where:(cname ^ "." ^ m.Ir.mname) ~declaring:cname m)
          c.Ir.cmethods)
    (Program.classes p)
