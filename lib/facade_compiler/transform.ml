open Jir

let facade_suffix = "$Facade"
let facade_name c = c ^ facade_suffix

let facade_base name =
  let n = String.length name and k = String.length facade_suffix in
  if n > k && String.equal (String.sub name (n - k) k) facade_suffix then
    Some (String.sub name 0 (n - k))
  else None

let init_name = "facade$init"
let constructor_name = "<init>"

let is_kept_original cl p c =
  Classify.is_data_class cl c && Program.mem p (facade_name c)

type error = {
  where : string;
  what : string;
}

exception Error of error

type result = {
  program : Program.t;
  conversions : string list;
  instrs_in : int;
  instrs_out : int;
  classes_transformed : int;
}

type ctx = {
  p : Program.t;
  cl : Classify.t;
  layout : Layout.t;
  bounds : Bounds.t;
  conversions : unit Stbl.t;
}

let imm_i n = Ir.Imm (Ir.Cint n)

(* An array whose static size exceeds a 32 KiB page gets an oversize
   page of its own. *)
let oversize_static_threshold = 32 * 1024

let is_data_class ctx c = Classify.is_data_class ctx.cl c
let is_boundary ctx c = Classify.is_boundary_class ctx.cl c
let is_data_ty ctx ty = Classify.is_data_type ctx.cl ty

(* Signature mapping: data-class references become facade references; data
   arrays travel as raw page references (longs). *)
let map_sig_ty ctx ty =
  match ty with
  | Jtype.Ref c when is_data_class ctx c -> Jtype.Ref (facade_name c)
  | Jtype.Prim _ | Jtype.Ref _ | Jtype.Array _ ->
      if is_data_ty ctx ty then Jtype.Prim Jtype.Long else ty

(* State for one method's transformation. *)
type menv = {
  ctx : ctx;
  where : string;
  as_facade : bool;  (* method of a data class: [this] is a facade *)
  orig : Jtype.t Stbl.t;  (* var -> original declared type *)
  mutable new_locals : (string * Jtype.t) list;  (* reversed *)
  mutable temp_n : int;
}

let err env what = raise (Error { where = env.where; what })

let fresh env ty =
  let v = Printf.sprintf "$fc%d" env.temp_n in
  env.temp_n <- env.temp_n + 1;
  env.new_locals <- (v, ty) :: env.new_locals;
  v

let vty env v = Stbl.find_opt env.orig v

let dvar env v =
  match vty env v with Some t -> is_data_ty env.ctx t | None -> false

let var_class env v =
  match vty env v with
  | Some (Jtype.Ref c) -> Some c
  | Some (Jtype.Prim _ | Jtype.Array _) | None -> None

(* Conversion synthesis bookkeeping (§3.5): the functions themselves are a
   reflection-style runtime routine, modelled by the convert.* intrinsics. *)
let want_conversion env ty =
  let name = Jtype.to_string ty in
  Stbl.replace env.ctx.conversions name ()

let convert_to env dst arg_ty arg =
  want_conversion env arg_ty;
  Ir.Intrinsic (Some dst, Rt_names.convert_to, [ Ir.Imm (Ir.Cstr (Jtype.to_string arg_ty)); Ir.Var arg ])

let convert_from env dst val_ty src =
  want_conversion env val_ty;
  Ir.Intrinsic
    (Some dst, Rt_names.convert_from, [ Ir.Imm (Ir.Cstr (Jtype.to_string val_ty)); Ir.Var src ])

let field_slot env ~recv ~field =
  match var_class env recv with
  | None -> err env (Printf.sprintf "field %s accessed on non-class-typed variable %s" field recv)
  | Some c -> (
      match Layout.field_slot env.ctx.layout ~cls:c ~field with
      | slot -> slot
      | exception Not_found ->
          err env (Printf.sprintf "no layout slot for %s.%s" c field))

(* The facade pool a parameter of declared type [ty] is drawn from. *)
let pool_of env ty = Bounds.pool_type env.ctx.p env.ctx.cl env.ctx.layout ty

let facade_ty_of_pool env tid =
  Jtype.Ref (facade_name (Layout.name_of_type_id env.ctx.layout tid))

(* Prepare argument facades for a call into the data path (case 6.1): the
   i-th argument of pool type B uses Pools.bFacades[i]. *)
let prep_args env ~param_tys args =
  let counts = Hashtbl.create 4 in
  let instrs = ref [] in
  let new_args =
    List.map2
      (fun arg pty ->
        match pool_of env pty with
        | Some tid when dvar env arg ->
            let i = Option.value ~default:0 (Hashtbl.find_opt counts tid) in
            Hashtbl.replace counts tid (i + 1);
            assert (i < Bounds.bound env.ctx.bounds ~type_id:tid);
            let af = fresh env (facade_ty_of_pool env tid) in
            instrs :=
              Ir.Intrinsic (None, Rt_names.facade_bind, [ Ir.Var af; Ir.Var arg ])
              :: Ir.Intrinsic (Some af, Rt_names.pool_param, [ imm_i tid; imm_i i ])
              :: !instrs;
            af
        | Some _ | None ->
            if dvar env arg && not (is_data_ty env.ctx pty) then begin
              (* Data value flowing into a non-data-typed parameter of a
                 data-path method: convert at the boundary. *)
              let tmp =
                fresh env (Option.value ~default:(Jtype.Ref Jtype.object_class) (vty env arg))
              in
              let aty = Option.get (vty env arg) in
              instrs := convert_to env tmp aty arg :: !instrs;
              tmp
            end
            else arg)
      args param_tys
  in
  (List.rev !instrs, new_args)

let callee_param_tys env ~cls ~name args =
  match Hierarchy.resolve_method env.ctx.p ~cls ~name with
  | Some m when List.length m.Ir.params = List.length args ->
      List.map snd m.Ir.params
  | Some _ | None ->
      (* Unknown or mismatched callee: judge by the argument variables. *)
      List.map
        (fun a -> Option.value ~default:(Jtype.Ref Jtype.object_class) (vty env a))
        args

let callee_ret_ty env ~cls ~name =
  match Hierarchy.resolve_method env.ctx.p ~cls ~name with
  | Some m -> m.Ir.mret
  | None -> None

(* Transformation of one call (Table 1 case 6). *)
let transform_call env ~const_env:_ (ret, kind, cls, name, recv, args) =
  let ctx = env.ctx in
  let param_tys = callee_param_tys env ~cls ~name args in
  let rty = callee_ret_ty env ~cls ~name in
  let data_target = is_data_class ctx cls in
  let boundary_target = is_boundary ctx cls in
  if data_target || boundary_target then begin
    let new_cls = if data_target then facade_name cls else cls in
    let new_name =
      if data_target && String.equal name constructor_name then init_name else name
    in
    let recv_prep, new_recv =
      match recv with
      | None -> ([], None)
      | Some r when data_target && dvar env r -> (
          match kind with
          | Ir.Virtual ->
              (* resolve(a_ref): receiver pool, runtime type (§3.2). *)
              let rf = fresh env (Jtype.Ref (facade_name cls)) in
              ([ Ir.Intrinsic (Some rf, Rt_names.pool_resolve, [ Ir.Var r ]) ], Some rf)
          | Ir.Special ->
              let tid =
                match pool_of env (Jtype.Ref cls) with
                | Some tid -> tid
                | None -> err env (Printf.sprintf "no pool for receiver class %s" cls)
              in
              let rf = fresh env (Jtype.Ref (facade_name cls)) in
              ( [
                  Ir.Intrinsic (Some rf, Rt_names.pool_receiver, [ imm_i tid ]);
                  Ir.Intrinsic (None, Rt_names.facade_bind, [ Ir.Var rf; Ir.Var r ]);
                ],
                Some rf )
          | Ir.Static -> ([], Some r))
      | Some r -> ([], Some r)
    in
    let arg_prep, new_args = prep_args env ~param_tys args in
    let call_and_unwrap =
      match rty with
      | Some (Jtype.Ref rc) when is_data_class ctx rc ->
          (* Callee returns a facade (case 5); load its page reference. *)
          let tmp = fresh env (Jtype.Ref (facade_name rc)) in
          let call = Ir.Call (Some tmp, kind, new_cls, new_name, new_recv, new_args) in
          let unwrap =
            match ret with
            | Some r -> [ Ir.Intrinsic (Some r, Rt_names.facade_read, [ Ir.Var tmp ]) ]
            | None -> []
          in
          call :: unwrap
      | Some _ | None -> [ Ir.Call (ret, kind, new_cls, new_name, new_recv, new_args) ]
    in
    recv_prep @ arg_prep @ call_and_unwrap
  end
  else begin
    (* Control-path callee: data arguments and results cross the boundary
       through conversion functions (cases 6.3 / 4.3). *)
    let instrs = ref [] in
    let new_args =
      List.map2
        (fun arg pty ->
          if dvar env arg then begin
            let aty = Option.get (vty env arg) in
            let tmp = fresh env aty in
            instrs := convert_to env tmp aty arg :: !instrs;
            tmp
          end
          else begin
            ignore pty;
            arg
          end)
        args param_tys
    in
    let prep = List.rev !instrs in
    match ret with
    | Some r when dvar env r ->
        let rty0 = Option.get (vty env r) in
        let tmp = fresh env rty0 in
        prep
        @ [
            Ir.Call (Some tmp, kind, cls, name, recv, new_args);
            convert_from env r rty0 tmp;
          ]
    | Some _ | None -> prep @ [ Ir.Call (ret, kind, cls, name, recv, new_args) ]
  end

let transform_instr env ~const_env ins =
  let ctx = env.ctx in
  match ins with
  | Ir.Const (v, c) when dvar env v -> (
      match c with
      | Ir.Cnull -> [ Ir.Const (v, Ir.Cint 0) ]
      | Ir.Cstr s -> [ Ir.Intrinsic (Some v, Rt_names.string_literal, [ Ir.Imm (Ir.Cstr s) ]) ]
      | Ir.Cint _ | Ir.Cfloat _ | Ir.Cbool _ -> [ ins ])
  | Ir.Const (v, Ir.Cint n) ->
      Stbl.replace const_env v n;
      [ ins ]
  | Ir.Const _ | Ir.Move _ | Ir.Binop _ | Ir.Unop _ -> [ ins ]
  | Ir.New (v, c) when is_data_class ctx c ->
      [
        Ir.Intrinsic
          ( Some v,
            Rt_names.alloc,
            [ imm_i (Layout.type_id ctx.layout c); imm_i (Layout.record_data_bytes ctx.layout c) ]
          );
      ]
  | Ir.New (_, _) -> [ ins ]
  | Ir.New_array (v, ety, n) when is_data_ty ctx (Jtype.Array ety) ->
      let tid = Layout.type_id_of_jtype ctx.layout (Jtype.Array ety) in
      let eb = Layout.elem_bytes ety in
      let static_len = Stbl.find_opt const_env n in
      let op =
        match static_len with
        | Some len when (len * eb) + Pagestore.Layout_rt.array_header_bytes > oversize_static_threshold ->
            Rt_names.alloc_array_oversize
        | Some _ | None -> Rt_names.alloc_array
      in
      [ Ir.Intrinsic (Some v, op, [ imm_i tid; imm_i eb; Ir.Var n ]) ]
  | Ir.New_array _ -> [ ins ]
  | Ir.Field_load (b, a, f) ->
      if dvar env a then begin
        let slot = field_slot env ~recv:a ~field:f in
        [ Ir.Intrinsic (Some b, Rt_names.get_field slot.Layout.jty, [ Ir.Var a; imm_i slot.Layout.offset ]) ]
      end
      else if
        (match var_class env a with Some c -> is_boundary ctx c | None -> false)
      then [ ins ] (* boundary field: rewritten to a long field in the class *)
      else if dvar env b then begin
        (* Case 4.3 — IP: read a heap object from the control path, convert. *)
        let bty = Option.get (vty env b) in
        let tmp = fresh env bty in
        [ Ir.Field_load (tmp, a, f); convert_from env b bty tmp ]
      end
      else [ ins ]
  | Ir.Field_store (a, f, b) ->
      if dvar env a then begin
        let slot = field_slot env ~recv:a ~field:f in
        if Jtype.is_reference slot.Layout.jty && (not (is_data_ty ctx slot.Layout.jty)) then
          err env
            (Printf.sprintf
               "case 3.4: data record %s stores into non-data reference field %s" a f);
        [ Ir.Intrinsic (None, Rt_names.set_field slot.Layout.jty, [ Ir.Var a; imm_i slot.Layout.offset; Ir.Var b ]) ]
      end
      else if
        (match var_class env a with Some c -> is_boundary ctx c | None -> false)
      then [ ins ]
      else if dvar env b then begin
        (* Case 3.3 — IP: data record flows into a control object's field. *)
        let bty = Option.get (vty env b) in
        let tmp = fresh env bty in
        [ convert_to env tmp bty b; Ir.Field_store (a, f, tmp) ]
      end
      else [ ins ]
  | Ir.Static_load (b, c, f) ->
      let c' = if is_data_class ctx c then facade_name c else c in
      if (not (is_data_class ctx c)) && dvar env b then begin
        let bty = Option.get (vty env b) in
        let tmp = fresh env bty in
        [ Ir.Static_load (tmp, c, f); convert_from env b bty tmp ]
      end
      else [ Ir.Static_load (b, c', f) ]
  | Ir.Static_store (c, f, b) ->
      let c' = if is_data_class ctx c then facade_name c else c in
      if (not (is_data_class ctx c)) && dvar env b then begin
        let bty = Option.get (vty env b) in
        let tmp = fresh env bty in
        [ convert_to env tmp bty b; Ir.Static_store (c, f, tmp) ]
      end
      else [ Ir.Static_store (c', f, b) ]
  | Ir.Array_load (b, a, i) when dvar env a ->
      let ety =
        match vty env a with
        | Some (Jtype.Array e) -> e
        | Some _ | None -> err env (Printf.sprintf "array load from non-array %s" a)
      in
      [
        Ir.Intrinsic
          (Some b, Rt_names.array_get ety, [ Ir.Var a; imm_i (Layout.elem_bytes ety); Ir.Var i ]);
      ]
  | Ir.Array_load _ -> [ ins ]
  | Ir.Array_store (a, i, b) when dvar env a ->
      let ety =
        match vty env a with
        | Some (Jtype.Array e) -> e
        | Some _ | None -> err env (Printf.sprintf "array store to non-array %s" a)
      in
      [
        Ir.Intrinsic
          ( None,
            Rt_names.array_set ety,
            [ Ir.Var a; imm_i (Layout.elem_bytes ety); Ir.Var i; Ir.Var b ] );
      ]
  | Ir.Array_store _ -> [ ins ]
  | Ir.Array_length (b, a) when dvar env a ->
      [ Ir.Intrinsic (Some b, Rt_names.array_length, [ Ir.Var a ]) ]
  | Ir.Array_length _ -> [ ins ]
  | Ir.Call (ret, kind, cls, name, recv, args) ->
      transform_call env ~const_env (ret, kind, cls, name, recv, args)
  | Ir.Instance_of (t, a, ty) when dvar env a -> (
      match ty with
      | Jtype.Ref b when is_data_class ctx b ->
          let af = fresh env (Jtype.Ref (facade_name b)) in
          [
            Ir.Intrinsic (Some af, Rt_names.pool_resolve, [ Ir.Var a ]);
            Ir.Instance_of (t, af, Jtype.Ref (facade_name b));
          ]
      | Jtype.Array _ ->
          [
            Ir.Intrinsic
              (Some t, Rt_names.is_type, [ Ir.Var a; imm_i (Layout.type_id_of_jtype ctx.layout ty) ]);
          ]
      | Jtype.Ref _ -> [ Ir.Const (t, Ir.Cbool false) ]
      | Jtype.Prim _ -> err env "instanceof a primitive type")
  | Ir.Instance_of _ -> [ ins ]
  | Ir.Cast (a, b, ty) when dvar env b ->
      let tid =
        match ty with
        | Jtype.Ref c when is_data_class ctx c -> Layout.type_id ctx.layout c
        | Jtype.Array _ when is_data_ty ctx ty -> Layout.type_id_of_jtype ctx.layout ty
        | Jtype.Prim _ | Jtype.Ref _ | Jtype.Array _ ->
            err env (Printf.sprintf "cast of data value to non-data type %s" (Jtype.to_string ty))
      in
      [ Ir.Intrinsic (Some a, Rt_names.checkcast, [ Ir.Var b; imm_i tid ]) ]
  | Ir.Cast _ -> [ ins ]
  | Ir.Monitor_enter v when dvar env v -> [ Ir.Intrinsic (None, Rt_names.lock_enter, [ Ir.Var v ]) ]
  | Ir.Monitor_exit v when dvar env v -> [ Ir.Intrinsic (None, Rt_names.lock_exit, [ Ir.Var v ]) ]
  | Ir.Monitor_enter _ | Ir.Monitor_exit _ -> [ ins ]
  | Ir.Iter_start | Ir.Iter_end | Ir.Intrinsic _ -> [ ins ]

(* Table 1 case 5: returns of data-class values travel in pool slot 0. *)
let transform_terminator env ~ret_ty term =
  match term, ret_ty with
  | Ir.Ret (Some v), Some (Jtype.Ref rc) when is_data_class env.ctx rc && dvar env v ->
      let tid =
        match pool_of env (Jtype.Ref rc) with
        | Some tid -> tid
        | None -> err env (Printf.sprintf "no pool for return type %s" rc)
      in
      let bf = fresh env (facade_ty_of_pool env tid) in
      ( [
          Ir.Intrinsic (Some bf, Rt_names.pool_param, [ imm_i tid; imm_i 0 ]);
          Ir.Intrinsic (None, Rt_names.facade_bind, [ Ir.Var bf; Ir.Var v ]);
        ],
        Ir.Ret (Some bf) )
  | (Ir.Ret _ | Ir.Jump _ | Ir.Branch _), _ -> ([], term)

let subst_this instr =
  let s v = if String.equal v "this" then "this$ref" else v in
  let so = Option.map s in
  match instr with
  | Ir.Const _ -> instr
  | Ir.Move (a, b) -> Ir.Move (s a, s b)
  | Ir.Binop (v, op, x, y) -> Ir.Binop (s v, op, s x, s y)
  | Ir.Unop (v, op, x) -> Ir.Unop (s v, op, s x)
  | Ir.New (v, c) -> Ir.New (s v, c)
  | Ir.New_array (v, ty, n) -> Ir.New_array (s v, ty, s n)
  | Ir.Field_load (b, a, f) -> Ir.Field_load (s b, s a, f)
  | Ir.Field_store (a, f, b) -> Ir.Field_store (s a, f, s b)
  | Ir.Static_load _ | Ir.Static_store _ -> instr
  | Ir.Array_load (b, a, i) -> Ir.Array_load (s b, s a, s i)
  | Ir.Array_store (a, i, b) -> Ir.Array_store (s a, s i, s b)
  | Ir.Array_length (b, a) -> Ir.Array_length (s b, s a)
  | Ir.Call (ret, k, c, m, recv, args) -> Ir.Call (so ret, k, c, m, so recv, List.map s args)
  | Ir.Instance_of (t, a, ty) -> Ir.Instance_of (s t, s a, ty)
  | Ir.Cast (a, b, ty) -> Ir.Cast (s a, s b, ty)
  | Ir.Monitor_enter v -> Ir.Monitor_enter (s v)
  | Ir.Monitor_exit v -> Ir.Monitor_exit (s v)
  | Ir.Iter_start | Ir.Iter_end -> instr
  | Ir.Intrinsic (ret, n, ops) ->
      Ir.Intrinsic
        (so ret, n, List.map (function Ir.Var v -> Ir.Var (s v) | Ir.Imm _ as o -> o) ops)

let subst_this_term = function
  | Ir.Ret (Some v) when String.equal v "this" -> Ir.Ret (Some "this$ref")
  | Ir.Branch (v, a, b) when String.equal v "this" -> Ir.Branch ("this$ref", a, b)
  | (Ir.Ret _ | Ir.Jump _ | Ir.Branch _) as t -> t

let transform_method ctx ~declaring ~as_facade (m : Ir.meth) : Ir.meth =
  let env =
    {
      ctx;
      where = declaring ^ "." ^ m.Ir.mname;
      as_facade;
      orig = Stbl.create 16;
      new_locals = [];
      temp_n = 0;
    }
  in
  List.iter (fun (v, ty) -> Stbl.replace env.orig v ty) m.Ir.params;
  List.iter (fun (v, ty) -> Stbl.replace env.orig v ty) m.Ir.locals;
  if not m.Ir.mstatic then begin
    Stbl.replace env.orig "this" (Jtype.Ref declaring);
    if as_facade then Stbl.replace env.orig "this$ref" (Jtype.Ref declaring)
  end;
  (* Parameters: data-class refs become facade params + a prologue read
     (Table 1 case 1); data arrays become longs in place. *)
  let prologue = ref [] in
  let new_params =
    List.map
      (fun (v, ty) ->
        match ty with
        | Jtype.Ref c when is_data_class ctx c ->
            let pf = v ^ "$f" in
            env.new_locals <- (v, Jtype.Prim Jtype.Long) :: env.new_locals;
            prologue := Ir.Intrinsic (Some v, Rt_names.facade_read, [ Ir.Var pf ]) :: !prologue;
            (pf, Jtype.Ref (facade_name c))
        | Jtype.Prim _ | Jtype.Ref _ | Jtype.Array _ ->
            if is_data_ty ctx ty then (v, Jtype.Prim Jtype.Long) else (v, ty))
      m.Ir.params
  in
  if as_facade && not m.Ir.mstatic then
    prologue :=
      Ir.Intrinsic (Some "this$ref", Rt_names.facade_read, [ Ir.Var "this" ]) :: !prologue;
  if as_facade && not m.Ir.mstatic then
    env.new_locals <- ("this$ref", Jtype.Prim Jtype.Long) :: env.new_locals;
  let prologue = List.rev !prologue in
  (* Locals: data-typed ones are now page references. *)
  List.iter
    (fun (v, ty) ->
      let ty' = if is_data_ty ctx ty then Jtype.Prim Jtype.Long else ty in
      env.new_locals <- (v, ty') :: env.new_locals)
    m.Ir.locals;
  let body =
    Array.mapi
      (fun bi (blk : Ir.block) ->
        let const_env = Stbl.create 8 in
        let instrs =
          List.concat_map
            (fun ins ->
              let ins = if as_facade then subst_this ins else ins in
              transform_instr env ~const_env ins)
            blk.Ir.instrs
        in
        let term = if as_facade then subst_this_term blk.Ir.term else blk.Ir.term in
        let extra, term = transform_terminator env ~ret_ty:m.Ir.mret term in
        let instrs = if bi = 0 then prologue @ instrs else instrs in
        { Ir.instrs = instrs @ extra; term })
      m.Ir.body
  in
  let mret =
    match m.Ir.mret with Some ty -> Some (map_sig_ty ctx ty) | None -> None
  in
  {
    Ir.mname = (if String.equal m.Ir.mname constructor_name && as_facade then init_name else m.Ir.mname);
    mstatic = m.Ir.mstatic;
    params = new_params;
    mret;
    locals = List.rev env.new_locals;
    body;
  }

(* Facade class generation (§3.2 class hierarchy transformation). *)
let facade_of_class ctx (c : Ir.cls) : Ir.cls =
  let offset_fields =
    List.map
      (fun (slot : Layout.field_slot) ->
        {
          Ir.fname = slot.Layout.name ^ "_OFFSET";
          ftype = Jtype.Prim Jtype.Int;
          fstatic = true;
          finit = Some (Ir.Cint slot.Layout.offset);
        })
      (Layout.fields ctx.layout c.Ir.cname)
  in
  let static_fields =
    List.filter_map
      (fun (f : Ir.field) ->
        if f.Ir.fstatic then
          Some { f with Ir.ftype = map_sig_ty ctx f.Ir.ftype }
        else None)
      c.Ir.cfields
  in
  let methods =
    List.map (fun m -> transform_method ctx ~declaring:c.Ir.cname ~as_facade:true m) c.Ir.cmethods
  in
  {
    Ir.cname = facade_name c.Ir.cname;
    super =
      (match c.Ir.super with
      | Some s when is_data_class ctx s -> Some (facade_name s)
      | Some s -> Some s
      | None -> None);
    interfaces =
      List.map
        (fun i -> if Program.mem ctx.p i then facade_name i else i)
        c.Ir.interfaces;
    cfields = static_fields @ offset_fields;
    cmethods = methods;
    cinterface = c.Ir.cinterface;
  }

(* Interface facade: transformed signatures, no bodies (§3.2's IFacade). *)
let facade_of_interface ctx (c : Ir.cls) : Ir.cls =
  let methods =
    List.map
      (fun (m : Ir.meth) ->
        {
          m with
          Ir.params = List.map (fun (v, ty) -> (v, map_sig_ty ctx ty)) m.Ir.params;
          mret = Option.map (map_sig_ty ctx) m.Ir.mret;
          body = [||];
        })
      c.Ir.cmethods
  in
  { c with Ir.cname = facade_name c.Ir.cname; cmethods = methods }

let transform_boundary ctx (c : Ir.cls) : Ir.cls =
  let fields =
    List.map
      (fun (f : Ir.field) ->
        if
          Classify.is_boundary_data_field ctx.cl ~cls:c.Ir.cname ~field:f.Ir.fname
          && is_data_ty ctx f.Ir.ftype
        then { f with Ir.ftype = Jtype.Prim Jtype.Long }
        else f)
      c.Ir.cfields
  in
  let methods =
    List.map (fun m -> transform_method ctx ~declaring:c.Ir.cname ~as_facade:false m) c.Ir.cmethods
  in
  { c with Ir.cfields = fields; cmethods = methods }

(* The class a [sys.run_thread] operand is declared at, as the receiver
   class of the virtual [run] the runtime dispatches; [None] for a
   primitive or array operand, which holds a page reference or an array
   and never an original's heap instance. An undeclared or unknown type
   counts as [Object], so every [run] stays a possible target. *)
let spawn_class p ~declaring (m : Ir.meth) op =
  let declared =
    match op with
    | Ir.Var "this" when not m.Ir.mstatic -> Some (Jtype.Ref declaring)
    | Ir.Var v -> Ir.var_type m v
    | Ir.Imm _ -> None
  in
  match declared with
  | Some (Jtype.Ref c) when Program.mem p c -> Some c
  | Some (Jtype.Prim _ | Jtype.Array _) -> None
  | Some (Jtype.Ref _) | None -> Some Jtype.object_class

(* The methods of the kept originals [kept] that facade-mode code can run
   (§3.1): one CHA closure over P′. Seeds are the call sites of every
   class that is not a kept original: virtual calls through
   {!Optimize.possible_targets}, special and static calls at their
   declaring class, and each [sys.run_thread], which the runtime dispatches
   as a virtual [run] with no [Call] instruction. The closure follows the
   calls inside the kept methods themselves. Returns the live methods'
   names, per class. *)
let live_original_methods p ~kept =
  let cha = Optimize.cha p in
  let live = Stbl.create 16 in
  let work = Stack.create () in
  let note name cls =
    if Stbl.mem kept cls then begin
      let names =
        match Stbl.find_opt live cls with
        | Some names -> names
        | None ->
            let names = Stbl.create 8 in
            Stbl.replace live cls names;
            names
      in
      if not (Stbl.mem names name) then begin
        Stbl.replace names name ();
        Stack.push (cls, name) work
      end
    end
  in
  let call kind cls name =
    match (kind : Ir.call_kind) with
    | Ir.Virtual -> List.iter (note name) (Optimize.possible_targets cha ~cls ~name)
    | Ir.Special | Ir.Static -> Option.iter (note name) (Optimize.declaring p ~name cls)
  in
  let scan ~declaring m =
    Ir.iter_instrs
      (function
        | Ir.Call (_, kind, cls, name, _, _) -> call kind cls name
        | Ir.Intrinsic (_, n, [ op ]) when String.equal n Rt_names.run_thread ->
            Option.iter (fun c -> call Ir.Virtual c "run") (spawn_class p ~declaring m op)
        | _ -> ())
      m
  in
  List.iter
    (fun (c : Ir.cls) ->
      if not (Stbl.mem kept c.Ir.cname) then
        List.iter (scan ~declaring:c.Ir.cname) c.Ir.cmethods)
    (Program.classes p);
  while not (Stack.is_empty work) do
    let cls, name = Stack.pop work in
    Option.iter (scan ~declaring:cls) (Program.find_method p ~cls ~name)
  done;
  live

let run p cl layout bounds () =
  let ctx = { p; cl; layout; bounds; conversions = Stbl.create 8 } in
  let classes = Program.classes p in
  (* Interfaces needing facades: in the data set, or implemented by a data
     class. *)
  let iface_needs_facade =
    let tbl = Stbl.create 8 in
    List.iter
      (fun (c : Ir.cls) ->
        if c.Ir.cinterface && Classify.is_data_class cl c.Ir.cname then
          Stbl.replace tbl c.Ir.cname ();
        if (not c.Ir.cinterface) && Classify.is_data_class cl c.Ir.cname then
          List.iter
            (fun i -> if Program.mem p i then Stbl.replace tbl i ())
            c.Ir.interfaces)
      classes;
    tbl
  in
  let instrs_in = ref 0 in
  let instrs_out = ref 0 in
  let transformed = ref 0 in
  let out = ref [] in
  let kept = Stbl.create 16 in
  List.iter
    (fun (c : Ir.cls) ->
      if c.Ir.cinterface then begin
        out := c :: !out;
        if Stbl.mem iface_needs_facade c.Ir.cname then begin
          incr transformed;
          instrs_in := !instrs_in + Ir.method_instr_count c;
          let fc = facade_of_interface ctx c in
          instrs_out := !instrs_out + Ir.method_instr_count fc;
          out := fc :: !out
        end
      end
      else if Classify.is_data_class cl c.Ir.cname then begin
        incr transformed;
        instrs_in := !instrs_in + Ir.method_instr_count c;
        let fc = facade_of_class ctx c in
        instrs_out := !instrs_out + Ir.method_instr_count fc;
        (* The original class is kept, because conversion functions build
           its heap instances for the control path (§3.1). It keeps its
           fields and layout; {!live_original_methods} below drops every
           method control-side code cannot call. *)
        Stbl.replace kept c.Ir.cname ();
        out := fc :: c :: !out
      end
      else if Classify.is_boundary_class cl c.Ir.cname then begin
        incr transformed;
        instrs_in := !instrs_in + Ir.method_instr_count c;
        let bc = transform_boundary ctx c in
        instrs_out := !instrs_out + Ir.method_instr_count bc;
        out := bc :: !out
      end
      else out := c :: !out)
    classes;
  let entry_cls, entry_m = Program.entry p in
  let entry =
    if Classify.is_data_class cl entry_cls then (facade_name entry_cls, entry_m)
    else (entry_cls, entry_m)
  in
  let program = Program.make ~entry (List.rev !out) in
  let live = live_original_methods program ~kept in
  let program =
    Stbl.fold
      (fun cname () prog ->
        let c = Program.get_class prog cname in
        let live_m (m : Ir.meth) =
          match Stbl.find_opt live cname with
          | Some names -> Stbl.mem names m.Ir.mname
          | None -> false
        in
        if List.for_all live_m c.Ir.cmethods then prog
        else Program.replace_class prog { c with Ir.cmethods = List.filter live_m c.Ir.cmethods })
      kept program
  in
  {
    program;
    conversions =
      List.sort String.compare (Stbl.fold (fun k () acc -> k :: acc) ctx.conversions []);
    instrs_in = !instrs_in;
    instrs_out = !instrs_out;
    classes_transformed = !transformed;
  }
