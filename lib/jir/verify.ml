type error = {
  where : string;
  what : string;
}

let field_exists p ~cls ~field ~static =
  if static then
    match Program.find_class p cls with
    | None -> false
    | Some c ->
        List.exists (fun (f : Ir.field) -> f.Ir.fstatic && String.equal f.Ir.fname field) c.Ir.cfields
  else
    List.exists (fun (_, (f : Ir.field)) -> String.equal f.Ir.fname field)
      (Hierarchy.all_instance_fields p cls)

let method_exists p ~cls ~name ~kind =
  match kind with
  | Ir.Static | Ir.Special -> Hierarchy.resolve_method p ~cls ~name <> None
  | Ir.Virtual ->
      Hierarchy.resolve_method p ~cls ~name <> None
      || List.exists
           (fun sub -> Program.find_method p ~cls:sub ~name <> None)
           (Hierarchy.subclasses p cls)
      || (* Interface receivers: any implementor may provide the method. *)
      Program.fold
        (fun c acc ->
          acc
          || (Hierarchy.implements p ~cls:c.Ir.cname ~intf:cls
             && Program.find_method p ~cls:c.Ir.cname ~name <> None))
        p false

let check_method p (c : Ir.cls) (m : Ir.meth) =
  let where = c.Ir.cname ^ "." ^ m.Ir.mname in
  let errs = ref [] in
  let err what = errs := { where; what } :: !errs in
  let declared = Stbl.create 16 in
  (* Duplicate declarations across params and locals would silently shadow
     each other in the VM's single frame environment. *)
  let declare (v, _) =
    if Stbl.mem declared v then err (Printf.sprintf "duplicate variable %s" v)
    else Stbl.replace declared v ()
  in
  List.iter declare m.Ir.params;
  List.iter declare m.Ir.locals;
  if not m.Ir.mstatic then Stbl.replace declared "this" ();
  let nblocks = Array.length m.Ir.body in
  let check_var v =
    if not (Stbl.mem declared v) then err (Printf.sprintf "undeclared variable %s" v)
  in
  let check_target b =
    if b < 0 || b >= nblocks then err (Printf.sprintf "branch to missing block b%d" b)
  in
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter
        (fun ins ->
          Ir.iter_vars check_var ins;
          match ins with
          | Ir.New (_, cls) ->
              if not (Program.mem p cls) then err (Printf.sprintf "new of unknown class %s" cls)
          | Ir.Static_load (_, cls, f) | Ir.Static_store (cls, f, _) ->
              if not (field_exists p ~cls ~field:f ~static:true) then
                err (Printf.sprintf "unknown static field %s.%s" cls f)
          | Ir.Call (_, kind, cls, name, _, _) ->
              if Program.mem p cls && not (method_exists p ~cls ~name ~kind) then
                err (Printf.sprintf "unknown method %s.%s" cls name)
          | Ir.Const _ | Ir.Move _ | Ir.Binop _ | Ir.Unop _ | Ir.New_array _
          | Ir.Field_load _ | Ir.Field_store _ | Ir.Array_load _ | Ir.Array_store _
          | Ir.Array_length _ | Ir.Instance_of _ | Ir.Cast _ | Ir.Monitor_enter _
          | Ir.Monitor_exit _ | Ir.Iter_start | Ir.Iter_end | Ir.Intrinsic _ ->
              ())
        blk.Ir.instrs;
      match blk.Ir.term with
      | Ir.Ret None -> ()
      | Ir.Ret (Some v) -> check_var v
      | Ir.Jump b -> check_target b
      | Ir.Branch (v, b1, b2) ->
          check_var v;
          check_target b1;
          check_target b2)
    m.Ir.body;
  !errs

let check_class p (c : Ir.cls) =
  let errs = ref [] in
  let err what = errs := { where = c.Ir.cname; what } :: !errs in
  (match c.Ir.super with
  | Some s ->
      if Program.mem p s then begin
        let chain = Hierarchy.super_chain p c.Ir.cname in
        if List.exists (String.equal c.Ir.cname) chain then err "cyclic class hierarchy"
      end
  | None -> ());
  (* Method lookup is by name, so a second method of the same name within
     a class is unreachable — reject it instead of silently shadowing. *)
  let seen = Stbl.create 8 in
  List.iter
    (fun (m : Ir.meth) ->
      if Stbl.mem seen m.Ir.mname then
        err (Printf.sprintf "duplicate method %s" m.Ir.mname)
      else Stbl.replace seen m.Ir.mname ())
    c.Ir.cmethods;
  List.iter (fun m -> errs := check_method p c m @ !errs) c.Ir.cmethods;
  !errs

let check_program p =
  List.concat_map (check_class p) (Program.classes p)

let check_or_fail p =
  match check_program p with
  | [] -> ()
  | errs ->
      let msg =
        String.concat "\n"
          (List.map (fun e -> Printf.sprintf "  %s: %s" e.where e.what) errs)
      in
      failwith ("jir verification failed:\n" ^ msg)
