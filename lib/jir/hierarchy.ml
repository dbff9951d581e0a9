let super_chain p c =
  let rec go acc name =
    match Program.find_class p name with
    | None -> List.rev acc
    | Some cls -> (
        match cls.Ir.super with
        | None -> List.rev acc
        | Some s -> if Program.mem p s then go (s :: acc) s else List.rev (s :: acc))
  in
  go [] c

let direct_subclasses p c =
  Program.fold
    (fun cls acc ->
      match cls.Ir.super with
      | Some s when String.equal s c -> cls.Ir.cname :: acc
      | Some _ | None -> acc)
    p []

let subclasses p c =
  let rec go acc frontier =
    match frontier with
    | [] -> acc
    | x :: rest ->
        let subs = direct_subclasses p x in
        go (subs @ acc) (subs @ rest)
  in
  go [] [ c ]

let is_subclass p ~sub ~super =
  String.equal super Jtype.object_class
  || String.equal sub super
  || List.exists (String.equal super) (super_chain p sub)

let rec implements p ~cls ~intf =
  match Program.find_class p cls with
  | None -> false
  | Some c ->
      List.exists
        (fun i -> String.equal i intf || implements p ~cls:i ~intf)
        c.Ir.interfaces
      || (match c.Ir.super with
         | Some s -> implements p ~cls:s ~intf
         | None -> false)

let is_interface p name =
  match Program.find_class p name with Some c -> c.Ir.cinterface | None -> false

let rec is_assignable p ~from_ ~to_ =
  match from_, to_ with
  | Jtype.Prim a, Jtype.Prim b -> a = b
  | Jtype.Ref _, Jtype.Ref t when String.equal t Jtype.object_class -> true
  | Jtype.Array _, Jtype.Ref t -> String.equal t Jtype.object_class
  | Jtype.Ref f, Jtype.Ref t ->
      if is_interface p t then implements p ~cls:f ~intf:t || String.equal f t
      else is_subclass p ~sub:f ~super:t
  | Jtype.Array f, Jtype.Array t -> is_assignable p ~from_:f ~to_:t
  | (Jtype.Prim _ | Jtype.Ref _ | Jtype.Array _), _ -> false

let all_instance_fields p c =
  let chain = List.rev (super_chain p c) @ [ c ] in
  List.concat_map
    (fun name ->
      match Program.find_class p name with
      | None -> []
      | Some cls ->
          List.filter_map
            (fun (f : Ir.field) -> if f.Ir.fstatic then None else Some (name, f))
            cls.Ir.cfields)
    chain

let resolve_method p ~cls ~name =
  let rec go c =
    match Program.find_method p ~cls:c ~name with
    | Some m -> Some m
    | None -> (
        match Program.find_class p c with
        | Some { Ir.super = Some s; _ } -> go s
        | Some { Ir.super = None; _ } | None -> None)
  in
  go cls

let method_table p c =
  let chain = List.rev (super_chain p c) @ [ c ] in
  let order = ref [] in
  let impl = Stbl.create 16 in
  List.iter
    (fun name ->
      match Program.find_class p name with
      | None -> ()
      | Some cls ->
          List.iter
            (fun (m : Ir.meth) ->
              if not (Stbl.mem impl m.Ir.mname) then order := m.Ir.mname :: !order;
              Stbl.replace impl m.Ir.mname (name, m))
            cls.Ir.cmethods)
    chain;
  List.rev_map (fun n -> Stbl.find impl n) !order

let concrete_subtype p name =
  match Program.find_class p name with
  | None -> None
  | Some c when not c.Ir.cinterface -> Some name
  | Some _ ->
      (* An interface: find any class implementing it. *)
      Program.fold
        (fun cls acc ->
          match acc with
          | Some _ -> acc
          | None ->
              if (not cls.Ir.cinterface) && implements p ~cls:cls.Ir.cname ~intf:name then
                Some cls.Ir.cname
              else None)
        p None
