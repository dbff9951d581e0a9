open Jir

type field_slot = {
  declaring : string;
  name : string;
  jty : Jtype.t;
  offset : int;
  width : int;
}

(* A data class's slots in layout order, and by name (the first slot of
   each name, as a scan of the list would find it). *)
type record = {
  ordered : field_slot list;
  by_name : field_slot Stbl.t;
  data_bytes : int;
}

type t = {
  ids : int Stbl.t;
  names : string array;  (* type id -> name *)
  arrays : bool array;  (* type id -> is an array type *)
  records : record Stbl.t;
  n_data_classes : int;
}

let field_width = function
  | Jtype.Prim p -> Jtype.prim_page_bytes p
  | Jtype.Ref _ | Jtype.Array _ -> 8  (* stored as a page reference *)

let elem_bytes = field_width

let compute p cl =
  let ids = Stbl.create 64 in
  let assigned = ref [] in  (* (name, is array), most recent first *)
  let next = ref 0 in
  let assign ?(array = false) name =
    if not (Stbl.mem ids name) then begin
      let id = !next in
      if id > Pagestore.Layout_rt.max_type_id then
        failwith "Layout.compute: more than 2^15 data types";
      incr next;
      Stbl.replace ids name id;
      assigned := (name, array) :: !assigned
    end
  in
  let data = Classify.data_classes cl in
  (* Classes first (deterministic, sorted), then one array type per data
     class and per primitive (Figure 1 gives Student[] its own ID). *)
  List.iter assign data;
  List.iter (fun c -> assign ~array:true (c ^ "[]")) data;
  List.iter
    (fun pr -> assign ~array:true (Jtype.to_string (Jtype.Array (Jtype.Prim pr))))
    [ Jtype.Bool; Jtype.Byte; Jtype.Char; Jtype.Short; Jtype.Int; Jtype.Long;
      Jtype.Float; Jtype.Double ];
  (* Nested array types (e.g. Student[][]) appearing in code or fields also
     need IDs. *)
  let rec assign_array_type = function
    | Jtype.Array e as a ->
        assign_array_type e;
        assign ~array:true (Jtype.to_string a)
    | Jtype.Prim _ | Jtype.Ref _ -> ()
  in
  List.iter
    (fun (c : Ir.cls) ->
      List.iter (fun (f : Ir.field) -> assign_array_type f.Ir.ftype) c.Ir.cfields;
      List.iter
        (fun m ->
          Ir.iter_instrs
            (function
              | Ir.New_array (_, e, _) -> assign_array_type (Jtype.Array e)
              | Ir.Instance_of (_, _, ty) | Ir.Cast (_, _, ty) -> assign_array_type ty
              | _ -> ())
            m)
        c.Ir.cmethods)
    (Program.classes p);
  let names = Array.make !next "" and arrays = Array.make !next false in
  List.iteri
    (fun i (name, array) ->
      names.(!next - 1 - i) <- name;
      arrays.(!next - 1 - i) <- array)
    !assigned;
  let records = Stbl.create 64 in
  List.iter
    (fun c ->
      let fields = Hierarchy.all_instance_fields p c in
      let off = ref Pagestore.Layout_rt.record_header_bytes in
      let layout =
        List.map
          (fun (declaring, (f : Ir.field)) ->
            let width = field_width f.Ir.ftype in
            let slot =
              { declaring; name = f.Ir.fname; jty = f.Ir.ftype; offset = !off; width }
            in
            off := !off + width;
            slot)
          fields
      in
      let by_name = Stbl.create 8 in
      List.iter
        (fun s -> if not (Stbl.mem by_name s.name) then Stbl.replace by_name s.name s)
        layout;
      Stbl.replace records c
        {
          ordered = layout;
          by_name;
          data_bytes = !off - Pagestore.Layout_rt.record_header_bytes;
        })
    data;
  { ids; names; arrays; records; n_data_classes = List.length data }

let type_id t name = Stbl.find t.ids name

let rec type_key = function
  | Jtype.Ref c -> c
  | Jtype.Array e -> type_key_elem e ^ "[]"
  | Jtype.Prim _ -> invalid_arg "Layout.type_id_of_jtype: primitive type"

and type_key_elem = function
  | Jtype.Prim p -> Jtype.to_string (Jtype.Prim p)
  | Jtype.Ref c -> c
  | Jtype.Array _ as a -> type_key a

let type_id_of_jtype t ty = type_id t (type_key ty)

let name_of_type_id t id =
  if id < 0 || id >= Array.length t.names then raise Not_found else t.names.(id)

let is_array_type_id t id = id >= 0 && id < Array.length t.arrays && t.arrays.(id)

let fields t c = match Stbl.find_opt t.records c with Some r -> r.ordered | None -> []

let field_slot t ~cls ~field =
  match Stbl.find_opt t.records cls with
  | Some r -> Stbl.find r.by_name field
  | None -> raise Not_found

let record_data_bytes t c =
  match Stbl.find_opt t.records c with Some r -> r.data_bytes | None -> 0

let num_types t = Array.length t.names

let data_class_count t = t.n_data_classes
