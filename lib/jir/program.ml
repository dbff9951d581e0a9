module Smap = Map.Make (String)

(* [classes] is kept in insertion order next to the map, so reading it
   costs nothing; [make], [add_class] and [replace_class] keep the two in
   step. *)
type t = {
  by_name : Ir.cls Smap.t;
  classes : Ir.cls list;
  entry : string * string;
}

let make ?(entry = ("Main", "main")) classes =
  let by_name =
    List.fold_left
      (fun m (c : Ir.cls) ->
        if Smap.mem c.Ir.cname m then
          invalid_arg (Printf.sprintf "Program.make: duplicate class %s" c.Ir.cname);
        Smap.add c.Ir.cname c m)
      Smap.empty classes
  in
  { by_name; classes; entry }

let classes t = t.classes

let entry t = t.entry

let find_class t n = Smap.find_opt n t.by_name

let get_class t n =
  match find_class t n with Some c -> c | None -> raise Not_found

let mem t n = Smap.mem n t.by_name

let find_method t ~cls ~name =
  match find_class t cls with
  | None -> None
  | Some c -> List.find_opt (fun (m : Ir.meth) -> String.equal m.Ir.mname name) c.Ir.cmethods

let add_class t c =
  if Smap.mem c.Ir.cname t.by_name then
    invalid_arg (Printf.sprintf "Program.add_class: duplicate class %s" c.Ir.cname);
  { t with by_name = Smap.add c.Ir.cname c t.by_name; classes = t.classes @ [ c ] }

(* The list with [c] in place of its namesake; the tail after it is
   shared. *)
let rec swap (c : Ir.cls) = function
  | [] -> []
  | (c' : Ir.cls) :: rest ->
      if String.equal c'.Ir.cname c.Ir.cname then c :: rest else c' :: swap c rest

let replace_class t c =
  if not (Smap.mem c.Ir.cname t.by_name) then
    invalid_arg (Printf.sprintf "Program.replace_class: unknown class %s" c.Ir.cname);
  { t with by_name = Smap.add c.Ir.cname c t.by_name; classes = swap c t.classes }

let total_instrs t =
  Smap.fold (fun _ c acc -> acc + Ir.method_instr_count c) t.by_name 0

let fold f t acc = List.fold_left (fun acc c -> f c acc) acc t.classes
