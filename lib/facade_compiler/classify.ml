open Jir

type spec = {
  data_roots : string list;
  boundary : (string * string list) list;
}

type t = {
  data : unit Stbl.t;
  boundary_fields : string list Stbl.t;
  detected : string list;
}

(* Class names reachable from a field type: the classes whose instances a
   data record can reference. *)
let rec ref_classes = function
  | Jtype.Prim _ -> []
  | Jtype.Ref c -> [ c ]
  | Jtype.Array t -> ref_classes t

let classify p spec =
  let data = Stbl.create 64 in
  let boundary_fields = Stbl.create 8 in
  List.iter (fun (c, fs) -> Stbl.replace boundary_fields c fs) spec.boundary;
  let is_boundary c = Stbl.mem boundary_fields c in
  let add_work work c =
    if (not (Stbl.mem data c)) && not (is_boundary c) then begin
      Stbl.replace data c ();
      Queue.add c work
    end
  in
  let work = Queue.create () in
  Stbl.replace data Jtype.string_class ();
  List.iter (add_work work) spec.data_roots;
  while not (Queue.is_empty work) do
    let c = Queue.pop work in
    match Program.find_class p c with
    | None -> ()  (* opaque (e.g. JDK) data class: no further structure *)
    | Some cls ->
        if not cls.Ir.cinterface then begin
          (* Reference-typed fields point to further data classes. *)
          List.iter
            (fun (f : Ir.field) ->
              if not f.Ir.fstatic then
                List.iter (add_work work) (ref_classes f.Ir.ftype))
            cls.Ir.cfields;
          (* Type-closed world: close over the class hierarchy both ways. *)
          List.iter (add_work work) (Hierarchy.super_chain p c);
          List.iter (add_work work) (Hierarchy.subclasses p c)
        end
  done;
  let roots = spec.data_roots in
  let detected =
    Stbl.fold
      (fun c () acc ->
        if List.exists (String.equal c) roots || String.equal c Jtype.string_class then acc
        else c :: acc)
      data []
  in
  { data; boundary_fields; detected = List.sort String.compare detected }

let is_data_class t c = Stbl.mem t.data c

let is_boundary_class t c = Stbl.mem t.boundary_fields c

let is_boundary_data_field t ~cls ~field =
  match Stbl.find_opt t.boundary_fields cls with
  | None -> false
  | Some fs -> List.exists (String.equal field) fs

let rec is_data_type t = function
  | Jtype.Prim _ -> false
  | Jtype.Ref c -> is_data_class t c
  | Jtype.Array (Jtype.Prim _) -> true
  | Jtype.Array e -> is_data_type t e

let data_classes t =
  List.sort String.compare (Stbl.fold (fun c () acc -> c :: acc) t.data [])
