open Jir

(* The CHA call graph shared by the concurrency analyses (races, escape,
   certify). Nodes are method keys "Class.method" where [Class] is the
   DECLARING class of the body, so a key always resolves to one concrete
   [Ir.meth]. Virtual edges use the same class-hierarchy resolution as the
   devirtualization pass ({!Facade_compiler.Optimize.possible_targets}),
   answered from one CHA index built with the graph; Special/Static edges
   walk the super chain to the declaring class.

   The universe is every method of the program. In a post-transform
   program P′ that includes the original data classes kept next to their
   [$Facade] twins: the transform leaves them only the methods control
   code can call on a converted heap instance, so their bodies are code
   facade mode can run, and their edges are real. *)

type t = {
  program : Program.t;
  cha : Facade_compiler.Optimize.cha;
  entry : string;
  edges : (string, string list) Hashtbl.t;
  methods : (string, Ir.cls * Ir.meth) Hashtbl.t;
  reach : (string, unit) Hashtbl.t;
}

let key ~cls ~name = cls ^ "." ^ name

let targets p cha kind cls name =
  match (kind : Ir.call_kind) with
  | Ir.Virtual ->
      List.map (fun c -> key ~cls:c ~name) (Facade_compiler.Optimize.possible_targets cha ~cls ~name)
  | Ir.Special | Ir.Static -> (
      match Facade_compiler.Optimize.declaring p ~name cls with
      | Some c -> [ key ~cls:c ~name ]
      | None -> [])

let call_targets t kind cls name = targets t.program t.cha kind cls name

let build p =
  let cha = Facade_compiler.Optimize.cha p in
  let edges = Hashtbl.create 64 in
  let methods = Hashtbl.create 64 in
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (m : Ir.meth) ->
          let k = key ~cls:c.Ir.cname ~name:m.Ir.mname in
          Hashtbl.replace methods k (c, m);
          let callees = ref [] in
          Ir.iter_instrs
            (function
              | Ir.Call (_, kind, cls, name, _, _) ->
                  List.iter
                    (fun t -> if not (List.mem t !callees) then callees := t :: !callees)
                    (targets p cha kind cls name)
              | _ -> ())
            m;
          Hashtbl.replace edges k (List.rev !callees))
        c.Ir.cmethods)
    (Program.classes p);
  let entry_cls, entry_m = Program.entry p in
  let entry = key ~cls:entry_cls ~name:entry_m in
  let reach = Hashtbl.create 64 in
  let rec visit k =
    if Hashtbl.mem methods k && not (Hashtbl.mem reach k) then begin
      Hashtbl.replace reach k ();
      List.iter visit (Option.value ~default:[] (Hashtbl.find_opt edges k))
    end
  in
  visit entry;
  { program = p; cha; entry; edges; methods; reach }

let program t = t.program

let entry_key t = t.entry

let callees t k = Option.value ~default:[] (Hashtbl.find_opt t.edges k)

let method_of_key t k = Hashtbl.find_opt t.methods k

let is_reachable t k = Hashtbl.mem t.reach k

let reachable t =
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.reach [])

(* Closure over call edges from a seed set — used for "everything a spawned
   thread may execute". *)
let reachable_from t seeds =
  let seen = Hashtbl.create 16 in
  let rec visit k =
    if Hashtbl.mem t.methods k && not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      List.iter visit (callees t k)
    end
  in
  List.iter visit seeds;
  seen

let iter_methods t f =
  let keys =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.methods [])
  in
  List.iter
    (fun k ->
      let c, m = Hashtbl.find t.methods k in
      f k c m)
    keys
