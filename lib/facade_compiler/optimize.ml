open Jir

(* Per-program CHA index: for every type name, the concrete classes
   assignable to it, in program order. A class is assignable to each of
   its super chain, to itself, and to every interface it (or a super, or
   a super-interface) implements — exactly [Hierarchy.is_subclass ||
   Hierarchy.implements]. [Object] admits every concrete class, whatever
   its declared chain. Built once per program and immutable afterwards,
   so concurrent compiles never share it. *)
module Smap = Map.Make (String)

type cha = { prog : Program.t; concrete : string list; subtypes : string list Smap.t }

let cha p =
  let classes = Program.classes p in
  let rec interfaces acc name =
    match Program.find_class p name with
    | None -> acc
    | Some c ->
        let acc = List.fold_left (fun acc i -> interfaces (i :: acc) i) acc c.Ir.interfaces in
        (match c.Ir.super with Some s -> interfaces acc s | None -> acc)
  in
  let concrete =
    List.filter_map (fun (c : Ir.cls) -> if c.Ir.cinterface then None else Some c.Ir.cname) classes
  in
  let subtypes =
    List.fold_left
      (fun tbl c ->
        let supers = List.sort_uniq String.compare (c :: Hierarchy.super_chain p c @ interfaces [] c) in
        List.fold_left
          (fun tbl s -> Smap.update s (fun l -> Some (c :: Option.value ~default:[] l)) tbl)
          tbl supers)
      Smap.empty (List.rev concrete)
  in
  { prog = p; concrete; subtypes }

let concrete_subtypes t cls =
  if String.equal cls Jtype.object_class then t.concrete
  else Option.value ~default:[] (Smap.find_opt cls t.subtypes)

(* Declaring class of [name] looked up from [cls] up its super chain —
   the class whose body [Hierarchy.resolve_method] would return. *)
let declaring p ~name cls =
  let rec walk cls =
    match Program.find_method p ~cls ~name with
    | Some _ -> Some cls
    | None -> (
        match Program.find_class p cls with
        | Some { Ir.super = Some s; _ } -> walk s
        | Some { Ir.super = None; _ } | None -> None)
  in
  walk cls

(* Concrete classes that provide (or inherit) method [name] and are
   assignable to receiver type [cls]; two subclasses may inherit the same
   concrete method, so the answer is deduplicated by declaring class. *)
let possible_targets t ~cls ~name =
  List.sort_uniq String.compare
    (List.filter_map (declaring t.prog ~name) (concrete_subtypes t cls))

(* Early exit: [m] has no virtual call, so nothing can be devirtualized. *)
let no_virtual_call m =
  not (Ir.exists_instr (function Ir.Call (_, Ir.Virtual, _, _, _, _) -> true | _ -> false) m)

let devirtualize_sites ?(count = ref 0) t (m : Ir.meth) =
  Ir.map_blocks
    (fun _ blk ->
      let instrs =
        List.map
          (fun ins ->
            match ins with
            | Ir.Call (ret, Ir.Virtual, cls, name, recv, args) -> (
                match possible_targets t ~cls ~name with
                | [ only ] ->
                    incr count;
                    Ir.Call (ret, Ir.Special, only, name, recv, args)
                | _ -> ins)
            | _ -> ins)
          blk.Ir.instrs
      in
      { blk with Ir.instrs })
    m

let devirtualize_meth ?count t m =
  if no_virtual_call m then m else devirtualize_sites ?count t m

(* A class none of whose sites changed is kept as it is. *)
let devirtualize p =
  let t = cha p in
  let count = ref 0 in
  List.fold_left
    (fun acc (c : Ir.cls) ->
      let before = !count in
      let cmethods = List.map (devirtualize_meth ~count t) c.Ir.cmethods in
      if !count = before then acc else Program.replace_class acc { c with Ir.cmethods })
    p (Program.classes p)

let count_kinds p =
  Program.fold
    (fun c acc ->
      List.fold_left
        (fun acc m ->
          let n = ref 0 in
          Ir.iter_instrs
            (function Ir.Call (_, Ir.Virtual, _, _, _, _) -> incr n | _ -> ())
            m;
          acc + !n)
        acc c.Ir.cmethods)
    p 0

let devirtualized_calls before after = count_kinds before - count_kinds after
