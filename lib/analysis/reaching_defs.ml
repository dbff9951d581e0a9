open Jir

type site = {
  block : int;
  index : int;
  var : Ir.var;
}

(* The order polymorphic [compare] gave: record fields in declaration
   order, strings bytewise. *)
module Sset = Set.Make (struct
  type t = site

  let compare a b =
    match Int.compare a.block b.block with
    | 0 -> ( match Int.compare a.index b.index with 0 -> String.compare a.var b.var | c -> c)
    | c -> c
end)

module S = Dataflow.Solver (struct
  type t = Sset.t

  let equal = Sset.equal
  let join = Sset.union
end)

type t = {
  reach_in : Sset.t array;
  reach_out : Sset.t array;
}

let kill_var v s = Sset.filter (fun d -> not (String.equal d.var v)) s

let block_transfer b (blk : Ir.block) s =
  let s = ref s in
  List.iteri
    (fun i ins ->
      match Defuse.def ins with
      | Some v -> s := Sset.add { block = b; index = i; var = v } (kill_var v !s)
      | None -> ())
    blk.Ir.instrs;
  !s

let analyze (m : Ir.meth) =
  let cfg = Cfg.of_method m in
  let entry =
    let params = List.map fst m.Ir.params in
    let params = if m.Ir.mstatic then params else "this" :: params in
    List.fold_left
      (fun s v -> Sset.add { block = -1; index = -1; var = v } s)
      Sset.empty params
  in
  let r =
    S.solve ~dir:Dataflow.Forward ~cfg ~init:entry ~bottom:Sset.empty
      ~transfer:(fun b s -> block_transfer b m.Ir.body.(b) s)
  in
  { reach_in = r.S.inb; reach_out = r.S.outb }

let defs_of s v = Sset.elements (Sset.filter (fun d -> String.equal d.var v) s)
