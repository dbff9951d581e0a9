type var = string

type const =
  | Cint of int
  | Cfloat of float
  | Cbool of bool
  | Cnull
  | Cstr of string

type binop =
  | Add | Sub | Mul | Div | Rem
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or | Xor | Shl | Shr

type unop = Neg | Not

type call_kind = Virtual | Special | Static

type operand = Var of var | Imm of const

type instr =
  | Const of var * const
  | Move of var * var
  | Binop of var * binop * var * var
  | Unop of var * unop * var
  | New of var * string
  | New_array of var * Jtype.t * var
  | Field_load of var * var * string
  | Field_store of var * string * var
  | Static_load of var * string * string
  | Static_store of string * string * var
  | Array_load of var * var * var
  | Array_store of var * var * var
  | Array_length of var * var
  | Call of var option * call_kind * string * string * var option * var list
  | Instance_of of var * var * Jtype.t
  | Cast of var * var * Jtype.t
  | Monitor_enter of var
  | Monitor_exit of var
  | Iter_start
  | Iter_end
  | Intrinsic of var option * string * operand list

type terminator =
  | Ret of var option
  | Jump of int
  | Branch of var * int * int

type block = {
  instrs : instr list;
  term : terminator;
}

type meth = {
  mname : string;
  mstatic : bool;
  params : (var * Jtype.t) list;
  mret : Jtype.t option;
  locals : (var * Jtype.t) list;
  body : block array;
}

type field = {
  fname : string;
  ftype : Jtype.t;
  fstatic : bool;
  finit : const option;
}

type cls = {
  cname : string;
  super : string option;
  interfaces : string list;
  cfields : field list;
  cmethods : meth list;
  cinterface : bool;
}

let rec assoc_var v = function
  | [] -> None
  | (x, t) :: rest -> if String.equal x v then Some t else assoc_var v rest

let var_type m v =
  match assoc_var v m.params with Some t -> Some t | None -> assoc_var v m.locals

let iter_vars f = function
  | Const (v, _) | New (v, _) | Static_load (v, _, _) -> f v
  | Move (v, s)
  | Unop (v, _, s)
  | Array_length (v, s)
  | Instance_of (v, s, _)
  | Cast (v, s, _)
  | New_array (v, _, s)
  | Field_load (v, s, _) ->
      f v;
      f s
  | Binop (v, _, x, y) | Array_load (v, x, y) ->
      f v;
      f x;
      f y
  | Static_store (_, _, s) | Monitor_enter s | Monitor_exit s -> f s
  | Field_store (o, _, s) ->
      f o;
      f s
  | Array_store (a, i, s) ->
      f a;
      f i;
      f s
  | Call (ret, _, _, _, recv, args) ->
      Option.iter f ret;
      Option.iter f recv;
      List.iter f args
  | Intrinsic (ret, _, ops) ->
      Option.iter f ret;
      List.iter (function Var v -> f v | Imm _ -> ()) ops
  | Iter_start | Iter_end -> ()

let instr_count m =
  Array.fold_left (fun acc b -> acc + List.length b.instrs + 1) 0 m.body

let method_instr_count c =
  List.fold_left (fun acc m -> acc + instr_count m) 0 c.cmethods

let map_blocks f m = { m with body = Array.mapi f m.body }

let iter_instrs f m =
  Array.iter (fun b -> List.iter f b.instrs) m.body

(* A loop rather than [Array.exists] over a closure, which would be
   allocated on every call: the optimizer's early exits ask this of every
   method. *)
let rec exists_from f body b =
  b < Array.length body && (List.exists f body.(b).instrs || exists_from f body (b + 1))

let exists_instr f m = exists_from f m.body 0

let iteri_instrs f m =
  Array.iteri (fun b blk -> List.iteri (fun i ins -> f b i ins) blk.instrs) m.body
