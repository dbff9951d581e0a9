open Jir

let def = function
  | Ir.Const (v, _)
  | Ir.Move (v, _)
  | Ir.Binop (v, _, _, _)
  | Ir.Unop (v, _, _)
  | Ir.New (v, _)
  | Ir.New_array (v, _, _)
  | Ir.Field_load (v, _, _)
  | Ir.Static_load (v, _, _)
  | Ir.Array_load (v, _, _)
  | Ir.Array_length (v, _)
  | Ir.Instance_of (v, _, _)
  | Ir.Cast (v, _, _) ->
      Some v
  | Ir.Call (ret, _, _, _, _, _) | Ir.Intrinsic (ret, _, _) -> ret
  | Ir.Field_store _ | Ir.Static_store _ | Ir.Array_store _ | Ir.Monitor_enter _
  | Ir.Monitor_exit _ | Ir.Iter_start | Ir.Iter_end ->
      None

let uses = function
  | Ir.Const _ | Ir.New _ | Ir.Static_load _ | Ir.Iter_start | Ir.Iter_end -> []
  | Ir.Move (_, s) | Ir.Unop (_, _, s) | Ir.Static_store (_, _, s)
  | Ir.Array_length (_, s) | Ir.Instance_of (_, s, _) | Ir.Cast (_, s, _)
  | Ir.New_array (_, _, s) | Ir.Monitor_enter s | Ir.Monitor_exit s ->
      [ s ]
  | Ir.Binop (_, _, x, y) -> [ x; y ]
  | Ir.Field_load (_, o, _) -> [ o ]
  | Ir.Field_store (o, _, s) -> [ o; s ]
  | Ir.Array_load (_, a, i) -> [ a; i ]
  | Ir.Array_store (a, i, s) -> [ a; i; s ]
  | Ir.Call (_, _, _, _, recv, args) -> Option.to_list recv @ args
  | Ir.Intrinsic (_, _, ops) ->
      List.filter_map (function Ir.Var v -> Some v | Ir.Imm _ -> None) ops

let term_uses = function
  | Ir.Ret (Some v) -> [ v ]
  | Ir.Ret None | Ir.Jump _ -> []
  | Ir.Branch (v, _, _) -> [ v ]

(* [reads ins v] = [List.mem v (uses ins)] and [defines ins v] =
   [def ins = Some v], without building the list or the option: the
   optimizer's early exits ask them per instruction. *)
let rec reads_var v = function [] -> false | x :: rest -> String.equal x v || reads_var v rest

let rec reads_operand v = function
  | [] -> false
  | Ir.Var x :: rest -> String.equal x v || reads_operand v rest
  | Ir.Imm _ :: rest -> reads_operand v rest

let reads ins v =
  match ins with
  | Ir.Const _ | Ir.New _ | Ir.Static_load _ | Ir.Iter_start | Ir.Iter_end -> false
  | Ir.Move (_, s) | Ir.Unop (_, _, s) | Ir.Static_store (_, _, s)
  | Ir.Array_length (_, s) | Ir.Instance_of (_, s, _) | Ir.Cast (_, s, _)
  | Ir.New_array (_, _, s) | Ir.Monitor_enter s | Ir.Monitor_exit s
  | Ir.Field_load (_, s, _) ->
      String.equal s v
  | Ir.Binop (_, _, x, y) | Ir.Field_store (x, _, y) | Ir.Array_load (_, x, y) ->
      String.equal x v || String.equal y v
  | Ir.Array_store (a, i, s) -> String.equal a v || String.equal i v || String.equal s v
  | Ir.Call (_, _, _, _, recv, args) ->
      (match recv with Some r -> String.equal r v | None -> false) || reads_var v args
  | Ir.Intrinsic (_, _, ops) -> reads_operand v ops

let term_reads term v =
  match term with
  | Ir.Ret (Some x) | Ir.Branch (x, _, _) -> String.equal x v
  | Ir.Ret None | Ir.Jump _ -> false

let defines ins v =
  match ins with
  | Ir.Const (d, _)
  | Ir.Move (d, _)
  | Ir.Binop (d, _, _, _)
  | Ir.Unop (d, _, _)
  | Ir.New (d, _)
  | Ir.New_array (d, _, _)
  | Ir.Field_load (d, _, _)
  | Ir.Static_load (d, _, _)
  | Ir.Array_load (d, _, _)
  | Ir.Array_length (d, _)
  | Ir.Instance_of (d, _, _)
  | Ir.Cast (d, _, _)
  | Ir.Call (Some d, _, _, _, _, _)
  | Ir.Intrinsic (Some d, _, _) ->
      String.equal d v
  | Ir.Call (None, _, _, _, _, _) | Ir.Intrinsic (None, _, _) | Ir.Field_store _
  | Ir.Static_store _ | Ir.Array_store _ | Ir.Monitor_enter _ | Ir.Monitor_exit _
  | Ir.Iter_start | Ir.Iter_end ->
      false
