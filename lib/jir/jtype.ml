type prim = Bool | Byte | Char | Short | Int | Long | Float | Double

type t =
  | Prim of prim
  | Ref of string
  | Array of t

let object_class = "java.lang.Object"
let string_class = "java.lang.String"

let rec equal a b =
  match a, b with
  | Prim p, Prim q -> p = q
  | Ref c, Ref d -> String.equal c d
  | Array x, Array y -> equal x y
  | (Prim _ | Ref _ | Array _), _ -> false

let is_reference = function Prim _ -> false | Ref _ | Array _ -> true

let element = function
  | Array t -> t
  | Prim _ | Ref _ -> invalid_arg "Jtype.element: not an array type"

let prim_page_bytes = function
  | Bool | Byte -> 1
  | Char | Short -> 2
  | Int | Float -> 4
  | Long | Double -> 8

let prim_to_string = function
  | Bool -> "boolean"
  | Byte -> "byte"
  | Char -> "char"
  | Short -> "short"
  | Int -> "int"
  | Long -> "long"
  | Float -> "float"
  | Double -> "double"

let rec to_string = function
  | Prim p -> prim_to_string p
  | Ref c -> c
  | Array t -> to_string t ^ "[]"

let rec of_name name =
  let n = String.length name in
  if n > 2 && name.[n - 2] = '[' && name.[n - 1] = ']' then
    Array (of_name (String.sub name 0 (n - 2)))
  else
    match name with
    | "boolean" -> Prim Bool
    | "byte" -> Prim Byte
    | "char" -> Prim Char
    | "short" -> Prim Short
    | "int" -> Prim Int
    | "long" -> Prim Long
    | "float" -> Prim Float
    | "double" -> Prim Double
    | c -> Ref c

let pp ppf t = Format.pp_print_string ppf (to_string t)
