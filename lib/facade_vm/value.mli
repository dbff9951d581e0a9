(** Runtime values of the jir VM.

    The VM is dynamically typed, like the JVM's interpreter loop. In the
    original program P, data items are heap objects ({!Obj}/{!Arr}); in the
    generated program P′ the same items are page references, which travel
    as ordinary integers ({!Int}) exactly as the generated code's [long]
    page refs do — only the runtime intrinsics interpret them as
    addresses. Facades are distinct heap values. *)

type obj = {
  ocls : string;
  ocid : int;   (** class id in the linked program; [-1] outside one *)
  fields : t array;  (** canonical slot order: superclass fields first *)
  oid : int;  (** identity, for [==] *)
}

and arr = {
  aty : Jir.Jtype.t;  (** element type *)
  elems : t array;
  aid : int;
}

and t =
  | Null
  | Int of int       (** every integral type, booleans, chars, page refs *)
  | Float of float   (** float and double *)
  | Str of string    (** interned string, as Java literals *)
  | Obj of obj
  | Arr of arr
  | Facade of Pagestore.Facade_pool.facade

val of_int : int -> t
(** [Int i], sharing one preallocated block for small non-negative [i].
    The facade data path boxes an [Int] on every integer load from a
    page (object mode returns the element's existing box), so the hot
    loaders route through this instead of the constructor. It is an
    ordinary function call from other modules under dune's default
    [-opaque] build; hot loops restate it over {!small_ints}. *)

val small_ints : t array
(** The shared boxes: [small_ints.(i)] is [Int i] for [0 <= i < 65536].
    Must not be written. *)

val default_of : Jir.Jtype.t -> t
(** Java default value of a field/element of the given type. *)

val truthy : t -> bool
val equal_ref : t -> t -> bool
(** Java [==] semantics: identity for objects/arrays, value equality for
    numbers and interned strings. *)

val to_string : t -> string
val of_const : Jir.Ir.const -> t
