(** Data-path classification (paper §3, §4).

    The user provides a list of root data classes (and optionally boundary
    classes with their data fields annotated, as GraphChi's evaluation
    does). Starting from the roots, the compiler detects further data
    classes exactly as §4.3 describes ("Starting from these classes,
    FACADE further detected 44 data classes and 13 boundary classes"):
    the data set is closed over reference-typed field types, superclasses,
    and subclasses. [java.lang.String] is always a data class. *)

type spec = {
  data_roots : string list;
  boundary : (string * string list) list;
      (** (class, annotated data fields): the class stays on the heap but
          its listed fields are page-allocated *)
}

type t = {
  data : unit Jir.Stbl.t;      (** all data classes, detected included *)
  boundary_fields : string list Jir.Stbl.t;
  detected : string list;               (** data classes not in the user's roots *)
}

val classify : Jir.Program.t -> spec -> t

val is_data_class : t -> string -> bool
val is_boundary_class : t -> string -> bool
val is_boundary_data_field : t -> cls:string -> field:string -> bool

val is_data_type : t -> Jir.Jtype.t -> bool
(** A type whose instances live in pages in P′: a data class reference, or
    an array whose elements are primitives or data types (arrays reachable
    from the data path are data records themselves). *)

val data_classes : t -> string list
(** Sorted. *)
