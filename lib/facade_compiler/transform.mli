(** The FACADE code transformation (paper §2.2, §3.2, Table 1).

    For every data class [D] the transformation generates a facade class
    [D$Facade] with no instance fields, static [f_OFFSET] fields, and every
    method of [D] rewritten so that:

    - parameters of data-class type become facade parameters whose page
      reference is loaded in the prologue (Table 1 case 1);
    - field accesses become [FacadeRuntime] get/set intrinsics at the
      statically computed offsets (cases 3, 4);
    - allocations become page allocations plus a [facade$init] call
      (Fig. 2 transformation 3);
    - calls prepare receiver and argument facades from the per-thread
      pools, using [resolve] for virtual receivers (case 6);
    - returns of data values wrap the page reference in pool slot 0
      (case 5);
    - [instanceof] resolves the runtime type (case 7);
    - monitor enter/exit on data records go through the shared lock pool;
    - data flowing across the control/data boundary passes through a
      synthesized conversion function (cases 3.3, 4.3, 6.3).

    Boundary classes stay on the heap but their annotated data fields
    become page references and their methods are rewritten the same way.
    Interfaces implemented by data classes get [I$Facade] counterparts. *)

val facade_name : string -> string
(** ["D"] ↦ ["D$Facade"]. *)

val facade_base : string -> string option
(** The inverse of {!facade_name}: ["D$Facade"] ↦ [Some "D"], and [None]
    for a name that is not a facade class's. *)

val init_name : string
(** The renamed constructor, ["facade$init"]. *)

val constructor_name : string
(** The source-program constructor, ["<init>"]. *)

val is_kept_original : Classify.t -> Jir.Program.t -> string -> bool
(** Is this class of P′ a data class's original, kept next to its [$Facade]
    twin? Conversion functions build its heap instances, so its fields
    and layout stay whole; of its methods, {!run} keeps only those that
    control-side code can call on such an instance. Its code runs on heap
    objects: it is control-side code, however its class is classified. *)

type error = {
  where : string;
  what : string;  (** e.g. a case-3.4 assumption violation *)
}

exception Error of error

type result = {
  program : Jir.Program.t;
  conversions : string list;
      (** classes a [convertTo]/[convertFrom] pair was synthesized for *)
  instrs_in : int;   (** data-path instructions before transformation *)
  instrs_out : int;
  classes_transformed : int;
}

val run :
  Jir.Program.t ->
  Classify.t ->
  Layout.t ->
  Bounds.t ->
  unit ->
  result
(** Transform the data path of a verified program. The output program
    contains facade classes, rewritten boundary classes, generated facade
    interfaces, untouched control classes, and each data class's original
    with its fields and only the methods control-side code can call (see
    {!is_kept_original}); the entry point is remapped when it lives in a
    transformed class. An array allocation whose static size exceeds
    the 32 KiB page size goes to an oversize page. *)
