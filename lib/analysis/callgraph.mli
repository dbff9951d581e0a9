(** The CHA call graph shared by the interprocedural concurrency analyses.

    Nodes are ["Class.method"] keys where the class is the {e declaring}
    class of the body. Virtual call edges reuse the devirtualization
    pass's class-hierarchy resolution; Special/Static edges walk the super
    chain. Classes that have a [$Facade] sibling in the same program are
    retained pre-transform originals, unreachable from the transformed
    entry, and are excluded from the graph. *)

type t

val key : cls:string -> name:string -> string

val kept_original : Jir.Program.t -> string -> bool
(** Is this class a pre-transform original kept alongside its [$Facade]
    twin (and therefore outside the analysis universe)? *)

val declaring : Jir.Program.t -> string -> string -> string option
(** Declaring class of a method, starting the lookup at the given class
    and walking the super chain. *)

val build : Jir.Program.t -> t
(** Builds the program's CHA index once and answers every virtual site
    from it. *)

val call_targets : t -> Jir.Ir.call_kind -> string -> string -> string list
(** Possible callee keys of one call site in the graph's program (CHA for
    virtual calls). *)

val program : t -> Jir.Program.t
val entry_key : t -> string
val callees : t -> string -> string list
val method_of_key : t -> string -> (Jir.Ir.cls * Jir.Ir.meth) option
val is_reachable : t -> string -> bool
(** Reachable from the program entry along call edges. *)

val reachable : t -> string list
(** Sorted keys reachable from the entry. *)

val reachable_from : t -> string list -> (string, unit) Hashtbl.t
(** Closure over call edges from a seed set of keys. *)

val iter_methods : t -> (string -> Jir.Ir.cls -> Jir.Ir.meth -> unit) -> unit
(** Every method in the analysis universe, in sorted key order. *)
