(** The CHA call graph shared by the interprocedural concurrency analyses.

    Nodes are ["Class.method"] keys where the class is the {e declaring}
    class of the body. Virtual call edges reuse the devirtualization
    pass's class-hierarchy resolution; Special/Static edges walk the super
    chain. The graph covers every method of the program; in P′ that
    includes the methods the transform keeps on a data class's original,
    which are exactly those control-side code can call on a converted
    heap instance ({!Facade_compiler.Transform.is_kept_original}). *)

type t

val key : cls:string -> name:string -> string

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
