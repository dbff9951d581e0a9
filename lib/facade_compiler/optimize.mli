(** Pre-transformation optimizations (paper §3.6).

    The paper lists three: inlining of large arrays / wrappers / immutable
    records, static resolution of virtual calls via points-to analysis, and
    an oversize class for >32 K arrays. Here:

    - {!devirtualize} resolves virtual calls whose receiver hierarchy has a
      single concrete target (class-hierarchy analysis — a sound
      approximation of the paper's points-to-based resolution), turning
      them into [Special] calls so the generated code skips [resolve] and
      the receiver pool;
    - oversize allocation is decided in {!Transform} from statically known
      array lengths;
    - record inlining is exercised by the framework backends (the
      evaluation path), where vertex/edge payloads are laid out inline —
      see the ablation benchmark. *)

type cha
(** A per-program class-hierarchy index: each type's concrete subtypes,
    computed once. Immutable after {!cha} returns. *)

val cha : Jir.Program.t -> cha

val concrete_subtypes : cha -> string -> string list
(** Non-interface classes assignable to the named type (subclasses,
    itself, implementors; every concrete class for [Object]), in program
    order. *)

val declaring : Jir.Program.t -> name:string -> string -> string option
(** The class that declares the body of method [name] found from the given
    class up its super chain — the body [Jir.Hierarchy.resolve_method]
    returns; the resolution of a special or static call. *)

val possible_targets : cha -> cls:string -> name:string -> string list
(** Concrete classes (deduped by declaring class) a virtual call on a
    [cls]-typed receiver can dispatch to — the CHA core shared with
    [lib/opt]'s devirtualization pass and [Analysis.Callgraph]. *)

val no_virtual_call : Jir.Ir.meth -> bool
(** The method has no [Virtual] call, so {!devirtualize_meth} returns it
    as itself. *)

val devirtualize_sites : ?count:int ref -> cha -> Jir.Ir.meth -> Jir.Ir.meth
(** Turns each virtual site of the method with exactly one possible
    target into a [Special] call, adding one to [count] per site. *)

val devirtualize_meth : ?count:int ref -> cha -> Jir.Ir.meth -> Jir.Ir.meth
(** {!devirtualize_sites}, except that a method {!no_virtual_call}
    admits comes back as itself. *)

val devirtualize : Jir.Program.t -> Jir.Program.t
(** Devirtualizes every method; a class none of whose sites changed is
    kept as it is. *)

val devirtualized_calls : Jir.Program.t -> Jir.Program.t -> int
(** Number of call sites whose kind changed between the two programs. *)
