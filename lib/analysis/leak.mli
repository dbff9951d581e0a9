(** Boundary-leak detection (forward taint): the paper's interaction-point
    discipline (§3.5) as a checkable lint.

    Data references must cross from the data path into the control path
    only through the synthesized conversion functions (the [convert.to] /
    [convert.from] intrinsics). Given a classification, this analysis
    taints, inside every data-path method, the values that carry raw data
    references — variables of data type (per {!Facade_compiler.Classify.is_data_type}),
    allocations of data classes, and the page-reference-producing runtime
    intrinsics ([rt.alloc], [facade.read], [rt.get_ref], ...) — and
    reports any tainted value flowing into a control-path field store,
    static store, array store, or a non-conversion control-path call.
    Conversion intrinsics launder taint: their results are legitimate heap
    copies.

    Data-path methods are those of data classes, boundary classes, and
    facade classes of data classes. In P′, a data class kept next to its
    facade ({!Facade_compiler.Transform.is_kept_original}) is control-side
    code and is skipped: the methods it keeps are those control code calls
    on converted heap instances, so its data-typed values are heap
    objects, and handing [this] back to control code is no leak. *)

val check : Facade_compiler.Classify.t -> Jir.Program.t -> Finding.t list

val check_method :
  Facade_compiler.Classify.t ->
  where:string ->
  declaring:string ->
  Jir.Ir.meth ->
  Finding.t list
(** Analyze a single method as a member of class [declaring]. Exposed for
    tests; {!check} applies it to every data-path method of the program. *)
