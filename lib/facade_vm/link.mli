(** The linker: lowers a jir program to the {!Resolved} execution form —
    names interned to dense ids, method bodies as instruction arrays over
    slot-indexed frames, vtables / field layouts / type-test outcomes /
    intrinsic bindings precomputed, each method then rewritten by
    {!Quicken}. The result is one-for-one with the jir: each linked block
    holds one instruction per jir instruction and a terminator of the
    same kind. Unresolvable references lower to [Rerror] instructions
    that raise only when executed, so linking accepts everything the
    name-based interpreter would have run. *)

val string_constants : Jir.Program.t -> string array
(** Every [rt.string_literal] payload in the program, deduplicated in
    first-occurrence order — the set both VMs pre-intern at run setup. *)

val object_program :
  ?is_data:(string -> bool) -> ?quicken:bool -> Jir.Program.t -> Resolved.program
(** Link a program for object-mode execution. The [is_data] predicate is
    baked into allocation sites (it drives heap-lifetime charging), so a
    fresh link is produced per predicate. [quicken] is ignored: there is
    one link form, and it is always {!Quicken}ed (one-for-one rewrites
    only; tier 2 fuses at compile time). The argument stays only because
    the benchmark harness under [perfbench/] passes it. *)

val facade_program :
  ?quicken:bool -> Facade_compiler.Pipeline.t -> Resolved.program
(** Link a pipeline's transformed program P′ for facade-mode execution,
    including the layout-derived tables (tid → class, element widths, the
    record-cast matrix). The result is memoized on the pipeline via
    {!Facade_compiler.Pipeline.set_artifact}, so every run of the
    pipeline executes the same resolved program. [quicken] is ignored,
    as for {!object_program}. *)
