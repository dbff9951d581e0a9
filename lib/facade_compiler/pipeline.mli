(** The complete FACADE compilation pipeline: classify → check assumptions
    → (optimize) → layout → bounds → transform → validate. Mirrors the
    paper's user workflow: provide the data-class list (plus boundary
    annotations) and get back the generated program with its runtime
    metadata. *)

type validation_error = {
  vwhere : string;  (** "Class.method" in the transformed program *)
  vwhat : string;
}

exception Invalid_transform of validation_error list
(** The post-transform validation failed: P′ violates an invariant the
    runtime depends on. This is a compiler bug, not a user error. *)

type artifact = ..
(** Downstream stages (the VM's linker) cache their lowering of P′ here,
    keyed by extending this type — the pipeline owns the generated
    program, so it also owns the derived executable form. *)

type t = {
  original : Jir.Program.t;
  transformed : Jir.Program.t;
  classification : Classify.t;
  layout : Layout.t;
  bounds : Bounds.t;
  conversions : string list;
  instrs_in : int;
  instrs_out : int;
  classes_transformed : int;
  seconds : float;               (** wall-clock transformation time *)
  mutable artifact : artifact option;  (** linked P′, set on first link *)
}

val artifact : t -> artifact option
val set_artifact : t -> artifact -> unit
(** The linked-form cache: {!compile} leaves it [None]; the first
    {!Facade_vm.Interp.run_facade} on this pipeline fills it so later runs
    skip re-linking. *)

val compile :
  ?devirtualize:bool ->
  spec:Classify.spec ->
  Jir.Program.t ->
  t
(** Raises {!Assumptions.Violated} or {!Transform.Error} — the paper's
    compilation errors that the developer must fix by refactoring — or
    {!Invalid_transform} when the generated P′ fails post-transform
    validation. *)

val validate_transformed :
  Classify.t -> Bounds.t -> Jir.Program.t -> validation_error list
(** The validation [compile] runs on every compilation: no data-path class
    of P′ (facade or boundary class) retains a [New] of a data class — all
    data allocations must have become [rt.alloc]/[rt.alloc_array]
    intrinsics (§3.1) — and every emitted [pool.param] index stays within
    the computed {!Bounds.bound} for its type (§3.3). *)

val instrs_per_second : t -> float
(** Transformation speed, comparable to §4's 752–1102 instructions/s. *)

val facades_per_thread : t -> int
(** The per-thread facade population O(n) — e.g. GraphChi's 11. *)
