(** The object-boundedness certifier.

    Re-derives the per-type facade-pool bounds from the generated P′ (the
    deepest [pool.param] slot emitted, with the slot-0 floor every data
    type gets) and cross-checks them statically against the compiler's
    {!Facade_compiler.Bounds} and at runtime against the VM's observed
    pool peaks — the paper's O(t·n + p) object bound as a checkable
    artifact. *)

type t = {
  params : int array;        (** certified parameter-pool bound, by type id *)
  receivers : int;           (** receiver facades per pool instance *)
  per_thread : int;          (** receivers + Σ params: facades per thread *)
  paper_per_thread : int;    (** the paper's t·n count: data receivers + Σ *)
}

val of_pipeline : Facade_compiler.Pipeline.t -> t

val static_errors : Facade_compiler.Pipeline.t -> t -> string list
(** Mismatches between the certificate and the compiler's pool bounds;
    empty on every well-formed compilation. *)

val validate_runtime :
  t -> max_pool_index:(int * int) list -> facades_allocated:int -> (unit, string list) result
(** Check observed per-type pool peaks (type id, max slot index) and the
    VM's total facade allocation against the certificate. *)
