(** Execution statistics the experiments observe: object populations per
    class (the paper's E7-style counts), page records, pool usage, the
    program's captured output (used by the P ≡ P′ equivalence tests), and
    — since the resolved-execution layer — dispatch and instruction-mix
    counters that make the interpreter's hot-path behaviour observable. *)

val mix_labels : string array
(** Names of the instruction-mix categories, indexed by the [cat_*]
    constants below (in the same order as {!t.mix}). *)

val cat_const : int
val cat_move : int
val cat_arith : int
val cat_alloc : int
val cat_field : int
val cat_static : int
val cat_array : int
val cat_call_direct : int
val cat_call_virtual : int
val cat_typetest : int
val cat_monitor : int
val cat_iter : int
val cat_intrinsic : int
val cat_other : int

type t = {
  mutable heap_objects : int;        (** all heap allocations (P: incl. data) *)
  mutable data_objects : int;        (** heap objects of data classes *)
  mutable page_records : int;        (** records allocated in pages (P′) *)
  by_class : (string, int) Hashtbl.t;
  max_pool_index : (int, int) Hashtbl.t;  (** type id → max param index used *)
  mutable steps : int;
  mutable output : string list;      (** reversed sys.print lines *)
  mutable static_dispatches : int;   (** static/special calls executed *)
  mutable virtual_dispatches : int;  (** vtable dispatches executed *)
  mutable intrinsic_dispatches : int;  (** pre-bound intrinsic invocations *)
  mutable ic_hits : int;             (** inline-cache hits *)
  mutable ic_misses : int;           (** inline-cache misses/refills *)
  mix : int array;                   (** per-category instruction counts *)
  mutable m_calls : int array;       (** per-method call counts (by method index) *)
  mutable m_ic_hits : int array;     (** per-method IC hits *)
  mutable m_ic_misses : int array;   (** per-method IC misses *)
  mutable tier2_compiles : int;      (** methods compiled to tier-2 closures *)
  mutable tier2_entries : int;       (** calls entering tier-2 code *)
  mutable tier2_deopts : int;        (** guard failures falling back to tier-1 *)
  mutable tier2_int_slots : int;
      (** frame slots of the methods compiled this run that tier 2 keeps
          unboxed as ints *)
  mutable tier2_float_slots : int;   (** the same, unboxed as floats *)
  mutable tier2_boxed_slots : int;   (** the same, left in the boxed frame *)
  mutable tier2_delegated : int;
      (** instructions compiled code handed to tier 1's [h_exec], one
          per execution *)
  mutable tier2_recompiles : int;
      (** always 0: tier 2 no longer recompiles; kept for the perfbench
          ledger and the service wire format *)
  mutable osr_entries : int;
      (** always 0: tier 2 has no on-stack replacement; kept for the
          perfbench ledger and the service wire format *)
}

val create : unit -> t

val zero : t -> unit
(** Reset every counter, table, and the output in place. *)

val copy : t -> t
(** Deep copy (tables and mix array are duplicated). *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst]: counters and mixes sum,
    per-class counts sum, pool indices take the max, and [src]'s output
    lines are appended after [dst]'s. Merging per-worker shards in join
    order reproduces the sequential totals. *)

val ensure_methods : t -> int -> unit
(** Grow the per-method counter arrays to cover [n] method indices.
    Called once at VM setup (and when merging shards of differing
    sizes); the note functions below are bounds-checked no-ops outside
    the sized range. *)

val note_mcall : t -> int -> unit
(** Count one invocation of the method at the given resolved index. *)

val note_ic_hit : t -> int -> unit
(** Count an inline-cache hit, attributed to the enclosing method. *)

val note_ic_miss : t -> int -> unit
(** Count an inline-cache miss/refill, attributed to the enclosing
    method. *)

val method_calls : t -> int -> int
(** Calls recorded for a method index ([0] outside the sized range). *)

val note_alloc : t -> cls:string -> is_data:bool -> unit
val note_record : t -> unit
val note_pool_use : t -> type_id:int -> index:int -> unit
val output_lines : t -> string list
(** In print order. *)

val class_count : t -> string -> int

val instr_mix : t -> (string * int) list
(** Label/count pairs, in category order. *)
