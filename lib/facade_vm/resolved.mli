(** The resolved execution form: jir lowered to what the interpreter's
    hot loop actually needs. Names are interned to dense integer ids by
    {!Link}, method bodies become instruction arrays over slot-indexed
    frames, and per-class tables (vtables, field layouts, type-test
    outcomes, allocation sizes) are precomputed so that nothing on the
    per-instruction path looks up a string. The form is one-for-one with
    the jir: each linked block holds one instruction per jir instruction
    and a terminator of the same kind, so a pc is a source instruction
    index and every instruction is one step. *)

open Jir

type slot = int
(** An index into a frame's value array. *)

(** Access width of an [rt.get_*]/[set_*]/[aget_*]/[aset_*] intrinsic,
    parsed from the name suffix once at link time. *)
type acc = A_i8 | A_i16 | A_i32 | A_i64 | A_f32 | A_f64

(** The closed intrinsic set, pre-bound from the
    [rt.*]/[pool.*]/[facade.*]/[lock.*]/[convert.*]/[sys.*] names the
    compiler emits. *)
type intrinsic =
  | I_alloc
  | I_alloc_array
  | I_alloc_array_oversize
  | I_free_oversize
  | I_array_length
  | I_type_id
  | I_is_type
  | I_checkcast
  | I_string_literal
  | I_pool_param
  | I_pool_receiver
  | I_pool_resolve
  | I_facade_bind
  | I_facade_read
  | I_lock_enter
  | I_lock_exit
  | I_convert_from
  | I_convert_to
  | I_print
  | I_current_thread
  | I_arraycopy
  | I_io_read
  | I_get of acc
  | I_set of acc
  | I_aget of acc
  | I_aset of acc

type operand = Oslot of slot | Oconst of Value.t

(** A monomorphic inline cache, one per virtual-call and field site.
    The cached class id and its payload (method index or field slot) are
    packed into one mutable immediate int — [(cid lsl 20) lor payload],
    [-1] when empty — so concurrent domains sharing an instruction array
    can never observe a torn cid/payload pair. *)
type ic = { mutable ic_key : int }

val ic_empty : unit -> ic
val ic_pack : cid:int -> payload:int -> int
val ic_payload_mask : int

(** A type test with its per-class outcome precomputed:
    [t_cid_ok.(cid)] answers instanceof for any object or facade of
    linked class [cid]. Arrays fall back to the structural check on
    [t_ty]. *)
type rtest = {
  t_ty : Jtype.t;
  t_cid_ok : bool array;
  t_is_string : bool;
}

(** Allocation site of an array, fully sized at link time. *)
type newarr = {
  na_ety : Jtype.t;
  na_default : Value.t;
  na_elem_bytes : int;
  na_is_data : bool;
}

type instr =
  | Rconst of slot * Value.t
  | Rmove of slot * slot
  | Rbinop of slot * Ir.binop * operand * operand
  | Rneg of slot * slot
  | Rnot of slot * slot
  | Rnew of slot * int  (** dst, cid *)
  | Rnew_array of slot * newarr * slot  (** dst, site, length slot *)
  | Rstatic_load of slot * int  (** dst, gid *)
  | Rstatic_store of int * slot
  | Rarray_load of slot * slot * slot
  | Rarray_store of slot * slot * slot
  | Rarray_length of slot * slot
  | Rcall of slot option * int * slot option * slot array
      (** static/special: pre-resolved method index, receiver, args *)
  | Rinstance_of of slot * slot * rtest
  | Rcast of slot * slot * rtest
  | Rmonitor_enter of slot
  | Rmonitor_exit of slot
  | Riter_start
  | Riter_end
  | Rrun_thread of operand
  | Rintrinsic of slot option * intrinsic * operand array
  | Rerror of string
      (** A reference the linker could not resolve (unknown method,
          static, intrinsic, arity mismatch). Raises only if actually
          executed, preserving the lazy failure semantics of the
          name-based interpreter. *)
  | Rcall_virtual_ic of slot option * int * slot * slot array * ic
      (** vtable dispatch: method-name id, receiver, args, and a
          monomorphic inline cache on (cid, method index) *)
  | Rfield_load_ic of slot * slot * int * ic
      (** dst, obj, fid, caching (cid, field slot) *)
  | Rfield_store_ic of slot * int * slot * ic  (** obj, fid, src *)
  (* one-for-one rewrites {!Quicken} applies while linking: *)
  | Rget of slot * acc * slot * int
      (** offset-specialized [rt.get_*]: dst, access, page slot, byte
          offset *)
  | Rset of acc * slot * int * operand
  | Raget of slot * acc * slot * int * operand
      (** dst, access, page slot, elem bytes, index *)
  | Raset of acc * slot * int * operand * operand

type term =
  | Rret_void
  | Rret of slot
  | Rjump of int
  | Rbranch of slot * int * int

type block = { code : instr array; term : term }

type meth = {
  m_cls : string;  (** declaring class, for error messages *)
  m_name : string;
  m_has_this : bool;
  m_nparams : int;  (** declared parameter count, without [this] *)
  m_frame : Value.t array;
      (** frame template ([Array.copy] per call): slot defaults *)
  m_body : block array;  (** empty = abstract *)
}

type rfield = { f_name : string; f_ty : Jtype.t }

type cls = {
  c_name : string;
  c_fields : rfield array;  (** canonical layout, super fields first *)
  c_defaults : Value.t array;  (** field default template *)
  c_slot_of_fid : int array;  (** field-name id -> slot, [-1] absent *)
  c_vtable : int array;  (** method-name id -> method index, [-1] absent *)
  c_java_bytes : int;  (** heap footprint of one instance *)
  c_is_data : bool;  (** object mode: classified as data *)
  c_tid : int;  (** facade mode: layout type id, [-1] if none *)
  c_data_bytes : int;  (** facade mode: record payload bytes *)
  c_conv : (Facade_compiler.Layout.field_slot * int) array;
      (** facade mode: layout slot paired with the object-field slot of
          the same name ([-1] when the heap class lacks it) — drives
          convertFrom/convertTo without name lookups *)
}

type program = {
  src : Program.t;  (** for slow paths (array subtyping) *)
  classes : cls array;
  cid_of_name : int Stbl.t;
      (** link- and conversion-time only; never on the instruction path *)
  methods : meth array;
  method_names : string array;
  field_names : string array;
  global_names : (string * string) array;  (** gid -> (class, field) *)
  globals_init : Value.t array;
  entry : int;  (** method index of the entry point, [-1] absent *)
  string_consts : string array;
      (** distinct [rt.string_literal] payloads, first-occurrence order;
          pre-interned at run setup so the intern table is read-mostly *)
  string_cid : int;
  run_mid : int;  (** method-name id of ["run"], [-1] absent *)
  data_cid_of_tid : int array;
  facade_cid_of_tid : int array;
  elem_ty_of_tid : Jtype.t option array;
  elem_bytes_of_tid : int array;
  tid_is_array : bool array;
  tid_cast_ok : bool array;  (** [actual * n_tids + target], flattened *)
  n_tids : int;
}

val n_classes : program -> int

val instr_count : meth -> int
(** Total instructions across a method's blocks, which is its jir
    instruction count (tier 2's compile-size and leaf budgets). *)

val iter_op : (slot -> unit) -> operand -> unit
(** Calls the function on the operand's slot, if it has one. *)

val def : instr -> slot option
(** The slot an instruction writes, if any. *)

val iter_uses : (slot -> unit) -> instr -> unit
(** Calls the function on every slot the instruction reads, in operand
    order. *)

val iter_term_uses : (slot -> unit) -> term -> unit
(** Likewise for a terminator. *)
