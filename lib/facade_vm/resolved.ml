(* The resolved execution form: jir lowered to what the interpreter's hot
   loop actually needs. Names are gone — classes, methods, fields,
   statics, and locals are integer ids assigned by the linker — and every
   decision that depends only on the program text (method resolution for
   static/special calls, field offsets, intrinsic identity, type-test
   outcomes per class, allocation sizes) has already been taken. Each
   instruction stands for exactly one jir instruction. *)

open Jir

type slot = int
(** An index into a frame's value array. *)

(* Access kind of an rt.get_*/set_*/aget_*/aset_* intrinsic, parsed from
   the name suffix once at link time. *)
type acc = A_i8 | A_i16 | A_i32 | A_i64 | A_f32 | A_f64

(* The closed intrinsic set, pre-bound from the rt.*/pool.*/facade.*/
   lock.*/convert.*/sys.* names the compiler emits. *)
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

(* A monomorphic inline cache, one per virtual-call and field site. The
   cached class id and its payload (method index or field slot) are
   packed into ONE mutable immediate int — [(cid lsl 20) lor payload],
   -1 when empty — so concurrent domains executing the same shared
   instruction array can never observe a torn cid/payload pair: reads
   and writes of an immediate record field are single-word. *)
type ic = { mutable ic_key : int }

let ic_empty () = { ic_key = -1 }
let ic_pack ~cid ~payload = (cid lsl 20) lor payload
let ic_payload_mask = (1 lsl 20) - 1

(* A type test with its per-class outcome precomputed: [t_cid_ok.(cid)]
   answers instanceof for any object or facade of linked class [cid].
   Arrays fall back to the structural check on [t_ty]. *)
type rtest = {
  t_ty : Jtype.t;
  t_cid_ok : bool array;
  t_is_string : bool;
}

(* Allocation site of an array, fully sized at link time. *)
type newarr = {
  na_ety : Jtype.t;
  na_default : Value.t;
  na_elem_bytes : int;   (* Java element width, for the heap charge *)
  na_is_data : bool;
}

type instr =
  | Rconst of slot * Value.t
  | Rmove of slot * slot
  | Rbinop of slot * Ir.binop * operand * operand
  | Rneg of slot * slot
  | Rnot of slot * slot
  | Rnew of slot * int                      (* dst, cid *)
  | Rnew_array of slot * newarr * slot      (* dst, site, length *)
  | Rstatic_load of slot * int              (* dst, gid *)
  | Rstatic_store of int * slot
  | Rarray_load of slot * slot * slot
  | Rarray_store of slot * slot * slot
  | Rarray_length of slot * slot
  | Rcall of slot option * int * slot option * slot array
      (* static/special: pre-resolved method index, receiver, args *)
  | Rinstance_of of slot * slot * rtest
  | Rcast of slot * slot * rtest
  | Rmonitor_enter of slot
  | Rmonitor_exit of slot
  | Riter_start
  | Riter_end
  | Rrun_thread of operand
  | Rintrinsic of slot option * intrinsic * operand array
  | Rerror of string
      (* A reference the linker could not resolve (unknown method, static,
         intrinsic, arity mismatch). Raises only if actually executed, so
         lowering preserves the lazy failure semantics of the name-based
         interpreter. *)
  | Rcall_virtual_ic of slot option * int * slot * slot array * ic
      (* vtable dispatch: method-name id, receiver, args, and a
         monomorphic inline cache on (cid, midx) *)
  | Rfield_load_ic of slot * slot * int * ic
      (* dst, obj, fid, caching (cid, field slot) *)
  | Rfield_store_ic of slot * int * slot * ic  (* obj, fid, src *)
  (* ---- one-for-one rewrites {!Quicken} applies while linking ---- *)
  | Rget of slot * acc * slot * int
      (* offset-specialized rt.get_*: dst, access, page slot, byte offset *)
  | Rset of acc * slot * int * operand
  | Raget of slot * acc * slot * int * operand
      (* dst, access, page slot, elem bytes, index *)
  | Raset of acc * slot * int * operand * operand

type term =
  | Rret_void
  | Rret of slot
  | Rjump of int
  | Rbranch of slot * int * int

type block = {
  code : instr array;
  term : term;
}

type meth = {
  m_cls : string;   (* declaring class, for error messages *)
  m_name : string;
  m_has_this : bool;
  m_nparams : int;             (* declared parameter count, without this *)
  m_frame : Value.t array;     (* frame template: slot defaults, length = slot count *)
  m_body : block array;        (* empty = abstract *)
}

type rfield = {
  f_name : string;
  f_ty : Jtype.t;
}

type cls = {
  c_name : string;
  c_fields : rfield array;           (* canonical layout, super fields first *)
  c_defaults : Value.t array;        (* field default template *)
  c_slot_of_fid : int array;         (* global field-name id -> slot, -1 absent *)
  c_vtable : int array;              (* global method-name id -> method index, -1 absent *)
  c_java_bytes : int;                (* heap footprint of one instance *)
  c_is_data : bool;                  (* object mode: classified as data *)
  c_tid : int;                       (* facade mode: layout type id, -1 if none *)
  c_data_bytes : int;                (* facade mode: record payload bytes *)
  c_conv : (Facade_compiler.Layout.field_slot * int) array;
      (* facade mode: layout slot paired with the object field slot of the
         same name (-1 when the heap class lacks it) — drives the
         reflection-style convertFrom/convertTo without name lookups *)
}

type program = {
  src : Program.t;                   (* for slow paths (array subtyping) *)
  classes : cls array;
  cid_of_name : (string, int) Hashtbl.t;  (* link- and conversion-time only *)
  methods : meth array;
  method_names : string array;       (* method-name id -> name *)
  field_names : string array;        (* field-name id -> name *)
  global_names : (string * string) array;  (* gid -> (class, field) *)
  globals_init : Value.t array;
  entry : int;                       (* method index of the entry point, -1 absent *)
  string_consts : string array;      (* distinct string literals, first-occurrence
                                        order — pre-interned at run setup so the
                                        intern table is read-mostly *)
  string_cid : int;                  (* cid of java.lang.String, -1 absent *)
  run_mid : int;                     (* method-name id of "run", -1 absent *)
  (* Facade-mode tables, all empty in object mode. Indexed by layout type
     id. *)
  data_cid_of_tid : int array;       (* record tid -> original data class cid *)
  facade_cid_of_tid : int array;     (* record tid -> $Facade class cid *)
  elem_ty_of_tid : Jtype.t option array;  (* array tid -> element type *)
  elem_bytes_of_tid : int array;     (* array tid -> on-page element width *)
  tid_is_array : bool array;
  tid_cast_ok : bool array;          (* actual * n_tids + target, flattened *)
  n_tids : int;
}

let n_classes p = Array.length p.classes

let instr_count m =
  Array.fold_left (fun acc b -> acc + Array.length b.code) 0 m.m_body

let iter_op f = function Oslot s -> f s | Oconst _ -> ()

let def = function
  | Rconst (d, _)
  | Rmove (d, _)
  | Rbinop (d, _, _, _)
  | Rneg (d, _)
  | Rnot (d, _)
  | Rnew (d, _)
  | Rnew_array (d, _, _)
  | Rfield_load_ic (d, _, _, _)
  | Rstatic_load (d, _)
  | Rarray_load (d, _, _)
  | Rarray_length (d, _)
  | Rinstance_of (d, _, _)
  | Rcast (d, _, _)
  | Rget (d, _, _, _)
  | Raget (d, _, _, _, _) ->
      Some d
  | Rcall (ret, _, _, _) | Rcall_virtual_ic (ret, _, _, _, _) | Rintrinsic (ret, _, _) -> ret
  | Rfield_store_ic _ | Rstatic_store _ | Rarray_store _ | Rmonitor_enter _ | Rmonitor_exit _
  | Riter_start | Riter_end | Rrun_thread _ | Rset _ | Raset _ | Rerror _ ->
      None

(* Every slot an instruction or terminator reads, in operand order;
   neither builds a list. *)
let iter_uses f = function
  | Rconst _ | Rnew _ | Rstatic_load _ | Riter_start | Riter_end | Rerror _ -> ()
  | Rmove (_, s)
  | Rneg (_, s)
  | Rnot (_, s)
  | Rnew_array (_, _, s)
  | Rfield_load_ic (_, s, _, _)
  | Rstatic_store (_, s)
  | Rarray_length (_, s)
  | Rinstance_of (_, s, _)
  | Rcast (_, s, _)
  | Rmonitor_enter s
  | Rmonitor_exit s
  | Rget (_, _, s, _) ->
      f s
  | Rbinop (_, _, x, y) ->
      iter_op f x;
      iter_op f y
  | Rfield_store_ic (x, _, y, _) | Rarray_load (_, x, y) ->
      f x;
      f y
  | Rarray_store (x, y, z) ->
      f x;
      f y;
      f z
  | Rcall (_, _, recv, args) ->
      Option.iter f recv;
      Array.iter f args
  | Rcall_virtual_ic (_, _, r, args, _) ->
      f r;
      Array.iter f args
  | Rrun_thread op -> iter_op f op
  | Rintrinsic (_, _, ops) -> Array.iter (iter_op f) ops
  | Rset (_, p, _, src) ->
      f p;
      iter_op f src
  | Raget (_, _, p, _, idx) ->
      f p;
      iter_op f idx
  | Raset (_, p, _, idx, src) ->
      f p;
      iter_op f idx;
      iter_op f src

let iter_term_uses f = function Rret s | Rbranch (s, _, _) -> f s | Rret_void | Rjump _ -> ()
