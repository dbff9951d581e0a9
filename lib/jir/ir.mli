(** The jir intermediate representation.

    jir mirrors the 3-address, CFG-of-basic-blocks shape of Soot's Jimple,
    which is what the FACADE transformation (paper Table 1) is defined
    over: every instruction kind in Table 1 — assignments, field loads and
    stores, array accesses, allocations, calls, returns, [instanceof],
    monitor enter/exit — appears here as one constructor. Method bodies are
    arrays of basic blocks; transformation rewrites the instruction list of
    each block but preserves block structure, exactly as the paper
    describes ("the same basic block structures but different instructions
    in each block"). *)

type var = string

type const =
  | Cint of int        (** all integral types, incl. long/char/… *)
  | Cfloat of float    (** float and double *)
  | Cbool of bool
  | Cnull
  | Cstr of string

type binop =
  | Add | Sub | Mul | Div | Rem
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or | Xor | Shl | Shr

type unop = Neg | Not

type call_kind =
  | Virtual  (** dynamic dispatch on the receiver's runtime type *)
  | Special  (** constructors and super-calls: static target *)
  | Static

(** Operands of intrinsics: a variable or an immediate constant. *)
type operand = Var of var | Imm of const

type instr =
  | Const of var * const
  | Move of var * var                            (** [a = b] — Table 1 case 2 *)
  | Binop of var * binop * var * var
  | Unop of var * unop * var
  | New of var * string                          (** [a = new C] (constructor call emitted separately) *)
  | New_array of var * Jtype.t * var             (** [a = new T\[n\]] *)
  | Field_load of var * var * string             (** [b = a.f] — case 4 *)
  | Field_store of var * string * var            (** [a.f = b] — case 3 *)
  | Static_load of var * string * string         (** [b = C.f] *)
  | Static_store of string * string * var        (** [C.f = b] *)
  | Array_load of var * var * var                (** [b = a\[i\]] *)
  | Array_store of var * var * var               (** [a\[i\] = b] *)
  | Array_length of var * var
  | Call of var option * call_kind * string * string * var option * var list
      (** [ret = kind C.m(recv, args)] — case 6 *)
  | Instance_of of var * var * Jtype.t           (** case 7 *)
  | Cast of var * var * Jtype.t
  | Monitor_enter of var
  | Monitor_exit of var
  | Iter_start                                   (** user-inserted iteration callback *)
  | Iter_end
  | Intrinsic of var option * string * operand list
      (** runtime-library and native-method calls; in P′ the generated
          [FacadeRuntime] operations are intrinsics *)

type terminator =
  | Ret of var option
  | Jump of int                                  (** target block id *)
  | Branch of var * int * int                    (** if var then b1 else b2 *)

type block = {
  instrs : instr list;
  term : terminator;
}

type meth = {
  mname : string;
  mstatic : bool;
  params : (var * Jtype.t) list;
  mret : Jtype.t option;
  locals : (var * Jtype.t) list;  (** every non-parameter variable, typed *)
  body : block array;             (** entry is block 0; empty for abstract methods *)
}

type field = {
  fname : string;
  ftype : Jtype.t;
  fstatic : bool;
  finit : const option;  (** initial value of a static field *)
}

type cls = {
  cname : string;
  super : string option;    (** [None] means [java.lang.Object] *)
  interfaces : string list;
  cfields : field list;
  cmethods : meth list;
  cinterface : bool;        (** true for interface declarations *)
}

val var_type : meth -> var -> Jtype.t option
(** Declared type of a parameter or local. *)

val iter_vars : (var -> unit) -> instr -> unit
(** Every variable an instruction names, in order: the variable it
    defines first, then the ones it reads, each as often as it appears. *)

val instr_count : meth -> int
val method_instr_count : cls -> int

val map_blocks : (int -> block -> block) -> meth -> meth
val iter_instrs : (instr -> unit) -> meth -> unit

val exists_instr : (instr -> bool) -> meth -> bool
(** Some instruction of the method (terminators aside) satisfies the test. *)

val iteri_instrs : (int -> int -> instr -> unit) -> meth -> unit
(** [iteri_instrs f m] calls [f block index instr] for every instruction,
    with positions matching {!Analysis} finding coordinates. *)
