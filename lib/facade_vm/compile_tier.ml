(* The tier-2 closure compiler: translates each resolved method, at its
   first call, out of the interpreter's dispatch loop into
   directly-composed OCaml closures — one closure per instruction,
   pre-composed per basic block, with accessor/arith/operand dispatch
   hoisted to compile time. Inline caches already warm at compile time
   (a linked program that ran before) are monomorphized against their
   snapshot; leaf callees are devirtualized and run through
   pre-compiled bodies. Every guard that might fail raises
   {!Vm_state.Tier_deopt} *before* the faulting instruction's step
   accounting, so the interpreter resume at (block, pc) — on the same
   slot-indexed frame array — replays it exactly once and the two tiers
   agree on results, output, steps, heap totals, pool peaks, and the
   instruction mix.

   Typed frame slots: a local whose every value is provably an int (or
   a float), and which only typed-capable templates touch, lives
   unboxed in the activation's [ints] (or [flts]) array instead of the
   [Value.t] frame, so compiled code reads and writes it with no
   allocation and no write barrier. The frame is therefore
   materialized at deopt: tier 1 never sees a pinned slot until the
   deopt handler writes every pinned value back, and a value return
   boxes its operand. Everything else — call arguments and results,
   delegated instructions, IC sites, object and array accesses — keeps
   using the boxed frame, exactly as tier 1 does. The allocation and
   facade-pool intrinsics (rt.alloc, rt.alloc_array(_oversize),
   pool.receiver, facade.bind, facade.read) run here, through the
   {!Vm_state} bodies tier 1 runs, and an address they produce is an
   int, so the page references a facade loop builds stay unboxed.

   Accounting identity with tier-1 (the differential contract):
   - straight-line runs of simple instructions are bulk-charged: a
     segment precheck deopts with reason "budget" if the step budget
     would expire inside the run, so tier-1 reproduces the exact error
     point; otherwise steps/mix/intrinsic-dispatch counters advance by
     precomputed deltas and the closures run. The step delta is the sum
     of the instructions' weights ({!Resolved.weight}: a fused form
     charges the source instructions it replaced), plus a fused
     compare's step when the segment ends its block;
   - guards and calls charge one step themselves after their own budget
     precheck, and so does a fused compare after a block's last
     self-charging action;
   - anything else is delegated, instruction by instruction, to the
     interpreter's [h_exec], which self-accounts, and counted in
     [Exec_stats.tier2_delegated]: iteration start/end,
     sys.run_thread, [Rerror], every intrinsic but the five above
     (rt.free_oversize, rt.array_length,
     rt.type_id/is_type/checkcast, rt.string_literal,
     pool.param/pool.resolve, lock.enter/exit, convert.to/from,
     sys.print and the other sys.* calls, and the page accessors
     quickening did not specialize), IC misses at monomorphic sites,
     field-IC misses, and the first execution of a virtual site whose
     cache was cold at compile time.
   The only divergence is unobservable: a [Vm_error] thrown mid-segment
   (bad cast, division by zero) leaves the whole segment charged, but
   the run's stats are discarded when the error propagates. *)

open Jir
open Vm_state
module Page = Pagestore.Page
module Page_pool = Pagestore.Page_pool
module LR = Pagestore.Layout_rt

type feedback = {
  fb_mono : string list;
      (* method names with a single implementation per {!Opt.Devirt}'s
         CHA — IC misses on these delegate instead of deoptimizing *)
  fb_leaves : (string * string) list;
      (* (class, method) pairs {!Opt.Inline} judged inline-worthy — get
         the wider inline budget *)
}

let no_feedback = { fb_mono = []; fb_leaves = [] }

let deopt_limit = 8
(* Deopts tolerated per method before its compiled code is retired. *)

let leaf_budget = 8
let feedback_leaf_budget = 16
let compile_limit = 4096
(* Methods above this instruction count stay on tier-1 for good. *)

(* ---------- activations ---------- *)

(* Everything a compiled instruction reads besides its compile-time
   constants: the running thread's state, the method's boxed frame, its
   pinned int and float slots, and the run's page pool. Instructions,
   segments, blocks and terminators all take this one record, allocated
   once per compiled-method entry by [run_blocks]. One argument keeps
   each call between composed
   closures a plain indirect call: OCaml applies a closure of unknown
   arity to two or more arguments through [caml_applyN], which re-checks
   the arity on every call, and a compiled block makes several such
   calls per instruction. [pool] starts as [no_pool]; the first facade
   segment an activation runs resolves it from the run's store, so
   compiled code stays store-independent and a warm tier can be shared
   across facade runs exactly like object-mode tiers. *)
type act = {
  st : st;
  frame : Value.t array;
  mutable pool : Page_pool.t;
  ints : int array;
  flts : floatarray;
}

(* A pool no run uses: every table slot is the dead-page sentinel, so an
   access through an unresolved activation would trap, never read. *)
let no_pool = Page_pool.create ()

let[@inline never] resolve_pool a = a.pool <- Store.pool (the_rt a.st).store

(* ---------- hot kernels ----------

   Dune's default (dev) profile compiles every module with [-opaque], so
   nothing defined in another module is inlined here, [@inline always]
   or not: a call to [Page.read_f64] or [Value.of_int] stays a call. The
   success paths the templates run per instruction are therefore
   restated over what does inline across modules — compiler primitives
   (array and bigstring access), constructors, exposed record fields and
   values — and each hands its failure case to the owning module's
   function, so errors come from the same code as tier-1's. *)

(* Frame slots come from the linker, which sized each method's frame to
   cover every slot it emits, so compiled code reads them unchecked (the
   interpreter leans on the same invariant through checked accesses).
   The annotations keep the generic float-array test out of every frame
   access. *)
let[@inline always] fg (f : Value.t array) s = Array.unsafe_get f s
let[@inline always] fs (f : Value.t array) s (v : Value.t) = Array.unsafe_set f s v
let[@inline always] opv f = function R.Oslot s -> fg f s | R.Oconst c -> c

let[@inline always] of_int i =
  if i land -65536 = 0 then Array.unsafe_get Value.small_ints i else Value.Int i

let[@inline always] truthy = function Value.Int 0 | Value.Null -> false | _ -> true
let[@inline always] as_int = function Value.Int n -> n | v -> Vm_state.as_int v

let[@inline always] as_float = function
  | Value.Float x -> x
  | Value.Int n -> float_of_int n
  | v -> Vm_state.as_float v

let[@inline never] bad_ref = function
  | Value.Int 0 -> vm_err "NullPointerException: null page reference"
  | v -> vm_err "expected an int, got %s" (Value.to_string v)

(* [check_nonnull] + [addr_of] in one match — same errors, same order. *)
let[@inline always] addr_nn = function Value.Int a when a <> 0 -> a | v -> bad_ref v

(* [Page_pool.page_unchecked] and [Addr.page]/[Addr.offset] for a
   non-null address. The table load keeps its bounds check, so a corrupt
   page id fails as it does on tier-1. *)
let[@inline always] page_in (pool : Page_pool.t) ad =
  pool.Page_pool.table.((ad - 1) lsr Addr.offset_bits)

let[@inline always] offset ad = (ad - 1) land Addr.offset_mask

let[@inline never] oob i = vm_err "ArrayIndexOutOfBoundsException: %d" i

external get_32u : Page.t -> int -> int32 = "%caml_bigstring_get32u"
external get_64u : Page.t -> int -> int64 = "%caml_bigstring_get64u"
external set_32u : Page.t -> int -> int32 -> unit = "%caml_bigstring_set32u"
external set_64u : Page.t -> int -> int64 -> unit = "%caml_bigstring_set64u"

(* {!Page}'s word accessors: the same bounds test guards one unaligned
   load or store, and anything else — out of range, or a big-endian
   host — calls {!Page}'s own accessor, which raises (or composes bytes)
   exactly as on tier-1. *)
let le = not Sys.big_endian
let[@inline always] fits p i n = le && i >= 0 && i + n <= Bigarray.Array1.dim p

let[@inline always] read_i32 p i =
  if fits p i 4 then Int32.to_int (get_32u p i) else Page.read_i32 p i

let[@inline always] read_i64 p i =
  if fits p i 8 then Int64.to_int (get_64u p i) else Page.read_i64 p i

let[@inline always] read_f64 p i =
  if fits p i 8 then Int64.float_of_bits (get_64u p i) else Page.read_f64 p i

let[@inline always] write_i32 p i v =
  if fits p i 4 then set_32u p i (Int32.of_int v) else Page.write_i32 p i v

let[@inline always] write_i64 p i v =
  if fits p i 8 then set_64u p i (Int64.of_int v) else Page.write_i64 p i v

let[@inline always] write_f64 p i v =
  if fits p i 8 then set_64u p i (Int64.bits_of_float v) else Page.write_f64 p i v

let[@inline always] read_f32 p i =
  if fits p i 4 then Int32.float_of_bits (get_32u p i) else Page.read_f32 p i

let[@inline always] write_f32 p i v =
  if fits p i 4 then set_32u p i (Int32.bits_of_float v) else Page.write_f32 p i v

(* The bounds test of a facade array access against its length header. *)
let[@inline always] check_index pg b i =
  if i < 0 || i >= read_i32 pg (b + LR.length_offset) then oob i

(* Page access by width; the narrow widths are rare and stay calls. *)
let[@inline always] pg_read (a : R.acc) p i =
  match a with
  | R.A_i64 -> of_int (read_i64 p i)
  | R.A_f64 -> Value.Float (read_f64 p i)
  | R.A_i32 -> of_int (read_i32 p i)
  | R.A_i8 -> of_int (Page.read_u8 p i)
  | R.A_i16 -> of_int (Page.read_u16 p i)
  | R.A_f32 -> Value.Float (read_f32 p i)

let[@inline always] pg_write (a : R.acc) p i v =
  match a with
  | R.A_i64 -> write_i64 p i (as_int v)
  | R.A_f64 ->
      let x = as_float v in
      write_f64 p i x
  | R.A_i32 -> write_i32 p i (as_int v)
  | R.A_i8 -> Page.write_u8 p i (as_int v land 0xff)
  | R.A_i16 -> Page.write_u16 p i (as_int v)
  | R.A_f32 ->
      let x = as_float v in
      write_f32 p i x

(* The same reads, unboxed: an int access as an int, any access as a
   float (int widths converted as [arith]'s mixed cases do). *)
let[@inline always] pg_read_i (a : R.acc) p i =
  match a with
  | R.A_i64 -> read_i64 p i
  | R.A_i32 -> read_i32 p i
  | R.A_i8 -> Page.read_u8 p i
  | _ -> Page.read_u16 p i

let[@inline always] pg_read_f (a : R.acc) p i =
  match a with
  | R.A_f64 -> read_f64 p i
  | R.A_f32 -> read_f32 p i
  | _ -> float_of_int (pg_read_i a p i)

(* [arith] with the int and float cases of Add/Sub/Mul inline. Mixed or
   invalid operands go to [arith]: same coercions, same errors — in
   source order for the commutative ones, which quickening may have
   [sw]apped. *)
let[@inline] add_v sw p q =
  match p, q with
  | Value.Int x, Value.Int y -> of_int (x + y)
  | Value.Float x, Value.Float y -> Value.Float (x +. y)
  | _ -> arith_src sw Ir.Add p q

let[@inline] sub_v p q =
  match p, q with
  | Value.Int x, Value.Int y -> of_int (x - y)
  | Value.Float x, Value.Float y -> Value.Float (x -. y)
  | _ -> arith Ir.Sub p q

let[@inline] mul_v sw p q =
  match p, q with
  | Value.Int x, Value.Int y -> of_int (x * y)
  | Value.Float x, Value.Float y -> Value.Float (x *. y)
  | _ -> arith_src sw Ir.Mul p q

let[@inline never] cmp_slow op p q t e = if truthy (arith op p q) then t else e

(* Unboxed operators of the fused page read-modify-writes. Comparisons
   and the zero-checking integer Div/Rem stay on [arith]. *)
let is_float_op = function
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem -> true
  | _ -> false

let[@inline always] fop (op : Ir.binop) x y =
  match op with
  | Ir.Add -> x +. y
  | Ir.Sub -> x -. y
  | Ir.Mul -> x *. y
  | Ir.Div -> x /. y
  | _ -> Float.rem x y

let is_int_op = function
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.And | Ir.Or | Ir.Xor | Ir.Shl | Ir.Shr -> true
  | _ -> false

let[@inline always] iop (op : Ir.binop) x y =
  match op with
  | Ir.Add -> x + y
  | Ir.Sub -> x - y
  | Ir.Mul -> x * y
  | Ir.And -> x land y
  | Ir.Or -> x lor y
  | Ir.Xor -> x lxor y
  | Ir.Shl -> x lsl y
  | _ -> x asr y

(* [Exec_stats.note_ic_hit], restated: object-mode field accesses hit
   it once per access. *)
let[@inline always] note_ic_hit (s : Exec_stats.t) mx =
  s.Exec_stats.ic_hits <- s.Exec_stats.ic_hits + 1;
  let c = s.Exec_stats.m_ic_hits in
  if mx < Array.length c then c.(mx) <- c.(mx) + 1

(* The one-step accounting of a self-charging instruction: a precheck
   that deopts before anything is charged, then the step itself. *)
let[@inline always] precheck st bi pc =
  if st.stats.Exec_stats.steps + 1 > st.max_steps then raise (Tier_deopt (bi, pc, "budget"))

let[@inline always] count_step st cat =
  let stats = st.stats in
  stats.Exec_stats.steps <- stats.Exec_stats.steps + 1;
  stats.Exec_stats.mix.(cat) <- stats.Exec_stats.mix.(cat) + 1

(* An intrinsic's accounting, as tier 1's [exec] does it: the step and
   its mix category, then one intrinsic dispatch. *)
let[@inline always] charge_intrinsic st bi pc =
  precheck st bi pc;
  count_step st Exec_stats.cat_intrinsic;
  let stats = st.stats in
  stats.Exec_stats.intrinsic_dispatches <- stats.Exec_stats.intrinsic_dispatches + 1

(* Hand one instruction to tier 1, which self-accounts; counted so a run
   shows what its compiled code still leaves to the interpreter. *)
let delegate (t : tier) st mx frame ins =
  st.stats.Exec_stats.tier2_delegated <- st.stats.Exec_stats.tier2_delegated + 1;
  t.t_hooks.h_exec st mx frame ins

(* ---------- typed frame slots ---------- *)

(* What a slot can hold, over the lattice ⊥ < int, float < boxed: the
   join of its template value and of every value any instruction writes
   to it. A slot of kind int only ever holds a [Value.Int]. *)
type kind = K_bot | K_int | K_flt | K_box

let join a b =
  match a, b with
  | K_bot, k | k, K_bot -> k
  | K_int, K_int -> K_int
  | K_flt, K_flt -> K_flt
  | _ -> K_box

let kind_of_value = function Value.Int _ -> K_int | Value.Float _ -> K_flt | _ -> K_box

let acc_kind = function
  | R.A_f32 | R.A_f64 -> K_flt
  | R.A_i8 | R.A_i16 | R.A_i32 | R.A_i64 -> K_int

let is_num k = k = K_int || k = K_flt
let is_cmp = function Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne -> true | _ -> false

(* The kind of [arith op x y], case by case: every int op on two ints
   gives an int; Add/Sub/Mul/Div/Rem with a float operand give a float;
   a comparison either raises or gives 0/1; anything else may be
   anything (or raise). *)
let binop_kind op kx ky =
  match kx, ky with
  | K_bot, _ | _, K_bot -> K_bot
  | _ when is_cmp op -> K_int
  | K_int, K_int -> K_int
  | (K_int | K_flt), (K_int | K_flt) when is_float_op op -> K_flt
  | _ -> K_box

(* The kind an instruction writes to its destination. *)
let def_kind (k : kind array) = function
  | R.Rconst (_, v) -> kind_of_value v
  | R.Rmove (_, s) | R.Rneg (_, s) -> k.(s)
  | R.Rnot _ -> K_int
  | R.Rbinop (_, op, x, y) -> binop_kind op k.(x) k.(y)
  | R.Rbinop_imm (_, op, x, v, _) -> binop_kind op k.(x) (kind_of_value v)
  | R.Rmul_add (_, x, y, z) -> binop_kind Ir.Add (binop_kind Ir.Mul k.(x) k.(y)) k.(z)
  | R.Rmul_add_imm (_, x, v, z, _, _) ->
      binop_kind Ir.Add (binop_kind Ir.Mul k.(x) (kind_of_value v)) k.(z)
  | R.Rget (_, acc, _, _)
  | R.Raget (_, acc, _, _, _)
  | R.Raget_get (_, _, _, _, acc, _)
  | R.Raget_aget (_, acc, _, _, _, _, _) ->
      acc_kind acc
  | R.Rget_bin (_, acc, _, _, op, s, _) ->
      binop_kind op (acc_kind acc)
        (match s with R.Oslot s -> k.(s) | R.Oconst v -> kind_of_value v)
  | R.Rintrinsic
      (_, (R.I_alloc | R.I_alloc_array | R.I_alloc_array_oversize | R.I_facade_read), _) ->
      K_int (* a page address *)
  | _ -> K_box

(* The allocation and facade-pool intrinsics tier 2 runs itself. *)
let native_intrinsic = function
  | R.I_alloc | R.I_alloc_array | R.I_alloc_array_oversize | R.I_pool_receiver | R.I_facade_bind
  | R.I_facade_read ->
      true
  | _ -> false

(* The templates that can read and write a slot unboxed. Facade page
   templates delegate in object mode, and the native intrinsics only
   raise there, so in object mode neither can. *)
let typed_capable ~object_mode = function
  | R.Rconst _ | R.Rmove _ | R.Rbinop _ | R.Rbinop_imm _ | R.Rmul_add _ | R.Rmul_add_imm _
  | R.Rneg _ | R.Rnot _ ->
      true
  | R.Rget _ | R.Rset _ | R.Raget _ | R.Raset _ | R.Rget_bin _ | R.Rrmw _ | R.Raget_get _
  | R.Raget_aget _ ->
      not object_mode
  | R.Rintrinsic (_, i, _) -> native_intrinsic i && not object_mode
  | _ -> false

(* Where compiled code finds an operand. *)
type loc =
  | L_int of int  (* pinned int slot: index into [act.ints] *)
  | L_flt of int  (* pinned float slot: index into [act.flts] *)
  | L_box of int  (* frame slot *)
  | L_imm of Value.t  (* constant operand *)

type layout = {
  locs : loc array;  (* frame slot -> location *)
  kinds : kind array;  (* frame slot -> inferred kind *)
  int_slots : int array;  (* [ints] index -> frame slot *)
  flt_slots : int array;  (* [flts] index -> frame slot *)
  mutable int_init : int array;
      (* entry values of [ints]: the pinned slots' template values, then
         the int constants {!icode} interned *)
  mutable flt_init : floatarray;
}

let no_flts = Float.Array.create 0

(* Slot-kind inference and pinning. Kinds start from the frame template
   (params and [this] are boxed: arguments overwrite them) and rise to
   a fixpoint over every definition. A slot is pinned when its kind is
   int or float and every instruction touching it is typed-capable;
   terminators all are. *)
let infer_layout ~object_mode (m : R.meth) =
  let n = Array.length m.R.m_frame in
  let k = Array.map kind_of_value m.R.m_frame in
  for s = 0 to min (n - 1) m.R.m_nparams do
    k.(s) <- K_box
  done;
  let instrs = Array.concat (List.map (fun (b : R.block) -> b.R.code) (Array.to_list m.R.m_body)) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun ins ->
        match Quicken.rdef ins with
        | Some d ->
            let j = join k.(d) (def_kind k ins) in
            if j <> k.(d) then begin
              k.(d) <- j;
              changed := true
            end
        | None -> ())
      instrs
  done;
  (* 0: untouched, 1: touched by typed-capable code only, 2: otherwise *)
  let touched = Array.make n 0 in
  let touch ok s = touched.(s) <- max touched.(s) (if ok then 1 else 2) in
  Array.iter
    (fun ins ->
      let ok = typed_capable ~object_mode ins in
      Option.iter (touch ok) (Quicken.rdef ins);
      List.iter (touch ok) (Quicken.ruses ins))
    instrs;
  Array.iter (fun (b : R.block) -> List.iter (touch true) (Quicken.term_uses b.R.term)) m.R.m_body;
  let ni = ref 0 and nf = ref 0 in
  let locs =
    Array.init n (fun s ->
        match k.(s) with
        | K_int when touched.(s) = 1 ->
            incr ni;
            L_int (!ni - 1)
        | K_flt when touched.(s) = 1 ->
            incr nf;
            L_flt (!nf - 1)
        | _ -> L_box s)
  in
  let int_slots = Array.make !ni 0 and flt_slots = Array.make !nf 0 in
  Array.iteri
    (fun s -> function L_int i -> int_slots.(i) <- s | L_flt i -> flt_slots.(i) <- s | _ -> ())
    locs;
  {
    locs;
    kinds = k;
    int_slots;
    flt_slots;
    int_init = Array.map (fun s -> as_int m.R.m_frame.(s)) int_slots;
    flt_init =
      (if !nf = 0 then no_flts
       else Float.Array.map_from_array (fun s -> as_float m.R.m_frame.(s)) flt_slots);
  }

let layout_for (cst : st) m =
  infer_layout ~object_mode:(match cst.mode with Object_mode -> true | Facade_mode _ -> false) m

let loc_of (l : layout) s = l.locs.(s)
let oloc (l : layout) = function R.Oslot s -> l.locs.(s) | R.Oconst v -> L_imm v
let okind (l : layout) = function R.Oslot s -> l.kinds.(s) | R.Oconst v -> kind_of_value v
let pinned = function L_int _ | L_flt _ -> true | L_box _ | L_imm _ -> false

(* Generic location access: a pinned slot read through [rd_v] boxes,
   and [wr_v] unboxes into a pinned destination. The templates use
   these only where kinds leave [arith]'s case open. *)
let[@inline always] rd_v a = function
  | L_box s -> fg a.frame s
  | L_int k -> of_int (Array.unsafe_get a.ints k)
  | L_flt k -> Value.Float (Float.Array.unsafe_get a.flts k)
  | L_imm v -> v

let[@inline always] wr_v a d v =
  match d with
  | L_box s -> fs a.frame s v
  | L_int k -> Array.unsafe_set a.ints k (as_int v)
  | L_flt k -> Float.Array.unsafe_set a.flts k (as_float v)
  | L_imm _ -> assert false

(* Direct codes: a typed template addresses an operand by one int, an
   index into [ints] (or [flts]) when [>= 0] and the boxed frame slot
   [-1 - c] otherwise, so a read costs one sign test on a constant
   where a {!loc} match costs a jump table. Constants are interned into
   the arrays after the pinned slots; only the pinned slots are copied
   per activation, so a method with none shares its constants. A
   location with no direct code — a pinned float read as an int, a
   constant of the other kind — takes the generic path. *)
let icode lay = function
  | L_int k -> Some k
  | L_box s -> Some (-1 - s)
  | L_imm (Value.Int n) ->
      lay.int_init <- Array.append lay.int_init [| n |];
      Some (Array.length lay.int_init - 1)
  | L_flt _ | L_imm _ -> None

let fcode lay = function
  | L_flt k -> Some k
  | L_box s -> Some (-1 - s)
  | L_imm (Value.Float x) ->
      lay.flt_init <- Float.Array.append lay.flt_init (Float.Array.make 1 x);
      Some (Float.Array.length lay.flt_init - 1)
  | L_int _ | L_imm _ -> None

(* The code of an operand whose kind is numeric, read as a float:
   [(true, c)] is an int code to convert, [(false, c)] a float code. *)
let ncode lay k l =
  if k = K_int then (true, Option.get (icode lay l)) else (false, Option.get (fcode lay l))

(* Reads are exact on operands of the read kind; a boxed slot of any
   other kind coerces and raises exactly as tier 1's [as_int] and
   [as_float] do. A float handed to an inlined helper is let-bound
   first: inlining binds a non-trivial argument without its float type,
   and such a binding stays boxed — one allocation per execution — when
   a branch of the bound expression is a call. *)
let[@inline always] ri a c =
  if c >= 0 then Array.unsafe_get a.ints c else as_int (fg a.frame (-1 - c))

let[@inline always] rf a c =
  if c >= 0 then Float.Array.unsafe_get a.flts c else as_float (fg a.frame (-1 - c))

let[@inline always] rn a i c = if i then float_of_int (ri a c) else rf a c

(* A page reference: [addr_nn] of the slot's value. *)
let[@inline always] raddr a c =
  if c >= 0 then begin
    let ad = Array.unsafe_get a.ints c in
    if ad <> 0 then ad else bad_ref (Value.Int 0)
  end
  else addr_nn (fg a.frame (-1 - c))

let[@inline always] wi a c n =
  if c >= 0 then Array.unsafe_set a.ints c n else fs a.frame (-1 - c) (of_int n)

let[@inline always] wf a c x =
  if c >= 0 then Float.Array.unsafe_set a.flts c x else fs a.frame (-1 - c) (Value.Float x)

(* [arith] on two ints, every op: Div/Rem by zero raise through [arith]
   itself, so the text is tier 1's. *)
let[@inline never] div_zero op = as_int (arith op (Value.Int 0) (Value.Int 0))

let[@inline always] iarith (op : Ir.binop) p q =
  match op with
  | Ir.Add -> p + q
  | Ir.Sub -> p - q
  | Ir.Mul -> p * q
  | Ir.Div -> if q = 0 then div_zero op else p / q
  | Ir.Rem -> if q = 0 then div_zero op else p mod q
  | Ir.And -> p land q
  | Ir.Or -> p lor q
  | Ir.Xor -> p lxor q
  | Ir.Shl -> p lsl q
  | Ir.Shr -> p asr q
  | Ir.Lt -> if p < q then 1 else 0
  | Ir.Le -> if p <= q then 1 else 0
  | Ir.Gt -> if p > q then 1 else 0
  | Ir.Ge -> if p >= q then 1 else 0
  | Ir.Eq -> if p = q then 1 else 0
  | Ir.Ne -> if p <> q then 1 else 0

(* A comparison with at least one float operand, after [cmp_num]'s
   promotion; Eq/Ne here only ever see two floats. *)
let[@inline always] fcmp (op : Ir.binop) (x : float) (y : float) =
  match op with
  | Ir.Lt -> x < y
  | Ir.Le -> x <= y
  | Ir.Gt -> x > y
  | Ir.Ge -> x >= y
  | Ir.Eq -> x = y
  | _ -> x <> y

(* ---------- allocation and facade-pool intrinsics ---------- *)

(* An int operand of an intrinsic: its direct code, or [no_code] and
   its location when it has none (a pinned float, a non-int constant),
   read then as tier 1 reads it, through [as_int]. *)
let no_code = min_int

let int_arg lay op =
  let l = oloc lay op in
  match icode lay l with Some c -> (c, l) | None -> (no_code, l)

let[@inline always] rint a (c, l) = if c <> no_code then ri a c else as_int (rd_v a l)

(* The int destination of an intrinsic, [no_code] for none. An address
   result makes its slot's kind int or boxed, never float. *)
let int_dest lay = function
  | Some d -> Option.get (icode lay (loc_of lay d))
  | None -> no_code

let[@inline always] set_int a d n = if d <> no_code then wi a d n

(* [rt.alloc], [rt.alloc_array(_oversize)], [pool.receiver],
   [facade.bind] and [facade.read], each charged like tier 1's [exec]
   (a deopt before any accounting, then one step and one intrinsic
   dispatch) and run by {!Vm_state}'s body. Operands coerce last to
   first, as in tier 1. *)
let intrinsic_code lay bi pc ret (i : R.intrinsic) (ops : R.operand array) : act -> unit =
  match i with
  | R.I_alloc ->
      let d = int_dest lay ret and x0 = int_arg lay ops.(0) and x1 = int_arg lay ops.(1) in
      fun a ->
        let st = a.st in
        charge_intrinsic st bi pc;
        let rt = the_rt st in
        let data_bytes = rint a x1 in
        let type_id = rint a x0 in
        set_int a d (rt_alloc st rt ~type_id ~data_bytes)
  | R.I_alloc_array | R.I_alloc_array_oversize ->
      let oversize = i = R.I_alloc_array_oversize in
      let d = int_dest lay ret and x0 = int_arg lay ops.(0) in
      let x1 = int_arg lay ops.(1) and x2 = int_arg lay ops.(2) in
      fun a ->
        let st = a.st in
        charge_intrinsic st bi pc;
        let rt = the_rt st in
        let length = rint a x2 in
        let elem_bytes = rint a x1 in
        let type_id = rint a x0 in
        set_int a d (rt_alloc_array st rt ~oversize ~type_id ~elem_bytes ~length)
  | R.I_pool_receiver ->
      let dl = Option.map (loc_of lay) ret and x0 = int_arg lay ops.(0) in
      fun a ->
        let st = a.st in
        charge_intrinsic st bi pc;
        let rt = the_rt st in
        let f = pool_receiver st rt ~type_id:(rint a x0) in
        (match dl with Some l -> wr_v a l (Value.Facade f) | None -> ())
  | R.I_facade_bind ->
      let f = oloc lay ops.(0) and x1 = int_arg lay ops.(1) in
      fun a ->
        charge_intrinsic a.st bi pc;
        let addr = rint a x1 in
        facade_bind (rd_v a f) addr
  | R.I_facade_read ->
      let d = int_dest lay ret and f = oloc lay ops.(0) in
      fun a ->
        charge_intrinsic a.st bi pc;
        set_int a d (facade_read (rd_v a f))
  | _ -> invalid_arg "Compile_tier.intrinsic_code"

(* ---------- compiled-code runner ---------- *)

(* A compiled method: its composed blocks and its slot layout. Block
   closures return the next block index, [-1] for a void return, [-2]
   for a value return (parked in the per-thread [st.tret] cell). *)
type code = { blocks : (act -> int) array; lay : layout }

(* Write every pinned slot back into the frame, so tier 1 resumes on
   the frame an all-boxed run would have built. *)
let materialize (l : layout) a =
  Array.iteri (fun i s -> a.frame.(s) <- of_int a.ints.(i)) l.int_slots;
  Array.iteri (fun i s -> a.frame.(s) <- Value.Float (Float.Array.get a.flts i)) l.flt_slots

let rec run_from (blocks : (act -> int) array) a bi =
  if bi < 0 then bi else run_from blocks a (blocks.(bi) a)

(* Entry is always block 0 of a fresh frame, so the pinned slots start
   from the template. A method with no pinned slot has nothing to write
   back and runs without a handler. *)
let run_blocks st pool (c : code) frame =
  let l = c.lay in
  let a =
    {
      st;
      frame;
      pool;
      ints = (if Array.length l.int_slots = 0 then l.int_init else Array.copy l.int_init);
      flts = (if Array.length l.flt_slots = 0 then l.flt_init else Float.Array.copy l.flt_init);
    }
  in
  let r =
    if Array.length l.int_slots + Array.length l.flt_slots = 0 then run_from c.blocks a 0
    else
      try run_from c.blocks a 0
      with Tier_deopt _ as e ->
        materialize l a;
        raise e
  in
  if r = -1 then None
  else begin
    let v = st.tret in
    st.tret <- Value.Null;
    Some v
  end

let note_deopt reason =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"vm"
      ~args:[ ("reason", Obs.Tracer.Astr reason) ]
      "tier_deopt"

(* Entry wrapper: run the compiled method and, on a guard failure, count
   the deopt, retire the method's compiled code at the limit, and resume
   tier-1 at the failed pc on the frame [run_blocks] materialized. The
   two-argument entry is built as its own closure, so the interpreter's
   call is an exact-arity one. *)
let wrap_blocks (t : tier) mx code =
  let entry st frame =
    try run_blocks st no_pool code frame
    with Tier_deopt (dbi, dpc, reason) ->
      st.stats.Exec_stats.tier2_deopts <- st.stats.Exec_stats.tier2_deopts + 1;
      t.t_fail.(mx) <- t.t_fail.(mx) + 1;
      if t.t_fail.(mx) >= deopt_limit then t.t_code.(mx) <- T_dead;
      note_deopt reason;
      t.t_hooks.h_resume st mx frame dbi dpc
  in
  entry

(* Deopt inside an inlined leaf callee: count it, then resume the
   *callee* in tier-1 from the failed pc; the caller's compiled code
   continues with the result. The callee's failure counter gates its
   inline fast path, so a chronically deopting leaf falls back to the
   normal call protocol without evicting the caller. *)
let deopt_inline t st midx frame bi pc reason =
  st.stats.Exec_stats.tier2_deopts <- st.stats.Exec_stats.tier2_deopts + 1;
  t.t_fail.(midx) <- t.t_fail.(midx) + 1;
  note_deopt reason;
  t.t_hooks.h_resume st midx frame bi pc

(* A compiled call site's target: a leaf callee's pre-compiled body runs
   on a fresh activation of its own (sharing the caller's resolved pool)
   without touching the dispatch machinery; anything else, or a leaf
   that has deopted out, goes through [h_call], the normal tier
   dispatch — so a hot callee runs its own compiled code. A deopt inside
   an inlined leaf is caught at the inline boundary and resumes the
   *callee* in tier-1. *)
let invoke t a midx leaf f =
  match leaf with
  | Some code when t.t_fail.(midx) < deopt_limit -> (
      Exec_stats.note_mcall a.st.stats midx;
      try run_blocks a.st a.pool code f
      with Tier_deopt (cbi, cpc, reason) -> deopt_inline t a.st midx f cbi cpc reason)
  | _ -> t.t_hooks.h_call a.st midx f

(* A callee frame: the method's template plus the argument slots. *)
let callee_frame (m : R.meth) (args : R.slot array) frame =
  let f = Array.copy m.R.m_frame in
  for i = 0 to Array.length args - 1 do
    f.(i + 1) <- fg frame (Array.unsafe_get args i)
  done;
  f

(* Int compare-and-branch over direct codes, one closure per
   operator. *)
let int_branch (op : Ir.binop) x y t e : act -> int =
  match op with
  | Ir.Lt -> fun a -> if ri a x < ri a y then t else e
  | Ir.Le -> fun a -> if ri a x <= ri a y then t else e
  | Ir.Gt -> fun a -> if ri a x > ri a y then t else e
  | Ir.Ge -> fun a -> if ri a x >= ri a y then t else e
  | Ir.Eq -> fun a -> if ri a x = ri a y then t else e
  | _ -> fun a -> if ri a x <> ri a y then t else e

(* Compare-and-branch on operands no pinned slot is among: int
   compares inline, one closure per operator; everything else, floats
   included, takes [arith]'s comparison as tier-1 does. *)
let boxed_branch (op : Ir.binop) x y t e : act -> int =
  match op with
  | Ir.Lt -> (
      fun a ->
        match opv a.frame x, opv a.frame y with
        | Value.Int p, Value.Int q -> if p < q then t else e
        | p, q -> cmp_slow op p q t e)
  | Ir.Le -> (
      fun a ->
        match opv a.frame x, opv a.frame y with
        | Value.Int p, Value.Int q -> if p <= q then t else e
        | p, q -> cmp_slow op p q t e)
  | Ir.Gt -> (
      fun a ->
        match opv a.frame x, opv a.frame y with
        | Value.Int p, Value.Int q -> if p > q then t else e
        | p, q -> cmp_slow op p q t e)
  | Ir.Ge -> (
      fun a ->
        match opv a.frame x, opv a.frame y with
        | Value.Int p, Value.Int q -> if p >= q then t else e
        | p, q -> cmp_slow op p q t e)
  | Ir.Eq -> (
      fun a ->
        match opv a.frame x, opv a.frame y with
        | Value.Int p, Value.Int q -> if p = q then t else e
        | p, q -> cmp_slow op p q t e)
  | Ir.Ne -> (
      fun a ->
        match opv a.frame x, opv a.frame y with
        | Value.Int p, Value.Int q -> if p <> q then t else e
        | p, q -> cmp_slow op p q t e)
  | _ -> fun a -> cmp_slow op (opv a.frame x) (opv a.frame y) t e

let compile_term lay (term : R.term) : act -> int =
  match term with
  | R.Rret_void -> fun _ -> -1
  | R.Rret s -> (
      match loc_of lay s with
      | L_box s ->
          fun a ->
            a.st.tret <- fg a.frame s;
            -2
      | l ->
          fun a ->
            a.st.tret <- rd_v a l;
            -2)
  | R.Rjump t -> fun _ -> t
  | R.Rbranch (s, t, e) -> (
      match loc_of lay s with
      | L_int k -> fun a -> if Array.unsafe_get a.ints k <> 0 then t else e
      | L_flt _ -> fun _ -> t (* every float is truthy, 0.0 included *)
      | L_box s -> fun a -> if truthy (fg a.frame s) then t else e
      | L_imm v -> if truthy v then fun _ -> t else fun _ -> e)
  | R.Rcmp_branch (op, x, y, t, e) ->
      let kx = okind lay x and ky = okind lay y in
      let lx = oloc lay x and ly = oloc lay y in
      if not (pinned lx || pinned ly) then boxed_branch op x y t e
      else if is_cmp op && kx = K_int && ky = K_int then
        int_branch op (Option.get (icode lay lx)) (Option.get (icode lay ly)) t e
      else if is_cmp op && is_num kx && is_num ky then
        if (op = Ir.Eq || op = Ir.Ne) && kx <> ky then
          (* an int never equals a float *)
          let r = if op = Ir.Eq then e else t in
          fun _ -> r
        else
          let xi, x = ncode lay kx lx and yi, y = ncode lay ky ly in
          fun a ->
            let p = rn a xi x in
            let q = rn a yi y in
            if fcmp op p q then t else e
      else
        (* a pinned operand against one of unknown kind *)
        fun a -> cmp_slow op (rd_v a lx) (rd_v a ly) t e

(* One compiled instruction: either bulk-chargeable straight-line work
   (step/mix accounting hoisted into the enclosing segment) or a
   self-charging action (guards, calls, allocation intrinsics,
   delegations) that runs its own
   budget precheck so a deopt lands before its accounting. The int
   payload is the mix category. [S_store] is a facade page access: it
   also counts one intrinsic dispatch and reads the activation's page
   pool, which its segment resolves on entry. *)
type step =
  | S_bulk of (act -> unit) * int
  | S_store of (act -> unit) * int
  | S_self of (act -> unit)

(* ---------- the instruction templates ---------- *)

(* A page read into destination code [d] — an int code for the int
   widths, a float code for the float ones. *)
let[@inline always] pg_load a (acc : R.acc) d p i =
  match acc with
  | R.A_i64 -> wi a d (read_i64 p i)
  | R.A_f64 ->
      let x = read_f64 p i in
      wf a d x
  | R.A_i32 -> wi a d (read_i32 p i)
  | R.A_i8 -> wi a d (Page.read_u8 p i)
  | R.A_i16 -> wi a d (Page.read_u16 p i)
  | R.A_f32 ->
      let x = read_f32 p i in
      wf a d x

(* [pg_write] of the operand at code [c], of the access's kind. *)
let[@inline always] pg_store a (acc : R.acc) p i c =
  match acc with
  | R.A_i64 -> write_i64 p i (ri a c)
  | R.A_f64 ->
      let x = rf a c in
      write_f64 p i x
  | R.A_i32 -> write_i32 p i (ri a c)
  | R.A_i8 -> Page.write_u8 p i (ri a c land 0xff)
  | R.A_i16 -> Page.write_u16 p i (ri a c)
  | R.A_f32 ->
      let x = rf a c in
      write_f32 p i x

(* The direct code of a value of access [acc]'s kind at [l]. *)
let acode lay (acc : R.acc) l = if acc_kind acc = K_flt then fcode lay l else icode lay l

(* [d = x op y] through [arith] on boxed operands. With no pinned slot
   involved — the common case in object mode — the frame is read
   directly, which beats the unboxed path's per-operand kind tests.
   [sw]: a commutative op quickening swapped (see [arith_src]). *)
let boxed_binop ~sw op d x y : act -> unit =
  match d, x, y with
  | L_box d, L_box x, L_box y -> (
      match op with
      | Ir.Add -> fun a -> fs a.frame d (add_v sw (fg a.frame x) (fg a.frame y))
      | Ir.Sub -> fun a -> fs a.frame d (sub_v (fg a.frame x) (fg a.frame y))
      | Ir.Mul -> fun a -> fs a.frame d (mul_v sw (fg a.frame x) (fg a.frame y))
      | _ when sw -> fun a -> fs a.frame d (arith_src true op (fg a.frame x) (fg a.frame y))
      | _ -> fun a -> fs a.frame d (arith op (fg a.frame x) (fg a.frame y)))
  | L_box d, L_box x, L_imm v -> (
      match op with
      | Ir.Add -> fun a -> fs a.frame d (add_v sw (fg a.frame x) v)
      | Ir.Sub -> fun a -> fs a.frame d (sub_v (fg a.frame x) v)
      | Ir.Mul -> fun a -> fs a.frame d (mul_v sw (fg a.frame x) v)
      | _ when sw -> fun a -> fs a.frame d (arith_src true op (fg a.frame x) v)
      | _ -> fun a -> fs a.frame d (arith op (fg a.frame x) v))
  | _ -> (
      match op with
      | Ir.Add -> fun a -> wr_v a d (add_v sw (rd_v a x) (rd_v a y))
      | Ir.Sub -> fun a -> wr_v a d (sub_v (rd_v a x) (rd_v a y))
      | Ir.Mul -> fun a -> wr_v a d (mul_v sw (rd_v a x) (rd_v a y))
      | _ -> fun a -> wr_v a d (arith_src sw op (rd_v a x) (rd_v a y)))

(* [d = x op y] over operands of kinds [kx] and [ky]: unboxed whenever
   the kinds decide which case of [arith] runs, through [arith] on
   boxed operands otherwise — so anything unusual stays exact by
   construction. *)
let binop_code lay ~sw op d x kx y ky : act -> unit =
  match binop_kind op kx ky with
  | _ when not (pinned d || pinned x || pinned y) -> boxed_binop ~sw op d x y
  | K_int when kx = K_int && ky = K_int -> (
      let d = Option.get (icode lay d) in
      let x = Option.get (icode lay x) and y = Option.get (icode lay y) in
      match op with
      | Ir.Add -> fun a -> wi a d (ri a x + ri a y)
      | Ir.Sub -> fun a -> wi a d (ri a x - ri a y)
      | Ir.Mul -> fun a -> wi a d (ri a x * ri a y)
      | _ -> fun a -> wi a d (iarith op (ri a x) (ri a y)))
  | K_int when is_num kx && is_num ky ->
      (* a comparison with a float operand; an int never equals a float *)
      let d = Option.get (icode lay d) in
      if (op = Ir.Eq || op = Ir.Ne) && kx <> ky then
        let r = if op = Ir.Eq then 0 else 1 in
        fun a -> wi a d r
      else
        let xi, x = ncode lay kx x and yi, y = ncode lay ky y in
        fun a ->
          let p = rn a xi x in
          let q = rn a yi y in
          wi a d (if fcmp op p q then 1 else 0)
  | K_flt -> (
      let d = Option.get (fcode lay d) in
      let xi, x = ncode lay kx x and yi, y = ncode lay ky y in
      match op with
      | Ir.Add -> fun a -> wf a d (rn a xi x +. rn a yi y)
      | Ir.Sub -> fun a -> wf a d (rn a xi x -. rn a yi y)
      | Ir.Mul -> fun a -> wf a d (rn a xi x *. rn a yi y)
      | Ir.Div -> fun a -> wf a d (rn a xi x /. rn a yi y)
      | _ -> fun a -> wf a d (Float.rem (rn a xi x) (rn a yi y)))
  | _ -> boxed_binop ~sw op d x y

(* [d = x*y + z], the product rounded before the sum as tier 1's two
   [arith] calls do; [sw] holds the product's and the sum's swaps. *)
let mul_add_code lay ~sw:(mul_swapped, add_swapped) d x kx y ky z kz : act -> unit =
  let km = binop_kind Ir.Mul kx ky in
  match binop_kind Ir.Add km kz with
  | _ when not (pinned d || pinned x || pinned y || pinned z) -> (
      fun a ->
        match rd_v a x, rd_v a y, rd_v a z with
        | Value.Int p, Value.Int q, Value.Int r -> wr_v a d (of_int ((p * q) + r))
        | vx, vy, vz ->
            let p = arith_src mul_swapped Ir.Mul vx vy in
            wr_v a d (arith_src add_swapped Ir.Add p vz))
  | K_int ->
      let d = Option.get (icode lay d) in
      let x = Option.get (icode lay x) and y = Option.get (icode lay y) in
      let z = Option.get (icode lay z) in
      fun a -> wi a d ((ri a x * ri a y) + ri a z)
  | K_flt when km = K_int ->
      let d = Option.get (fcode lay d) and z = Option.get (fcode lay z) in
      let x = Option.get (icode lay x) and y = Option.get (icode lay y) in
      fun a -> wf a d (float_of_int (ri a x * ri a y) +. rf a z)
  | K_flt ->
      let d = Option.get (fcode lay d) in
      let xi, x = ncode lay kx x and yi, y = ncode lay ky y in
      let zi, z = ncode lay kz z in
      fun a -> wf a d ((rn a xi x *. rn a yi y) +. rn a zi z)
  | _ -> (
      fun a ->
        match rd_v a x, rd_v a y, rd_v a z with
        | Value.Int p, Value.Int q, Value.Int r -> wr_v a d (of_int ((p * q) + r))
        | vx, vy, vz ->
            let p = arith_src mul_swapped Ir.Mul vx vy in
            wr_v a d (arith_src add_swapped Ir.Add p vz))

let rec compile_instr t (cst : st) mx ~depth lay bi pc (ins : R.instr) : step =
  let cat = R.category ins in
  let bulk f = S_bulk (f, cat) in
  let bulk_s f = S_store (f, cat) in
  let deleg () = S_self (fun a -> delegate t a.st mx a.frame ins) in
  let object_mode = match cst.mode with Object_mode -> true | Facade_mode _ -> false in
  let loc = loc_of lay and kind s = lay.kinds.(s) in
  match ins with
  | R.Rconst (d, v) -> (
      match loc d, v with
      | L_box d, _ -> bulk (fun a -> fs a.frame d v)
      | L_int k, Value.Int n -> bulk (fun a -> Array.unsafe_set a.ints k n)
      | L_flt k, Value.Float x -> bulk (fun a -> Float.Array.unsafe_set a.flts k x)
      | dl, _ -> bulk (fun a -> wr_v a dl v))
  | R.Rmove (d, s) -> (
      match loc d, loc s, kind s with
      | L_box d, L_box s, _ -> bulk (fun a -> fs a.frame d (fg a.frame s))
      | dl, sl, K_int ->
          let d = Option.get (icode lay dl) and s = Option.get (icode lay sl) in
          bulk (fun a -> wi a d (ri a s))
      | dl, sl, K_flt ->
          let d = Option.get (fcode lay dl) and s = Option.get (fcode lay sl) in
          bulk (fun a ->
              let x = rf a s in
              wf a d x)
      | dl, sl, (K_bot | K_box) -> bulk (fun a -> wr_v a dl (rd_v a sl)))
  | R.Rbinop (d, op, x, y) ->
      bulk (binop_code lay ~sw:false op (loc d) (loc x) (kind x) (loc y) (kind y))
  | R.Rbinop_imm (d, op, x, v, sw) ->
      bulk (binop_code lay ~sw op (loc d) (loc x) (kind x) (L_imm v) (kind_of_value v))
  | R.Rmul_add (d, x, y, z) ->
      bulk
        (mul_add_code lay ~sw:(false, false) (loc d) (loc x) (kind x) (loc y) (kind y) (loc z)
           (kind z))
  | R.Rmul_add_imm (d, x, v, z, msw, asw) ->
      bulk
        (mul_add_code lay ~sw:(msw, asw) (loc d) (loc x) (kind x) (L_imm v) (kind_of_value v)
           (loc z) (kind z))
  | R.Rneg (d, s) -> (
      match kind s with
      | K_int ->
          let d = Option.get (icode lay (loc d)) and s = Option.get (icode lay (loc s)) in
          bulk (fun a -> wi a d (-ri a s))
      | K_flt ->
          let d = Option.get (fcode lay (loc d)) and s = Option.get (fcode lay (loc s)) in
          bulk (fun a -> wf a d (-.rf a s))
      | K_bot | K_box ->
          let dl = loc d and sl = loc s in
          bulk (fun a ->
              match rd_v a sl with
              | Value.Int n -> wr_v a dl (of_int (-n))
              | Value.Float x -> wr_v a dl (Value.Float (-.x))
              | w -> vm_err "neg of %s" (Value.to_string w)))
  | R.Rnot (d, s) -> (
      let d = Option.get (icode lay (loc d)) in
      match kind s with
      | K_flt -> bulk (fun a -> wi a d 0) (* every float is truthy *)
      | K_int ->
          let s = Option.get (icode lay (loc s)) in
          bulk (fun a -> wi a d (if ri a s <> 0 then 0 else 1))
      | K_bot | K_box ->
          let sl = loc s in
          bulk (fun a -> wi a d (if truthy (rd_v a sl) then 0 else 1)))
  | R.Rnew (d, cid) -> bulk (fun a -> fs a.frame d (alloc_obj a.st cid))
  | R.Rnew_array (d, na, len) ->
      bulk (fun a -> fs a.frame d (alloc_arr a.st na (as_int (fg a.frame len))))
  | R.Rstatic_load (d, g) -> bulk (fun a -> fs a.frame d a.st.globals.(g))
  | R.Rstatic_store (g, s) -> bulk (fun a -> a.st.globals.(g) <- fg a.frame s)
  | R.Rarray_load (d, r, i) ->
      bulk (fun a ->
          let f = a.frame in
          match fg f r with
          | Value.Arr arr ->
              let idx = as_int (fg f i) in
              if idx < 0 || idx >= Array.length arr.Value.elems then oob idx;
              fs f d (Array.unsafe_get arr.Value.elems idx)
          | Value.Null -> vm_err "NullPointerException: array load"
          | w -> vm_err "array load from %s" (Value.to_string w))
  | R.Rarray_store (r, i, s) ->
      bulk (fun a ->
          let f = a.frame in
          match fg f r with
          | Value.Arr arr ->
              let idx = as_int (fg f i) in
              if idx < 0 || idx >= Array.length arr.Value.elems then oob idx;
              Array.unsafe_set arr.Value.elems idx (fg f s)
          | Value.Null -> vm_err "NullPointerException: array store"
          | w -> vm_err "array store to %s" (Value.to_string w))
  | R.Rarray_length (d, r) ->
      bulk (fun a ->
          let f = a.frame in
          match fg f r with
          | Value.Arr arr -> fs f d (of_int (Array.length arr.Value.elems))
          | Value.Null -> vm_err "NullPointerException: array length"
          | w -> vm_err "length of %s" (Value.to_string w))
  | R.Rinstance_of (d, s, ts) ->
      bulk (fun a ->
          fs a.frame d (of_int (if instance_of a.st ts (fg a.frame s) then 1 else 0)))
  | R.Rcast (d, s, ts) ->
      bulk (fun a ->
          let v = fg a.frame s in
          (match v with
          | Value.Null -> ()
          | _ ->
              if not (instance_of a.st ts v) then
                vm_err "ClassCastException: %s to %s" (Value.to_string v)
                  (Jtype.to_string ts.R.t_ty));
          fs a.frame d v)
  (* ---- calls ---- *)
  | R.Rcall (ret, midx, recv, args) ->
      S_self (mk_call t cst ~depth bi pc cat ret midx recv args)
  | R.Rcall_virtual_ic (ret, mid, r, args, ic) ->
      (* Monomorphize against the IC snapshot when the linked program
         already warmed it in an earlier run; a cache still cold at
         compile time gets a guard against the live IC word instead, so
         it becomes a fast path once the interpreter fills it. *)
      let key = ic.R.ic_key in
      if key < 0 then S_self (mk_virtual_dyn t cst mx bi pc ret mid r args ic ins)
      else S_self (mk_virtual_ic t cst mx ~depth bi pc ret mid r args key ins)
  (* ---- monitors: the lock-contention deopt trigger. Contended regions
     always run in tier-1; after [deopt_limit] entries the method
     retires there for good. ---- *)
  | R.Rmonitor_enter _ | R.Rmonitor_exit _ ->
      S_self (fun _ -> raise (Tier_deopt (bi, pc, "monitor")))
  (* ---- IC-guarded field access: the guard reads the *live* IC word,
     so a site compiled cold warms up as soon as the interpreter fills
     its cache, and refills keep the fast path. A guard failure
     delegates the one instruction — the interpreter's miss path refills
     the cache and self-accounts, and the compiled code continues. ---- *)
  | R.Rfield_load_ic (d, o, _fid, ic) ->
      S_self
        (fun a ->
          let st = a.st and f = a.frame in
          precheck st bi pc;
          let key = ic.R.ic_key in
          match fg f o with
          | Value.Obj ob when key >= 0 && ob.Value.ocid = key lsr 20 ->
              count_step st cat;
              note_ic_hit st.stats mx;
              fs f d ob.Value.fields.(key land R.ic_payload_mask)
          | _ -> delegate t st mx f ins)
  | R.Rfield_store_ic (o, _fid, s, ic) ->
      S_self
        (fun a ->
          let st = a.st and f = a.frame in
          precheck st bi pc;
          let key = ic.R.ic_key in
          match fg f o with
          | Value.Obj ob when key >= 0 && ob.Value.ocid = key lsr 20 ->
              count_step st cat;
              note_ic_hit st.stats mx;
              ob.Value.fields.(key land R.ic_payload_mask) <- fg f s
          | _ -> delegate t st mx f ins)
  (* ---- offset-specialized page access (facade mode): each template
     resolves the backing page once and works relative to it; the fused
     forms look a page up once where the interpreter's Store calls look
     it up per access ---- *)
  | R.Rget _ | R.Rset _ | R.Raget _ | R.Raset _ | R.Rget_bin _ | R.Rrmw _ | R.Raget_get _
  | R.Raget_aget _
    when object_mode ->
      deleg ()
  | R.Rget (d, acc, p, off) -> (
      match icode lay (loc p), acode lay acc (loc d) with
      | Some p, Some d ->
          bulk_s (fun a ->
              let ad = raddr a p in
              pg_load a acc d (page_in a.pool ad) (offset ad + off))
      | _ ->
          let pl = loc p and dl = loc d in
          bulk_s (fun a ->
              let ad = addr_nn (rd_v a pl) in
              wr_v a dl (pg_read acc (page_in a.pool ad) (offset ad + off))))
  | R.Rset (acc, p, off, src) -> (
      match icode lay (loc p), acode lay acc (oloc lay src) with
      | Some p, Some c ->
          bulk_s (fun a ->
              let ad = raddr a p in
              pg_store a acc (page_in a.pool ad) (offset ad + off) c)
      | _ ->
          let pl = loc p and sl = oloc lay src in
          bulk_s (fun a ->
              let ad = addr_nn (rd_v a pl) in
              pg_write acc (page_in a.pool ad) (offset ad + off) (rd_v a sl)))
  | R.Raget (d, acc, p, eb, idx) -> (
      match icode lay (loc p), icode lay (oloc lay idx), acode lay acc (loc d) with
      | Some p, Some ix, Some d ->
          bulk_s (fun a ->
              let ad = raddr a p in
              let pg = page_in a.pool ad in
              let b = offset ad in
              let i = ri a ix in
              check_index pg b i;
              pg_load a acc d pg (b + LR.array_header_bytes + (eb * i)))
      | _ ->
          let pl = loc p and il = oloc lay idx and dl = loc d in
          bulk_s (fun a ->
              let ad = addr_nn (rd_v a pl) in
              let pg = page_in a.pool ad in
              let b = offset ad in
              let i = as_int (rd_v a il) in
              check_index pg b i;
              wr_v a dl (pg_read acc pg (b + LR.array_header_bytes + (eb * i)))))
  | R.Raset (acc, p, eb, idx, src) -> (
      match icode lay (loc p), icode lay (oloc lay idx), acode lay acc (oloc lay src) with
      | Some p, Some ix, Some c ->
          bulk_s (fun a ->
              let ad = raddr a p in
              let pg = page_in a.pool ad in
              let b = offset ad in
              let i = ri a ix in
              check_index pg b i;
              pg_store a acc pg (b + LR.array_header_bytes + (eb * i)) c)
      | _ ->
          let pl = loc p and il = oloc lay idx and sl = oloc lay src in
          bulk_s (fun a ->
              let ad = addr_nn (rd_v a pl) in
              let pg = page_in a.pool ad in
              let b = offset ad in
              let i = as_int (rd_v a il) in
              check_index pg b i;
              pg_write acc pg (b + LR.array_header_bytes + (eb * i)) (rd_v a sl)))
  | R.Rget_bin (d, acc, p, off, op, s, sw) -> (
      let ka = acc_kind acc and ks = okind lay s in
      let dl = loc d and sl = oloc lay s in
      match icode lay (loc p), binop_kind op ka ks with
      | Some p, K_flt ->
          let d = Option.get (fcode lay dl) and si, s = ncode lay ks sl in
          bulk_s (fun a ->
              let ad = raddr a p in
              let x = pg_read_f acc (page_in a.pool ad) (offset ad + off) in
              let y = rn a si s in
              let r = fop op x y in
              wf a d r)
      | Some p, K_int when ka = K_int && ks = K_int ->
          let d = Option.get (icode lay dl) and s = Option.get (icode lay sl) in
          bulk_s (fun a ->
              let ad = raddr a p in
              let x = pg_read_i acc (page_in a.pool ad) (offset ad + off) in
              wi a d (iarith op x (ri a s)))
      | _ ->
          let pl = loc p in
          bulk_s (fun a ->
              let ad = addr_nn (rd_v a pl) in
              let x = pg_read acc (page_in a.pool ad) (offset ad + off) in
              wr_v a dl (arith_src sw op x (rd_v a sl))))
  | R.Rrmw (acc, p, off, op, s, sw) -> (
      let ks = okind lay s and sl = oloc lay s in
      match icode lay (loc p) with
      | Some p when acc = R.A_f64 && is_float_op op && is_num ks ->
          let si, s = ncode lay ks sl in
          bulk_s (fun a ->
              let ad = raddr a p in
              let pg = page_in a.pool ad in
              let i = offset ad + off in
              let x = read_f64 pg i in
              let y = rn a si s in
              let r = fop op x y in
              write_f64 pg i r)
      | Some p when acc = R.A_i64 && is_int_op op && ks = K_int ->
          let s = Option.get (icode lay sl) in
          bulk_s (fun a ->
              let ad = raddr a p in
              let pg = page_in a.pool ad in
              let i = offset ad + off in
              let x = read_i64 pg i in
              write_i64 pg i (iop op x (ri a s)))
      | _ ->
          let pl = loc p in
          bulk_s (fun a ->
              let ad = addr_nn (rd_v a pl) in
              let pg = page_in a.pool ad in
              let i = offset ad + off in
              pg_write acc pg i (arith_src sw op (pg_read acc pg i) (rd_v a sl))))
  | R.Raget_get (d, arr, eb, idx, acc, off) -> (
      match icode lay (loc arr), icode lay (oloc lay idx), acode lay acc (loc d) with
      | Some arr, Some ix, Some d ->
          bulk_s (fun a ->
              let ad = raddr a arr in
              let pg = page_in a.pool ad in
              let b = offset ad in
              let i = ri a ix in
              check_index pg b i;
              let w = read_i64 pg (b + LR.array_header_bytes + (eb * i)) in
              let ad2 = if w = 0 then bad_ref (Value.Int 0) else w in
              pg_load a acc d (page_in a.pool ad2) (offset ad2 + off))
      | _ ->
          let al = loc arr and il = oloc lay idx and dl = loc d in
          bulk_s (fun a ->
              let ad = addr_nn (rd_v a al) in
              let pg = page_in a.pool ad in
              let b = offset ad in
              let i = as_int (rd_v a il) in
              check_index pg b i;
              let w = read_i64 pg (b + LR.array_header_bytes + (eb * i)) in
              let ad2 = if w = 0 then bad_ref (Value.Int 0) else w in
              wr_v a dl (pg_read acc (page_in a.pool ad2) (offset ad2 + off))))
  | R.Raget_aget (d, acc, arr1, eb1, idx, arr2, eb2) -> (
      (* [arr2[arr1[idx]]]: the ref-chasing shape ([edges[k]] indexing
         [verts]) is the hottest superinstruction on the graph
         workloads. *)
      match
        ( icode lay (loc arr1),
          icode lay (oloc lay idx),
          icode lay (loc arr2),
          acode lay acc (loc d) )
      with
      | Some a1, Some ix, Some a2, Some d ->
          bulk_s (fun a ->
              let ad1 = raddr a a1 in
              let pg1 = page_in a.pool ad1 in
              let b1 = offset ad1 in
              let i = ri a ix in
              check_index pg1 b1 i;
              let j = read_i32 pg1 (b1 + LR.array_header_bytes + (eb1 * i)) in
              let ad2 = raddr a a2 in
              let pg2 = page_in a.pool ad2 in
              let b2 = offset ad2 in
              check_index pg2 b2 j;
              pg_load a acc d pg2 (b2 + LR.array_header_bytes + (eb2 * j)))
      | _ ->
          let l1 = loc arr1 and il = oloc lay idx and l2 = loc arr2 and dl = loc d in
          bulk_s (fun a ->
              let ad1 = addr_nn (rd_v a l1) in
              let pg1 = page_in a.pool ad1 in
              let b1 = offset ad1 in
              let i = as_int (rd_v a il) in
              check_index pg1 b1 i;
              let j = read_i32 pg1 (b1 + LR.array_header_bytes + (eb1 * i)) in
              let ad2 = addr_nn (rd_v a l2) in
              let pg2 = page_in a.pool ad2 in
              let b2 = offset ad2 in
              check_index pg2 b2 j;
              wr_v a dl (pg_read acc pg2 (b2 + LR.array_header_bytes + (eb2 * j)))))
  | R.Rintrinsic (ret, i, ops) when native_intrinsic i ->
      S_self (intrinsic_code lay bi pc ret i ops)
  (* ---- everything stateful or rare runs through the interpreter,
     which self-accounts ---- *)
  | R.Riter_start | R.Riter_end | R.Rrun_thread _ | R.Rintrinsic _ | R.Rerror _ ->
      deleg ()

(* Static/special call: frame construction and return plumbing are the
   interpreter's, but the target runs through [invoke] — compiled,
   inlined, or tiered as appropriate. *)
and mk_call t (cst : st) ~depth bi pc cat ret midx recv args =
  let m = cst.rp.R.methods.(midx) in
  let leaf = leaf_body t cst ~depth midx in
  fun a ->
    precheck a.st bi pc;
    count_step a.st cat;
    let stats = a.st.stats in
    stats.Exec_stats.static_dispatches <- stats.Exec_stats.static_dispatches + 1;
    let f = callee_frame m args a.frame in
    (match recv with Some s -> f.(0) <- fg a.frame s | None -> ());
    store_ret a.frame ret (invoke t a midx leaf f)

(* Devirtualized call through a warm IC snapshot: the guard re-derives
   the receiver's class and compares it to the cached one. On a miss,
   CHA-monomorphic names delegate the single dispatch to the interpreter
   (the target cannot differ); polymorphic receivers deoptimize. *)
and mk_virtual_ic t (cst : st) mx ~depth bi pc ret mid r args key ins =
  let cid0 = key lsr 20 in
  let midx0 = key land R.ic_payload_mask in
  let m0 = cst.rp.R.methods.(midx0) in
  let mname = cst.rp.R.method_names.(mid) in
  let mono = t.t_mono.(mid) in
  let leaf = leaf_body t cst ~depth midx0 in
  let cat = Exec_stats.cat_call_virtual in
  fun a ->
    let st = a.st in
    precheck st bi pc;
    let recv = fg a.frame r in
    let cid =
      match recv with
      | Value.Obj o when o.Value.ocid >= 0 -> o.Value.ocid
      | _ -> ( try dispatch_cid st recv mname with Vm_error _ -> -1)
      (* A receiver with no runtime class re-raises from the slow path
         below with tier-1's exact accounting. *)
    in
    if cid = cid0 then begin
      count_step st cat;
      let stats = st.stats in
      stats.Exec_stats.virtual_dispatches <- stats.Exec_stats.virtual_dispatches + 1;
      note_ic_hit stats mx;
      let f = callee_frame m0 args a.frame in
      f.(0) <- recv;
      store_ret a.frame ret (invoke t a midx0 leaf f)
    end
    else if mono then delegate t st mx a.frame ins
    else raise (Tier_deopt (bi, pc, "polymorphic"))

(* Virtual call whose cache was cold at compile time: guard against the
   live IC word each execution. The first execution delegates (the
   interpreter's miss path fills the cache); after that, receivers
   matching the current cache dispatch through the tiered [h_call].
   Receivers that stop matching delegate when CHA says the target is
   unique, and deoptimize otherwise — same policy as the snapshot form,
   just without its pre-compiled leaf body. *)
and mk_virtual_dyn t (cst : st) mx bi pc ret mid r args (ic : R.ic) ins =
  let mname = cst.rp.R.method_names.(mid) in
  let mono = t.t_mono.(mid) in
  let cat = Exec_stats.cat_call_virtual in
  fun a ->
    let st = a.st in
    precheck st bi pc;
    let key = ic.R.ic_key in
    if key < 0 then delegate t st mx a.frame ins
    else begin
      let recv = fg a.frame r in
      let cid =
        match recv with
        | Value.Obj o when o.Value.ocid >= 0 -> o.Value.ocid
        | _ -> ( try dispatch_cid st recv mname with Vm_error _ -> -1)
      in
      if cid = key lsr 20 then begin
        count_step st cat;
        let stats = st.stats in
        stats.Exec_stats.virtual_dispatches <- stats.Exec_stats.virtual_dispatches + 1;
        note_ic_hit stats mx;
        let midx = key land R.ic_payload_mask in
        let f = callee_frame st.rp.R.methods.(midx) args a.frame in
        f.(0) <- recv;
        store_ret a.frame ret (t.t_hooks.h_call st midx f)
      end
      else if mono then delegate t st mx a.frame ins
      else raise (Tier_deopt (bi, pc, "polymorphic"))
    end

(* The pre-compiled body [invoke] runs inline for a leaf callee: its
   single block compiled eagerly, one level deep. *)
and leaf_body t (cst : st) ~depth midx =
  let m = cst.rp.R.methods.(midx) in
  if depth = 0 && t.t_leaves.(midx) && Array.length m.R.m_body > 0 then
    Some (compile_meth t cst midx m ~depth:(depth + 1) (layout_for cst m))
  else None

and compile_meth t (cst : st) mx (m : R.meth) ~depth lay =
  { blocks = Array.mapi (fun bi b -> compile_block t cst mx ~depth lay bi b) m.R.m_body; lay }

(* Pre-compose a basic block: compile each instruction, then fuse
   maximal runs of bulk-chargeable steps into segments whose accounting
   (step count, mix deltas, intrinsic dispatches) is precomputed and
   applied in O(1) per segment after a single budget precheck. A fused
   compare's step goes into the segment that ends the block, if there
   is one: nothing runs between it and the branch, so a budget expiring
   at the compare deopts to the segment's start and tier 1 replays the
   block up to the compare. Charged in an earlier segment, it would
   let a call in between run one step ahead. Otherwise the terminator
   charges it after its own precheck. The fold spares a typical loop
   block that second precheck on every trip. *)
and compile_block t (cst : st) mx ~depth lay bi (b : R.block) : act -> int =
  let code = b.R.code in
  let steps = Array.mapi (fun pc ins -> compile_instr t cst mx ~depth lay bi pc ins) code in
  let cmp_step = match b.R.term with R.Rcmp_branch _ -> 1 | _ -> 0 in
  let acts = ref [] in
  let group = ref [] in
  let group_start = ref 0 in
  let flush ~extra =
    match !group with
    | [] -> ()
    | g ->
        let items = Array.of_list (List.rev g) in
        let n = Array.length items in
        let start_pc = !group_start in
        let k = ref extra in
        for pc = start_pc to start_pc + n - 1 do
          k := !k + R.weight code.(pc)
        done;
        let k = !k in
        let mixd = Array.make (Array.length Exec_stats.mix_labels) 0 in
        let intr = ref 0 in
        Array.iter
          (function
            | S_bulk (_, c) -> mixd.(c) <- mixd.(c) + 1
            | S_store (_, c) ->
                mixd.(c) <- mixd.(c) + 1;
                incr intr
            | S_self _ -> assert false)
          items;
        let fns =
          Array.map
            (function S_bulk (f, _) | S_store (f, _) -> f | S_self _ -> assert false)
            items
        in
        (* Every facade page access counts one intrinsic dispatch, so
           [intr > 0] exactly when the segment needs the page pool. *)
        let intr = !intr in
        let mixp = ref [] in
        Array.iteri (fun c cnt -> if cnt > 0 then mixp := (c, cnt) :: !mixp) mixd;
        let mcats = Array.of_list (List.map fst !mixp) in
        let mcnts = Array.of_list (List.map snd !mixp) in
        let nm = Array.length mcats in
        let seg a =
          let st = a.st in
          let stats = st.stats in
          if stats.Exec_stats.steps + k > st.max_steps then
            raise (Tier_deopt (bi, start_pc, "budget"));
          stats.Exec_stats.steps <- stats.Exec_stats.steps + k;
          for ci = 0 to nm - 1 do
            let c = Array.unsafe_get mcats ci in
            stats.Exec_stats.mix.(c) <- stats.Exec_stats.mix.(c) + Array.unsafe_get mcnts ci
          done;
          if intr > 0 then begin
            stats.Exec_stats.intrinsic_dispatches <-
              stats.Exec_stats.intrinsic_dispatches + intr;
            if a.pool == no_pool then resolve_pool a
          end;
          for i = 0 to n - 1 do
            (Array.unsafe_get fns i) a
          done
        in
        acts := seg :: !acts;
        group := []
  in
  Array.iteri
    (fun pc s ->
      match s with
      | S_bulk _ | S_store _ ->
          if !group = [] then group_start := pc;
          group := s :: !group
      | S_self f ->
          flush ~extra:0;
          acts := f :: !acts)
    steps;
  let trailing = !group <> [] in
  flush ~extra:cmp_step;
  let actions = Array.of_list (List.rev !acts) in
  let term = compile_term lay b.R.term in
  let term =
    if cmp_step = 0 || trailing then term
    else fun a ->
      let st = a.st in
      precheck st bi (Array.length code);
      st.stats.Exec_stats.steps <- st.stats.Exec_stats.steps + 1;
      term a
  in
  match actions with
  | [||] -> term
  | [| a0 |] ->
      fun a ->
        a0 a;
        term a
  | _ ->
      let n = Array.length actions in
      fun a ->
        for i = 0 to n - 1 do
          (Array.unsafe_get actions i) a
        done;
        term a

(* ---------- installation ---------- *)

(* Compile method [mx] and install it as [T_fn]; oversized or abstract
   methods retire to [T_dead]. Safe to race from several domains — both
   winners install semantically identical code, and any thread may run
   either tier at any moment, because correctness never depends on when
   (or whether) compilation happens. *)
let compile_into (t : tier) (cst : st) mx =
  match t.t_code.(mx) with
  | T_fn _ | T_dead -> ()
  | T_cold ->
      let m = cst.rp.R.methods.(mx) in
      if Array.length m.R.m_body = 0 || R.instr_count m > compile_limit then
        t.t_code.(mx) <- T_dead
      else begin
        let trace = Obs.Trace.on () in
        if trace then Obs.Trace.span_begin ~cat:"vm" "tier2_compile";
        let lay = layout_for cst m in
        let code = compile_meth t cst mx m ~depth:0 lay in
        let stats = cst.stats in
        let ni = Array.length lay.int_slots and nf = Array.length lay.flt_slots in
        stats.Exec_stats.tier2_compiles <- stats.Exec_stats.tier2_compiles + 1;
        stats.Exec_stats.tier2_int_slots <- stats.Exec_stats.tier2_int_slots + ni;
        stats.Exec_stats.tier2_float_slots <- stats.Exec_stats.tier2_float_slots + nf;
        stats.Exec_stats.tier2_boxed_slots <-
          stats.Exec_stats.tier2_boxed_slots + Array.length m.R.m_frame - ni - nf;
        if trace then
          Obs.Trace.span_end
            ~args:[ ("method", Obs.Tracer.Astr (m.R.m_cls ^ "." ^ m.R.m_name)) ]
            ();
        t.t_code.(mx) <- T_fn (wrap_blocks t mx code)
      end

(* ---------- tier construction ---------- *)

let leaf_safe_instr = function
  | R.Rcall _ | R.Rcall_virtual_ic _ | R.Rmonitor_enter _
  | R.Rmonitor_exit _ | R.Riter_start | R.Riter_end | R.Rrun_thread _
  | R.Rerror _ ->
      false
  | _ -> true

let is_leaf (m : R.meth) ~budget =
  Array.length m.R.m_body = 1
  && R.instr_count m <= budget
  && Array.for_all leaf_safe_instr m.R.m_body.(0).R.code

let make ?(feedback = no_feedback) ~hooks (rp : R.program) : tier =
  let nm = Array.length rp.R.methods in
  let nn = Array.length rp.R.method_names in
  (* CHA over the linked vtables: a method-name id with exactly one
     implementation across every class can miss its cache without
     invalidating the compiled caller — the miss delegates to the
     interpreter's dispatch instead of deoptimizing. (The flag only
     selects delegate-vs-deopt policy; both are sound, so the [lib/opt]
     feedback below is merged in without re-proof.) *)
  let impls = Array.make nn (-1) in
  Array.iter
    (fun (c : R.cls) ->
      Array.iteri
        (fun mid midx ->
          if midx >= 0 then
            match impls.(mid) with
            | -1 -> impls.(mid) <- midx
            | x when x = midx -> ()
            | _ -> impls.(mid) <- -2)
        c.R.c_vtable)
    rp.R.classes;
  let t_mono = Array.map (fun x -> x >= 0) impls in
  List.iter
    (fun name ->
      Array.iteri
        (fun mid n -> if String.equal n name then t_mono.(mid) <- true)
        rp.R.method_names)
    feedback.fb_mono;
  (* Leaf inlining candidates must pass the local structural test either
     way; the opt pipeline's inline decisions widen their budget. *)
  let fb_leaf = Hashtbl.create 8 in
  List.iter
    (fun (c, n) -> Hashtbl.replace fb_leaf (c ^ "." ^ n) ())
    feedback.fb_leaves;
  let t_leaves =
    Array.map
      (fun (m : R.meth) ->
        let budget =
          if Hashtbl.mem fb_leaf (m.R.m_cls ^ "." ^ m.R.m_name) then
            feedback_leaf_budget
          else leaf_budget
        in
        is_leaf m ~budget)
      rp.R.methods
  in
  {
    t_code = Array.make nm T_cold;
    t_fail = Array.make nm 0;
    t_hooks = hooks;
    t_leaves;
    t_mono;
  }
