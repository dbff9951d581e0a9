(* The tier-2 closure compiler: translates each resolved method, at its
   first call, out of the interpreter's dispatch loop into
   directly-composed OCaml closures — one closure per instruction,
   pre-composed per basic block, with accessor/arith/operand dispatch
   hoisted to compile time: each template is built either pinned or
   boxed (see "pinned templates"), and a pinned one is selected for its
   access width and operator when it is compiled. Inline caches already
   warm at compile time (a linked program that ran before) are
   monomorphized against their snapshot; leaf callees are devirtualized
   and run through pre-compiled bodies. Every guard that might fail
   raises {!Vm_state.Tier_deopt} *before* the faulting instruction's
   step accounting, so the interpreter resume at (block, pc) — on the
   same slot-indexed frame array — replays it exactly once and the two
   tiers agree on results, output, steps, dispatch counts, heap totals,
   and pool peaks.

   Typed frame slots: a local whose every value is provably an int (or
   a float), and which only typed-capable templates touch, lives
   unboxed in the activation's [ints] (or [flts]) array instead of the
   [Value.t] frame, so compiled code reads and writes it with no
   allocation and no write barrier. The frame is therefore
   materialized at deopt: tier 1 never sees a pinned slot until the
   deopt handler writes every pinned value back, and a value return
   boxes its operand. Everything else — call arguments and results,
   delegated instructions, IC sites, object and array accesses — keeps
   using the boxed frame, exactly as tier 1 does; a template with an
   operand there is built boxed and reads each operand through its
   location. The allocation and facade-pool intrinsics (rt.alloc,
   rt.alloc_array(_oversize), pool.receiver, facade.bind, facade.read)
   and sys.print run here, through the bodies tier 1 runs, and an
   address they produce is an int, so the page references a facade loop
   builds stay unboxed.

   Accounting identity with tier-1 (the differential contract):
   - straight-line runs of simple instructions are bulk-charged: a
     segment precheck deopts with reason "budget" if the step budget
     would expire inside the run, so tier-1 reproduces the exact error
     point; otherwise the step count advances by its precomputed delta
     and the closures run, straight-line for a segment of up to eight
     (see [segment]). The step delta is the sum of the instructions'
     weights ({!Resolved.weight}: a fused form charges the source
     instructions it replaced), plus a fused compare's step when the
     segment ends its block;
   - guards and calls charge one step themselves after their own budget
     precheck, and so does a fused compare after a block's last
     self-charging action;
   - anything else is delegated, instruction by instruction, to the
     interpreter's [h_exec], which self-accounts, and counted in
     [Exec_stats.tier2_delegated]: iteration start/end,
     sys.run_thread, [Rerror], every intrinsic but the six above
     (rt.free_oversize, rt.array_length,
     rt.type_id/is_type/checkcast, rt.string_literal,
     pool.param/pool.resolve, lock.enter/exit, convert.to/from, the
     sys.* calls other than sys.print, and the page accessors
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
   calls per instruction. [pool] is resolved from the running thread's
   store when the activation is made ({!entry_pool}), so compiled code
   stays store-independent and a warm tier can be shared across facade
   runs exactly like object-mode tiers. *)
type act = { st : st; frame : Value.t array; pool : Page_pool.t; ints : int array; flts : floatarray }

(* A pool no run uses: every table slot is the dead-page sentinel, so a
   page access in an object-mode activation would trap, never read.
   Page templates delegate there, so none runs. *)
let no_pool = Page_pool.create ()

let entry_pool st = match st.mode with Facade_mode (rt, _) -> Store.pool rt.store | Object_mode -> no_pool

(* ---------- hot kernels ----------

   Dune's default (dev) profile compiles every module with [-opaque], so
   nothing defined in another module is inlined here, [@inline always]
   or not: a call to [Page.read_f64] or [Value.of_int] stays a call. The
   success paths the templates run per instruction are therefore
   restated over what does inline across modules — compiler primitives
   (array and bigstring access), constructors, exposed record fields and
   values — and each hands its failure case to the owning module's
   function, so errors come from the same code as tier-1's.

   Within this module the native compiler, built without flambda, does
   inline an [@inline always] function applied to known arguments, and
   when an argument is a constant constructor it folds the function's
   [match] on it. It never specializes a closure on a value the closure
   captures, nor inlines a function that builds a closure. So a kernel
   below that takes an access width or an operator ([pg_ld], [fop],
   [iarith]) runs its [match] each time it is called with a captured
   one, and is free of it where a pinned template's selector calls it
   with a constructor. *)

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

(* The ops [arith] computes in floats when an operand is a float, and
   their unboxed form. *)
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

let[@inline always] count_step st =
  let stats = st.stats in
  stats.Exec_stats.steps <- stats.Exec_stats.steps + 1

(* An intrinsic's accounting, as tier 1's [exec] does it. *)
let[@inline always] charge_intrinsic st bi pc =
  precheck st bi pc;
  count_step st

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

(* The allocation and facade-pool intrinsics, and sys.print, which tier
   2 runs itself. *)
let native_intrinsic = function
  | R.I_alloc | R.I_alloc_array | R.I_alloc_array_oversize | R.I_pool_receiver | R.I_facade_bind
  | R.I_facade_read | R.I_print ->
      true
  | _ -> false

(* The templates that can read and write a slot unboxed. Facade page
   templates delegate in object mode, so there they cannot. *)
let typed_capable ~object_mode = function
  | R.Rconst _ | R.Rmove _ | R.Rbinop _ | R.Rbinop_imm _ | R.Rmul_add _ | R.Rmul_add_imm _
  | R.Rneg _ | R.Rnot _ ->
      true
  | R.Rget _ | R.Rset _ | R.Raget _ | R.Raset _ | R.Rget_bin _ | R.Rrmw _ | R.Raget_get _
  | R.Raget_aget _ ->
      not object_mode
  | R.Rintrinsic (_, i, _) -> native_intrinsic i
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
         the int constants {!pin} interned *)
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
      Quicken.iter_uses (touch ok) ins)
    instrs;
  Array.iter (fun (b : R.block) -> Quicken.iter_term_uses (touch true) b.R.term) m.R.m_body;
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

(* Boxed location access: a pinned slot read through [rd_v] boxes, and
   [wr_v] unboxes into a pinned destination. A boxed template reads and
   writes every operand through these. *)
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

(* ---------- pinned templates ----------

   Each template is built one of two ways, chosen when it is compiled.
   It is *pinned* when each operand is pinned in the kind the template
   reads it in — a slot of [ints] or [flts], or a constant interned
   there — except that a float arithmetic op may also read an int
   slot, which it converts. Its builder calls a selector here: a
   compile-time [match] on the access width or the operator whose
   every arm is a closure over one [@inline always] body, applied to
   that arm's constructor. Inlining a body at a constructor folds its
   [match acc] and [match op], so each closure reads and writes
   [a.ints]/[a.flts] directly, with its width and operator fixed, and
   tests nothing its compiler already knew — where an operand lives
   least of all. (The int [Rget_bin] and a float op that converts an
   int slot fix how each operand is read, but match their operator at
   run time.) Any other template is *boxed*: it reads and writes each
   operand through [rd_v]/[wr_v] and computes through [arith], so
   anything unusual stays exact by construction. *)

(* Constants are interned into the arrays after the pinned slots; only
   arrays holding pinned slots are copied per activation, so a method
   with none shares its constants. *)
let intern_int lay n =
  lay.int_init <- Array.append lay.int_init [| n |];
  Array.length lay.int_init - 1

let intern_flt lay x =
  lay.flt_init <- Float.Array.append lay.flt_init (Float.Array.make 1 x);
  Float.Array.length lay.flt_init - 1

(* Whether [l] can be read pinned in kind [k]: a slot of that kind, or a
   constant, which {!pin} interns converted — exact, since [arith]
   converts an int operand of a float op with [float_of_int]. Eq and Ne
   never convert (an int never equals a float), so their callers ask for
   operands of one kind. *)
let pinnable k l =
  match k, l with
  | K_int, (L_int _ | L_imm (Value.Int _)) | K_flt, (L_flt _ | L_imm (Value.Int _ | Value.Float _)) ->
      true
  | _ -> false

let pin lay k = function
  | L_int i | L_flt i -> i
  | L_imm v when k = K_int -> intern_int lay (as_int v)
  | L_imm v -> intern_flt lay (as_float v)
  | L_box _ -> invalid_arg "Compile_tier.pin"

(* An operand a float arithmetic op reads: pinnable as a float, or an
   int slot, which {!npin} flags for conversion. *)
let fnum = function L_int _ -> true | l -> pinnable K_flt l
let npin lay = function L_int k -> (true, k) | l -> (false, pin lay K_flt l)

(* Pinned reads and writes; [gc] reads an int slot as a float. A float
   handed to an inlined helper is let-bound first:
   inlining binds a non-trivial argument without its float type, and
   such a binding stays boxed — one allocation per execution — when a
   branch of the bound expression is a call. *)
let[@inline always] gi a c = Array.unsafe_get a.ints c
let[@inline always] gf a c = Float.Array.unsafe_get a.flts c
let[@inline always] si a c n = Array.unsafe_set a.ints c n
let[@inline always] sf a c x = Float.Array.unsafe_set a.flts c x
let[@inline always] gc a c = float_of_int (gi a c)

(* A page reference: [addr_nn] of the slot's value. *)
let[@inline always] gref a c =
  let ad = gi a c in
  if ad <> 0 then ad else bad_ref (Value.Int 0)

let[@inline always] icmp (op : Ir.binop) (p : int) q =
  match op with
  | Ir.Lt -> p < q
  | Ir.Le -> p <= q
  | Ir.Gt -> p > q
  | Ir.Ge -> p >= q
  | Ir.Eq -> p = q
  | _ -> p <> q

let[@inline always] t_ibin op d x y a = si a d (iarith op (gi a x) (gi a y))

let[@inline always] t_fbin op d x y a =
  let p = gf a x and q = gf a y in
  sf a d (fop op p q)

let[@inline always] t_fcmp op d x y a =
  let p = gf a x and q = gf a y in
  si a d (if fcmp op p q then 1 else 0)

(* [d = x op y] on two ints, every op. *)
let ibin_p (op : Ir.binop) d x y : act -> unit =
  match op with
  | Ir.Add -> fun a -> t_ibin Ir.Add d x y a
  | Ir.Sub -> fun a -> t_ibin Ir.Sub d x y a
  | Ir.Mul -> fun a -> t_ibin Ir.Mul d x y a
  | Ir.Div -> fun a -> t_ibin Ir.Div d x y a
  | Ir.Rem -> fun a -> t_ibin Ir.Rem d x y a
  | Ir.And -> fun a -> t_ibin Ir.And d x y a
  | Ir.Or -> fun a -> t_ibin Ir.Or d x y a
  | Ir.Xor -> fun a -> t_ibin Ir.Xor d x y a
  | Ir.Shl -> fun a -> t_ibin Ir.Shl d x y a
  | Ir.Shr -> fun a -> t_ibin Ir.Shr d x y a
  | Ir.Lt -> fun a -> t_ibin Ir.Lt d x y a
  | Ir.Le -> fun a -> t_ibin Ir.Le d x y a
  | Ir.Gt -> fun a -> t_ibin Ir.Gt d x y a
  | Ir.Ge -> fun a -> t_ibin Ir.Ge d x y a
  | Ir.Eq -> fun a -> t_ibin Ir.Eq d x y a
  | Ir.Ne -> fun a -> t_ibin Ir.Ne d x y a

(* [d = x op y] on operands read as floats ({!npin}): an arithmetic op
   into a float, a comparison into an int. Two float operands get a
   closure per op. An arithmetic op with one int slot, which it
   converts (pagerank's [share = share / d] is the one a workload
   runs), gets a closure per converted side that matches its operator
   at run time; [binop_code] hands a comparison no int slot, and two
   int operands to [ibin_p]. *)
let fbin_p (op : Ir.binop) d (xi, x) (yi, y) : act -> unit =
  match xi, yi, op with
  | false, false, Ir.Add -> fun a -> t_fbin Ir.Add d x y a
  | false, false, Ir.Sub -> fun a -> t_fbin Ir.Sub d x y a
  | false, false, Ir.Mul -> fun a -> t_fbin Ir.Mul d x y a
  | false, false, Ir.Div -> fun a -> t_fbin Ir.Div d x y a
  | false, false, Ir.Rem -> fun a -> t_fbin Ir.Rem d x y a
  | false, false, Ir.Lt -> fun a -> t_fcmp Ir.Lt d x y a
  | false, false, Ir.Le -> fun a -> t_fcmp Ir.Le d x y a
  | false, false, Ir.Gt -> fun a -> t_fcmp Ir.Gt d x y a
  | false, false, Ir.Ge -> fun a -> t_fcmp Ir.Ge d x y a
  | false, false, Ir.Eq -> fun a -> t_fcmp Ir.Eq d x y a
  | false, false, Ir.Ne -> fun a -> t_fcmp Ir.Ne d x y a
  | true, false, _ when is_float_op op ->
      fun a ->
        let p = gc a x and q = gf a y in
        let r = fop op p q in
        sf a d r
  | false, true, _ when is_float_op op ->
      fun a ->
        let p = gf a x and q = gc a y in
        let r = fop op p q in
        sf a d r
  | _ -> invalid_arg "Compile_tier.fbin_p"

let[@inline always] t_ibr op x y t e a = if icmp op (gi a x) (gi a y) then t else e

let[@inline always] t_fbr op x y t e a =
  let p = gf a x and q = gf a y in
  if fcmp op p q then t else e

(* Compare-and-branch on two ints or on two floats. *)
let br_p k (op : Ir.binop) x y t e : act -> int =
  match k, op with
  | K_int, Ir.Lt -> fun a -> t_ibr Ir.Lt x y t e a
  | K_int, Ir.Le -> fun a -> t_ibr Ir.Le x y t e a
  | K_int, Ir.Gt -> fun a -> t_ibr Ir.Gt x y t e a
  | K_int, Ir.Ge -> fun a -> t_ibr Ir.Ge x y t e a
  | K_int, Ir.Eq -> fun a -> t_ibr Ir.Eq x y t e a
  | K_int, _ -> fun a -> t_ibr Ir.Ne x y t e a
  | _, Ir.Lt -> fun a -> t_fbr Ir.Lt x y t e a
  | _, Ir.Le -> fun a -> t_fbr Ir.Le x y t e a
  | _, Ir.Gt -> fun a -> t_fbr Ir.Gt x y t e a
  | _, Ir.Ge -> fun a -> t_fbr Ir.Ge x y t e a
  | _, Ir.Eq -> fun a -> t_fbr Ir.Eq x y t e a
  | _ -> fun a -> t_fbr Ir.Ne x y t e a

(* The page templates' bodies. A page read into, and a page write from,
   a slot of the access's kind. *)
let[@inline always] pg_ld (acc : R.acc) a d p i =
  match acc with
  | R.A_i64 -> si a d (read_i64 p i)
  | R.A_i32 -> si a d (read_i32 p i)
  | R.A_i8 -> si a d (Page.read_u8 p i)
  | R.A_i16 -> si a d (Page.read_u16 p i)
  | R.A_f64 ->
      let x = read_f64 p i in
      sf a d x
  | R.A_f32 ->
      let x = read_f32 p i in
      sf a d x

let[@inline always] pg_st (acc : R.acc) a c p i =
  match acc with
  | R.A_i64 -> write_i64 p i (gi a c)
  | R.A_i32 -> write_i32 p i (gi a c)
  | R.A_i8 -> Page.write_u8 p i (gi a c land 0xff)
  | R.A_i16 -> Page.write_u16 p i (gi a c)
  | R.A_f64 ->
      let x = gf a c in
      write_f64 p i x
  | R.A_f32 ->
      let x = gf a c in
      write_f32 p i x

(* The byte index of element [i] of the array at [b] on [pg], after its
   bounds test. *)
let[@inline always] elem pg b eb i =
  check_index pg b i;
  b + LR.array_header_bytes + (eb * i)

let[@inline always] t_get acc d p off a =
  let ad = gref a p in
  pg_ld acc a d (page_in a.pool ad) (offset ad + off)

let[@inline always] t_set acc p off c a =
  let ad = gref a p in
  pg_st acc a c (page_in a.pool ad) (offset ad + off)

let[@inline always] t_aget acc d p eb ix a =
  let ad = gref a p in
  let pg = page_in a.pool ad in
  pg_ld acc a d pg (elem pg (offset ad) eb (gi a ix))

let[@inline always] t_aset acc p eb ix c a =
  let ad = gref a p in
  let pg = page_in a.pool ad in
  pg_st acc a c pg (elem pg (offset ad) eb (gi a ix))

let[@inline always] t_aget_get acc d arr eb ix off a =
  let ad = gref a arr in
  let pg = page_in a.pool ad in
  let w = read_i64 pg (elem pg (offset ad) eb (gi a ix)) in
  let ad2 = if w = 0 then bad_ref (Value.Int 0) else w in
  pg_ld acc a d (page_in a.pool ad2) (offset ad2 + off)

let[@inline always] t_aget_aget acc d a1 eb1 ix a2 eb2 a =
  let ad1 = gref a a1 in
  let pg1 = page_in a.pool ad1 in
  let j = read_i32 pg1 (elem pg1 (offset ad1) eb1 (gi a ix)) in
  let ad2 = gref a a2 in
  let pg2 = page_in a.pool ad2 in
  pg_ld acc a d pg2 (elem pg2 (offset ad2) eb2 j)

(* [d = p.off op s] and [p.off = p.off op s] on an f64 field and a float
   [s]. *)
let[@inline always] t_get_bin_f64 op d p off s a =
  let ad = gref a p in
  let x = read_f64 (page_in a.pool ad) (offset ad + off) in
  let y = gf a s in
  let r = fop op x y in
  sf a d r

let[@inline always] t_rmw_f64 op p off s a =
  let ad = gref a p in
  let pg = page_in a.pool ad in
  let i = offset ad + off in
  let x = read_f64 pg i in
  let y = gf a s in
  let r = fop op x y in
  write_f64 pg i r

(* [d = p.off op s] on an int field with an int [s]. It runs in no hot
   loop of a measured workload, so the operator stays [iarith]'s
   run-time match. *)
let[@inline always] t_get_bin_i acc op d p off s a =
  let ad = gref a p in
  let pg = page_in a.pool ad and i = offset ad + off in
  let x =
    match acc with
    | R.A_i64 -> read_i64 pg i
    | R.A_i32 -> read_i32 pg i
    | R.A_i8 -> Page.read_u8 pg i
    | _ -> Page.read_u16 pg i
  in
  si a d (iarith op x (gi a s))

(* [d = p.off], [p.off = c], [d = p[ix]], [p[ix] = c], [d = arr[ix].off],
   [d = a2[a1[ix]]] and the int [d = p.off op s], one closure per
   width. *)
let get_p (acc : R.acc) d p off : act -> unit =
  match acc with
  | R.A_i8 -> fun a -> t_get R.A_i8 d p off a
  | R.A_i16 -> fun a -> t_get R.A_i16 d p off a
  | R.A_i32 -> fun a -> t_get R.A_i32 d p off a
  | R.A_i64 -> fun a -> t_get R.A_i64 d p off a
  | R.A_f32 -> fun a -> t_get R.A_f32 d p off a
  | R.A_f64 -> fun a -> t_get R.A_f64 d p off a

let set_p (acc : R.acc) p off c : act -> unit =
  match acc with
  | R.A_i8 -> fun a -> t_set R.A_i8 p off c a
  | R.A_i16 -> fun a -> t_set R.A_i16 p off c a
  | R.A_i32 -> fun a -> t_set R.A_i32 p off c a
  | R.A_i64 -> fun a -> t_set R.A_i64 p off c a
  | R.A_f32 -> fun a -> t_set R.A_f32 p off c a
  | R.A_f64 -> fun a -> t_set R.A_f64 p off c a

let aget_p (acc : R.acc) d p eb ix : act -> unit =
  match acc with
  | R.A_i8 -> fun a -> t_aget R.A_i8 d p eb ix a
  | R.A_i16 -> fun a -> t_aget R.A_i16 d p eb ix a
  | R.A_i32 -> fun a -> t_aget R.A_i32 d p eb ix a
  | R.A_i64 -> fun a -> t_aget R.A_i64 d p eb ix a
  | R.A_f32 -> fun a -> t_aget R.A_f32 d p eb ix a
  | R.A_f64 -> fun a -> t_aget R.A_f64 d p eb ix a

let aset_p (acc : R.acc) p eb ix c : act -> unit =
  match acc with
  | R.A_i8 -> fun a -> t_aset R.A_i8 p eb ix c a
  | R.A_i16 -> fun a -> t_aset R.A_i16 p eb ix c a
  | R.A_i32 -> fun a -> t_aset R.A_i32 p eb ix c a
  | R.A_i64 -> fun a -> t_aset R.A_i64 p eb ix c a
  | R.A_f32 -> fun a -> t_aset R.A_f32 p eb ix c a
  | R.A_f64 -> fun a -> t_aset R.A_f64 p eb ix c a

let aget_get_p (acc : R.acc) d arr eb ix off : act -> unit =
  match acc with
  | R.A_i8 -> fun a -> t_aget_get R.A_i8 d arr eb ix off a
  | R.A_i16 -> fun a -> t_aget_get R.A_i16 d arr eb ix off a
  | R.A_i32 -> fun a -> t_aget_get R.A_i32 d arr eb ix off a
  | R.A_i64 -> fun a -> t_aget_get R.A_i64 d arr eb ix off a
  | R.A_f32 -> fun a -> t_aget_get R.A_f32 d arr eb ix off a
  | R.A_f64 -> fun a -> t_aget_get R.A_f64 d arr eb ix off a

let aget_aget_p (acc : R.acc) d a1 eb1 ix a2 eb2 : act -> unit =
  match acc with
  | R.A_i8 -> fun a -> t_aget_aget R.A_i8 d a1 eb1 ix a2 eb2 a
  | R.A_i16 -> fun a -> t_aget_aget R.A_i16 d a1 eb1 ix a2 eb2 a
  | R.A_i32 -> fun a -> t_aget_aget R.A_i32 d a1 eb1 ix a2 eb2 a
  | R.A_i64 -> fun a -> t_aget_aget R.A_i64 d a1 eb1 ix a2 eb2 a
  | R.A_f32 -> fun a -> t_aget_aget R.A_f32 d a1 eb1 ix a2 eb2 a
  | R.A_f64 -> fun a -> t_aget_aget R.A_f64 d a1 eb1 ix a2 eb2 a

let get_bin_i_p (acc : R.acc) op d p off s : act -> unit =
  match acc with
  | R.A_i8 -> fun a -> t_get_bin_i R.A_i8 op d p off s a
  | R.A_i16 -> fun a -> t_get_bin_i R.A_i16 op d p off s a
  | R.A_i32 -> fun a -> t_get_bin_i R.A_i32 op d p off s a
  | R.A_i64 -> fun a -> t_get_bin_i R.A_i64 op d p off s a
  | R.A_f32 | R.A_f64 -> invalid_arg "Compile_tier.get_bin_i_p"

(* The fused f64 forms PageRank's scatter and gather loops run:
   [d = p.off op s] and [p.off = p.off op s], one closure per float
   op. *)
let get_bin_f64_p (op : Ir.binop) d p off s : act -> unit =
  match op with
  | Ir.Add -> fun a -> t_get_bin_f64 Ir.Add d p off s a
  | Ir.Sub -> fun a -> t_get_bin_f64 Ir.Sub d p off s a
  | Ir.Mul -> fun a -> t_get_bin_f64 Ir.Mul d p off s a
  | Ir.Div -> fun a -> t_get_bin_f64 Ir.Div d p off s a
  | _ -> fun a -> t_get_bin_f64 Ir.Rem d p off s a

let rmw_f64_p (op : Ir.binop) p off s : act -> unit =
  match op with
  | Ir.Add -> fun a -> t_rmw_f64 Ir.Add p off s a
  | Ir.Sub -> fun a -> t_rmw_f64 Ir.Sub p off s a
  | Ir.Mul -> fun a -> t_rmw_f64 Ir.Mul p off s a
  | Ir.Div -> fun a -> t_rmw_f64 Ir.Div p off s a
  | _ -> fun a -> t_rmw_f64 Ir.Rem p off s a

(* ---------- allocation, facade-pool and print intrinsics ---------- *)

(* An int operand of an intrinsic: a pinned int slot read directly,
   anything else through [as_int], as tier 1 reads it. *)
let[@inline always] rd_i a = function L_int k -> gi a k | l -> as_int (rd_v a l)

(* An int result, if there is a destination. An address result makes its
   slot's kind int or boxed, never float. *)
let[@inline always] wr_i a d n =
  match d with Some (L_int k) -> si a k n | Some l -> wr_v a l (of_int n) | None -> ()

(* [rt.alloc], [rt.alloc_array(_oversize)], [pool.receiver],
   [facade.bind], [facade.read] and [sys.print], each charged like tier
   1's [exec] (a deopt before any accounting, then one step) and run by
   the body tier 1 runs. Operands coerce last to first, as in tier 1. *)
let intrinsic_code lay bi pc ret (i : R.intrinsic) (ops : R.operand array) : act -> unit =
  let d = Option.map (loc_of lay) ret and arg k = oloc lay ops.(k) in
  match i with
  | R.I_alloc ->
      let x0 = arg 0 and x1 = arg 1 in
      fun a ->
        let st = a.st in
        charge_intrinsic st bi pc;
        let rt = the_rt st in
        let data_bytes = rd_i a x1 in
        let type_id = rd_i a x0 in
        wr_i a d (rt_alloc st rt ~type_id ~data_bytes)
  | R.I_alloc_array | R.I_alloc_array_oversize ->
      let oversize = i = R.I_alloc_array_oversize in
      let x0 = arg 0 and x1 = arg 1 and x2 = arg 2 in
      fun a ->
        let st = a.st in
        charge_intrinsic st bi pc;
        let rt = the_rt st in
        let length = rd_i a x2 in
        let elem_bytes = rd_i a x1 in
        let type_id = rd_i a x0 in
        wr_i a d (rt_alloc_array st rt ~oversize ~type_id ~elem_bytes ~length)
  | R.I_pool_receiver ->
      let x0 = arg 0 in
      fun a ->
        let st = a.st in
        charge_intrinsic st bi pc;
        let rt = the_rt st in
        let f = pool_receiver st rt ~type_id:(rd_i a x0) in
        (match d with Some l -> wr_v a l (Value.Facade f) | None -> ())
  | R.I_facade_bind ->
      let f = arg 0 and x1 = arg 1 in
      fun a ->
        charge_intrinsic a.st bi pc;
        let addr = rd_i a x1 in
        facade_bind (rd_v a f) addr
  | R.I_facade_read ->
      let f = arg 0 in
      fun a ->
        charge_intrinsic a.st bi pc;
        wr_i a d (facade_read (rd_v a f))
  | R.I_print ->
      let x = arg 0 in
      fun a ->
        let stats = a.st.stats in
        charge_intrinsic a.st bi pc;
        stats.Exec_stats.output <- Value.to_string (rd_v a x) :: stats.Exec_stats.output
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
   from the template. An array with no pinned slot holds only constants
   and is shared. A method with no pinned slot has nothing to
   write back and runs without a handler. *)
let run_blocks st pool (c : code) frame =
  let l = c.lay in
  let a =
    {
      st;
      frame;
      pool;
      ints =
        (if Array.length l.int_slots = 0 then l.int_init
         else Array.copy l.int_init);
      flts =
        (if Array.length l.flt_slots = 0 then l.flt_init
         else Float.Array.copy l.flt_init);
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
    try run_blocks st (entry_pool st) code frame
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
      else if is_cmp op && pinnable K_int lx && pinnable K_int ly then
        br_p K_int op (pin lay K_int lx) (pin lay K_int ly) t e
      else if is_cmp op && (kx = ky || (op <> Ir.Eq && op <> Ir.Ne)) && pinnable K_flt lx
              && pinnable K_flt ly
      then br_p K_flt op (pin lay K_flt lx) (pin lay K_flt ly) t e
      else fun a -> cmp_slow op (rd_v a lx) (rd_v a ly) t e

(* One compiled instruction: either bulk-chargeable straight-line work
   (step accounting hoisted into the enclosing segment) or a
   self-charging action (guards, calls, allocation intrinsics,
   delegations) that runs its own budget precheck so a deopt lands
   before its accounting. *)
type step = S_bulk of (act -> unit) | S_self of (act -> unit)

(* A segment's entry: the budget precheck, which deopts to the
   segment's start [pc] before anything is charged, then its [k] steps
   at once. *)
let[@inline always] seg_enter a k bi pc =
  let st = a.st in
  let stats = st.stats in
  if stats.Exec_stats.steps + k > st.max_steps then raise (Tier_deopt (bi, pc, "budget"));
  stats.Exec_stats.steps <- stats.Exec_stats.steps + k

(* A segment as one closure: its entry, then its bodies in order. Up to
   eight bodies are called straight-line, which spares the loop and its
   array loads; all but one of the segments a warm facade PageRank job
   runs have 1 to 7. *)
let segment k bi pc (fs : (act -> unit) array) : act -> unit =
  match fs with
  | [| f0 |] ->
      fun a ->
        seg_enter a k bi pc;
        f0 a
  | [| f0; f1 |] ->
      fun a ->
        seg_enter a k bi pc;
        f0 a;
        f1 a
  | [| f0; f1; f2 |] ->
      fun a ->
        seg_enter a k bi pc;
        f0 a;
        f1 a;
        f2 a
  | [| f0; f1; f2; f3 |] ->
      fun a ->
        seg_enter a k bi pc;
        f0 a;
        f1 a;
        f2 a;
        f3 a
  | [| f0; f1; f2; f3; f4 |] ->
      fun a ->
        seg_enter a k bi pc;
        f0 a;
        f1 a;
        f2 a;
        f3 a;
        f4 a
  | [| f0; f1; f2; f3; f4; f5 |] ->
      fun a ->
        seg_enter a k bi pc;
        f0 a;
        f1 a;
        f2 a;
        f3 a;
        f4 a;
        f5 a
  | [| f0; f1; f2; f3; f4; f5; f6 |] ->
      fun a ->
        seg_enter a k bi pc;
        f0 a;
        f1 a;
        f2 a;
        f3 a;
        f4 a;
        f5 a;
        f6 a
  | [| f0; f1; f2; f3; f4; f5; f6; f7 |] ->
      fun a ->
        seg_enter a k bi pc;
        f0 a;
        f1 a;
        f2 a;
        f3 a;
        f4 a;
        f5 a;
        f6 a;
        f7 a
  | _ ->
      let n = Array.length fs in
      fun a ->
        seg_enter a k bi pc;
        for i = 0 to n - 1 do
          (Array.unsafe_get fs i) a
        done

(* ---------- the instruction templates ---------- *)

(* [d = x op y] through [arith] on boxed operands. With no pinned slot
   involved — the common case in object mode — the frame is read
   directly, which spares [rd_v]'s match on each operand's location.
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

(* [d = x op y] over operands of kinds [kx] and [ky]: pinned when the
   kinds decide which case of [arith] runs and every operand is pinned,
   boxed otherwise. *)
let binop_code lay ~sw op d x kx y ky : act -> unit =
  match binop_kind op kx ky with
  | K_int when pinnable K_int d && pinnable K_int x && pinnable K_int y ->
      ibin_p op (pin lay K_int d) (pin lay K_int x) (pin lay K_int y)
  | K_int
    when is_cmp op && (kx = ky || (op <> Ir.Eq && op <> Ir.Ne)) && pinnable K_int d
         && pinnable K_flt x && pinnable K_flt y ->
      fbin_p op (pin lay K_int d) (npin lay x) (npin lay y)
  | K_flt when pinnable K_flt d && fnum x && fnum y ->
      fbin_p op (pin lay K_flt d) (npin lay x) (npin lay y)
  | _ -> boxed_binop ~sw op d x y

(* [d = x*y + z], the product rounded before the sum as tier 1's two
   [arith] calls do; [sw] holds the product's and the sum's swaps. *)
let mul_add_code lay ~sw:(mul_swapped, add_swapped) d x kx y ky z kz : act -> unit =
  let km = binop_kind Ir.Mul kx ky in
  match binop_kind Ir.Add km kz with
  | K_int when List.for_all (pinnable K_int) [ d; x; y; z ] ->
      let d = pin lay K_int d and x = pin lay K_int x and y = pin lay K_int y in
      let z = pin lay K_int z in
      fun a -> si a d ((gi a x * gi a y) + gi a z)
  | K_flt when km = K_int && pinnable K_int x && pinnable K_int y && pinnable K_flt z && pinnable K_flt d ->
      let d = pin lay K_flt d and z = pin lay K_flt z in
      let x = pin lay K_int x and y = pin lay K_int y in
      fun a -> sf a d (float_of_int (gi a x * gi a y) +. gf a z)
  | K_flt when km = K_flt && List.for_all (pinnable K_flt) [ d; x; y; z ] ->
      let d = pin lay K_flt d and x = pin lay K_flt x and y = pin lay K_flt y in
      let z = pin lay K_flt z in
      fun a -> sf a d ((gf a x *. gf a y) +. gf a z)
  | _ -> (
      fun a ->
        match rd_v a x, rd_v a y, rd_v a z with
        | Value.Int p, Value.Int q, Value.Int r -> wr_v a d (of_int ((p * q) + r))
        | vx, vy, vz ->
            let p = arith_src mul_swapped Ir.Mul vx vy in
            wr_v a d (arith_src add_swapped Ir.Add p vz))

let rec compile_instr t (cst : st) mx ~depth lay bi pc (ins : R.instr) : step =
  let deleg () = S_self (fun a -> delegate t a.st mx a.frame ins) in
  let object_mode = match cst.mode with Object_mode -> true | Facade_mode _ -> false in
  let loc = loc_of lay and kind s = lay.kinds.(s) in
  (* pinned reads of slot references and int operands, and of values
     of an access's kind *)
  let pr s = pinnable K_int (loc s) and pi o = pinnable K_int (oloc lay o) in
  let pa acc l = pinnable (acc_kind acc) l in
  let ref_ s = pin lay K_int (loc s) and int_ o = pin lay K_int (oloc lay o) in
  let val_ acc l = pin lay (acc_kind acc) l in
  match ins with
  | R.Rconst (d, v) -> (
      match loc d, v with
      | L_box d, _ -> S_bulk (fun a -> fs a.frame d v)
      | L_int k, Value.Int n -> S_bulk (fun a -> Array.unsafe_set a.ints k n)
      | L_flt k, Value.Float x -> S_bulk (fun a -> Float.Array.unsafe_set a.flts k x)
      | dl, _ -> S_bulk (fun a -> wr_v a dl v))
  | R.Rmove (d, s) -> (
      match loc d, loc s with
      | L_box d, L_box s -> S_bulk (fun a -> fs a.frame d (fg a.frame s))
      | L_int d, L_int s -> S_bulk (fun a -> si a d (gi a s))
      | L_flt d, L_flt s -> S_bulk (fun a -> sf a d (gf a s))
      | dl, sl -> S_bulk (fun a -> wr_v a dl (rd_v a sl)))
  | R.Rbinop (d, op, x, y) ->
      S_bulk (binop_code lay ~sw:false op (loc d) (loc x) (kind x) (loc y) (kind y))
  | R.Rbinop_imm (d, op, x, v, sw) ->
      S_bulk (binop_code lay ~sw op (loc d) (loc x) (kind x) (L_imm v) (kind_of_value v))
  | R.Rmul_add (d, x, y, z) ->
      S_bulk
        (mul_add_code lay ~sw:(false, false) (loc d) (loc x) (kind x) (loc y) (kind y) (loc z)
           (kind z))
  | R.Rmul_add_imm (d, x, v, z, msw, asw) ->
      S_bulk
        (mul_add_code lay ~sw:(msw, asw) (loc d) (loc x) (kind x) (L_imm v) (kind_of_value v)
           (loc z) (kind z))
  | R.Rneg (d, s) -> (
      match loc d, loc s with
      | L_int d, L_int s -> S_bulk (fun a -> si a d (-gi a s))
      | L_flt d, L_flt s -> S_bulk (fun a -> sf a d (-.gf a s))
      | dl, sl ->
          S_bulk (fun a ->
              match rd_v a sl with
              | Value.Int n -> wr_v a dl (of_int (-n))
              | Value.Float x -> wr_v a dl (Value.Float (-.x))
              | w -> vm_err "neg of %s" (Value.to_string w)))
  | R.Rnot (d, s) -> (
      match loc d, loc s with
      | L_int d, L_int s -> S_bulk (fun a -> si a d (if gi a s <> 0 then 0 else 1))
      | dl, sl -> S_bulk (fun a -> wr_v a dl (of_int (if truthy (rd_v a sl) then 0 else 1))))
  | R.Rnew (d, cid) -> S_bulk (fun a -> fs a.frame d (alloc_obj a.st cid))
  | R.Rnew_array (d, na, len) ->
      S_bulk (fun a -> fs a.frame d (alloc_arr a.st na (as_int (fg a.frame len))))
  | R.Rstatic_load (d, g) -> S_bulk (fun a -> fs a.frame d a.st.globals.(g))
  | R.Rstatic_store (g, s) -> S_bulk (fun a -> a.st.globals.(g) <- fg a.frame s)
  | R.Rarray_load (d, r, i) ->
      S_bulk (fun a ->
          let f = a.frame in
          match fg f r with
          | Value.Arr arr ->
              let idx = as_int (fg f i) in
              if idx < 0 || idx >= Array.length arr.Value.elems then oob idx;
              fs f d (Array.unsafe_get arr.Value.elems idx)
          | Value.Null -> vm_err "NullPointerException: array load"
          | w -> vm_err "array load from %s" (Value.to_string w))
  | R.Rarray_store (r, i, s) ->
      S_bulk (fun a ->
          let f = a.frame in
          match fg f r with
          | Value.Arr arr ->
              let idx = as_int (fg f i) in
              if idx < 0 || idx >= Array.length arr.Value.elems then oob idx;
              Array.unsafe_set arr.Value.elems idx (fg f s)
          | Value.Null -> vm_err "NullPointerException: array store"
          | w -> vm_err "array store to %s" (Value.to_string w))
  | R.Rarray_length (d, r) ->
      S_bulk (fun a ->
          let f = a.frame in
          match fg f r with
          | Value.Arr arr -> fs f d (of_int (Array.length arr.Value.elems))
          | Value.Null -> vm_err "NullPointerException: array length"
          | w -> vm_err "length of %s" (Value.to_string w))
  | R.Rinstance_of (d, s, ts) ->
      S_bulk (fun a ->
          fs a.frame d (of_int (if instance_of a.st ts (fg a.frame s) then 1 else 0)))
  | R.Rcast (d, s, ts) ->
      S_bulk (fun a ->
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
      S_self (mk_call t cst ~depth bi pc ret midx recv args)
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
              count_step st;
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
              count_step st;
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
  | R.Rget (d, acc, p, off) when pr p && pa acc (loc d) ->
      S_bulk (get_p acc (val_ acc (loc d)) (ref_ p) off)
  | R.Rset (acc, p, off, src) when pr p && pa acc (oloc lay src) ->
      S_bulk (set_p acc (ref_ p) off (val_ acc (oloc lay src)))
  | R.Raget (d, acc, p, eb, idx) when pr p && pi idx && pa acc (loc d) ->
      S_bulk (aget_p acc (val_ acc (loc d)) (ref_ p) eb (int_ idx))
  | R.Raset (acc, p, eb, idx, src) when pr p && pi idx && pa acc (oloc lay src) ->
      S_bulk (aset_p acc (ref_ p) eb (int_ idx) (val_ acc (oloc lay src)))
  | R.Raget_get (d, arr, eb, idx, acc, off) when pr arr && pi idx && pa acc (loc d) ->
      S_bulk (aget_get_p acc (val_ acc (loc d)) (ref_ arr) eb (int_ idx) off)
  | R.Raget_aget (d, acc, arr1, eb1, idx, arr2, eb2)
    when pr arr1 && pi idx && pr arr2 && pa acc (loc d) ->
      S_bulk (aget_aget_p acc (val_ acc (loc d)) (ref_ arr1) eb1 (int_ idx) (ref_ arr2) eb2)
  | R.Rget_bin (d, R.A_f64, p, off, op, s, _)
    when is_float_op op && pr p && pinnable K_flt (oloc lay s) && pinnable K_flt (loc d) ->
      S_bulk (get_bin_f64_p op (pin lay K_flt (loc d)) (ref_ p) off (pin lay K_flt (oloc lay s)))
  | R.Rrmw (R.A_f64, p, off, op, s, _) when is_float_op op && pr p && pinnable K_flt (oloc lay s) ->
      S_bulk (rmw_f64_p op (ref_ p) off (pin lay K_flt (oloc lay s)))
  | R.Rget_bin (d, acc, p, off, op, s, _) when acc_kind acc = K_int && pr p && pi s && pa acc (loc d) ->
      S_bulk (get_bin_i_p acc op (val_ acc (loc d)) (ref_ p) off (int_ s))
  | R.Rget (d, acc, p, off) ->
      let pl = loc p and dl = loc d in
      S_bulk (fun a ->
          let ad = addr_nn (rd_v a pl) in
          wr_v a dl (pg_read acc (page_in a.pool ad) (offset ad + off)))
  | R.Rset (acc, p, off, src) ->
      let pl = loc p and sl = oloc lay src in
      S_bulk (fun a ->
          let ad = addr_nn (rd_v a pl) in
          pg_write acc (page_in a.pool ad) (offset ad + off) (rd_v a sl))
  | R.Raget (d, acc, p, eb, idx) ->
      let pl = loc p and il = oloc lay idx and dl = loc d in
      S_bulk (fun a ->
          let ad = addr_nn (rd_v a pl) in
          let pg = page_in a.pool ad in
          let b = offset ad in
          let i = as_int (rd_v a il) in
          check_index pg b i;
          wr_v a dl (pg_read acc pg (b + LR.array_header_bytes + (eb * i))))
  | R.Raset (acc, p, eb, idx, src) ->
      let pl = loc p and il = oloc lay idx and sl = oloc lay src in
      S_bulk (fun a ->
          let ad = addr_nn (rd_v a pl) in
          let pg = page_in a.pool ad in
          let b = offset ad in
          let i = as_int (rd_v a il) in
          check_index pg b i;
          pg_write acc pg (b + LR.array_header_bytes + (eb * i)) (rd_v a sl))
  | R.Rget_bin (d, acc, p, off, op, s, sw) ->
      let pl = loc p and dl = loc d and sl = oloc lay s in
      S_bulk (fun a ->
          let ad = addr_nn (rd_v a pl) in
          let x = pg_read acc (page_in a.pool ad) (offset ad + off) in
          wr_v a dl (arith_src sw op x (rd_v a sl)))
  | R.Rrmw (acc, p, off, op, s, sw) ->
      let pl = loc p and sl = oloc lay s in
      S_bulk (fun a ->
          let ad = addr_nn (rd_v a pl) in
          let pg = page_in a.pool ad in
          let i = offset ad + off in
          pg_write acc pg i (arith_src sw op (pg_read acc pg i) (rd_v a sl)))
  | R.Raget_get (d, arr, eb, idx, acc, off) ->
      let al = loc arr and il = oloc lay idx and dl = loc d in
      S_bulk (fun a ->
          let ad = addr_nn (rd_v a al) in
          let pg = page_in a.pool ad in
          let b = offset ad in
          let i = as_int (rd_v a il) in
          check_index pg b i;
          let w = read_i64 pg (b + LR.array_header_bytes + (eb * i)) in
          let ad2 = if w = 0 then bad_ref (Value.Int 0) else w in
          wr_v a dl (pg_read acc (page_in a.pool ad2) (offset ad2 + off)))
  | R.Raget_aget (d, acc, arr1, eb1, idx, arr2, eb2) ->
      (* [arr2[arr1[idx]]]: the ref-chasing shape ([edges[k]] indexing
         [verts]) is the hottest superinstruction on the graph
         workloads. *)
      let l1 = loc arr1 and il = oloc lay idx and l2 = loc arr2 and dl = loc d in
      S_bulk (fun a ->
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
          wr_v a dl (pg_read acc pg2 (b2 + LR.array_header_bytes + (eb2 * j))))
  | R.Rintrinsic (ret, i, ops) when native_intrinsic i ->
      S_self (intrinsic_code lay bi pc ret i ops)
  (* ---- everything stateful or rare runs through the interpreter,
     which self-accounts ---- *)
  | R.Riter_start | R.Riter_end | R.Rrun_thread _ | R.Rintrinsic _ | R.Rerror _ ->
      deleg ()

(* Static/special call: frame construction and return plumbing are the
   interpreter's, but the target runs through [invoke] — compiled,
   inlined, or tiered as appropriate. *)
and mk_call t (cst : st) ~depth bi pc ret midx recv args =
  let m = cst.rp.R.methods.(midx) in
  let leaf = leaf_body t cst ~depth midx in
  fun a ->
    precheck a.st bi pc;
    count_step a.st;
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
      count_step st;
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
        count_step st;
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
   maximal runs of bulk-chargeable steps into segments whose step count
   is precomputed and charged at once after a single budget precheck. A fused
   compare's step goes into the segment that ends the block, if there
   is one: nothing runs between it and the branch, so a budget expiring
   at the compare deopts to the segment's start and tier 1 replays the
   block up to the compare. Charged in an earlier segment, it would
   let a call in between run one step ahead. Otherwise the terminator
   charges it after its own precheck. The fold spares a typical loop
   block that second precheck on every trip. A block of up to four
   actions (segments and self-charging instructions) calls them and its
   terminator straight-line, as [segment] does its bodies. *)
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
        let start_pc = !group_start in
        let k = ref extra in
        for pc = start_pc to start_pc + Array.length items - 1 do
          k := !k + R.weight code.(pc)
        done;
        let fns = Array.map (function S_bulk f -> f | S_self _ -> assert false) items in
        acts := segment !k bi start_pc fns :: !acts;
        group := []
  in
  Array.iteri
    (fun pc s ->
      match s with
      | S_bulk _ ->
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
  | [| a0; a1 |] ->
      fun a ->
        a0 a;
        a1 a;
        term a
  | [| a0; a1; a2 |] ->
      fun a ->
        a0 a;
        a1 a;
        a2 a;
        term a
  | [| a0; a1; a2; a3 |] ->
      fun a ->
        a0 a;
        a1 a;
        a2 a;
        a3 a;
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
   methods retire to [T_dead]. A cold method compiles under the tier's
   compile mutex, and the state is read again once it is held: of
   several domains that found the method cold, one compiles, installs
   and counts it in its stats, and the rest find it installed, so a
   parallel run counts the compiles, slots and tier-2 entries a
   sequential run does. Installed code is only read without the lock. *)
let compile_cold (t : tier) (cst : st) mx =
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

let compile_into (t : tier) (cst : st) mx =
  match t.t_code.(mx) with
  | T_fn _ | T_dead -> ()
  | T_cold -> Mutex.protect t.t_compile_mu (fun () -> compile_cold t cst mx)

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
    t_compile_mu = Mutex.create ();
    t_fail = Array.make nm 0;
    t_hooks = hooks;
    t_leaves;
    t_mono;
  }
