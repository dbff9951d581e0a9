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

   Accounting identity with tier-1 (the differential contract):
   - straight-line runs of simple instructions are bulk-charged: a
     segment precheck deopts with reason "budget" if the step budget
     would expire inside the run, so tier-1 reproduces the exact error
     point; otherwise steps/mix/intrinsic-dispatch counters advance by
     precomputed deltas and the closures run;
   - guards and calls charge one step themselves after their own budget
     precheck;
   - anything else is delegated, instruction by instruction, to the
     interpreter's [h_exec], which self-accounts.
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
   constants: the running thread's state, the method's frame, and the
   run's page pool. Instructions, segments, blocks and terminators all
   take this one record, allocated once per compiled-method entry by
   [run_blocks_from]. One argument keeps each call between composed
   closures a plain indirect call: OCaml applies a closure of unknown
   arity to two or more arguments through [caml_applyN], which re-checks
   the arity on every call, and a compiled block makes several such
   calls per instruction. [pool] starts as [no_pool]; the first facade
   segment an activation runs resolves it from the run's store, so
   compiled code stays store-independent and a warm tier can be shared
   across facade runs exactly like object-mode tiers. *)
type act = { st : st; frame : Value.t array; mutable pool : Page_pool.t }

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
  | R.A_f32 -> Value.Float (Page.read_f32 p i)

let[@inline always] pg_write (a : R.acc) p i v =
  match a with
  | R.A_i64 -> write_i64 p i (as_int v)
  | R.A_f64 -> write_f64 p i (as_float v)
  | R.A_i32 -> write_i32 p i (as_int v)
  | R.A_i8 -> Page.write_u8 p i (as_int v land 0xff)
  | R.A_i16 -> Page.write_u16 p i (as_int v)
  | R.A_f32 -> Page.write_f32 p i (as_float v)

(* [arith] with the int and float cases of Add/Sub/Mul inline. Mixed or
   invalid operands go to [arith]: same coercions, same errors. *)
let[@inline] add_v p q =
  match p, q with
  | Value.Int x, Value.Int y -> of_int (x + y)
  | Value.Float x, Value.Float y -> Value.Float (x +. y)
  | _ -> arith Ir.Add p q

let[@inline] sub_v p q =
  match p, q with
  | Value.Int x, Value.Int y -> of_int (x - y)
  | Value.Float x, Value.Float y -> Value.Float (x -. y)
  | _ -> arith Ir.Sub p q

let[@inline] mul_v p q =
  match p, q with
  | Value.Int x, Value.Int y -> of_int (x * y)
  | Value.Float x, Value.Float y -> Value.Float (x *. y)
  | _ -> arith Ir.Mul p q

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

(* ---------- compiled-code runner ---------- *)

(* Block closures return the next block index, [-1] for a void return,
   [-2] for a value return (parked in the per-thread [st.tret] cell). *)
let run_blocks st pool (blocks : (act -> int) array) frame =
  let a = { st; frame; pool } in
  let bi = ref 0 in
  while !bi >= 0 do
    bi := blocks.(!bi) a
  done;
  if !bi = -1 then None
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

(* Entry wrapper: run the composed blocks and, on a guard failure, count
   the deopt, retire the method's compiled code at the limit, and resume
   tier-1 at the failed pc on the same frame. The two-argument entry is
   built as its own closure, so the interpreter's call is an exact-arity
   one. *)
let wrap_blocks (t : tier) mx blocks =
  let entry st frame =
    try run_blocks st no_pool blocks frame
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
  | Some blocks when t.t_fail.(midx) < deopt_limit -> (
      Exec_stats.note_mcall a.st.stats midx;
      try run_blocks a.st a.pool blocks f
      with Tier_deopt (cbi, cpc, reason) -> deopt_inline t a.st midx f cbi cpc reason)
  | _ -> t.t_hooks.h_call a.st midx f

(* A callee frame: the method's template plus the argument slots. *)
let callee_frame (m : R.meth) (args : R.slot array) frame =
  let f = Array.copy m.R.m_frame in
  for i = 0 to Array.length args - 1 do
    f.(i + 1) <- fg frame (Array.unsafe_get args i)
  done;
  f

let compile_term (term : R.term) : act -> int =
  match term with
  | R.Rret_void -> fun _ -> -1
  | R.Rret s ->
      fun a ->
        a.st.tret <- fg a.frame s;
        -2
  | R.Rjump t -> fun _ -> t
  | R.Rbranch (s, t, e) -> fun a -> if truthy (fg a.frame s) then t else e
  | R.Rcmp_branch (op, x, y, t, e) -> (
      (* Int compares inline; everything else, floats included, takes
         [arith]'s comparison as tier-1 does. *)
      match op with
      | Ir.Lt -> (
          fun a ->
            let f = a.frame in
            match opv f x, opv f y with
            | Value.Int p, Value.Int q -> if p < q then t else e
            | p, q -> cmp_slow op p q t e)
      | Ir.Le -> (
          fun a ->
            let f = a.frame in
            match opv f x, opv f y with
            | Value.Int p, Value.Int q -> if p <= q then t else e
            | p, q -> cmp_slow op p q t e)
      | Ir.Gt -> (
          fun a ->
            let f = a.frame in
            match opv f x, opv f y with
            | Value.Int p, Value.Int q -> if p > q then t else e
            | p, q -> cmp_slow op p q t e)
      | Ir.Ge -> (
          fun a ->
            let f = a.frame in
            match opv f x, opv f y with
            | Value.Int p, Value.Int q -> if p >= q then t else e
            | p, q -> cmp_slow op p q t e)
      | Ir.Eq -> (
          fun a ->
            let f = a.frame in
            match opv f x, opv f y with
            | Value.Int p, Value.Int q -> if p = q then t else e
            | p, q -> cmp_slow op p q t e)
      | Ir.Ne -> (
          fun a ->
            let f = a.frame in
            match opv f x, opv f y with
            | Value.Int p, Value.Int q -> if p <> q then t else e
            | p, q -> cmp_slow op p q t e)
      | _ -> fun a -> cmp_slow op (opv a.frame x) (opv a.frame y) t e)

(* One compiled instruction: either bulk-chargeable straight-line work
   (step/mix accounting hoisted into the enclosing segment) or a
   self-charging action (guards, calls, delegations) that runs its own
   budget precheck so a deopt lands before its accounting. The int
   payload is the mix category. [S_store] is a facade page access: it
   also counts one intrinsic dispatch and reads the activation's page
   pool, which its segment resolves on entry. *)
type step =
  | S_bulk of (act -> unit) * int
  | S_store of (act -> unit) * int
  | S_self of (act -> unit)

(* ---------- the instruction templates ---------- *)

let rec compile_instr t (cst : st) mx ~depth bi pc (ins : R.instr) : step =
  let cat = R.category ins in
  let bulk f = S_bulk (f, cat) in
  let bulk_s f = S_store (f, cat) in
  let deleg () = S_self (fun a -> t.t_hooks.h_exec a.st mx a.frame ins) in
  let object_mode = match cst.mode with Object_mode -> true | Facade_mode _ -> false in
  match ins with
  | R.Rconst (d, v) -> bulk (fun a -> fs a.frame d v)
  | R.Rmove (d, s) -> bulk (fun a -> fs a.frame d (fg a.frame s))
  | R.Rbinop (d, op, x, y) -> (
      match op with
      | Ir.Add -> bulk (fun a -> fs a.frame d (add_v (fg a.frame x) (fg a.frame y)))
      | Ir.Sub -> bulk (fun a -> fs a.frame d (sub_v (fg a.frame x) (fg a.frame y)))
      | Ir.Mul -> bulk (fun a -> fs a.frame d (mul_v (fg a.frame x) (fg a.frame y)))
      | _ -> bulk (fun a -> fs a.frame d (arith op (fg a.frame x) (fg a.frame y))))
  | R.Rbinop_imm (d, op, x, v) -> (
      match op with
      | Ir.Add -> bulk (fun a -> fs a.frame d (add_v (fg a.frame x) v))
      | Ir.Sub -> bulk (fun a -> fs a.frame d (sub_v (fg a.frame x) v))
      | Ir.Mul -> bulk (fun a -> fs a.frame d (mul_v (fg a.frame x) v))
      | _ -> bulk (fun a -> fs a.frame d (arith op (fg a.frame x) v)))
  | R.Rmul_add (d, x, y, z) ->
      bulk (fun a ->
          let f = a.frame in
          match fg f x, fg f y, fg f z with
          | Value.Int p, Value.Int q, Value.Int r -> fs f d (of_int ((p * q) + r))
          | vx, vy, vz -> fs f d (arith Ir.Add (arith Ir.Mul vx vy) vz))
  | R.Rmul_add_imm (d, x, v, z) -> (
      match v with
      | Value.Int k ->
          bulk (fun a ->
              let f = a.frame in
              match fg f x, fg f z with
              | Value.Int p, Value.Int r -> fs f d (of_int ((p * k) + r))
              | vx, vz -> fs f d (arith Ir.Add (arith Ir.Mul vx v) vz))
      | _ ->
          bulk (fun a ->
              let f = a.frame in
              fs f d (arith Ir.Add (arith Ir.Mul (fg f x) v) (fg f z))))
  | R.Rneg (d, s) ->
      bulk (fun a ->
          let f = a.frame in
          match fg f s with
          | Value.Int n -> fs f d (of_int (-n))
          | Value.Float x -> fs f d (Value.Float (-.x))
          | w -> vm_err "neg of %s" (Value.to_string w))
  | R.Rnot (d, s) ->
      bulk (fun a -> fs a.frame d (of_int (if truthy (fg a.frame s) then 0 else 1)))
  | R.Rnew (d, cid) -> bulk (fun a -> fs a.frame d (alloc_obj a.st cid))
  | R.Rnew_array (d, na, len) ->
      bulk (fun a -> fs a.frame d (alloc_arr a.st na (as_int (fg a.frame len))))
  | R.Rfield_load (d, o, fid) ->
      bulk (fun a ->
          let st = a.st and f = a.frame in
          match fg f o with
          | Value.Obj ob -> fs f d ob.Value.fields.(field_slot st ob fid)
          | Value.Null -> vm_err "NullPointerException: .%s" st.rp.R.field_names.(fid)
          | w -> vm_err "field load from %s" (Value.to_string w))
  | R.Rfield_store (o, fid, s) ->
      bulk (fun a ->
          let st = a.st and f = a.frame in
          match fg f o with
          | Value.Obj ob -> ob.Value.fields.(field_slot st ob fid) <- fg f s
          | Value.Null -> vm_err "NullPointerException: .%s" st.rp.R.field_names.(fid)
          | w -> vm_err "field store to %s" (Value.to_string w))
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
  | R.Rcall_virtual _ -> deleg ()
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
          | _ -> t.t_hooks.h_exec st mx f ins)
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
          | _ -> t.t_hooks.h_exec st mx f ins)
  (* ---- offset-specialized page access (facade mode): each template
     resolves the backing page once and works relative to it; the fused
     forms look a page up once where the interpreter's Store calls look
     it up per access ---- *)
  | R.Rget _ | R.Rset _ | R.Raget _ | R.Raset _ | R.Rget_bin _ | R.Rrmw _ | R.Raget_get _
  | R.Raget_aget _
    when object_mode ->
      deleg ()
  | R.Rget (d, acc, p, off) ->
      bulk_s (fun a ->
          let f = a.frame in
          let ad = addr_nn (fg f p) in
          fs f d (pg_read acc (page_in a.pool ad) (offset ad + off)))
  | R.Rset (acc, p, off, src) ->
      bulk_s (fun a ->
          let f = a.frame in
          let ad = addr_nn (fg f p) in
          pg_write acc (page_in a.pool ad) (offset ad + off) (opv f src))
  | R.Raget (d, acc, p, eb, idx) ->
      bulk_s (fun a ->
          let f = a.frame in
          let ad = addr_nn (fg f p) in
          let pg = page_in a.pool ad in
          let b = offset ad in
          let i = as_int (opv f idx) in
          check_index pg b i;
          fs f d (pg_read acc pg (b + LR.array_header_bytes + (eb * i))))
  | R.Raset (acc, p, eb, idx, src) ->
      bulk_s (fun a ->
          let f = a.frame in
          let ad = addr_nn (fg f p) in
          let pg = page_in a.pool ad in
          let b = offset ad in
          let i = as_int (opv f idx) in
          check_index pg b i;
          pg_write acc pg (b + LR.array_header_bytes + (eb * i)) (opv f src))
  | R.Rget_bin (d, acc, p, off, op, s) ->
      if acc = R.A_f64 && is_float_op op then
        (* Unboxed load-op: no intermediate Value for the loaded number;
           mixed operands fall back to [arith] so error text matches
           tier-1. *)
        bulk_s (fun a ->
            let f = a.frame in
            let ad = addr_nn (fg f p) in
            let x = read_f64 (page_in a.pool ad) (offset ad + off) in
            fs f d
              (match opv f s with
              | Value.Float y -> Value.Float (fop op x y)
              | Value.Int y -> Value.Float (fop op x (float_of_int y))
              | v -> arith op (Value.Float x) v))
      else
        bulk_s (fun a ->
            let f = a.frame in
            let ad = addr_nn (fg f p) in
            fs f d (arith op (pg_read acc (page_in a.pool ad) (offset ad + off)) (opv f s)))
  | R.Rrmw (acc, p, off, op, s) ->
      if acc = R.A_f64 && is_float_op op then
        bulk_s (fun a ->
            let f = a.frame in
            let ad = addr_nn (fg f p) in
            let pg = page_in a.pool ad in
            let i = offset ad + off in
            let x = read_f64 pg i in
            write_f64 pg i
              (match opv f s with
              | Value.Float y -> fop op x y
              | Value.Int y -> fop op x (float_of_int y)
              | v -> as_float (arith op (Value.Float x) v)))
      else if acc = R.A_i64 && is_int_op op then
        bulk_s (fun a ->
            let f = a.frame in
            let ad = addr_nn (fg f p) in
            let pg = page_in a.pool ad in
            let i = offset ad + off in
            let x = read_i64 pg i in
            write_i64 pg i
              (match opv f s with
              | Value.Int y -> iop op x y
              | v -> as_int (arith op (Value.Int x) v)))
      else
        bulk_s (fun a ->
            let f = a.frame in
            let ad = addr_nn (fg f p) in
            let pg = page_in a.pool ad in
            let i = offset ad + off in
            pg_write acc pg i (arith op (pg_read acc pg i) (opv f s)))
  | R.Raget_get (d, arr, eb, idx, acc, off) ->
      bulk_s (fun a ->
          let f = a.frame in
          let ad = addr_nn (fg f arr) in
          let pg = page_in a.pool ad in
          let b = offset ad in
          let i = as_int (opv f idx) in
          check_index pg b i;
          let w = read_i64 pg (b + LR.array_header_bytes + (eb * i)) in
          let ad2 = if w = 0 then bad_ref (Value.Int 0) else w in
          fs f d (pg_read acc (page_in a.pool ad2) (offset ad2 + off)))
  | R.Raget_aget (d, acc, arr1, eb1, idx, arr2, eb2) ->
      (* [arr2[arr1[idx]]]: the ref-chasing shape ([edges[k]] indexing
         [verts]) is the hottest superinstruction on the graph
         workloads. *)
      bulk_s (fun a ->
          let f = a.frame in
          let ad1 = addr_nn (fg f arr1) in
          let pg1 = page_in a.pool ad1 in
          let b1 = offset ad1 in
          let i = as_int (opv f idx) in
          check_index pg1 b1 i;
          let j = read_i32 pg1 (b1 + LR.array_header_bytes + (eb1 * i)) in
          let ad2 = addr_nn (fg f arr2) in
          let pg2 = page_in a.pool ad2 in
          let b2 = offset ad2 in
          check_index pg2 b2 j;
          fs f d (pg_read acc pg2 (b2 + LR.array_header_bytes + (eb2 * j))))
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
    else if mono then t.t_hooks.h_exec st mx a.frame ins
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
    if key < 0 then t.t_hooks.h_exec st mx a.frame ins
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
      else if mono then t.t_hooks.h_exec st mx a.frame ins
      else raise (Tier_deopt (bi, pc, "polymorphic"))
    end

(* The pre-compiled body [invoke] runs inline for a leaf callee: its
   single block compiled eagerly, one level deep. *)
and leaf_body t (cst : st) ~depth midx =
  let m = cst.rp.R.methods.(midx) in
  if depth = 0 && t.t_leaves.(midx) && Array.length m.R.m_body > 0 then
    Some (compile_meth t cst midx m ~depth:(depth + 1))
  else None

and compile_meth t (cst : st) mx (m : R.meth) ~depth =
  Array.mapi (fun bi b -> compile_block t cst mx ~depth bi b) m.R.m_body

(* Pre-compose a basic block: compile each instruction, then fuse
   maximal runs of bulk-chargeable steps into segments whose accounting
   (step count, mix deltas, intrinsic dispatches) is precomputed and
   applied in O(1) per segment after a single budget precheck. *)
and compile_block t (cst : st) mx ~depth bi (b : R.block) : act -> int =
  let code = b.R.code in
  let steps = Array.mapi (fun pc ins -> compile_instr t cst mx ~depth bi pc ins) code in
  let acts = ref [] in
  let group = ref [] in
  let group_start = ref 0 in
  let flush () =
    match !group with
    | [] -> ()
    | g ->
        let items = Array.of_list (List.rev g) in
        let k = Array.length items in
        let start_pc = !group_start in
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
          for i = 0 to k - 1 do
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
          flush ();
          acts := f :: !acts)
    steps;
  flush ();
  let actions = Array.of_list (List.rev !acts) in
  let term = compile_term b.R.term in
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
        let blocks = compile_meth t cst mx m ~depth:0 in
        cst.stats.Exec_stats.tier2_compiles <-
          cst.stats.Exec_stats.tier2_compiles + 1;
        if trace then
          Obs.Trace.span_end
            ~args:[ ("method", Obs.Tracer.Astr (m.R.m_cls ^ "." ^ m.R.m_name)) ]
            ();
        t.t_code.(mx) <- T_fn (wrap_blocks t mx blocks)
      end

(* ---------- tier construction ---------- *)

let leaf_safe_instr = function
  | R.Rcall _ | R.Rcall_virtual _ | R.Rcall_virtual_ic _ | R.Rmonitor_enter _
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
