(* The VM's state layer, shared by the interpreter ({!Interp}, tier-1)
   and the tier-2 closure compiler ({!Compile_tier}): runtime state
   types, heap/store accounting, arithmetic, dispatch, and the other
   primitive helpers both tiers execute. Splitting this out of the
   interpreter breaks the dependency cycle — the compiler depends only
   on this module plus the [hooks] record of interpreter entry points
   the interpreter passes in at tier setup. *)

open Jir
module R = Resolved
module FP = Pagestore.Facade_pool
module Addr = Pagestore.Addr
module Store = Pagestore.Store
module Layout = Facade_compiler.Layout
module Heap = Heapsim.Heap
module Imap = Map.Make (Int)
module Smap = Map.Make (String)

exception Vm_error of string

let vm_err fmt = Printf.ksprintf (fun s -> raise (Vm_error s)) fmt

exception Tier_deopt of int * int * string
(* [(block, pc, reason)]: a tier-2 guard failed. Raised *before* the
   faulting instruction's step accounting and naming the source pc of
   its window's first instruction, so the tier-1 resume there replays
   it exactly once. Reasons: "polymorphic" (IC
   receiver mismatch), "monitor" (object-monitor contention region),
   "budget" (the step budget would expire inside compiled code). *)

type facade_rt = {
  store : Store.t;
  bounds : int array;
  facades : int Atomic.t;  (* facades in every thread's pools so far *)
  locks : Pagestore.Lock_pool.t;
  layout : Layout.t;
  strings_frozen : (int, string) Hashtbl.t;  (* pre-interned at setup from
                                                the program's string constants;
                                                read-only afterwards, so safe
                                                to consult without a lock *)
  intern_frozen : (string, int) Hashtbl.t;
  mutable last_native : int;
  mutable last_pages : int;
}

(* What one logical thread of a facade run owns (paper 3.4, 3.6): its
   facade pools (created at first use), a page-store handle pinned to its
   page managers, and its view of the dynamic strings, which starts as
   the spawner's view at spawn and is merged back (first-wins, spawn
   order) when the spawner joins it. The views are persistent maps, so a
   spawn copies nothing. Every thread of a facade run has a context —
   the root, children run inline, children run on a pool — so the
   allocation, pool and interning paths consult nothing shared and take
   no lock. *)
type thread_ctx = {
  mutable tc_pools : FP.t option;
  tc_local : Store.local;
  mutable tc_strings : string Imap.t;  (* dynamic: addr -> contents *)
  mutable tc_intern : int Smap.t;      (* and back; always updated together *)
}

(* Per logical thread: a facade thread carries the run's shared runtime
   and its own context. *)
type mode = Object_mode | Facade_mode of facade_rt * thread_ctx

(* Shared state of a parallel run: the domain pool plus the mutexes
   guarding the structures that logical threads share. Page managers,
   facade pools, and dynamic-string tables are in each thread's context;
   the store and lock pool are domain-safe internally; everything else
   that both parent and children touch is serialized here. Lock order
   (outer first): mon_mu → heap_mu. *)
type par_shared = {
  pool : Parallel.Pool.t;
  mon_mu : Mutex.t;    (* st.monitors (object monitors on control objects) *)
  heap_mu : Mutex.t;   (* the heapsim Heap and last_native/last_pages *)
}

(* A child enqueued on the pool, until its spawner joins it. *)
type child = {
  c_stats : Exec_stats.t;
  c_shard : Heap.Shard.t;
      (* the child's unflushed heap charges, merged into the parent's
         shard at join (spawn order) *)
  c_ctx : thread_ctx;
      (* for the dynamic-string tables, merged at join like the shard *)
  c_anchor : string list;
      (* the parent's (reversed) output at spawn time — a physical suffix
         of its output at join time, where the child's lines splice in *)
}

(* Per-logical-thread join state: one group per spawner, children listed
   most-recent-first. *)
type join_st = { group : Parallel.Sched.group; mutable children : child list }

type st = {
  rp : R.program;
  mode : mode;
  heap : Heap.t option;
  shard : Heap.Shard.t option;
      (* Some exactly in a pool run: this thread's pending heap charges *)
  stats : Exec_stats.t;
  globals : Value.t array;
  monitors : (int, int) Hashtbl.t;        (* object-mode oid -> entries *)
  oid : int Atomic.t;           (* shared with child threads *)
  max_steps : int;
  io_scale : float;             (* real seconds slept per simulated I/O second *)
  thread : int;
  next_thread : int Atomic.t;   (* shared with child threads *)
  par : par_shared option;
  mutable join : join_st option;
  mutable tier : tier option;   (* the tier-2 state, shared by reference
                                   across the per-thread st copies *)
  mutable tret : Value.t;       (* per-thread return-value cell for
                                   compiled block closures *)
}

(* Tier-2 state. Installed code is indexed by resolved method index; a
   method compiles at its first call, under [t_compile_mu], so of two
   domains that reach a cold method together one compiles and counts it
   and the other waits and runs the installed code. Failure counters are
   plain ints shared across domains — racy updates only skew *when* a
   method retires, never what it computes, because compiled code is
   semantically identical to the interpreter and any thread can safely
   run either tier at any moment. *)
and tier = {
  t_code : tcode array;
  t_compile_mu : Mutex.t;   (* held while a cold method compiles *)
  t_fail : int array;       (* deopts per method; retire at the limit *)
  t_hooks : hooks;
  t_leaves : bool array;    (* method idx: inlinable leaf body *)
  t_mono : bool array;      (* method-name id: single implementation (CHA) *)
}

and tcode =
  | T_cold                  (* not called yet *)
  | T_dead                  (* retired: failed to compile or deopted out *)
  | T_fn of (st -> Value.t array -> Value.t option)

(* Interpreter entry points the compiler needs, passed in at tier setup
   (dependency inversion: {!Compile_tier} never references {!Interp}).
   [h_exec st mx frame ins] interprets one instruction with full
   accounting, attributing IC events to method [mx]; [h_resume st mx
   frame bi pc] resumes method [mx]'s body in tier-1 from block [bi],
   instruction [pc], on the compiled frame (the deopt handoff — valid
   because both tiers use the same slot-indexed frame array, into which
   compiled code writes its unboxed locals back before raising past
   its activation); [h_call st
   mx frame] invokes method [mx] on a ready frame through the normal
   tier dispatch. *)
and hooks = {
  h_exec : st -> int -> Value.t array -> R.instr -> unit;
  h_resume : st -> int -> Value.t array -> int -> int -> Value.t option;
  h_call : st -> int -> Value.t array -> Value.t option;
}

(* ---------- heap accounting ----------

   Heap charging is the one accounting path a pool changes. The heap
   simulator is not domain-safe, so in a pool run each logical thread
   buffers its charges in its own [st.shard], and the shards drain into
   the heap under heap_mu only at iteration boundaries and joins
   ([flush_ctx]). A run without a pool charges the heap at each
   operation, in program order, so its whole GC history is exact, not
   only its totals. *)

let heap_locked st f =
  match st.par with
  | None -> f ()
  | Some p ->
      Mutex.lock p.heap_mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock p.heap_mu) f

let mon_locked st f =
  match st.par with
  | None -> f ()
  | Some p ->
      Mutex.lock p.mon_mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock p.mon_mu) f

let charge_heap_obj st ~bytes ~data =
  match st.heap with
  | None -> ()
  | Some h -> (
      let lifetime = if data then Heap.Iteration else Heap.Control in
      match st.shard with
      | Some s -> Heap.Shard.alloc s ~lifetime ~bytes
      | None -> Heap.alloc h ~lifetime ~bytes)

(* Simulated I/O time, charged to the heap's clock as Load. *)
let charge_io st ~seconds =
  match st.heap with
  | None -> ()
  | Some h -> (
      match st.shard with
      | Some s -> Heap.Shard.charge_io s ~seconds
      | None -> Heapsim.Sim_clock.charge (Heap.clock h) Heapsim.Sim_clock.Load seconds)

(* Page wrappers are control heap objects; native pages count toward the
   process footprint. The cursors are shared, so the caller must hold
   heap_mu in parallel mode. *)
let sync_store_heap rt h =
  let s = Store.stats rt.store in
  let dn = s.Store.native_bytes - rt.last_native in
  if dn > 0 then Heap.native_alloc h ~bytes:dn
  else if dn < 0 then Heap.native_free h ~bytes:(-dn);
  rt.last_native <- s.Store.native_bytes;
  let dp = s.Store.pages_created - rt.last_pages in
  for _ = 1 to dp do
    Heap.alloc h ~lifetime:Heap.Control ~bytes:Heapsim.Obj_model.page_wrapper_bytes
  done;
  rt.last_pages <- s.Store.pages_created

(* Without a pool, sync after every store operation that can allocate or
   free; a pool run defers the sync to the next shard flush. *)
let sync_native st rt =
  match st.shard, st.heap with
  | None, Some h -> sync_store_heap rt h
  | Some _, _ | None, None -> ()

(* Drain this facade thread's accounting into the shared structures:
   publish the pending page-store record count, then, in a pool run, (one
   heap_mu acquisition) replay the shard's heap charges and resync
   native/page-wrapper deltas. Called at iteration boundaries and joins —
   the happens-before edges the race detector models — so runs with and
   without a pool agree on every additive total. *)
let flush_ctx st =
  match st.mode with
  | Object_mode -> ()
  | Facade_mode (rt, c) -> (
      Store.local_flush c.tc_local;
      match st.shard, st.heap with
      | Some s, Some h ->
          let trace = Obs.Trace.on () in
          let objs, bytes = Heap.Shard.pending s in
          let worth = not (Heap.Shard.is_empty s) in
          if trace && worth then Obs.Trace.span_begin ~cat:"vm" "shard_flush";
          heap_locked st (fun () ->
              Heap.Shard.flush h s;
              sync_store_heap rt h);
          if trace && worth then
            Obs.Trace.span_end
              ~args:
                [ ("objects", Obs.Tracer.Aint objs); ("bytes", Obs.Tracer.Aint bytes) ]
              ()
      | (Some _ | None), _ -> ())

let new_oid st = Atomic.fetch_and_add st.oid 1 + 1

let alloc_obj st cid =
  let c = st.rp.R.classes.(cid) in
  Exec_stats.note_alloc st.stats ~is_data:c.R.c_is_data;
  charge_heap_obj st ~bytes:c.R.c_java_bytes ~data:c.R.c_is_data;
  Value.Obj
    { Value.ocls = c.R.c_name; ocid = cid; fields = Array.copy c.R.c_defaults; oid = new_oid st }

let alloc_arr st (na : R.newarr) len =
  if len < 0 then vm_err "NegativeArraySizeException";
  Exec_stats.note_alloc st.stats ~is_data:na.R.na_is_data;
  charge_heap_obj st
    ~bytes:(Heapsim.Obj_model.array_bytes ~elem_bytes:na.R.na_elem_bytes ~length:len)
    ~data:na.R.na_is_data;
  Value.Arr { Value.aty = na.R.na_ety; elems = Array.make len na.R.na_default; aid = new_oid st }

(* ---------- arithmetic ---------- *)

let rec arith op a b =
  match op, a, b with
  | Ir.Add, Value.Int x, Value.Int y -> Value.of_int (x + y)
  | Ir.Sub, Value.Int x, Value.Int y -> Value.of_int (x - y)
  | Ir.Mul, Value.Int x, Value.Int y -> Value.of_int (x * y)
  | Ir.Div, Value.Int _, Value.Int 0 -> vm_err "ArithmeticException: / by zero"
  | Ir.Div, Value.Int x, Value.Int y -> Value.of_int (x / y)
  | Ir.Rem, Value.Int _, Value.Int 0 -> vm_err "ArithmeticException: %% by zero"
  | Ir.Rem, Value.Int x, Value.Int y -> Value.of_int (x mod y)
  | Ir.And, Value.Int x, Value.Int y -> Value.of_int (x land y)
  | Ir.Or, Value.Int x, Value.Int y -> Value.of_int (x lor y)
  | Ir.Xor, Value.Int x, Value.Int y -> Value.of_int (x lxor y)
  | Ir.Shl, Value.Int x, Value.Int y -> Value.of_int (x lsl y)
  | Ir.Shr, Value.Int x, Value.Int y -> Value.of_int (x asr y)
  | Ir.Add, Value.Float x, Value.Float y -> Value.Float (x +. y)
  | Ir.Sub, Value.Float x, Value.Float y -> Value.Float (x -. y)
  | Ir.Mul, Value.Float x, Value.Float y -> Value.Float (x *. y)
  | Ir.Div, Value.Float x, Value.Float y -> Value.Float (x /. y)
  | Ir.Rem, Value.Float x, Value.Float y -> Value.Float (Float.rem x y)
  | (Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem), Value.Int x, Value.Float y ->
      arith_float op (float_of_int x) y
  | (Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem), Value.Float x, Value.Int y ->
      arith_float op x (float_of_int y)
  | Ir.Lt, x, y -> cmp_num ( < ) ( < ) x y
  | Ir.Le, x, y -> cmp_num ( <= ) ( <= ) x y
  | Ir.Gt, x, y -> cmp_num ( > ) ( > ) x y
  | Ir.Ge, x, y -> cmp_num ( >= ) ( >= ) x y
  | Ir.Eq, x, y -> Value.of_int (if Value.equal_ref x y then 1 else 0)
  | Ir.Ne, x, y -> Value.of_int (if Value.equal_ref x y then 0 else 1)
  | _, x, y ->
      vm_err "bad operands for binop: %s, %s" (Value.to_string x) (Value.to_string y)

and arith_float op x y =
  match op with
  | Ir.Add -> Value.Float (x +. y)
  | Ir.Sub -> Value.Float (x -. y)
  | Ir.Mul -> Value.Float (x *. y)
  | Ir.Div -> Value.Float (x /. y)
  | Ir.Rem -> Value.Float (Float.rem x y)
  | _ -> assert false

and cmp_num fi ff a b =
  match a, b with
  | Value.Int x, Value.Int y -> Value.of_int (if fi x y then 1 else 0)
  | Value.Float x, Value.Float y -> Value.Int (if ff x y then 1 else 0)
  | Value.Int x, Value.Float y -> Value.Int (if ff (float_of_int x) y then 1 else 0)
  | Value.Float x, Value.Int y -> Value.Int (if ff x (float_of_int y) then 1 else 0)
  | x, y -> vm_err "bad comparison operands: %s, %s" (Value.to_string x) (Value.to_string y)

(* ---------- coercions ---------- *)

let as_int = function
  | Value.Int n -> n
  | v -> vm_err "expected an int, got %s" (Value.to_string v)

let as_float = function
  | Value.Float x -> x
  | Value.Int n -> float_of_int n
  | v -> vm_err "expected a float, got %s" (Value.to_string v)

let as_facade = function
  | Value.Facade f -> f
  | v -> vm_err "expected a facade, got %s" (Value.to_string v)

let the_rt st =
  match st.mode with
  | Facade_mode (rt, _) -> rt
  | Object_mode -> vm_err "runtime intrinsic outside facade mode"

let the_ctx st =
  match st.mode with
  | Facade_mode (_, c) -> c
  | Object_mode -> vm_err "runtime intrinsic outside facade mode"

(* Facade pools are strictly thread-local (paper 3.4): each logical thread
   creates its own at first use, in its context. *)
let pools_of st rt =
  let c = the_ctx st in
  match c.tc_pools with
  | Some p -> p
  | None ->
      let p = FP.create ~bounds:rt.bounds in
      c.tc_pools <- Some p;
      let count = FP.total_facades p in
      ignore (Atomic.fetch_and_add rt.facades count);
      (* The pool facades are heap objects — the paper's O(t·n). *)
      (match st.heap, st.shard with
      | Some _, Some s -> Heap.Shard.alloc_many s ~lifetime:Heap.Permanent ~bytes_each:32 ~count
      | Some h, None -> Heap.alloc_many h ~lifetime:Heap.Permanent ~bytes_each:32 ~count
      | None, _ -> ());
      p

(* Fold a joined child's dynamic-string tables into its spawner's,
   first-wins: the spawn-order-earliest interning of an address (or
   string) is the one every later reader sees. *)
let absorb_strings into (ch : thread_ctx) =
  (* A child that interned nothing still holds the view it started with. *)
  if ch.tc_strings != into.tc_strings then begin
    let first_wins _ mine _ = Some mine in
    into.tc_strings <- Imap.union first_wins into.tc_strings ch.tc_strings;
    into.tc_intern <- Smap.union first_wins into.tc_intern ch.tc_intern
  end

(* ---------- allocation and facade-pool intrinsics ----------

   The bodies of rt.alloc, rt.alloc_array(_oversize), pool.receiver,
   facade.bind and facade.read, shared by tier 1's [exec_intrinsic] and
   tier 2's templates: both allocate through the thread's buffered
   [tc_local] handle and fail with the same quota and operand errors. Callers resolve [rt] with [the_rt]
   first and then coerce the operands last to first, the order tier 1's
   argument evaluation has always had. Addresses travel as plain ints,
   so compiled code keeps them unboxed. *)

let rt_alloc st rt ~type_id ~data_bytes =
  let addr = Store.local_alloc_record (the_ctx st).tc_local ~type_id ~data_bytes in
  Exec_stats.note_record st.stats;
  sync_native st rt;
  Addr.to_int addr

let rt_alloc_array st rt ~oversize ~type_id ~elem_bytes ~length =
  let l = (the_ctx st).tc_local in
  let addr =
    if oversize then Store.local_alloc_array_oversize l ~type_id ~elem_bytes ~length
    else Store.local_alloc_array l ~type_id ~elem_bytes ~length
  in
  Exec_stats.note_record st.stats;
  sync_native st rt;
  Addr.to_int addr

let pool_receiver st rt ~type_id = FP.receiver (pools_of st rt) ~type_id
let facade_bind f addr = FP.bind (as_facade f) (Addr.of_int addr)
let facade_read f = Addr.to_int (FP.read (as_facade f))

(* ---------- dispatch ---------- *)

(* The linked class of a receiver value; everything the vtable needs. *)
let dispatch_cid st v mname =
  match v with
  | Value.Obj o ->
      if o.Value.ocid >= 0 then o.Value.ocid
      else (
        match Hashtbl.find_opt st.rp.R.cid_of_name o.Value.ocls with
        | Some cid -> cid
        | None -> vm_err "NoSuchMethodError: %s.%s" o.Value.ocls mname)
  | Value.Str _ ->
      if st.rp.R.string_cid >= 0 then st.rp.R.string_cid
      else vm_err "NoSuchMethodError: %s.%s" Jtype.string_class mname
  | Value.Facade f ->
      if Array.length st.rp.R.facade_cid_of_tid = 0 then vm_err "facade value in object mode"
      else begin
        let cid = st.rp.R.facade_cid_of_tid.(f.FP.ftype) in
        if cid >= 0 then cid
        else vm_err "NoSuchMethodError: facade<%d>.%s" f.FP.ftype mname
      end
  | Value.Null | Value.Int _ | Value.Float _ | Value.Arr _ ->
      vm_err "no runtime class for %s" (Value.to_string v)

(* ---------- type tests ---------- *)

let instance_of st (t : R.rtest) v =
  match v with
  | Value.Null -> false
  | Value.Obj o ->
      if o.Value.ocid >= 0 then t.R.t_cid_ok.(o.Value.ocid)
      else Hierarchy.is_assignable st.rp.R.src ~from_:(Jtype.Ref o.Value.ocls) ~to_:t.R.t_ty
  | Value.Arr a ->
      Hierarchy.is_assignable st.rp.R.src ~from_:(Jtype.Array a.Value.aty) ~to_:t.R.t_ty
  | Value.Str _ -> t.R.t_is_string
  | Value.Facade f ->
      if Array.length st.rp.R.facade_cid_of_tid = 0 then vm_err "facade value in object mode"
      else begin
        let cid = st.rp.R.facade_cid_of_tid.(f.FP.ftype) in
        if cid >= 0 then t.R.t_cid_ok.(cid)
        else
          let rt = the_rt st in
          Hierarchy.is_assignable st.rp.R.src
            ~from_:
              (Jtype.Ref
                 (Facade_compiler.Transform.facade_name
                    (Layout.name_of_type_id rt.layout f.FP.ftype)))
            ~to_:t.R.t_ty
      end
  | Value.Int _ | Value.Float _ -> false

(* ---------- store access ---------- *)

let addr_of v = Addr.of_int (as_int v)

let check_nonnull v =
  if as_int v = 0 then vm_err "NullPointerException: null page reference";
  v

let store_get rt (a : R.acc) addr ~offset =
  match a with
  | R.A_i8 -> Value.of_int (Store.get_i8 rt.store addr ~offset)
  | R.A_i16 -> Value.of_int (Store.get_i16 rt.store addr ~offset)
  | R.A_i32 -> Value.of_int (Store.get_i32 rt.store addr ~offset)
  | R.A_i64 -> Value.of_int (Store.get_i64 rt.store addr ~offset)
  | R.A_f32 -> Value.Float (Store.get_f32 rt.store addr ~offset)
  | R.A_f64 -> Value.Float (Store.get_f64 rt.store addr ~offset)

let store_set rt (a : R.acc) addr ~offset v =
  match a with
  | R.A_i8 -> Store.set_i8 rt.store addr ~offset (as_int v)
  | R.A_i16 -> Store.set_i16 rt.store addr ~offset (as_int v)
  | R.A_i32 -> Store.set_i32 rt.store addr ~offset (as_int v)
  | R.A_i64 -> Store.set_i64 rt.store addr ~offset (as_int v)
  | R.A_f32 -> Store.set_f32 rt.store addr ~offset (as_float v)
  | R.A_f64 -> Store.set_f64 rt.store addr ~offset (as_float v)

let elem_width_of_tid st rt tid =
  if tid >= 0 && tid < st.rp.R.n_tids && st.rp.R.tid_is_array.(tid) then
    st.rp.R.elem_bytes_of_tid.(tid)
  else vm_err "not an array type: %s" (Layout.name_of_type_id rt.layout tid)

(* ---------- frame access ---------- *)

let operand frame = function R.Oslot s -> frame.(s) | R.Oconst c -> c

let store_ret frame ret res =
  match ret with
  | None -> ()
  | Some r -> frame.(r) <- (match res with Some v -> v | None -> Value.Null)

let field_slot st (o : Value.obj) fid =
  let slot =
    if o.Value.ocid >= 0 then st.rp.R.classes.(o.Value.ocid).R.c_slot_of_fid.(fid) else -1
  in
  if slot < 0 then
    vm_err "NoSuchFieldError: %s.%s" o.Value.ocls st.rp.R.field_names.(fid)
  else slot
