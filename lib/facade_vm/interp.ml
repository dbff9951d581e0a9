(* The jir VM, running on the resolved form produced by {!Link}: frames
   are value arrays indexed by slot, field access goes through per-class
   integer layouts, calls dispatch through precomputed vtables, and
   intrinsics were bound to their handlers at link time. No string is
   hashed on the per-instruction path. *)

open Jir
module R = Resolved
module FP = Pagestore.Facade_pool
module Addr = Pagestore.Addr
module Store = Pagestore.Store
module Layout = Facade_compiler.Layout
module Heap = Heapsim.Heap

open Vm_state

exception Vm_error = Vm_state.Vm_error

type outcome = {
  result : Value.t option;
  stats : Exec_stats.t;
  store_stats : Store.stats option;
  facades_allocated : int;
  locks_peak : int;
}

(* ---------- conversion functions (paper §3.5) ----------

   The paper synthesizes reflection-based convertFrom/convertTo per type;
   we implement the same generic routine once, driven at run time by the
   per-class conversion tables the linker paired up with the layout. *)

let rec convert_from st rt (visited : (int, int) Hashtbl.t) (v : Value.t) : int =
  match v with
  | Value.Null -> 0
  | Value.Str s -> intern_string st rt s
  | Value.Obj o -> (
      match Hashtbl.find_opt visited o.Value.oid with
      | Some addr -> addr
      | None ->
          let cid =
            if o.Value.ocid >= 0 then o.Value.ocid
            else
              Option.value ~default:(-1)
                (Hashtbl.find_opt st.rp.R.cid_of_name o.Value.ocls)
          in
          let c = if cid >= 0 then Some st.rp.R.classes.(cid) else None in
          (match c with
          | Some c when c.R.c_tid >= 0 ->
              let addr =
                Store.local_alloc_record (the_ctx st).tc_local ~type_id:c.R.c_tid
                  ~data_bytes:c.R.c_data_bytes
              in
              Exec_stats.note_record st.stats;
              let ai = Addr.to_int addr in
              Hashtbl.replace visited o.Value.oid ai;
              Array.iter
                (fun ((fs : Layout.field_slot), oslot) ->
                  let fv =
                    if oslot >= 0 then o.Value.fields.(oslot)
                    else Value.default_of fs.Layout.jty
                  in
                  write_slot st rt visited addr ~offset:fs.Layout.offset ~jty:fs.Layout.jty fv)
                c.R.c_conv;
              sync_native st rt;
              ai
          | Some _ | None -> vm_err "convertFrom: %s is not a data class" o.Value.ocls))
  | Value.Arr a -> (
      match Hashtbl.find_opt visited a.Value.aid with
      | Some addr -> addr
      | None ->
          let ety = a.Value.aty in
          let tid =
            try Layout.type_id_of_jtype rt.layout (Jtype.Array ety)
            with Not_found ->
              vm_err "convertFrom: no type id for array of %s" (Jtype.to_string ety)
          in
          let eb = Layout.elem_bytes ety in
          let len = Array.length a.Value.elems in
          let addr =
            Store.local_alloc_array (the_ctx st).tc_local ~type_id:tid ~elem_bytes:eb ~length:len
          in
          Exec_stats.note_record st.stats;
          let ai = Addr.to_int addr in
          Hashtbl.replace visited a.Value.aid ai;
          Array.iteri
            (fun i x ->
              let offset = Store.array_elem_offset ~elem_bytes:eb ~index:i in
              write_slot st rt visited addr ~offset ~jty:ety x)
            a.Value.elems;
          sync_native st rt;
          ai)
  | Value.Int _ | Value.Float _ | Value.Facade _ ->
      vm_err "convertFrom: not a heap data value: %s" (Value.to_string v)

and write_slot st rt visited addr ~offset ~jty v =
  match jty, v with
  | Jtype.Prim (Jtype.Bool | Jtype.Byte), Value.Int n -> Store.set_i8 rt.store addr ~offset n
  | Jtype.Prim (Jtype.Char | Jtype.Short), Value.Int n -> Store.set_i16 rt.store addr ~offset n
  | Jtype.Prim Jtype.Int, Value.Int n -> Store.set_i32 rt.store addr ~offset n
  | Jtype.Prim Jtype.Long, Value.Int n -> Store.set_i64 rt.store addr ~offset n
  | Jtype.Prim Jtype.Float, Value.Float x -> Store.set_f32 rt.store addr ~offset x
  | Jtype.Prim Jtype.Double, Value.Float x -> Store.set_f64 rt.store addr ~offset x
  | (Jtype.Ref _ | Jtype.Array _), _ ->
      Store.set_i64 rt.store addr ~offset (convert_from st rt visited v)
  | Jtype.Prim _, _ ->
      vm_err "convertFrom: field/value mismatch at offset %d: %s" offset (Value.to_string v)

and intern_string st rt s =
  (* Program string constants were interned at setup; the frozen table is
     never written after that, so this lookup is lock-free. Genuinely
     dynamic strings go to the thread's own view (the spawner's at spawn,
     merged first-wins at joins), so no lock is taken
     on this path either. The caveat: two domains racing to intern the
     same *dynamic* string each allocate their own record; no shipped
     workload does this, and the differential suite would catch the heap
     divergence if one started to. *)
  match Hashtbl.find_opt rt.intern_frozen s with
  | Some addr -> addr
  | None -> (
      let c = the_ctx st in
      match Smap.find_opt s c.tc_intern with
      | Some addr -> addr
      | None ->
          let tid = Layout.type_id rt.layout Jtype.string_class in
          let addr = Store.local_alloc_record c.tc_local ~type_id:tid ~data_bytes:0 in
          Exec_stats.note_record st.stats;
          sync_native st rt;
          let ai = Addr.to_int addr in
          c.tc_intern <- Smap.add s ai c.tc_intern;
          c.tc_strings <- Imap.add ai s c.tc_strings;
          ai)

let rec convert_to st rt (visited : (int, Value.t) Hashtbl.t) (ai : int) : Value.t =
  if ai = 0 then Value.Null
  else
    match Hashtbl.find_opt visited ai with
    | Some v -> v
    | None -> (
        let interned =
          match Hashtbl.find_opt rt.strings_frozen ai with
          | Some _ as s -> s
          | None -> Imap.find_opt ai (the_ctx st).tc_strings
        in
        match interned with
        | Some s -> Value.Str s
        | None ->
            let addr = Addr.of_int ai in
            let tid = Store.type_id rt.store addr in
            if tid >= 0 && tid < st.rp.R.n_tids && st.rp.R.tid_is_array.(tid) then begin
              let ety = Option.get st.rp.R.elem_ty_of_tid.(tid) in
              let eb = st.rp.R.elem_bytes_of_tid.(tid) in
              let len = Store.array_length rt.store addr in
              let arr =
                { Value.aty = ety; elems = Array.make len (Value.default_of ety); aid = new_oid st }
              in
              Exec_stats.note_alloc st.stats ~is_data:false;
              Hashtbl.replace visited ai (Value.Arr arr);
              for i = 0 to len - 1 do
                let offset = Store.array_elem_offset ~elem_bytes:eb ~index:i in
                arr.Value.elems.(i) <- read_slot st rt visited addr ~offset ~jty:ety
              done;
              Value.Arr arr
            end
            else begin
              let cid =
                if tid >= 0 && tid < st.rp.R.n_tids then st.rp.R.data_cid_of_tid.(tid) else -1
              in
              if cid < 0 then
                vm_err "convertTo: unknown record type %d" tid;
              let c = st.rp.R.classes.(cid) in
              let o =
                {
                  Value.ocls = c.R.c_name;
                  ocid = cid;
                  fields = Array.copy c.R.c_defaults;
                  oid = new_oid st;
                }
              in
              Exec_stats.note_alloc st.stats ~is_data:false;
              Hashtbl.replace visited ai (Value.Obj o);
              Array.iter
                (fun ((fs : Layout.field_slot), oslot) ->
                  if oslot >= 0 then
                    o.Value.fields.(oslot) <-
                      read_slot st rt visited addr ~offset:fs.Layout.offset ~jty:fs.Layout.jty)
                c.R.c_conv;
              Value.Obj o
            end)

and read_slot st rt visited addr ~offset ~jty =
  match jty with
  | Jtype.Prim (Jtype.Bool | Jtype.Byte) -> Value.of_int (Store.get_i8 rt.store addr ~offset)
  | Jtype.Prim (Jtype.Char | Jtype.Short) -> Value.of_int (Store.get_i16 rt.store addr ~offset)
  | Jtype.Prim Jtype.Int -> Value.of_int (Store.get_i32 rt.store addr ~offset)
  | Jtype.Prim Jtype.Long -> Value.of_int (Store.get_i64 rt.store addr ~offset)
  | Jtype.Prim Jtype.Float -> Value.Float (Store.get_f32 rt.store addr ~offset)
  | Jtype.Prim Jtype.Double -> Value.Float (Store.get_f64 rt.store addr ~offset)
  | Jtype.Ref _ | Jtype.Array _ ->
      convert_to st rt visited (Store.get_i64 rt.store addr ~offset)

(* ---------- the interpreter loop ---------- *)

(* One step: the source instruction about to run is counted, and the
   budget is checked before it runs. *)
let[@inline] charge (st : st) =
  let stats = st.stats in
  stats.Exec_stats.steps <- stats.Exec_stats.steps + 1;
  if stats.Exec_stats.steps > st.max_steps then vm_err "step budget exceeded"

(* Entry at an arbitrary (block, pc) is what tier-2 deopt resumes
   through: the compiled code raised {!Vm_state.Tier_deopt} before the
   faulting instruction's accounting, naming its source pc (a linked pc
   is a jir instruction index), so replaying from exactly there on the
   very same frame array reproduces tier-1's history bit for bit. *)
let rec run_body_from st mx (m : R.meth) (frame : Value.t array) bi0 pc0 :
    Value.t option =
  let body = m.R.m_body in
  let rec go bi pc =
    let b = body.(bi) in
    let code = b.R.code in
    for i = pc to Array.length code - 1 do
      exec st mx frame code.(i)
    done;
    match b.R.term with
    | R.Rret_void -> None
    | R.Rret s -> Some frame.(s)
    | R.Rjump t -> go t 0
    | R.Rbranch (s, t, e) -> go (if Value.truthy frame.(s) then t else e) 0
  in
  go bi0 pc0

and run_body st mx m frame = run_body_from st mx m frame 0 0

(* Every dispatch funnels through here so method spans cover exactly the
   static + virtual + thread-run + entry calls, which the golden-trace
   tests count against Exec_stats. With a tier attached this is also the
   compiled code's install point: a method compiles at its first call,
   and [T_fn] replaces the interpreter. *)
and run_method (st : st) midx (frame : Value.t array) : Value.t option =
  Exec_stats.note_mcall st.stats midx;
  match st.tier with
  | None -> run_tier1 st midx frame
  | Some t -> (
      match t.t_code.(midx) with
      | T_fn f -> run_tier2 st midx f frame
      | T_dead -> run_tier1 st midx frame
      | T_cold -> (
          Compile_tier.compile_into t st midx;
          match t.t_code.(midx) with
          | T_fn f -> run_tier2 st midx f frame
          | T_cold | T_dead -> run_tier1 st midx frame))

and run_tier1 st midx frame =
  let m = st.rp.R.methods.(midx) in
  if Obs.Trace.on () then begin
    Obs.Trace.span_begin ~cat:"vm" (m.R.m_cls ^ "." ^ m.R.m_name);
    Fun.protect
      ~finally:(fun () -> Obs.Trace.span_end ())
      (fun () -> run_body st midx m frame)
  end
  else run_body st midx m frame

and run_tier2 (st : st) midx f frame =
  st.stats.Exec_stats.tier2_entries <- st.stats.Exec_stats.tier2_entries + 1;
  if Obs.Trace.on () then begin
    let m = st.rp.R.methods.(midx) in
    Obs.Trace.span_begin ~cat:"vm" (m.R.m_cls ^ "." ^ m.R.m_name);
    Fun.protect ~finally:(fun () -> Obs.Trace.span_end ()) (fun () -> f st frame)
  end
  else f st frame

and exec st mx (frame : Value.t array) ins =
  let stats = st.stats in
  charge st;
  match ins with
  | R.Rconst (d, v) -> frame.(d) <- v
  | R.Rmove (d, s) -> frame.(d) <- frame.(s)
  | R.Rbinop (d, op, x, y) -> frame.(d) <- arith op (operand frame x) (operand frame y)
  | R.Rneg (d, s) -> (
      match frame.(s) with
      | Value.Int n -> frame.(d) <- Value.Int (-n)
      | Value.Float f -> frame.(d) <- Value.Float (-.f)
      | w -> vm_err "neg of %s" (Value.to_string w))
  | R.Rnot (d, s) -> frame.(d) <- Value.Int (if Value.truthy frame.(s) then 0 else 1)
  | R.Rnew (d, cid) -> frame.(d) <- alloc_obj st cid
  | R.Rnew_array (d, na, len) -> frame.(d) <- alloc_arr st na (as_int frame.(len))
  | R.Rstatic_load (d, g) -> frame.(d) <- st.globals.(g)
  | R.Rstatic_store (g, s) -> st.globals.(g) <- frame.(s)
  | R.Rarray_load (d, a, i) -> (
      match frame.(a) with
      | Value.Arr arr ->
          let idx = as_int frame.(i) in
          if idx < 0 || idx >= Array.length arr.Value.elems then
            vm_err "ArrayIndexOutOfBoundsException: %d" idx;
          frame.(d) <- arr.Value.elems.(idx)
      | Value.Null -> vm_err "NullPointerException: array load"
      | w -> vm_err "array load from %s" (Value.to_string w))
  | R.Rarray_store (a, i, s) -> (
      match frame.(a) with
      | Value.Arr arr ->
          let idx = as_int frame.(i) in
          if idx < 0 || idx >= Array.length arr.Value.elems then
            vm_err "ArrayIndexOutOfBoundsException: %d" idx;
          arr.Value.elems.(idx) <- frame.(s)
      | Value.Null -> vm_err "NullPointerException: array store"
      | w -> vm_err "array store to %s" (Value.to_string w))
  | R.Rarray_length (d, a) -> (
      match frame.(a) with
      | Value.Arr arr -> frame.(d) <- Value.Int (Array.length arr.Value.elems)
      | Value.Null -> vm_err "NullPointerException: array length"
      | w -> vm_err "length of %s" (Value.to_string w))
  | R.Rcall (ret, midx, recv, args) ->
      st.stats.Exec_stats.static_dispatches <- st.stats.Exec_stats.static_dispatches + 1;
      let m = st.rp.R.methods.(midx) in
      let f = Array.copy m.R.m_frame in
      (match recv with Some s -> f.(0) <- frame.(s) | None -> ());
      Array.iteri (fun i s -> f.(i + 1) <- frame.(s)) args;
      store_ret frame ret (run_method st midx f)
  | R.Rinstance_of (d, s, t) ->
      frame.(d) <- Value.Int (if instance_of st t frame.(s) then 1 else 0)
  | R.Rcast (d, s, t) ->
      let v = frame.(s) in
      (match v with
      | Value.Null -> ()
      | _ ->
          if not (instance_of st t v) then
            vm_err "ClassCastException: %s to %s" (Value.to_string v)
              (Jtype.to_string t.R.t_ty));
      frame.(d) <- v
  | R.Rmonitor_enter s -> (
      match frame.(s) with
      | Value.Obj o ->
          mon_locked st (fun () ->
              let n = Option.value ~default:0 (Hashtbl.find_opt st.monitors o.Value.oid) in
              Hashtbl.replace st.monitors o.Value.oid (n + 1))
      | Value.Null -> vm_err "NullPointerException: monitorenter"
      | w -> vm_err "monitorenter on %s" (Value.to_string w))
  | R.Rmonitor_exit s -> (
      match frame.(s) with
      | Value.Obj o ->
          mon_locked st (fun () ->
              match Hashtbl.find_opt st.monitors o.Value.oid with
              | Some n when n > 0 ->
                  if n = 1 then Hashtbl.remove st.monitors o.Value.oid
                  else Hashtbl.replace st.monitors o.Value.oid (n - 1)
              | Some _ | None -> vm_err "IllegalMonitorStateException")
      | Value.Null -> vm_err "NullPointerException: monitorexit"
      | w -> vm_err "monitorexit on %s" (Value.to_string w))
  | R.Riter_start -> (
      if Obs.Trace.on () then Obs.Trace.instant ~cat:"vm" "iter_start";
      (* Charges recorded before the frame opens must not land inside it. *)
      flush_ctx st;
      (match st.heap with
      | Some h -> heap_locked st (fun () -> Heap.iteration_start h)
      | None -> ());
      match st.mode with
      | Facade_mode (_, c) -> Store.local_iteration_start c.tc_local
      | Object_mode -> ())
  | R.Riter_end -> (
      if Obs.Trace.on () then Obs.Trace.instant ~cat:"vm" "iter_end";
      (* Join barrier: threads spawned inside (or before) this iteration
         finish before the iteration's page managers are bulk-released —
         their default managers are children of the iteration manager. *)
      join_children st;
      (* Our charges plus the joined children's (merged above) belong to
         the still-open frame, exactly where inline execution would have
         put them. *)
      flush_ctx st;
      (match st.heap with
      | Some h -> heap_locked st (fun () -> Heap.iteration_end h)
      | None -> ());
      match st.mode with
      | Facade_mode (rt, c) ->
          Store.local_iteration_end c.tc_local;
          sync_native st rt;
          (* In a pool run the bulk release's native/page deltas are
             published by a (shard-empty) flush instead. *)
          flush_ctx st
      | Object_mode -> ())
  | R.Rrun_thread op ->
      run_thread st (operand frame op)
  | R.Rintrinsic (ret, i, ops) ->
      exec_intrinsic st frame ret i ops
  | R.Rerror msg -> raise (Vm_error msg)
  | R.Rcall_virtual_ic (ret, mid, r, args, ic) ->
      stats.Exec_stats.virtual_dispatches <- stats.Exec_stats.virtual_dispatches + 1;
      let recv = frame.(r) in
      let cid = dispatch_cid st recv st.rp.R.method_names.(mid) in
      let key = ic.R.ic_key in
      let midx =
        if key >= 0 && key lsr 20 = cid then begin
          (* Cache hit: same receiver class resolved here before, so the
             abstract/arity checks that passed at fill time still hold. *)
          Exec_stats.note_ic_hit stats mx;
          key land R.ic_payload_mask
        end
        else begin
          Exec_stats.note_ic_miss stats mx;
          if Obs.Trace.on () then Obs.Trace.instant ~cat:"vm" "ic_miss";
          let c = st.rp.R.classes.(cid) in
          let midx = c.R.c_vtable.(mid) in
          if midx < 0 then
            vm_err "NoSuchMethodError: %s.%s" c.R.c_name st.rp.R.method_names.(mid);
          let m = st.rp.R.methods.(midx) in
          if Array.length m.R.m_body = 0 then
            vm_err "AbstractMethodError: %s.%s" c.R.c_name m.R.m_name;
          if Array.length args <> m.R.m_nparams then
            vm_err "arity mismatch calling %s.%s (%d args)" c.R.c_name m.R.m_name
              (Array.length args);
          ic.R.ic_key <- R.ic_pack ~cid ~payload:midx;
          midx
        end
      in
      let m = st.rp.R.methods.(midx) in
      let f = Array.copy m.R.m_frame in
      f.(0) <- recv;
      Array.iteri (fun i s -> f.(i + 1) <- frame.(s)) args;
      store_ret frame ret (run_method st midx f)
  | R.Rfield_load_ic (d, o, fid, ic) -> (
      match frame.(o) with
      | Value.Obj ob ->
          let cid = ob.Value.ocid in
          let key = ic.R.ic_key in
          let slot =
            if cid >= 0 && key >= 0 && key lsr 20 = cid then begin
              Exec_stats.note_ic_hit stats mx;
              key land R.ic_payload_mask
            end
            else begin
              Exec_stats.note_ic_miss stats mx;
          if Obs.Trace.on () then Obs.Trace.instant ~cat:"vm" "ic_miss";
              let slot = field_slot st ob fid in
              (* Only linked classes have a cid to key the cache on. *)
              if cid >= 0 then ic.R.ic_key <- R.ic_pack ~cid ~payload:slot;
              slot
            end
          in
          frame.(d) <- ob.Value.fields.(slot)
      | Value.Null -> vm_err "NullPointerException: .%s" st.rp.R.field_names.(fid)
      | w -> vm_err "field load from %s" (Value.to_string w))
  | R.Rfield_store_ic (o, fid, s, ic) -> (
      match frame.(o) with
      | Value.Obj ob ->
          let cid = ob.Value.ocid in
          let key = ic.R.ic_key in
          let slot =
            if cid >= 0 && key >= 0 && key lsr 20 = cid then begin
              Exec_stats.note_ic_hit stats mx;
              key land R.ic_payload_mask
            end
            else begin
              Exec_stats.note_ic_miss stats mx;
          if Obs.Trace.on () then Obs.Trace.instant ~cat:"vm" "ic_miss";
              let slot = field_slot st ob fid in
              if cid >= 0 then ic.R.ic_key <- R.ic_pack ~cid ~payload:slot;
              slot
            end
          in
          ob.Value.fields.(slot) <- frame.(s)
      | Value.Null -> vm_err "NullPointerException: .%s" st.rp.R.field_names.(fid)
      | w -> vm_err "field store to %s" (Value.to_string w))
  | R.Rget (d, a, p, off) ->
      let rt = the_rt st in
      frame.(d) <- store_get rt a (addr_of (check_nonnull frame.(p))) ~offset:off
  | R.Rset (a, p, off, src) ->
      let rt = the_rt st in
      store_set rt a (addr_of (check_nonnull frame.(p))) ~offset:off (operand frame src)
  | R.Raget (d, a, p, eb, idx) ->
      let rt = the_rt st in
      let addr = addr_of (check_nonnull frame.(p)) in
      let i = as_int (operand frame idx) in
      if i < 0 || i >= Store.array_length rt.store addr then
        vm_err "ArrayIndexOutOfBoundsException: %d" i;
      frame.(d) <-
        store_get rt a addr ~offset:(Store.array_elem_offset ~elem_bytes:eb ~index:i)
  | R.Raset (a, p, eb, idx, src) ->
      let rt = the_rt st in
      let addr = addr_of (check_nonnull frame.(p)) in
      let i = as_int (operand frame idx) in
      if i < 0 || i >= Store.array_length rt.store addr then
        vm_err "ArrayIndexOutOfBoundsException: %d" i;
      store_set rt a addr
        ~offset:(Store.array_elem_offset ~elem_bytes:eb ~index:i)
        (operand frame src)

(* Resolve the value handed to a fresh thread into the [run()] receiver:
   in facade mode a record address is rebound through the new thread's
   own pools (facade pools are never shared across threads). *)
and resolve_run_receiver st v =
  match st.mode, v with
  | Facade_mode (rt, _), Value.Int r when r <> 0 ->
      let rtid = Store.type_id rt.store (Addr.of_int r) in
      let f = FP.receiver (pools_of st rt) ~type_id:rtid in
      FP.bind f (Addr.of_int r);
      Value.Facade f
  | (Facade_mode _ | Object_mode), v -> v

and run_the_run st recv =
  let cid = dispatch_cid st recv "run" in
  let c = st.rp.R.classes.(cid) in
  let midx = if st.rp.R.run_mid >= 0 then c.R.c_vtable.(st.rp.R.run_mid) else -1 in
  if midx < 0 then vm_err "NoSuchMethodError: %s.run" c.R.c_name;
  let m = st.rp.R.methods.(midx) in
  if Array.length m.R.m_body = 0 then vm_err "AbstractMethodError: %s.run" c.R.c_name;
  if m.R.m_nparams <> 0 then vm_err "arity mismatch calling %s.run (0 args)" c.R.c_name;
  let f = Array.copy m.R.m_frame in
  f.(0) <- recv;
  ignore (run_method st midx f)

(* A fresh logical thread runs obj.run() to completion. *)
and run_thread st v =
  let tid = Atomic.fetch_and_add st.next_thread 1 in
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"vm" ~args:[ ("tid", Obs.Tracer.Aint tid) ] "thread_spawn";
  match st.mode with
  | Object_mode -> run_the_run { st with thread = tid; join = None } v
  | Facade_mode (rt, pc) -> spawn_facade st rt pc tid v

(* The facade spawn. The child gets its own page manager (a child of the
   spawner's current iteration manager, 3.6) and its own context. A pool
   changes only where it runs — inline and joined at once, or enqueued
   and joined at the spawner's next barrier — and, with that, whether
   its Exec_stats and heap charges are shards. Inline children keep the
   spawner's stats, so [max_steps] stays one budget for the whole run. *)
and spawn_facade st rt pc tid v =
  Store.register_thread ~parent:st.thread rt.store tid;
  let ctx =
    {
      tc_pools = None;
      tc_local = Store.local rt.store ~thread:tid;
      tc_strings = pc.tc_strings;
      tc_intern = pc.tc_intern;
    }
  in
  let child stats shard =
    { st with mode = Facade_mode (rt, ctx); stats; shard; thread = tid; join = None }
  in
  let body cst () =
    run_the_run cst (resolve_run_receiver cst v);
    (* Grandchildren must finish before this thread's manager subtree
       is released. *)
    join_children cst;
    (* Publish the record count now (it's order-independent); a pool
       child's heap shard stays pending for the parent to merge at the
       join, so heap charges always land through happens-before edges. *)
    Store.local_flush ctx.tc_local;
    (* The thread terminates: its default page manager is released (the
       paper's per-thread reclamation). *)
    Store.release_thread rt.store tid
  in
  match st.par with
  | None ->
      body (child st.stats None) ();
      absorb_strings pc ctx
  | Some shared ->
      let stats = Exec_stats.create () in
      Exec_stats.ensure_methods stats (Array.length st.rp.R.methods);
      let shard = Heap.Shard.create () in
      let j =
        match st.join with
        | Some j -> j
        | None ->
            let j = { group = Parallel.Sched.group shared.pool; children = [] } in
            st.join <- Some j;
            j
      in
      j.children <-
        { c_stats = stats; c_shard = shard; c_ctx = ctx; c_anchor = st.stats.Exec_stats.output }
        :: j.children;
      Parallel.Sched.spawn j.group (body (child stats (Some shard)))

(* Splice a joined child's output at its spawn point. Both lists are
   newest-first; the anchor is a physical suffix of the parent's current
   output, so the inline print order is reproduced exactly. *)
and splice_output (st : st) (c : child) =
  let rec cut acc l =
    if l == c.c_anchor then acc
    else match l with [] -> acc | x :: tl -> cut (x :: acc) tl
  in
  let newer_oldest_first = cut [] st.stats.Exec_stats.output in
  st.stats.Exec_stats.output <-
    List.fold_left
      (fun acc x -> x :: acc)
      (c.c_stats.Exec_stats.output @ c.c_anchor)
      newer_oldest_first

(* The join barrier: wait for every child this thread has enqueued, then
   fold their stat shards in. Children are spliced most-recent-first so
   each anchor is still a physical suffix when its turn comes. *)
and join_children st =
  match st.join with
  | None -> ()
  | Some j ->
      (* [~help:false]: an external waiter (the main domain) parks instead
         of busy-helping, so the CPU belongs to the workers while children
         sit in simulated I/O waits. Workers calling in (children joining
         grandchildren) still help regardless of the flag. *)
      Parallel.Sched.wait ~help:false j.group;
      let cs = j.children in
      j.children <- [];
      List.iter
        (fun c ->
          splice_output st c;
          c.c_stats.Exec_stats.output <- [];
          Exec_stats.merge st.stats c.c_stats)
        cs;
      (* Absorb the children's heap shards and dynamic-string tables in
         spawn order, mirroring the Exec_stats merge above. *)
      let pc = the_ctx st in
      List.iter
        (fun ch ->
          Option.iter (fun dst -> Heap.Shard.merge ~dst ~src:ch.c_shard) st.shard;
          absorb_strings pc ch.c_ctx)
        (List.rev cs);
      if Obs.Trace.on () && cs <> [] then Obs.Trace.instant ~cat:"vm" "shard_merge"

and exec_intrinsic st frame ret i (ops : R.operand array) =
  let v k = operand frame ops.(k) in
  let set x = match ret with Some r -> frame.(r) <- x | None -> () in
  match i with
  | R.I_alloc ->
      let rt = the_rt st in
      let data_bytes = as_int (v 1) in
      let type_id = as_int (v 0) in
      set (Value.Int (rt_alloc st rt ~type_id ~data_bytes))
  | R.I_alloc_array | R.I_alloc_array_oversize ->
      let rt = the_rt st in
      let length = as_int (v 2) in
      let elem_bytes = as_int (v 1) in
      let type_id = as_int (v 0) in
      let oversize = i = R.I_alloc_array_oversize in
      set (Value.Int (rt_alloc_array st rt ~oversize ~type_id ~elem_bytes ~length))
  | R.I_free_oversize ->
      let rt = the_rt st in
      Store.local_free_oversize_early (the_ctx st).tc_local (addr_of (check_nonnull (v 0)));
      sync_native st rt
  | R.I_array_length ->
      let rt = the_rt st in
      set (Value.Int (Store.array_length rt.store (addr_of (check_nonnull (v 0)))))
  | R.I_type_id ->
      let rt = the_rt st in
      set (Value.Int (Store.type_id rt.store (addr_of (check_nonnull (v 0)))))
  | R.I_is_type ->
      let rt = the_rt st in
      let r = v 0 in
      let ok = as_int r <> 0 && Store.type_id rt.store (addr_of r) = as_int (v 1) in
      set (Value.Int (if ok then 1 else 0))
  | R.I_checkcast ->
      let r = v 0 in
      if as_int r = 0 then set (Value.Int 0)
      else begin
        let rt = the_rt st in
        let actual = Store.type_id rt.store (addr_of r) in
        let target = as_int (v 1) in
        let n = st.rp.R.n_tids in
        let ok =
          actual = target
          || (actual >= 0 && actual < n && target >= 0 && target < n
             && st.rp.R.tid_cast_ok.((actual * n) + target))
        in
        if not ok then
          vm_err "ClassCastException: record of type %s is not a %s"
            (Layout.name_of_type_id rt.layout actual)
            (Layout.name_of_type_id rt.layout target);
        set r
      end
  | R.I_string_literal -> (
      match v 0 with
      | Value.Str s ->
          let rt = the_rt st in
          set (Value.Int (intern_string st rt s))
      | _ -> vm_err "unknown intrinsic %s/1" Facade_compiler.Rt_names.string_literal)
  | R.I_pool_param ->
      let rt = the_rt st in
      let tid = as_int (v 0) and idx = as_int (v 1) in
      Exec_stats.note_pool_use st.stats ~type_id:tid ~index:idx;
      set (Value.Facade (FP.param (pools_of st rt) ~type_id:tid ~index:idx))
  | R.I_pool_receiver ->
      let rt = the_rt st in
      set (Value.Facade (pool_receiver st rt ~type_id:(as_int (v 0))))
  | R.I_pool_resolve ->
      let rt = the_rt st in
      let r = v 0 in
      let tid = Store.type_id rt.store (addr_of (check_nonnull r)) in
      let f = FP.receiver (pools_of st rt) ~type_id:tid in
      FP.bind f (addr_of r);
      set (Value.Facade f)
  | R.I_facade_bind ->
      let addr = as_int (v 1) in
      facade_bind (v 0) addr
  | R.I_facade_read -> set (Value.Int (facade_read (v 0)))
  | R.I_lock_enter ->
      let rt = the_rt st in
      Pagestore.Lock_pool.monitor_enter rt.locks rt.store
        (addr_of (check_nonnull (v 0)))
        ~thread:st.thread
  | R.I_lock_exit ->
      let rt = the_rt st in
      Pagestore.Lock_pool.monitor_exit rt.locks rt.store
        (addr_of (check_nonnull (v 0)))
        ~thread:st.thread
  | R.I_convert_from -> (
      match v 0 with
      | Value.Str _ty ->
          let rt = the_rt st in
          set (Value.Int (convert_from st rt (Hashtbl.create 8) (v 1)))
      | _ -> vm_err "unknown intrinsic %s/2" Facade_compiler.Rt_names.convert_from)
  | R.I_convert_to -> (
      match v 0 with
      | Value.Str _ty ->
          let rt = the_rt st in
          set (convert_to st rt (Hashtbl.create 8) (as_int (v 1)))
      | _ -> vm_err "unknown intrinsic %s/2" Facade_compiler.Rt_names.convert_to)
  | R.I_print ->
      st.stats.Exec_stats.output <- Value.to_string (v 0) :: st.stats.Exec_stats.output
  | R.I_current_thread -> set (Value.Int st.thread)
  | R.I_io_read ->
      (* Simulated blocking read: the argument is microseconds of device
         latency. Charged to the sim clock as Load; with a nonzero
         io_scale the latency is also realized as a real sleep, which is
         what lets domains overlap I/O even on few cores. *)
      let units = as_int (v 0) in
      if units < 0 then vm_err "sys.io_read: negative latency";
      let sim = float_of_int units *. 1e-6 in
      charge_io st ~seconds:sim;
      if st.io_scale > 0.0 && units > 0 then Unix.sleepf (sim *. st.io_scale);
      set (Value.Int units)
  | R.I_arraycopy -> (
      let src = v 0 and dst = v 2 in
      match src, dst with
      | Value.Arr a, Value.Arr b ->
          Array.blit a.Value.elems (as_int (v 1)) b.Value.elems (as_int (v 3))
            (as_int (v 4))
      | Value.Int _, Value.Int _ ->
          let rt = the_rt st in
          let sa = addr_of (check_nonnull src) in
          let da = addr_of (check_nonnull dst) in
          let eb = elem_width_of_tid st rt (Store.type_id rt.store sa) in
          Store.arraycopy rt.store ~src:sa ~src_pos:(as_int (v 1)) ~dst:da
            ~dst_pos:(as_int (v 3)) ~len:(as_int (v 4)) ~elem_bytes:eb
      | _, _ -> vm_err "arraycopy: mixed or bad array values")
  | R.I_get a ->
      let rt = the_rt st in
      set (store_get rt a (addr_of (check_nonnull (v 0))) ~offset:(as_int (v 1)))
  | R.I_set a ->
      let rt = the_rt st in
      store_set rt a (addr_of (check_nonnull (v 0))) ~offset:(as_int (v 1)) (v 2)
  | R.I_aget a ->
      let rt = the_rt st in
      let addr = addr_of (check_nonnull (v 0)) in
      let idx = as_int (v 2) in
      if idx < 0 || idx >= Store.array_length rt.store addr then
        vm_err "ArrayIndexOutOfBoundsException: %d" idx;
      let offset = Store.array_elem_offset ~elem_bytes:(as_int (v 1)) ~index:idx in
      set (store_get rt a addr ~offset)
  | R.I_aset a ->
      let rt = the_rt st in
      let addr = addr_of (check_nonnull (v 0)) in
      let idx = as_int (v 2) in
      if idx < 0 || idx >= Store.array_length rt.store addr then
        vm_err "ArrayIndexOutOfBoundsException: %d" idx;
      let offset = Store.array_elem_offset ~elem_bytes:(as_int (v 1)) ~index:idx in
      store_set rt a addr ~offset (v 3)

(* The interpreter services tier-2 hands compiled code: per-instruction
   delegation (cold sites, intrinsic tails), deopt resumption at an
   arbitrary (block, pc), and full tier-1 calls for retired callees. The
   record breaks the module cycle: {!Compile_tier} sees only
   {!Vm_state}, and these closures arrive through the tier value. *)
let hooks : Vm_state.hooks =
  {
    h_exec = exec;
    h_resume = (fun st mx frame bi pc -> run_body_from st mx st.rp.R.methods.(mx) frame bi pc);
    h_call = run_method;
  }

(* ---------- program setup ---------- *)

let finish st =
  let store_stats, facades, locks_peak =
    match st.mode with
    | Facade_mode (rt, _) ->
        ( Some (Store.stats rt.store),
          Atomic.get rt.facades,
          Pagestore.Lock_pool.peak_locks_in_use rt.locks )
    | Object_mode -> (None, 0, 0)
  in
  { result = None; stats = st.stats; store_stats; facades_allocated = facades; locks_peak }

let run_entry st =
  if st.rp.R.entry < 0 then begin
    let cls, mname = Program.entry st.rp.R.src in
    vm_err "NoSuchMethodError: %s.%s" cls mname
  end;
  let m = st.rp.R.methods.(st.rp.R.entry) in
  if Array.length m.R.m_body = 0 then
    vm_err "AbstractMethodError: %s.%s" m.R.m_cls m.R.m_name;
  if m.R.m_nparams <> 0 then
    vm_err "arity mismatch calling %s.%s (0 args)" m.R.m_cls m.R.m_name;
  let result = run_method st st.rp.R.entry (Array.copy m.R.m_frame) in
  (* Final barrier: top-level threads spawned outside any iteration. *)
  join_children st;
  flush_ctx st;
  let o = finish st in
  { o with result }

let default_max_steps = 50_000_000

let make_st ?par ?(io_scale = 0.0) rp mode heap max_steps thread =
  let stats = Exec_stats.create () in
  Exec_stats.ensure_methods stats (Array.length rp.R.methods);
  {
    rp;
    mode;
    heap;
    shard = Option.map (fun _ -> Heap.Shard.create ()) par;
    stats;
    globals = Array.copy rp.R.globals_init;
    monitors = Hashtbl.create 16;
    oid = Atomic.make 0;
    max_steps;
    io_scale;
    thread;
    next_thread = Atomic.make 1;
    par;
    join = None;
    tier = None;
    tret = Value.Null;
  }

(* A tier detached from any run, for reuse across runs of the same linked
   program: compiled closures thread all per-run state through their [st]
   argument — facade page accesses resolve the run's page pool at segment
   entry instead of capturing a store — so warm code carries over
   exactly like the inline-cache words already do in a shared [rp], in
   facade mode as well as object mode. *)
let make_tier ?feedback rp = Compile_tier.make ?feedback ~hooks rp

(* Intern every string constant the linker collected, before execution
   starts: afterwards the frozen tables are read-only, so the hot path
   never takes a lock for a program literal. Setup is single-threaded, so
   its heap charges are synced directly, with or without a pool. *)
let pre_intern_strings st rt c =
  if Array.length st.rp.R.string_consts > 0 then
    match Layout.type_id rt.layout Jtype.string_class with
    | exception Not_found -> ()
    | tid ->
        Array.iter
          (fun s ->
            if not (Hashtbl.mem rt.intern_frozen s) then begin
              let addr = Store.local_alloc_record c.tc_local ~type_id:tid ~data_bytes:0 in
              Exec_stats.note_record st.stats;
              Option.iter (sync_store_heap rt) st.heap;
              let ai = Addr.to_int addr in
              Hashtbl.replace rt.intern_frozen s ai;
              Hashtbl.replace rt.strings_frozen ai s
            end)
          st.rp.R.string_consts

let run_object_linked ?heap ?(max_steps = default_max_steps) ?tier rp =
  let st = make_st rp Object_mode heap max_steps 0 in
  st.tier <- tier;
  run_entry st

let run_facade ?heap ?(max_steps = default_max_steps) ?page_bytes ?pool ?page_quota
    ?heap_budget ?(io_scale = 0.0) ?quicken:_ ?tier (pl : Facade_compiler.Pipeline.t) =
  let rp = Link.facade_program pl in
  let store = Store.create ?page_bytes () in
  (* Tenant resource caps: enforced by the store on every allocation. *)
  (match (page_quota, heap_budget) with
  | None, None -> ()
  | _ ->
      Store.set_limits store ?max_live_pages:page_quota ?max_native_bytes:heap_budget ());
  let thread = 0 in
  Store.register_thread store thread;
  let bounds = Facade_compiler.Bounds.as_array pl.Facade_compiler.Pipeline.bounds in
  let pools = FP.create ~bounds in
  let rt =
    {
      store;
      bounds;
      facades = Atomic.make (FP.total_facades pools);
      locks = Pagestore.Lock_pool.create ();
      layout = pl.Facade_compiler.Pipeline.layout;
      strings_frozen = Hashtbl.create 16;
      intern_frozen = Hashtbl.create 16;
      last_native = 0;
      last_pages = 0;
    }
  in
  let ctx =
    {
      tc_pools = Some pools;
      tc_local = Store.local store ~thread;
      tc_strings = Imap.empty;
      tc_intern = Smap.empty;
    }
  in
  (* [?pool] runs spawned threads on its domains. The run borrows the
     pool — external waiters park without helping, so concurrent runs
     coexist — and never shuts it down. *)
  let par =
    Option.map (fun p -> { pool = p; mon_mu = Mutex.create (); heap_mu = Mutex.create () }) pool
  in
  let st = make_st ?par ~io_scale rp (Facade_mode (rt, ctx)) heap max_steps thread in
  (* Tier-2 facade code is store-independent (every page access resolves
     the pool through [st]), so a pre-built warm tier from {!make_tier}
     is as sound here as in object mode. *)
  st.tier <- tier;
  (* The facade pools themselves are heap objects — the paper's O(t·n). *)
  (match heap with
  | Some h ->
      for _ = 1 to FP.total_facades pools do
        Heap.alloc h ~lifetime:Heap.Permanent ~bytes:32
      done
  | None -> ());
  pre_intern_strings st rt ctx;
  run_entry st
