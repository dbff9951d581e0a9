(* The original name-based tree-walking interpreter, kept as the
   reference implementation: frames are (string -> value) hashtables,
   methods resolve through {!Jir.Hierarchy} at every call, and intrinsics
   dispatch on their string names. {!Interp} (the resolved-execution VM)
   must agree with it on every program — the differential tests in
   test_vm drive both — and the [bench vm] target measures the resolved
   VM's speedup against it. Objects carry [ocid = -1]: this interpreter
   knows nothing of linked class ids. *)

open Jir
module FP = Pagestore.Facade_pool
module Addr = Pagestore.Addr
module Store = Pagestore.Store
module Layout = Facade_compiler.Layout
module Rt = Facade_compiler.Rt_names
module Heap = Heapsim.Heap

let vm_err fmt = Printf.ksprintf (fun s -> raise (Interp.Vm_error s)) fmt

type facade_rt = {
  store : Store.t;
  pools : (int, FP.t) Hashtbl.t;
  bounds : int array;
  locks : Pagestore.Lock_pool.t;
  layout : Layout.t;
  strings : (int, string) Hashtbl.t;
  string_intern : (string, int) Hashtbl.t;
  mutable last_native : int;
  mutable last_pages : int;
}

type mode =
  | Object_mode of (string -> bool)  (* is_data_class *)
  | Facade_mode of facade_rt

(* Per-class instance layout, computed on first allocation: one slot per
   distinct field name (most-derived declaration wins), defaults ready to
   copy. This is the only concession to the array-backed Value.obj. *)
type cls_layout = {
  l_idx : (string, int) Hashtbl.t;
  l_defaults : Value.t array;
}

type st = {
  p : Program.t;
  mode : mode;
  heap : Heap.t option;
  stats : Exec_stats.t;
  globals : (string, Value.t) Hashtbl.t;  (* "Class.field" *)
  monitors : (int, int) Hashtbl.t;
  layouts : (string, cls_layout) Hashtbl.t;
  mutable oid : int;
  max_steps : int;
  mutable thread : int;
  mutable next_thread : int;
}

(* ---------- small utilities ---------- *)

let global_key cls field = cls ^ "." ^ field

let java_field_bytes = function
  | Jtype.Prim (Jtype.Bool | Jtype.Byte) -> 1
  | Jtype.Prim (Jtype.Char | Jtype.Short) -> 2
  | Jtype.Prim (Jtype.Int | Jtype.Float) -> 4
  | Jtype.Prim (Jtype.Long | Jtype.Double) -> 8
  | Jtype.Ref _ | Jtype.Array _ -> Heapsim.Obj_model.reference_bytes

let java_object_bytes st cls =
  let field_bytes =
    List.fold_left
      (fun acc (_, (f : Ir.field)) -> acc + java_field_bytes f.Ir.ftype)
      0
      (Hierarchy.all_instance_fields st.p cls)
  in
  Heapsim.Obj_model.object_bytes ~field_bytes

let layout_of st cls =
  match Hashtbl.find_opt st.layouts cls with
  | Some l -> l
  | None ->
      let idx = Hashtbl.create 8 in
      let defaults = ref [] in
      let n = ref 0 in
      List.iter
        (fun (_, (f : Ir.field)) ->
          match Hashtbl.find_opt idx f.Ir.fname with
          | Some i ->
              defaults :=
                List.mapi
                  (fun j v -> if !n - 1 - j = i then Value.default_of f.Ir.ftype else v)
                  !defaults
          | None ->
              Hashtbl.replace idx f.Ir.fname !n;
              incr n;
              defaults := Value.default_of f.Ir.ftype :: !defaults)
        (Hierarchy.all_instance_fields st.p cls);
      let l = { l_idx = idx; l_defaults = Array.of_list (List.rev !defaults) } in
      Hashtbl.replace st.layouts cls l;
      l

let is_data st cls =
  match st.mode with Object_mode is_data -> is_data cls | Facade_mode _ -> false

let charge_heap_obj st ~cls ~bytes ~data =
  match st.heap with
  | None -> ()
  | Some h ->
      let lifetime = if data then Heap.Iteration else Heap.Control in
      Heap.alloc h ~lifetime ~bytes;
      ignore cls

let sync_native st =
  match st.mode, st.heap with
  | Facade_mode rt, Some h ->
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
  | (Facade_mode _ | Object_mode _), _ -> ()

let new_oid st =
  st.oid <- st.oid + 1;
  st.oid

let alloc_obj st cls =
  let l = layout_of st cls in
  let data = is_data st cls in
  Exec_stats.note_alloc st.stats ~is_data:data;
  charge_heap_obj st ~cls ~bytes:(java_object_bytes st cls) ~data;
  Value.Obj
    { Value.ocls = cls; ocid = -1; fields = Array.copy l.l_defaults; oid = new_oid st }

let alloc_arr st ety len =
  if len < 0 then vm_err "NegativeArraySizeException";
  let data =
    match ety with
    | Jtype.Ref c -> is_data st c
    | Jtype.Prim _ | Jtype.Array _ -> false
  in
  let cls = Jtype.to_string (Jtype.Array ety) in
  Exec_stats.note_alloc st.stats ~is_data:data;
  charge_heap_obj st ~cls
    ~bytes:(Heapsim.Obj_model.array_bytes ~elem_bytes:(java_field_bytes ety) ~length:len)
    ~data;
  Value.Arr { Value.aty = ety; elems = Array.make len (Value.default_of ety); aid = new_oid st }

let obj_field st (o : Value.obj) f =
  Hashtbl.find_opt (layout_of st o.Value.ocls).l_idx f

(* ---------- frames ---------- *)

type frame = (string, Value.t) Hashtbl.t

let lookup (frame : frame) v =
  match Hashtbl.find_opt frame v with
  | Some x -> x
  | None -> vm_err "unbound variable %s" v

let assign (frame : frame) v x = Hashtbl.replace frame v x

(* ---------- arithmetic ---------- *)

let rec arith op a b =
  match op, a, b with
  | Ir.Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Ir.Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Ir.Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | Ir.Div, Value.Int _, Value.Int 0 -> vm_err "ArithmeticException: / by zero"
  | Ir.Div, Value.Int x, Value.Int y -> Value.Int (x / y)
  | Ir.Rem, Value.Int _, Value.Int 0 -> vm_err "ArithmeticException: %% by zero"
  | Ir.Rem, Value.Int x, Value.Int y -> Value.Int (x mod y)
  | Ir.And, Value.Int x, Value.Int y -> Value.Int (x land y)
  | Ir.Or, Value.Int x, Value.Int y -> Value.Int (x lor y)
  | Ir.Xor, Value.Int x, Value.Int y -> Value.Int (x lxor y)
  | Ir.Shl, Value.Int x, Value.Int y -> Value.Int (x lsl y)
  | Ir.Shr, Value.Int x, Value.Int y -> Value.Int (x asr y)
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
  | Ir.Eq, x, y -> Value.Int (if Value.equal_ref x y then 1 else 0)
  | Ir.Ne, x, y -> Value.Int (if Value.equal_ref x y then 0 else 1)
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
  | Value.Int x, Value.Int y -> Value.Int (if fi x y then 1 else 0)
  | Value.Float x, Value.Float y -> Value.Int (if ff x y then 1 else 0)
  | Value.Int x, Value.Float y -> Value.Int (if ff (float_of_int x) y then 1 else 0)
  | Value.Float x, Value.Int y -> Value.Int (if ff x (float_of_int y) then 1 else 0)
  | x, y -> vm_err "bad comparison operands: %s, %s" (Value.to_string x) (Value.to_string y)

(* ---------- type tests ---------- *)

let facade_class_of st (f : FP.facade) =
  match st.mode with
  | Facade_mode rt ->
      Facade_compiler.Transform.facade_name (Layout.name_of_type_id rt.layout f.FP.ftype)
  | Object_mode _ -> vm_err "facade value in object mode"

let runtime_class st (v : Value.t) =
  match v with
  | Value.Obj o -> o.Value.ocls
  | Value.Str _ -> Jtype.string_class
  | Value.Facade f -> facade_class_of st f
  | Value.Null | Value.Int _ | Value.Float _ | Value.Arr _ ->
      vm_err "no runtime class for %s" (Value.to_string v)

let instance_of st v ty =
  match v, ty with
  | Value.Null, _ -> false
  | Value.Obj o, _ -> Hierarchy.is_assignable st.p ~from_:(Jtype.Ref o.Value.ocls) ~to_:ty
  | Value.Arr a, _ -> Hierarchy.is_assignable st.p ~from_:(Jtype.Array a.Value.aty) ~to_:ty
  | Value.Str _, Jtype.Ref c -> String.equal c Jtype.string_class
  | Value.Facade f, Jtype.Ref c ->
      Hierarchy.is_assignable st.p ~from_:(Jtype.Ref (facade_class_of st f)) ~to_:(Jtype.Ref c)
  | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Facade _), _ -> false

(* ---------- conversion functions (paper §3.5) ---------- *)

let elem_width ety = Layout.elem_bytes ety

let rec convert_from st rt (visited : (int, int) Hashtbl.t) (v : Value.t) : int =
  match v with
  | Value.Null -> 0
  | Value.Str s -> intern_string st rt s
  | Value.Obj o -> (
      match Hashtbl.find_opt visited o.Value.oid with
      | Some addr -> addr
      | None ->
          let cls = o.Value.ocls in
          let tid =
            try Layout.type_id rt.layout cls
            with Not_found -> vm_err "convertFrom: %s is not a data class" cls
          in
          let addr =
            Store.alloc_record rt.store ~thread:st.thread ~type_id:tid
              ~data_bytes:(Layout.record_data_bytes rt.layout cls)
          in
          Exec_stats.note_record st.stats;
          let ai = Addr.to_int addr in
          Hashtbl.replace visited o.Value.oid ai;
          List.iter
            (fun (slot : Layout.field_slot) ->
              let fv =
                match obj_field st o slot.Layout.name with
                | Some i -> o.Value.fields.(i)
                | None -> Value.default_of slot.Layout.jty
              in
              write_slot st rt visited addr ~offset:slot.Layout.offset ~jty:slot.Layout.jty fv)
            (Layout.fields rt.layout cls);
          sync_native st;
          ai)
  | Value.Arr a -> (
      match Hashtbl.find_opt visited a.Value.aid with
      | Some addr -> addr
      | None ->
          let ety = a.Value.aty in
          let tid =
            try Layout.type_id_of_jtype rt.layout (Jtype.Array ety)
            with Not_found -> vm_err "convertFrom: no type id for array of %s" (Jtype.to_string ety)
          in
          let len = Array.length a.Value.elems in
          let addr =
            Store.alloc_array rt.store ~thread:st.thread ~type_id:tid
              ~elem_bytes:(elem_width ety) ~length:len
          in
          Exec_stats.note_record st.stats;
          let ai = Addr.to_int addr in
          Hashtbl.replace visited a.Value.aid ai;
          Array.iteri
            (fun i x ->
              let offset = Store.array_elem_offset ~elem_bytes:(elem_width ety) ~index:i in
              write_slot st rt visited addr ~offset ~jty:ety x)
            a.Value.elems;
          sync_native st;
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
  match Hashtbl.find_opt rt.string_intern s with
  | Some addr -> addr
  | None ->
      let tid = Layout.type_id rt.layout Jtype.string_class in
      let addr = Store.alloc_record rt.store ~thread:st.thread ~type_id:tid ~data_bytes:0 in
      Exec_stats.note_record st.stats;
      sync_native st;
      let ai = Addr.to_int addr in
      Hashtbl.replace rt.string_intern s ai;
      Hashtbl.replace rt.strings ai s;
      ai

let rec convert_to st rt (visited : (int, Value.t) Hashtbl.t) (ai : int) : Value.t =
  if ai = 0 then Value.Null
  else
    match Hashtbl.find_opt visited ai with
    | Some v -> v
    | None -> (
        match Hashtbl.find_opt rt.strings ai with
        | Some s -> Value.Str s
        | None ->
            let addr = Addr.of_int ai in
            let tid = Store.type_id rt.store addr in
            let name = Layout.name_of_type_id rt.layout tid in
            if Layout.is_array_type_id rt.layout tid then begin
              let ety = Jtype.element (Jtype.of_name name) in
              let len = Store.array_length rt.store addr in
              let arr =
                { Value.aty = ety; elems = Array.make len (Value.default_of ety); aid = new_oid st }
              in
              Exec_stats.note_alloc st.stats ~is_data:false;
              Hashtbl.replace visited ai (Value.Arr arr);
              for i = 0 to len - 1 do
                let offset = Store.array_elem_offset ~elem_bytes:(elem_width ety) ~index:i in
                arr.Value.elems.(i) <- read_slot st rt visited addr ~offset ~jty:ety
              done;
              Value.Arr arr
            end
            else begin
              let l = layout_of st name in
              let o =
                {
                  Value.ocls = name;
                  ocid = -1;
                  fields = Array.copy l.l_defaults;
                  oid = new_oid st;
                }
              in
              Exec_stats.note_alloc st.stats ~is_data:false;
              Hashtbl.replace visited ai (Value.Obj o);
              List.iter
                (fun (slot : Layout.field_slot) ->
                  match Hashtbl.find_opt l.l_idx slot.Layout.name with
                  | Some i ->
                      o.Value.fields.(i) <-
                        read_slot st rt visited addr ~offset:slot.Layout.offset
                          ~jty:slot.Layout.jty
                  | None -> ())
                (Layout.fields rt.layout name);
              Value.Obj o
            end)

and read_slot st rt visited addr ~offset ~jty =
  match jty with
  | Jtype.Prim (Jtype.Bool | Jtype.Byte) -> Value.Int (Store.get_i8 rt.store addr ~offset)
  | Jtype.Prim (Jtype.Char | Jtype.Short) -> Value.Int (Store.get_i16 rt.store addr ~offset)
  | Jtype.Prim Jtype.Int -> Value.Int (Store.get_i32 rt.store addr ~offset)
  | Jtype.Prim Jtype.Long -> Value.Int (Store.get_i64 rt.store addr ~offset)
  | Jtype.Prim Jtype.Float -> Value.Float (Store.get_f32 rt.store addr ~offset)
  | Jtype.Prim Jtype.Double -> Value.Float (Store.get_f64 rt.store addr ~offset)
  | Jtype.Ref _ | Jtype.Array _ ->
      convert_to st rt visited (Store.get_i64 rt.store addr ~offset)

(* ---------- intrinsics ---------- *)

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
  | Facade_mode rt -> rt
  | Object_mode _ -> vm_err "runtime intrinsic outside facade mode"

let pools_of st rt =
  match Hashtbl.find_opt rt.pools st.thread with
  | Some p -> p
  | None ->
      let p = FP.create ~bounds:rt.bounds in
      Hashtbl.replace rt.pools st.thread p;
      (match st.heap with
      | Some h ->
          Heap.alloc_many h ~lifetime:Heap.Permanent ~bytes_each:32
            ~count:(FP.total_facades p)
      | None -> ());
      p

let suffix_of name prefix =
  String.sub name (String.length prefix) (String.length name - String.length prefix)

let store_get rt kind addr ~offset =
  match kind with
  | "i8" -> Value.Int (Store.get_i8 rt.store addr ~offset)
  | "i16" -> Value.Int (Store.get_i16 rt.store addr ~offset)
  | "i32" -> Value.Int (Store.get_i32 rt.store addr ~offset)
  | "i64" | "ref" -> Value.Int (Store.get_i64 rt.store addr ~offset)
  | "f32" -> Value.Float (Store.get_f32 rt.store addr ~offset)
  | "f64" -> Value.Float (Store.get_f64 rt.store addr ~offset)
  | k -> vm_err "unknown access kind %s" k

let store_set rt kind addr ~offset v =
  match kind with
  | "i8" -> Store.set_i8 rt.store addr ~offset (as_int v)
  | "i16" -> Store.set_i16 rt.store addr ~offset (as_int v)
  | "i32" -> Store.set_i32 rt.store addr ~offset (as_int v)
  | "i64" | "ref" -> Store.set_i64 rt.store addr ~offset (as_int v)
  | "f32" -> Store.set_f32 rt.store addr ~offset (as_float v)
  | "f64" -> Store.set_f64 rt.store addr ~offset (as_float v)
  | k -> vm_err "unknown access kind %s" k

let addr_of v = Addr.of_int (as_int v)

let check_nonnull v =
  if as_int v = 0 then vm_err "NullPointerException: null page reference";
  v

let elem_width_of_tid rt tid =
  let name = Layout.name_of_type_id rt.layout tid in
  match Jtype.of_name name with
  | Jtype.Array e -> elem_width e
  | Jtype.Prim _ | Jtype.Ref _ -> vm_err "not an array type: %s" name

let exec_intrinsic st frame ret name (argv : Value.t list) =
  let set v = match ret with Some r -> assign frame r v | None -> () in
  match name, argv with
  | n, [ tid; bytes ] when String.equal n Rt.alloc ->
      let rt = the_rt st in
      let addr =
        Store.alloc_record rt.store ~thread:st.thread ~type_id:(as_int tid)
          ~data_bytes:(as_int bytes)
      in
      Exec_stats.note_record st.stats;
      sync_native st;
      set (Value.Int (Addr.to_int addr))
  | n, [ tid; eb; len ] when String.equal n Rt.alloc_array || String.equal n Rt.alloc_array_oversize ->
      let rt = the_rt st in
      let alloc =
        if String.equal n Rt.alloc_array then Store.alloc_array else Store.alloc_array_oversize
      in
      let addr =
        alloc rt.store ~thread:st.thread ~type_id:(as_int tid) ~elem_bytes:(as_int eb)
          ~length:(as_int len)
      in
      Exec_stats.note_record st.stats;
      sync_native st;
      set (Value.Int (Addr.to_int addr))
  | n, [ r ] when String.equal n Rt.free_oversize ->
      let rt = the_rt st in
      Store.free_oversize_early rt.store ~thread:st.thread (addr_of (check_nonnull r));
      sync_native st
  | n, [ r ] when String.equal n Rt.array_length ->
      let rt = the_rt st in
      set (Value.Int (Store.array_length rt.store (addr_of (check_nonnull r))))
  | n, [ r ] when String.equal n Rt.type_id ->
      let rt = the_rt st in
      set (Value.Int (Store.type_id rt.store (addr_of (check_nonnull r))))
  | n, [ r; tid ] when String.equal n Rt.is_type ->
      let rt = the_rt st in
      let ok = as_int r <> 0 && Store.type_id rt.store (addr_of r) = as_int tid in
      set (Value.Int (if ok then 1 else 0))
  | n, [ r; tid ] when String.equal n Rt.checkcast ->
      if as_int r = 0 then set (Value.Int 0)
      else begin
        let rt = the_rt st in
        let actual = Store.type_id rt.store (addr_of r) in
        let target = as_int tid in
        let ok =
          actual = target
          || (not (Layout.is_array_type_id rt.layout actual))
             && (not (Layout.is_array_type_id rt.layout target))
             && Hierarchy.is_subclass st.p
                  ~sub:(Layout.name_of_type_id rt.layout actual)
                  ~super:(Layout.name_of_type_id rt.layout target)
        in
        if not ok then
          vm_err "ClassCastException: record of type %s is not a %s"
            (Layout.name_of_type_id rt.layout actual)
            (Layout.name_of_type_id rt.layout target);
        set r
      end
  | n, [ Value.Str s ] when String.equal n Rt.string_literal ->
      let rt = the_rt st in
      set (Value.Int (intern_string st rt s))
  | n, [ tid; idx ] when String.equal n Rt.pool_param ->
      let rt = the_rt st in
      Exec_stats.note_pool_use st.stats ~type_id:(as_int tid) ~index:(as_int idx);
      set (Value.Facade (FP.param (pools_of st rt) ~type_id:(as_int tid) ~index:(as_int idx)))
  | n, [ tid ] when String.equal n Rt.pool_receiver ->
      let rt = the_rt st in
      set (Value.Facade (FP.receiver (pools_of st rt) ~type_id:(as_int tid)))
  | n, [ r ] when String.equal n Rt.pool_resolve ->
      let rt = the_rt st in
      let tid = Store.type_id rt.store (addr_of (check_nonnull r)) in
      let f = FP.receiver (pools_of st rt) ~type_id:tid in
      FP.bind f (addr_of r);
      set (Value.Facade f)
  | n, [ f; r ] when String.equal n Rt.facade_bind ->
      FP.bind (as_facade f) (Addr.of_int (as_int r))
  | n, [ f ] when String.equal n Rt.facade_read ->
      set (Value.Int (Addr.to_int (FP.read (as_facade f))))
  | n, [ r ] when String.equal n Rt.lock_enter ->
      let rt = the_rt st in
      Pagestore.Lock_pool.monitor_enter rt.locks rt.store (addr_of (check_nonnull r))
        ~thread:st.thread
  | n, [ r ] when String.equal n Rt.lock_exit ->
      let rt = the_rt st in
      Pagestore.Lock_pool.monitor_exit rt.locks rt.store (addr_of (check_nonnull r))
        ~thread:st.thread
  | n, [ Value.Str _ty; v ] when String.equal n Rt.convert_from ->
      let rt = the_rt st in
      set (Value.Int (convert_from st rt (Hashtbl.create 8) v))
  | n, [ Value.Str _ty; r ] when String.equal n Rt.convert_to ->
      let rt = the_rt st in
      set (convert_to st rt (Hashtbl.create 8) (as_int r))
  | n, [ v ] when String.equal n Rt.print ->
      st.stats.Exec_stats.output <- Value.to_string v :: st.stats.Exec_stats.output
  | n, [] when String.equal n Rt.current_thread -> set (Value.Int st.thread)
  | n, [ u ] when String.equal n Rt.io_read ->
      (* Simulated blocking read; the baseline charges the sim clock but
         never sleeps (it has no parallel mode to overlap I/O in). *)
      let units = as_int u in
      if units < 0 then vm_err "sys.io_read: negative latency";
      (match st.heap with
      | Some h ->
          Heapsim.Sim_clock.charge (Heap.clock h) Heapsim.Sim_clock.Load
            (float_of_int units *. 1e-6)
      | None -> ());
      set (Value.Int units)
  | n, [ src; sp; dst; dp; len ] when String.equal n Rt.arraycopy -> (
      match src, dst with
      | Value.Arr a, Value.Arr b ->
          Array.blit a.Value.elems (as_int sp) b.Value.elems (as_int dp) (as_int len)
      | Value.Int _, Value.Int _ ->
          let rt = the_rt st in
          let sa = addr_of (check_nonnull src) in
          let da = addr_of (check_nonnull dst) in
          let eb = elem_width_of_tid rt (Store.type_id rt.store sa) in
          Store.arraycopy rt.store ~src:sa ~src_pos:(as_int sp) ~dst:da ~dst_pos:(as_int dp)
            ~len:(as_int len) ~elem_bytes:eb
      | _, _ -> vm_err "arraycopy: mixed or bad array values")
  | n, args when String.length n > 7 && String.sub n 0 7 = "rt.get_" && List.length args = 2 ->
      let rt = the_rt st in
      let kind = suffix_of n "rt.get_" in
      (match args with
      | [ r; off ] ->
          set (store_get rt kind (addr_of (check_nonnull r)) ~offset:(as_int off))
      | _ -> assert false)
  | n, [ r; off; v ] when String.length n > 7 && String.sub n 0 7 = "rt.set_" ->
      let rt = the_rt st in
      store_set rt (suffix_of n "rt.set_") (addr_of (check_nonnull r)) ~offset:(as_int off) v
  | n, [ r; eb; idx ] when String.length n > 8 && String.sub n 0 8 = "rt.aget_" ->
      let rt = the_rt st in
      let addr = addr_of (check_nonnull r) in
      let i = as_int idx in
      if i < 0 || i >= Store.array_length rt.store addr then
        vm_err "ArrayIndexOutOfBoundsException: %d" i;
      let offset = Store.array_elem_offset ~elem_bytes:(as_int eb) ~index:i in
      set (store_get rt (suffix_of n "rt.aget_") addr ~offset)
  | n, [ r; eb; idx; v ] when String.length n > 8 && String.sub n 0 8 = "rt.aset_" ->
      let rt = the_rt st in
      let addr = addr_of (check_nonnull r) in
      let i = as_int idx in
      if i < 0 || i >= Store.array_length rt.store addr then
        vm_err "ArrayIndexOutOfBoundsException: %d" i;
      let offset = Store.array_elem_offset ~elem_bytes:(as_int eb) ~index:i in
      store_set rt (suffix_of n "rt.aset_") addr ~offset v
  | n, _ -> vm_err "unknown intrinsic %s/%d" n (List.length argv)

(* ---------- the interpreter loop ---------- *)

let operand frame = function
  | Ir.Var v -> lookup frame v
  | Ir.Imm c -> Value.of_const c

let rec exec_call st ~kind ~cls ~mname ~recv ~argv =
  let target_cls =
    match kind with
    | Ir.Static | Ir.Special -> cls
    | Ir.Virtual -> (
        match recv with
        | Some r -> runtime_class st r
        | None -> vm_err "virtual call %s.%s without a receiver" cls mname)
  in
  let m =
    match Hierarchy.resolve_method st.p ~cls:target_cls ~name:mname with
    | Some m -> m
    | None -> vm_err "NoSuchMethodError: %s.%s" target_cls mname
  in
  if Array.length m.Ir.body = 0 then vm_err "AbstractMethodError: %s.%s" target_cls mname;
  let frame : frame = Hashtbl.create 16 in
  (match recv with Some r -> assign frame "this" r | None -> ());
  (try List.iter2 (fun (v, _) a -> assign frame v a) m.Ir.params argv
   with Invalid_argument _ ->
     vm_err "arity mismatch calling %s.%s (%d args)" target_cls mname (List.length argv));
  List.iter (fun (v, ty) -> assign frame v (Value.default_of ty)) m.Ir.locals;
  exec_body st m frame

and exec_body st (m : Ir.meth) frame =
  let rec exec_block bi =
    let blk = m.Ir.body.(bi) in
    List.iter (exec_instr st frame) blk.Ir.instrs;
    match blk.Ir.term with
    | Ir.Ret None -> None
    | Ir.Ret (Some v) -> Some (lookup frame v)
    | Ir.Jump b -> exec_block b
    | Ir.Branch (v, t, e) -> exec_block (if Value.truthy (lookup frame v) then t else e)
  in
  exec_block 0

and exec_instr st frame ins =
  st.stats.Exec_stats.steps <- st.stats.Exec_stats.steps + 1;
  if st.stats.Exec_stats.steps > st.max_steps then vm_err "step budget exceeded";
  match ins with
  | Ir.Const (v, c) -> assign frame v (Value.of_const c)
  | Ir.Move (a, b) -> assign frame a (lookup frame b)
  | Ir.Binop (v, op, x, y) -> assign frame v (arith op (lookup frame x) (lookup frame y))
  | Ir.Unop (v, Ir.Neg, x) -> (
      match lookup frame x with
      | Value.Int n -> assign frame v (Value.Int (-n))
      | Value.Float f -> assign frame v (Value.Float (-.f))
      | w -> vm_err "neg of %s" (Value.to_string w))
  | Ir.Unop (v, Ir.Not, x) ->
      assign frame v (Value.Int (if Value.truthy (lookup frame x) then 0 else 1))
  | Ir.New (v, cls) -> assign frame v (alloc_obj st cls)
  | Ir.New_array (v, ety, n) -> assign frame v (alloc_arr st ety (as_int (lookup frame n)))
  | Ir.Field_load (b, a, f) -> (
      match lookup frame a with
      | Value.Obj o -> (
          match obj_field st o f with
          | Some i -> assign frame b o.Value.fields.(i)
          | None -> vm_err "NoSuchFieldError: %s.%s" o.Value.ocls f)
      | Value.Null -> vm_err "NullPointerException: %s.%s" a f
      | w -> vm_err "field load from %s" (Value.to_string w))
  | Ir.Field_store (a, f, b) -> (
      match lookup frame a with
      | Value.Obj o -> (
          match obj_field st o f with
          | Some i -> o.Value.fields.(i) <- lookup frame b
          | None -> vm_err "NoSuchFieldError: %s.%s" o.Value.ocls f)
      | Value.Null -> vm_err "NullPointerException: %s.%s" a f
      | w -> vm_err "field store to %s" (Value.to_string w))
  | Ir.Static_load (b, c, f) -> (
      match Hashtbl.find_opt st.globals (global_key c f) with
      | Some x -> assign frame b x
      | None -> vm_err "NoSuchFieldError: static %s.%s" c f)
  | Ir.Static_store (c, f, b) ->
      if not (Hashtbl.mem st.globals (global_key c f)) then
        vm_err "NoSuchFieldError: static %s.%s" c f;
      Hashtbl.replace st.globals (global_key c f) (lookup frame b)
  | Ir.Array_load (b, a, i) -> (
      match lookup frame a with
      | Value.Arr arr ->
          let idx = as_int (lookup frame i) in
          if idx < 0 || idx >= Array.length arr.Value.elems then
            vm_err "ArrayIndexOutOfBoundsException: %d" idx;
          assign frame b arr.Value.elems.(idx)
      | Value.Null -> vm_err "NullPointerException: %s[...]" a
      | w -> vm_err "array load from %s" (Value.to_string w))
  | Ir.Array_store (a, i, b) -> (
      match lookup frame a with
      | Value.Arr arr ->
          let idx = as_int (lookup frame i) in
          if idx < 0 || idx >= Array.length arr.Value.elems then
            vm_err "ArrayIndexOutOfBoundsException: %d" idx;
          arr.Value.elems.(idx) <- lookup frame b
      | Value.Null -> vm_err "NullPointerException: %s[...]" a
      | w -> vm_err "array store to %s" (Value.to_string w))
  | Ir.Array_length (b, a) -> (
      match lookup frame a with
      | Value.Arr arr -> assign frame b (Value.Int (Array.length arr.Value.elems))
      | Value.Null -> vm_err "NullPointerException: %s.length" a
      | w -> vm_err "length of %s" (Value.to_string w))
  | Ir.Call (ret, kind, cls, mname, recv, args) -> (
      let recv_v = Option.map (lookup frame) recv in
      let argv = List.map (lookup frame) args in
      match exec_call st ~kind ~cls ~mname ~recv:recv_v ~argv with
      | Some v -> ( match ret with Some r -> assign frame r v | None -> ())
      | None -> (
          match ret with
          | Some r -> assign frame r Value.Null
          | None -> ()))
  | Ir.Instance_of (t, a, ty) ->
      assign frame t (Value.Int (if instance_of st (lookup frame a) ty then 1 else 0))
  | Ir.Cast (a, b, ty) ->
      let v = lookup frame b in
      (match v with
      | Value.Null -> ()
      | _ ->
          if not (instance_of st v ty) then
            vm_err "ClassCastException: %s to %s" (Value.to_string v) (Jtype.to_string ty));
      assign frame a v
  | Ir.Monitor_enter v -> (
      match lookup frame v with
      | Value.Obj o ->
          let n = Option.value ~default:0 (Hashtbl.find_opt st.monitors o.Value.oid) in
          Hashtbl.replace st.monitors o.Value.oid (n + 1)
      | Value.Null -> vm_err "NullPointerException: monitorenter"
      | w -> vm_err "monitorenter on %s" (Value.to_string w))
  | Ir.Monitor_exit v -> (
      match lookup frame v with
      | Value.Obj o -> (
          match Hashtbl.find_opt st.monitors o.Value.oid with
          | Some n when n > 0 ->
              if n = 1 then Hashtbl.remove st.monitors o.Value.oid
              else Hashtbl.replace st.monitors o.Value.oid (n - 1)
          | Some _ | None -> vm_err "IllegalMonitorStateException")
      | Value.Null -> vm_err "NullPointerException: monitorexit"
      | w -> vm_err "monitorexit on %s" (Value.to_string w))
  | Ir.Iter_start -> (
      (match st.heap with Some h -> Heap.iteration_start h | None -> ());
      match st.mode with
      | Facade_mode rt -> Store.iteration_start rt.store ~thread:st.thread
      | Object_mode _ -> ())
  | Ir.Iter_end -> (
      (match st.heap with Some h -> Heap.iteration_end h | None -> ());
      match st.mode with
      | Facade_mode rt ->
          Store.iteration_end rt.store ~thread:st.thread;
          sync_native st
      | Object_mode _ -> ())
  | Ir.Intrinsic (ret, name, ops) when String.equal name Rt.run_thread -> (
      ignore ret;
      match List.map (operand frame) ops with
      | [ v ] ->
          let tid = st.next_thread in
          st.next_thread <- tid + 1;
          let parent = st.thread in
          (match st.mode with
          | Facade_mode rt -> Store.register_thread ~parent rt.store tid
          | Object_mode _ -> ());
          st.thread <- tid;
          let recv =
            match st.mode, v with
            | Facade_mode rt, Value.Int r when r <> 0 ->
                let rtid = Store.type_id rt.store (Addr.of_int r) in
                let f = FP.receiver (pools_of st rt) ~type_id:rtid in
                FP.bind f (Addr.of_int r);
                Value.Facade f
            | (Facade_mode _ | Object_mode _), v -> v
          in
          let cls = runtime_class st recv in
          ignore (exec_call st ~kind:Ir.Virtual ~cls ~mname:"run" ~recv:(Some recv) ~argv:[]);
          (match st.mode with
          | Facade_mode rt -> Store.release_thread rt.store tid
          | Object_mode _ -> ());
          st.thread <- parent
      | _ -> vm_err "sys.run_thread expects one receiver")
  | Ir.Intrinsic (ret, name, ops) ->
      let argv = List.map (operand frame) ops in
      exec_intrinsic st frame ret name argv

(* ---------- program setup ---------- *)

let init_globals st =
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (f : Ir.field) ->
          if f.Ir.fstatic then
            let v =
              match f.Ir.finit with
              | Some k -> Value.of_const k
              | None -> Value.default_of f.Ir.ftype
            in
            Hashtbl.replace st.globals (global_key c.Ir.cname f.Ir.fname) v)
        c.Ir.cfields)
    (Program.classes st.p)

let finish st : Interp.outcome =
  let store_stats, facades, locks_peak =
    match st.mode with
    | Facade_mode rt ->
        ( Some (Store.stats rt.store),
          Hashtbl.fold (fun _ p acc -> acc + FP.total_facades p) rt.pools 0,
          Pagestore.Lock_pool.peak_locks_in_use rt.locks )
    | Object_mode _ -> (None, 0, 0)
  in
  {
    Interp.result = None;
    stats = st.stats;
    store_stats;
    facades_allocated = facades;
    locks_peak;
  }

let run_entry st =
  let cls, mname = Program.entry st.p in
  init_globals st;
  let result = exec_call st ~kind:Ir.Static ~cls ~mname ~recv:None ~argv:[] in
  let o = finish st in
  { o with Interp.result }

let run_object ?heap ?(is_data = fun _ -> false) ?(max_steps = Interp.default_max_steps) p =
  let st =
    {
      p;
      mode = Object_mode is_data;
      heap;
      stats = Exec_stats.create ();
      globals = Hashtbl.create 64;
      monitors = Hashtbl.create 16;
      layouts = Hashtbl.create 16;
      oid = 0;
      max_steps;
      thread = 0;
      next_thread = 1;
    }
  in
  run_entry st

let run_facade ?heap ?(max_steps = Interp.default_max_steps) ?page_bytes
    (pl : Facade_compiler.Pipeline.t) =
  let store = Store.create ?page_bytes () in
  let thread = 0 in
  Store.register_thread store thread;
  let bounds = Facade_compiler.Bounds.as_array pl.Facade_compiler.Pipeline.bounds in
  let pools = Hashtbl.create 4 in
  Hashtbl.replace pools 0 (FP.create ~bounds);
  let rt =
    {
      store;
      pools;
      bounds;
      locks = Pagestore.Lock_pool.create ();
      layout = pl.Facade_compiler.Pipeline.layout;
      strings = Hashtbl.create 16;
      string_intern = Hashtbl.create 16;
      last_native = 0;
      last_pages = 0;
    }
  in
  let st =
    {
      p = pl.Facade_compiler.Pipeline.transformed;
      mode = Facade_mode rt;
      heap;
      stats = Exec_stats.create ();
      globals = Hashtbl.create 64;
      monitors = Hashtbl.create 16;
      layouts = Hashtbl.create 16;
      oid = 0;
      max_steps;
      thread;
      next_thread = 1;
    }
  in
  (match heap with
  | Some h ->
      for _ = 1 to FP.total_facades (Hashtbl.find pools 0) do
        Heap.alloc h ~lifetime:Heap.Permanent ~bytes:32
      done
  | None -> ());
  (* Pre-intern the program's string constants with the same collector the
     resolved VM uses, so both allocate the identical record population. *)
  (let consts = Link.string_constants st.p in
   if Array.length consts > 0 then
     match Layout.type_id rt.layout Jtype.string_class with
     | exception Not_found -> ()
     | _ -> Array.iter (fun s -> ignore (intern_string st rt s)) consts);
  run_entry st
