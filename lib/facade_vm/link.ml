(* The linker: one pass over a jir program that interns every name to a
   dense integer id and lowers method bodies to the resolved form the
   interpreter executes, each then quickened ({!Quicken}): there is no
   other form. Lowering and quickening both map one jir instruction to
   one resolved instruction. Anything that cannot be resolved statically
   becomes an [Rerror] that raises only if reached, so linking never
   rejects a program the name-based interpreter would have run. *)

open Jir
module R = Resolved
module Layout = Facade_compiler.Layout
module Pipeline = Facade_compiler.Pipeline
module Rt = Facade_compiler.Rt_names

(* ---------- name interning ---------- *)

type interner = {
  tbl : (string, int) Hashtbl.t;
  mutable rev : string list;  (* most recent first *)
  mutable n : int;
}

let interner () = { tbl = Hashtbl.create 64; rev = []; n = 0 }

let intern it s =
  match Hashtbl.find_opt it.tbl s with
  | Some i -> i
  | None ->
      let i = it.n in
      it.n <- i + 1;
      Hashtbl.add it.tbl s i;
      it.rev <- s :: it.rev;
      i

let interned_array it =
  let a = Array.make it.n "" in
  List.iteri (fun i s -> a.(it.n - 1 - i) <- s) it.rev;
  a

(* ---------- shared sizing ---------- *)

let java_field_bytes = function
  | Jtype.Prim (Jtype.Bool | Jtype.Byte) -> 1
  | Jtype.Prim (Jtype.Char | Jtype.Short) -> 2
  | Jtype.Prim (Jtype.Int | Jtype.Float) -> 4
  | Jtype.Prim (Jtype.Long | Jtype.Double) -> 8
  | Jtype.Ref _ | Jtype.Array _ -> Heapsim.Obj_model.reference_bytes

(* ---------- string constants ----------

   Every [rt.string_literal] payload in the program, deduplicated in
   first-occurrence order. The interpreter pre-interns these at run setup so
   the intern table is read-mostly at execution time; the baseline
   interpreter uses the same collector so both VMs allocate the identical
   record population. *)

let string_constants (p : Program.t) =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rev = ref [] in
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (m : Ir.meth) ->
          Ir.iter_instrs
            (function
              | Ir.Intrinsic (_, name, [ Ir.Imm (Ir.Cstr s) ])
                when String.equal name Rt.string_literal ->
                  if not (Hashtbl.mem seen s) then begin
                    Hashtbl.add seen s ();
                    rev := s :: !rev
                  end
              | _ -> ())
            m)
        c.Ir.cmethods)
    (Program.classes p);
  Array.of_list (List.rev !rev)

(* ---------- intrinsic classification ---------- *)

let acc_of_suffix = function
  | "i8" -> Some R.A_i8
  | "i16" -> Some R.A_i16
  | "i32" -> Some R.A_i32
  | "i64" | "ref" -> Some R.A_i64
  | "f32" -> Some R.A_f32
  | "f64" -> Some R.A_f64
  | _ -> None

(* Intrinsics with a fixed name, with the arity each takes. *)
let fixed_intrinsics =
  [
    (Rt.alloc, (2, R.I_alloc));
    (Rt.alloc_array, (3, R.I_alloc_array));
    (Rt.alloc_array_oversize, (3, R.I_alloc_array_oversize));
    (Rt.free_oversize, (1, R.I_free_oversize));
    (Rt.array_length, (1, R.I_array_length));
    (Rt.type_id, (1, R.I_type_id));
    (Rt.is_type, (2, R.I_is_type));
    (Rt.checkcast, (2, R.I_checkcast));
    (Rt.string_literal, (1, R.I_string_literal));
    (Rt.pool_param, (2, R.I_pool_param));
    (Rt.pool_receiver, (1, R.I_pool_receiver));
    (Rt.pool_resolve, (1, R.I_pool_resolve));
    (Rt.facade_bind, (2, R.I_facade_bind));
    (Rt.facade_read, (1, R.I_facade_read));
    (Rt.lock_enter, (1, R.I_lock_enter));
    (Rt.lock_exit, (1, R.I_lock_exit));
    (Rt.convert_from, (2, R.I_convert_from));
    (Rt.convert_to, (2, R.I_convert_to));
    (Rt.print, (1, R.I_print));
    (Rt.current_thread, (0, R.I_current_thread));
    (Rt.arraycopy, (5, R.I_arraycopy));
    (Rt.io_read, (1, R.I_io_read));
  ]

(* Page accessors, by name prefix: the suffix names the access kind. *)
let accessor_intrinsics =
  [
    ("rt.get_", 2, fun a -> R.I_get a);
    ("rt.set_", 3, fun a -> R.I_set a);
    ("rt.aget_", 3, fun a -> R.I_aget a);
    ("rt.aset_", 4, fun a -> R.I_aset a);
  ]

(* The intrinsic an [name]/[n] site binds to, or the message of the
   [Rerror] it lowers to. *)
let classify_intrinsic name n =
  let unknown () = Error (Printf.sprintf "unknown intrinsic %s/%d" name n) in
  let has_prefix (pre, _, _) =
    String.length name > String.length pre && String.starts_with ~prefix:pre name
  in
  match List.find_opt (fun (nm, _) -> String.equal nm name) fixed_intrinsics with
  | Some (_, (arity, i)) -> if n = arity then Ok i else unknown ()
  | None -> (
      match List.find_opt has_prefix accessor_intrinsics with
      | Some (pre, arity, k) when n = arity -> (
          let l = String.length pre in
          let suffix = String.sub name l (String.length name - l) in
          match acc_of_suffix suffix with
          | Some a -> Ok (k a)
          | None -> Error (Printf.sprintf "unknown access kind %s" suffix))
      | Some _ | None -> unknown ())

(* ---------- the link ---------- *)

let link ?(is_data = fun _ -> false) ?layout (p : Program.t) : R.program =
  let cids = interner () in
  let fids = interner () in
  let mids = interner () in

  (* Class universe: declared classes first, then any [New] target the
     program allocates without declaring (the name-based interpreter
     allocates those as field-less objects, so they need a cid too). *)
  List.iter (fun (c : Ir.cls) -> ignore (intern cids c.Ir.cname)) (Program.classes p);
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (m : Ir.meth) ->
          Ir.iter_instrs
            (function Ir.New (_, cls) -> ignore (intern cids cls) | _ -> ())
            m)
        c.Ir.cmethods)
    (Program.classes p);
  let n_classes = cids.n in
  let class_names = interned_array cids in

  (* Method enumeration: one resolved method per declaration, in class
     order, so static/special call sites can be pre-bound to an index. *)
  let meth_index : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  let decls = ref [] in
  let n_decls = ref 0 in
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (m : Ir.meth) ->
          Hashtbl.replace meth_index (c.Ir.cname, m.Ir.mname) !n_decls;
          incr n_decls;
          decls := (c.Ir.cname, m) :: !decls)
        c.Ir.cmethods)
    (Program.classes p);
  let decls = Array.of_list (List.rev !decls) in
  ignore (intern mids "run");

  (* Static fields become a dense globals array. *)
  let gid_tbl : (string * string, int) Hashtbl.t = Hashtbl.create 32 in
  let globals = ref [] in
  let n_globals = ref 0 in
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (f : Ir.field) ->
          if f.Ir.fstatic then begin
            let v =
              match f.Ir.finit with
              | Some k -> Value.of_const k
              | None -> Value.default_of f.Ir.ftype
            in
            Hashtbl.replace gid_tbl (c.Ir.cname, f.Ir.fname) !n_globals;
            incr n_globals;
            globals := ((c.Ir.cname, f.Ir.fname), v) :: !globals
          end)
        c.Ir.cfields)
    (Program.classes p);
  let globals = Array.of_list (List.rev !globals) in

  (* Walk a class's super chain for the declaring class of [mname] — the
     static/special resolution the interpreter used to do per call. *)
  let resolve_static cls mname =
    let rec go c =
      match Hashtbl.find_opt meth_index (c, mname) with
      | Some i -> Some i
      | None -> (
          match Program.find_class p c with
          | Some { Ir.super = Some s; _ } -> go s
          | Some { Ir.super = None; _ } | None -> None)
    in
    go cls
  in

  (* Type tests: precompute the per-class verdict once per distinct type. *)
  let rtests : (Jtype.t, R.rtest) Hashtbl.t = Hashtbl.create 16 in
  let rtest ty =
    match Hashtbl.find_opt rtests ty with
    | Some t -> t
    | None ->
        let t =
          {
            R.t_ty = ty;
            t_cid_ok =
              Array.init n_classes (fun cid ->
                  Hierarchy.is_assignable p ~from_:(Jtype.Ref class_names.(cid)) ~to_:ty);
            t_is_string = Jtype.equal ty (Jtype.Ref Jtype.string_class);
          }
        in
        Hashtbl.replace rtests ty t;
        t
  in

  (* Each distinct (name, arity) of an intrinsic site is classified once. *)
  let intrinsic_kinds : (string * int, (R.intrinsic, string) result) Hashtbl.t =
    Hashtbl.create 32
  in
  let intrinsic_kind name n =
    let key = (name, n) in
    match Hashtbl.find_opt intrinsic_kinds key with
    | Some k -> k
    | None ->
        let k = classify_intrinsic name n in
        Hashtbl.add intrinsic_kinds key k;
        k
  in

  (* ---------- method-body lowering ---------- *)

  let lower_meth cname (m : Ir.meth) : R.meth =
    (* Slot assignment: this = 0, params next, then remaining variables by
       descending static use count, ties in first-occurrence order (hot
       locals get low slots — the order also makes frames deterministic
       for debugging). One table maps each variable to a cell, so an
       occurrence costs one lookup: [this] and the params are pinned with
       minus their slot and never counted; any other variable's cell holds
       its use count, then its slot once the counts are sorted. *)
    let vars : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.replace vars "this" (ref 0);
    List.iteri
      (fun i (v, _) -> if not (Hashtbl.mem vars v) then Hashtbl.replace vars v (ref (-(i + 1))))
      m.Ir.params;
    let order = ref [] in
    let touch v =
      match Hashtbl.find_opt vars v with
      | Some n -> if !n > 0 then incr n
      | None ->
          let n = ref 1 in
          Hashtbl.add vars v n;
          order := n :: !order
    in
    Array.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            Option.iter touch (Analysis.Defuse.def i);
            List.iter touch (Analysis.Defuse.uses i))
          b.Ir.instrs;
        List.iter touch (Analysis.Defuse.term_uses b.Ir.term))
      m.Ir.body;
    List.iter (fun (v, _) -> touch v) m.Ir.locals;
    let rest = List.stable_sort (fun a b -> Int.compare !b !a) (List.rev !order) in
    let nparams = List.length m.Ir.params in
    List.iteri (fun i n -> n := 1 + nparams + i) rest;
    let nslots = 1 + nparams + List.length rest in
    (* Every variable was collected above. *)
    let slot v = abs !(Hashtbl.find vars v) in
    let frame = Array.make nslots Value.Null in
    List.iter (fun (v, ty) -> frame.(slot v) <- Value.default_of ty) m.Ir.locals;
    let operand = function
      | Ir.Var v -> R.Oslot (slot v)
      | Ir.Imm c -> R.Oconst (Value.of_const c)
    in
    let intrinsic ret name ops =
      match intrinsic_kind name (List.length ops) with
      | Ok i -> R.Rintrinsic (Option.map slot ret, i, Array.of_list (List.map operand ops))
      | Error msg -> R.Rerror msg
    in
    let lower_instr = function
      | Ir.Const (v, c) -> R.Rconst (slot v, Value.of_const c)
      | Ir.Move (a, b) -> R.Rmove (slot a, slot b)
      | Ir.Binop (v, op, x, y) -> R.Rbinop (slot v, op, R.Oslot (slot x), R.Oslot (slot y))
      | Ir.Unop (v, Ir.Neg, x) -> R.Rneg (slot v, slot x)
      | Ir.Unop (v, Ir.Not, x) -> R.Rnot (slot v, slot x)
      | Ir.New (v, cls) -> R.Rnew (slot v, intern cids cls)
      | Ir.New_array (v, ety, len) ->
          R.Rnew_array
            ( slot v,
              {
                R.na_ety = ety;
                na_default = Value.default_of ety;
                na_elem_bytes = java_field_bytes ety;
                na_is_data =
                  (match ety with
                  | Jtype.Ref c -> is_data c
                  | Jtype.Prim _ | Jtype.Array _ -> false);
              },
              slot len )
      | Ir.Field_load (b, a, f) ->
          R.Rfield_load_ic (slot b, slot a, intern fids f, R.ic_empty ())
      | Ir.Field_store (a, f, b) ->
          R.Rfield_store_ic (slot a, intern fids f, slot b, R.ic_empty ())
      | Ir.Static_load (b, c, f) -> (
          match Hashtbl.find_opt gid_tbl (c, f) with
          | Some g -> R.Rstatic_load (slot b, g)
          | None -> R.Rerror (Printf.sprintf "NoSuchFieldError: static %s.%s" c f))
      | Ir.Static_store (c, f, b) -> (
          match Hashtbl.find_opt gid_tbl (c, f) with
          | Some g -> R.Rstatic_store (g, slot b)
          | None -> R.Rerror (Printf.sprintf "NoSuchFieldError: static %s.%s" c f))
      | Ir.Array_load (b, a, i) -> R.Rarray_load (slot b, slot a, slot i)
      | Ir.Array_store (a, i, b) -> R.Rarray_store (slot a, slot i, slot b)
      | Ir.Array_length (b, a) -> R.Rarray_length (slot b, slot a)
      | Ir.Call (ret, Ir.Virtual, cls, mname, recv, args) -> (
          match recv with
          | None ->
              R.Rerror (Printf.sprintf "virtual call %s.%s without a receiver" cls mname)
          | Some r ->
              R.Rcall_virtual_ic
                ( Option.map slot ret,
                  intern mids mname,
                  slot r,
                  Array.of_list (List.map slot args),
                  R.ic_empty () ))
      | Ir.Call (ret, (Ir.Static | Ir.Special), cls, mname, recv, args) -> (
          match resolve_static cls mname with
          | None -> R.Rerror (Printf.sprintf "NoSuchMethodError: %s.%s" cls mname)
          | Some midx ->
              let _, m = decls.(midx) in
              if List.length m.Ir.params <> List.length args then
                R.Rerror
                  (Printf.sprintf "arity mismatch calling %s.%s (%d args)" cls mname
                     (List.length args))
              else if Array.length m.Ir.body = 0 then
                R.Rerror (Printf.sprintf "AbstractMethodError: %s.%s" cls mname)
              else
                R.Rcall
                  ( Option.map slot ret,
                    midx,
                    Option.map slot recv,
                    Array.of_list (List.map slot args) ))
      | Ir.Instance_of (t, a, ty) -> R.Rinstance_of (slot t, slot a, rtest ty)
      | Ir.Cast (a, b, ty) -> R.Rcast (slot a, slot b, rtest ty)
      | Ir.Monitor_enter v -> R.Rmonitor_enter (slot v)
      | Ir.Monitor_exit v -> R.Rmonitor_exit (slot v)
      | Ir.Iter_start -> R.Riter_start
      | Ir.Iter_end -> R.Riter_end
      | Ir.Intrinsic (_, name, ops) when String.equal name Rt.run_thread -> (
          match ops with
          | [ op ] -> R.Rrun_thread (operand op)
          | _ -> R.Rerror "sys.run_thread expects one receiver")
      | Ir.Intrinsic (ret, name, ops) -> intrinsic ret name ops
    in
    let body =
      Array.map
        (fun (b : Ir.block) ->
          {
            R.code = Array.of_list (List.map lower_instr b.Ir.instrs);
            term =
              (match b.Ir.term with
              | Ir.Ret None -> R.Rret_void
              | Ir.Ret (Some v) -> R.Rret (slot v)
              | Ir.Jump t -> R.Rjump t
              | Ir.Branch (v, t, e) -> R.Rbranch (slot v, t, e));
          })
        m.Ir.body
    in
    Quicken.quicken_meth
      {
        R.m_cls = cname;
        m_name = m.Ir.mname;
        m_has_this = not m.Ir.mstatic;
        m_nparams = List.length m.Ir.params;
        m_frame = frame;
        m_body = body;
      }
  in

  let methods = Array.map (fun (cname, m) -> lower_meth cname m) decls in

  (* ---------- per-class tables (after lowering fixed the id spaces) ---------- *)

  let n_fids = fids.n and n_mids = mids.n in
  (* Field ids also cover declared fields that no instruction touches. *)
  let all_fields = Array.map (fun c -> Hierarchy.all_instance_fields p c) class_names in
  Array.iter (List.iter (fun (_, (f : Ir.field)) -> ignore (intern fids f.Ir.fname))) all_fields;
  let n_fids = max n_fids fids.n in

  let classes =
    Array.mapi
      (fun cid cname ->
        let fields = all_fields.(cid) in
        (* Canonical instance layout: one slot per distinct name, first
           (root-most) position, most-derived declaration wins the type —
           mirroring the hashtable the name-based interpreter built. *)
        let slot_by_name : (string, int) Hashtbl.t = Hashtbl.create 8 in
        let layout_rev = ref [] in
        let nslots = ref 0 in
        List.iter
          (fun (_, (f : Ir.field)) ->
            match Hashtbl.find_opt slot_by_name f.Ir.fname with
            | Some s ->
                layout_rev :=
                  List.map
                    (fun (s', r) ->
                      if s' = s then (s', { R.f_name = f.Ir.fname; f_ty = f.Ir.ftype })
                      else (s', r))
                    !layout_rev
            | None ->
                let s = !nslots in
                incr nslots;
                Hashtbl.replace slot_by_name f.Ir.fname s;
                layout_rev := (s, { R.f_name = f.Ir.fname; f_ty = f.Ir.ftype }) :: !layout_rev)
          fields;
        let c_fields = Array.make !nslots { R.f_name = ""; f_ty = Jtype.Ref "" } in
        List.iter (fun (s, r) -> c_fields.(s) <- r) !layout_rev;
        let c_defaults = Array.map (fun (r : R.rfield) -> Value.default_of r.R.f_ty) c_fields in
        let c_slot_of_fid = Array.make n_fids (-1) in
        Hashtbl.iter
          (fun name s ->
            match Hashtbl.find_opt fids.tbl name with
            | Some fid -> c_slot_of_fid.(fid) <- s
            | None -> ())
          slot_by_name;
        let c_vtable = Array.make n_mids (-1) in
        List.iter
          (fun (declaring, (m : Ir.meth)) ->
            match
              ( Hashtbl.find_opt mids.tbl m.Ir.mname,
                Hashtbl.find_opt meth_index (declaring, m.Ir.mname) )
            with
            | Some mid, Some midx -> c_vtable.(mid) <- midx
            | _, _ -> ())
          (Hierarchy.method_table p cname);
        let field_bytes =
          List.fold_left (fun a (_, (f : Ir.field)) -> a + java_field_bytes f.Ir.ftype) 0 fields
        in
        let c_tid =
          match layout with
          | None -> -1
          | Some l -> ( try Layout.type_id l cname with Not_found -> -1)
        in
        let is_record = c_tid >= 0 && not (Option.is_none layout) in
        let c_data_bytes =
          if is_record then Layout.record_data_bytes (Option.get layout) cname else 0
        in
        let c_conv =
          if is_record then
            Array.of_list
              (List.map
                 (fun (fs : Layout.field_slot) ->
                   ( fs,
                     Option.value ~default:(-1)
                       (Hashtbl.find_opt slot_by_name fs.Layout.name) ))
                 (Layout.fields (Option.get layout) cname))
          else [||]
        in
        {
          R.c_name = cname;
          c_fields;
          c_defaults;
          c_slot_of_fid;
          c_vtable;
          c_java_bytes = Heapsim.Obj_model.object_bytes ~field_bytes;
          c_is_data = is_data cname;
          c_tid;
          c_data_bytes;
          c_conv;
        })
      class_names
  in

  (* ---------- facade-mode tables ---------- *)

  let cid_opt name = Hashtbl.find_opt cids.tbl name in
  let n_tids = match layout with None -> 0 | Some l -> Layout.num_types l in
  let data_cid_of_tid = Array.make n_tids (-1) in
  let facade_cid_of_tid = Array.make n_tids (-1) in
  let elem_ty_of_tid = Array.make n_tids None in
  let elem_bytes_of_tid = Array.make n_tids 0 in
  let tid_is_array = Array.make n_tids false in
  (match layout with
  | None -> ()
  | Some l ->
      for tid = 0 to n_tids - 1 do
        let name = Layout.name_of_type_id l tid in
        if Layout.is_array_type_id l tid then begin
          tid_is_array.(tid) <- true;
          let ety = Jtype.element (Jtype.of_name name) in
          elem_ty_of_tid.(tid) <- Some ety;
          elem_bytes_of_tid.(tid) <- Layout.elem_bytes ety
        end
        else begin
          data_cid_of_tid.(tid) <- Option.value ~default:(-1) (cid_opt name);
          facade_cid_of_tid.(tid) <-
            Option.value ~default:(-1)
              (cid_opt (Facade_compiler.Transform.facade_name name))
        end
      done);
  let tid_cast_ok = Array.make (n_tids * n_tids) false in
  (match layout with
  | None -> ()
  | Some l ->
      for a = 0 to n_tids - 1 do
        for t = 0 to n_tids - 1 do
          tid_cast_ok.((a * n_tids) + t) <-
            a = t
            || (not (Layout.is_array_type_id l a))
               && (not (Layout.is_array_type_id l t))
               && Hierarchy.is_subclass p ~sub:(Layout.name_of_type_id l a)
                    ~super:(Layout.name_of_type_id l t)
        done
      done);

  let entry_cls, entry_name = Program.entry p in
  {
    R.src = p;
    classes;
    cid_of_name = cids.tbl;
    methods;
    method_names = interned_array mids;
    field_names = interned_array fids;
    global_names = Array.map fst globals;
    globals_init = Array.map snd globals;
    entry = Option.value ~default:(-1) (resolve_static entry_cls entry_name);
    string_consts = string_constants p;
    string_cid = Option.value ~default:(-1) (cid_opt Jtype.string_class);
    run_mid = Option.value ~default:(-1) (Hashtbl.find_opt mids.tbl "run");
    data_cid_of_tid;
    facade_cid_of_tid;
    elem_ty_of_tid;
    elem_bytes_of_tid;
    tid_is_array;
    tid_cast_ok;
    n_tids;
  }

let object_program ?is_data ?quicken:_ p = link ?is_data p

(* The pipeline owns P′, so it also caches the linked form: the first run
   links, later runs reuse. *)
type Pipeline.artifact += Linked of R.program

let facade_program ?quicken:_ (pl : Pipeline.t) =
  match Pipeline.artifact pl with
  | Some (Linked rp) -> rp
  | Some _ | None ->
      let rp = link ~layout:pl.Pipeline.layout pl.Pipeline.transformed in
      Pipeline.set_artifact pl (Linked rp);
      rp
