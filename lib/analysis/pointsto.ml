open Jir
module Iset = Set.Make (Int)
module Rn = Facade_compiler.Rt_names

(* Andersen-style, flow- and context-insensitive points-to analysis over
   the {!Callgraph} universe. Abstract objects are allocation sites, one
   per [New]/[New_array]/string literal in the original program and per
   [rt.alloc]/[rt.alloc_array]/[convert.*] intrinsic in P'. Facades are
   modelled transparently: [pool.*]/[facade.bind]/[facade.read] copy the
   page-object set through the facade variable instead of introducing a
   facade object, so a variable holding a facade and the page reference it
   is bound to alias the same abstract objects — which is exactly what the
   lockset and escape analyses need, since lock identity and lifetime in
   P' attach to the page record, not the facade wrapper.

   [convert.to]/[convert.from] are deep copies across the control/data
   boundary and allocate a fresh site rather than aliasing their source.

   An abstract object is a "summary" (may denote several runtime objects)
   unless its site is in the entry method outside any CFG cycle — the only
   case where one site provably executes at most once. *)

type site = {
  skey : string;          (* declaring method key *)
  sblock : int;
  sindex : int;
  sclass : string option; (* class, when named at the site *)
  stid : int option;      (* P' type id, resolved through the tid map *)
  ssummary : bool;
}

type t = {
  cg : Callgraph.t;
  sites : site array;
  site_ids : (string * int * int, int) Hashtbl.t;
  vars : (string, Iset.t ref) Hashtbl.t;    (* "mkey::var" *)
  heap : (int * string, Iset.t ref) Hashtbl.t;
  statics : (string * string, Iset.t ref) Hashtbl.t;
  rets : (string, Iset.t ref) Hashtbl.t;
  tid_class : (int, string) Hashtbl.t;
  spawns : (string * int * int * Ir.var) list;
}

let vkey mkey v = mkey ^ "::" ^ v

let lookup tbl k =
  match Hashtbl.find_opt tbl k with Some r -> !r | None -> Iset.empty

let flow_into tbl k s changed =
  if not (Iset.is_empty s) then
    match Hashtbl.find_opt tbl k with
    | Some r ->
        if not (Iset.subset s !r) then begin
          r := Iset.union !r s;
          changed := true
        end
    | None ->
        Hashtbl.replace tbl k (ref s);
        changed := true

(* P' ref-typed page accessors; page field offsets are collapsed to one
   abstract field "#" (field-insensitive within a record), arrays to "[]". *)
let get_ref = Rn.get_field (Jtype.Ref "_")
let set_ref = Rn.set_field (Jtype.Ref "_")
let aget_ref = Rn.array_get (Jtype.Ref "_")
let aset_ref = Rn.array_set (Jtype.Ref "_")

let fresh_site_intrinsics =
  [ Rn.alloc; Rn.alloc_array; Rn.alloc_array_oversize; Rn.string_literal;
    Rn.convert_to; Rn.convert_from ]

let blocks_in_cycle (m : Ir.meth) =
  let cfg = Cfg.of_method m in
  let n = cfg.Cfg.nblocks in
  Array.init n (fun b ->
      (* b is in a cycle iff b is reachable from one of its successors *)
      let seen = Array.make n false in
      let rec visit x =
        if not seen.(x) then begin
          seen.(x) <- true;
          Array.iter visit cfg.Cfg.succs.(x)
        end
      in
      Array.iter visit cfg.Cfg.succs.(b);
      seen.(b))

let imm_int = function Ir.Imm (Ir.Cint n) -> Some n | _ -> None

let build ?cg p =
  let cg = match cg with Some c -> c | None -> Callgraph.build p in
  let sites = ref [] and nsites = ref 0 in
  let site_ids = Hashtbl.create 64 in
  let tid_class = Hashtbl.create 16 in
  let spawns = ref [] in
  Callgraph.iter_methods cg (fun mkey _ m ->
      if Array.length m.Ir.body > 0 then begin
        let in_cycle =
          if String.equal mkey (Callgraph.entry_key cg) then blocks_in_cycle m
          else [||]
        in
        let add_site b i sclass stid =
          let ssummary =
            (not (String.equal mkey (Callgraph.entry_key cg)))
            || (Array.length in_cycle > b && in_cycle.(b))
          in
          Hashtbl.replace site_ids (mkey, b, i) !nsites;
          sites := { skey = mkey; sblock = b; sindex = i; sclass; stid; ssummary } :: !sites;
          incr nsites
        in
        Ir.iteri_instrs
          (fun b i ins ->
            match ins with
            | Ir.New (_, c) -> add_site b i (Some c) None
            | Ir.New_array (_, _, _) -> add_site b i None None
            | Ir.Const (_, Ir.Cstr _) -> add_site b i (Some "java.lang.String") None
            | Ir.Intrinsic (Some _, n, args) when List.mem n fresh_site_intrinsics ->
                let stid =
                  if
                    String.equal n Rn.alloc
                    || String.equal n Rn.alloc_array
                    || String.equal n Rn.alloc_array_oversize
                  then match args with a0 :: _ -> imm_int a0 | [] -> None
                  else None
                in
                add_site b i None stid
            | Ir.Intrinsic (Some d, n, args)
              when String.equal n Rn.pool_receiver || String.equal n Rn.pool_param -> (
                match (args, Ir.var_type m d) with
                | a0 :: _, Some (Jtype.Ref c) -> (
                    match imm_int a0 with
                    | Some tid -> Hashtbl.replace tid_class tid c
                    | None -> ())
                | _ -> ())
            | Ir.Intrinsic (Some d, n, [ _; a1 ]) when String.equal n Rn.checkcast -> (
                match (imm_int a1, Ir.var_type m d) with
                | Some tid, Some (Jtype.Ref c) ->
                    if not (Hashtbl.mem tid_class tid) then
                      Hashtbl.replace tid_class tid c
                | _ -> ())
            | Ir.Intrinsic (None, n, [ Ir.Var v ]) when String.equal n Rn.run_thread ->
                spawns := (mkey, b, i, v) :: !spawns
            | _ -> ())
          m
      end);
  let t =
    {
      cg;
      sites = Array.of_list (List.rev !sites);
      site_ids;
      vars = Hashtbl.create 256;
      heap = Hashtbl.create 64;
      statics = Hashtbl.create 16;
      rets = Hashtbl.create 32;
      tid_class;
      spawns = List.rev !spawns;
    }
  in
  (* ---------- constraint fixpoint ---------- *)
  let changed = ref true in
  let var_set mkey v = lookup t.vars (vkey mkey v) in
  let var_add mkey v s = flow_into t.vars (vkey mkey v) s changed in
  let heap_load objs field =
    Iset.fold (fun o acc -> Iset.union acc (lookup t.heap (o, field))) objs Iset.empty
  in
  let heap_store objs field s =
    Iset.iter (fun o -> flow_into t.heap (o, field) s changed) objs
  in
  let site_set mkey b i =
    match Hashtbl.find_opt t.site_ids (mkey, b, i) with
    | Some id -> Iset.singleton id
    | None -> Iset.empty
  in
  let class_of_obj o =
    let s = t.sites.(o) in
    match s.sclass with
    | Some c -> Some c
    | None -> Option.bind s.stid (Hashtbl.find_opt t.tid_class)
  in
  let run_keys v_pts decl_ty =
    let of_class c =
      match Facade_compiler.Optimize.declaring p ~name:"run" c with
      | Some d -> [ Callgraph.key ~cls:d ~name:"run" ]
      | None -> []
    in
    let from_pts =
      Iset.fold
        (fun o acc ->
          match class_of_obj o with Some c -> of_class c @ acc | None -> acc)
        v_pts []
    in
    let from_decl =
      match decl_ty with Some (Jtype.Ref c) -> of_class c | _ -> []
    in
    List.sort_uniq String.compare (from_pts @ from_decl)
  in
  let bind_call mkey ret recv args targets =
    List.iter
      (fun tk ->
        match Callgraph.method_of_key t.cg tk with
        | None -> ()
        | Some (_, callee) ->
            (match recv with
            | Some r when not callee.Ir.mstatic ->
                flow_into t.vars (vkey tk "this") (var_set mkey r) changed
            | Some _ | None -> ());
            let rec bind ps xs =
              match (ps, xs) with
              | (pv, _) :: ps', x :: xs' ->
                  flow_into t.vars (vkey tk pv) (var_set mkey x) changed;
                  bind ps' xs'
              | _, _ -> ()
            in
            bind callee.Ir.params args;
            match ret with
            | Some d -> var_add mkey d (lookup t.rets tk)
            | None -> ())
      targets
  in
  let step mkey (m : Ir.meth) b i ins =
    match ins with
    | Ir.New (d, _) | Ir.New_array (d, _, _) -> var_add mkey d (site_set mkey b i)
    | Ir.Const (d, Ir.Cstr _) -> var_add mkey d (site_set mkey b i)
    | Ir.Const _ | Ir.Binop _ | Ir.Unop _ | Ir.Array_length _ | Ir.Instance_of _
    | Ir.Monitor_enter _ | Ir.Monitor_exit _ | Ir.Iter_start | Ir.Iter_end ->
        ()
    | Ir.Move (d, s) | Ir.Cast (d, s, _) -> var_add mkey d (var_set mkey s)
    | Ir.Field_load (d, a, f) -> var_add mkey d (heap_load (var_set mkey a) f)
    | Ir.Field_store (a, f, s) -> heap_store (var_set mkey a) f (var_set mkey s)
    | Ir.Static_load (d, c, f) -> var_add mkey d (lookup t.statics (c, f))
    | Ir.Static_store (c, f, s) -> flow_into t.statics (c, f) (var_set mkey s) changed
    | Ir.Array_load (d, a, _) -> var_add mkey d (heap_load (var_set mkey a) "[]")
    | Ir.Array_store (a, _, s) -> heap_store (var_set mkey a) "[]" (var_set mkey s)
    | Ir.Call (ret, kind, cls, name, recv, args) ->
        bind_call mkey ret recv args (Callgraph.call_targets t.cg kind cls name)
    | Ir.Intrinsic (dst, n, args) ->
        let argv j =
          match List.nth_opt args j with Some (Ir.Var v) -> Some v | _ -> None
        in
        let copy_through src =
          match (dst, src) with
          | Some d, Some sv -> var_add mkey d (var_set mkey sv)
          | _ -> ()
        in
        if List.mem n fresh_site_intrinsics then (
          match dst with
          | Some d -> var_add mkey d (site_set mkey b i)
          | None -> ())
        else if
          String.equal n Rn.pool_resolve
          || String.equal n Rn.facade_read
          || String.equal n Rn.checkcast
        then copy_through (argv 0)
        else if String.equal n Rn.facade_bind then (
          match (argv 0, argv 1) with
          | Some fc, Some r -> var_add mkey fc (var_set mkey r)
          | _ -> ())
        else if String.equal n Rn.run_thread then (
          match argv 0 with
          | Some v ->
              let pv = var_set mkey v in
              List.iter
                (fun tk ->
                  match Callgraph.method_of_key t.cg tk with
                  | Some (_, callee) when not callee.Ir.mstatic ->
                      flow_into t.vars (vkey tk "this") pv changed
                  | Some _ | None -> ())
                (run_keys pv (Ir.var_type m v))
          | None -> ())
        else if String.equal n get_ref then (
          match (dst, argv 0) with
          | Some d, Some base -> var_add mkey d (heap_load (var_set mkey base) "#")
          | _ -> ())
        else if String.equal n set_ref then (
          match (argv 0, argv 2) with
          | Some base, Some src -> heap_store (var_set mkey base) "#" (var_set mkey src)
          | _ -> ())
        else if String.equal n aget_ref then (
          match (dst, argv 0) with
          | Some d, Some base -> var_add mkey d (heap_load (var_set mkey base) "[]")
          | _ -> ())
        else if String.equal n aset_ref then (
          match (argv 0, argv 3) with
          | Some base, Some src -> heap_store (var_set mkey base) "[]" (var_set mkey src)
          | _ -> ())
        else if String.equal n Rn.arraycopy then
          match (argv 0, argv 2) with
          | Some src, Some dstv ->
              heap_store (var_set mkey dstv) "[]" (heap_load (var_set mkey src) "[]")
          | _ -> ()
  in
  while !changed do
    changed := false;
    Callgraph.iter_methods t.cg (fun mkey _ m ->
        Ir.iteri_instrs (step mkey m) m;
        Array.iter
          (fun (blk : Ir.block) ->
            match blk.Ir.term with
            | Ir.Ret (Some v) -> flow_into t.rets mkey (var_set mkey v) changed
            | Ir.Ret None | Ir.Jump _ | Ir.Branch _ -> ())
          m.Ir.body)
  done;
  t

(* ---------- queries ---------- *)

let callgraph t = t.cg

let pts t ~mkey v = lookup t.vars (vkey mkey v)

let class_of t o =
  let s = t.sites.(o) in
  match s.sclass with
  | Some c -> Some c
  | None -> Option.bind s.stid (Hashtbl.find_opt t.tid_class)

let is_summary t o = t.sites.(o).ssummary

let site_of t o =
  let s = t.sites.(o) in
  (s.skey, s.sblock, s.sindex)

let num_objs t = Array.length t.sites

let field_pts t o f = lookup t.heap (o, f)

let fields_of t o =
  Hashtbl.fold (fun (o', f) _ acc -> if o' = o then f :: acc else acc) t.heap []

let static_pts t ~cls ~field = lookup t.statics (cls, field)

let all_static_pts t =
  Hashtbl.fold (fun _ r acc -> Iset.union acc !r) t.statics Iset.empty

let spawn_sites t = t.spawns

let run_targets t ~mkey v =
  let m =
    match Callgraph.method_of_key t.cg mkey with Some (_, m) -> Some m | None -> None
  in
  let p = Callgraph.program t.cg in
  let pv = pts t ~mkey v in
  let of_class c =
    match Facade_compiler.Optimize.declaring p ~name:"run" c with
    | Some d -> [ Callgraph.key ~cls:d ~name:"run" ]
    | None -> []
  in
  let from_pts =
    Iset.fold
      (fun o acc -> match class_of t o with Some c -> of_class c @ acc | None -> acc)
      pv []
  in
  let from_decl =
    match Option.bind m (fun m -> Ir.var_type m v) with
    | Some (Jtype.Ref c) -> of_class c
    | _ -> []
  in
  List.sort_uniq String.compare (from_pts @ from_decl)
