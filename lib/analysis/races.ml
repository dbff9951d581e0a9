open Jir
module Iset = Pointsto.Iset
module Rn = Facade_compiler.Rt_names
module Smap = Map.Make (String)

(* Eraser-style static race detection over the spawn/join structure of
   FACADE programs.

   Thread structure. The only spawn primitive is the [sys.run_thread]
   intrinsic, and the only join is the enclosing iteration boundary:
   the runtime joins every outstanding thread at [Iter_end] (the paper's
   iteration-based reclamation depends on it). So happens-before is
   simple: an access in the spawning thread is concurrent with a spawned
   thread's execution iff it sits on a path between the [run_thread] site
   and the next [Iter_end]; two spawned threads are concurrent iff their
   spawn regions overlap — which, with iteration-scoped joins, reduces to
   "spawned in the same open region".

   Locksets. Must-held monitor sets are computed per method with the same
   forward dataflow as {!Monitors} (both [monitorenter] and the P'
   [lock.*] intrinsics), then mapped to abstract lock objects: a held
   variable only discharges a race if it must-aliases a single non-summary
   object — otherwise two threads may lock different objects. Entry
   locksets propagate interprocedurally as the intersection over all
   reachable call sites.

   Sibling precision. Two threads spawned from the same open region with
   receivers that must-alias the same single object share all their state,
   and get the full per-field lockset check (the [threads] sample and its
   seeded racy twin). Sibling threads whose receivers are distinct or
   summary objects follow the FACADE worker idiom — each worker owns its
   slice of the data — and are checked against each other only through
   static fields; this is a deliberate bug-finder tradeoff, documented in
   DESIGN.md §12, that keeps partitioned workers (pagerank-par) quiet. *)

let analysis = "race"

type access = {
  amkey : string;
  ablock : int;
  aindex : int;
  abase : Iset.t option;  (* None: static, keyed by afield = "Cls.f" *)
  afield : string;
  awrite : bool;
}

(* ---------- lockset dataflow (per method, over variables) ---------- *)

type lstate = Lunreached | Lheld of int Smap.t

module Lsolve = Dataflow.Solver (struct
  type t = lstate

  let equal a b =
    match (a, b) with
    | Lunreached, Lunreached -> true
    | Lheld x, Lheld y -> Smap.equal Int.equal x y
    | (Lunreached | Lheld _), _ -> false

  (* Must-analysis: meet is intersection with min depth. *)
  let join a b =
    match (a, b) with
    | Lunreached, x | x, Lunreached -> x
    | Lheld x, Lheld y ->
        Lheld
          (Smap.merge
             (fun _ a b ->
               match (a, b) with Some a, Some b -> Some (min a b) | _ -> None)
             x y)
end)

let lock_step st ins =
  match st with
  | Lunreached -> st
  | Lheld m -> (
      match (Monitors.as_enter ins, Monitors.as_exit ins) with
      | Some v, _ -> Lheld (Smap.add v (Option.value ~default:0 (Smap.find_opt v m) + 1) m)
      | None, Some v ->
          Lheld
            (match Smap.find_opt v m with
            | None | Some 1 -> Smap.remove v m
            | Some d -> Smap.add v (d - 1) m)
      | None, None -> st)

(* held variable sets at every (block, index) position of a method *)
let locksets_of (m : Ir.meth) =
  if Array.length m.Ir.body = 0 then [||]
  else begin
    let cfg = Cfg.of_method m in
    let r =
      Lsolve.solve ~dir:Dataflow.Forward ~cfg ~init:(Lheld Smap.empty)
        ~bottom:Lunreached
        ~transfer:(fun b st -> List.fold_left lock_step st m.Ir.body.(b).Ir.instrs)
    in
    Array.mapi
      (fun b (blk : Ir.block) ->
        let st = ref r.Lsolve.inb.(b) in
        Array.of_list
          (List.map
             (fun ins ->
               let held =
                 match !st with
                 | Lheld m -> Smap.fold (fun v _ acc -> v :: acc) m []
                 | Lunreached -> []
               in
               st := lock_step !st ins;
               held)
             blk.Ir.instrs))
      m.Ir.body
  end

(* A held variable discharges races only when it must-aliases one
   non-summary object. *)
let lock_objs pt mkey vars =
  List.filter_map
    (fun v ->
      let s = Pointsto.pts pt ~mkey v in
      match Iset.elements s with
      | [ o ] when not (Pointsto.is_summary pt o) -> Some o
      | _ -> None)
    vars
  |> List.sort_uniq Int.compare

(* ---------- spawn regions (per method, over spawn-site ids) ---------- *)

module Ss = Set.Make (Int)

type sstate = Sunreached | Sopen of Ss.t

module Ssolve = Dataflow.Solver (struct
  type t = sstate

  let equal a b =
    match (a, b) with
    | Sunreached, Sunreached -> true
    | Sopen x, Sopen y -> Ss.equal x y
    | (Sunreached | Sopen _), _ -> false

  (* May-analysis: union. *)
  let join a b =
    match (a, b) with
    | Sunreached, x | x, Sunreached -> x
    | Sopen x, Sopen y -> Sopen (Ss.union x y)
end)

(* ---------- the detector ---------- *)

let has_spawn p =
  List.exists
    (fun (c : Ir.cls) ->
      List.exists
        (fun m ->
          let found = ref false in
          Ir.iter_instrs
            (function
              | Ir.Intrinsic (_, n, _) when String.equal n Rn.run_thread -> found := true
              | _ -> ())
            m;
          !found)
        c.Ir.cmethods)
    (Program.classes p)

let is_page_get n =
  String.length n > 7 && String.equal (String.sub n 0 7) "rt.get_"

let is_page_set n =
  String.length n > 7 && String.equal (String.sub n 0 7) "rt.set_"

let is_page_aget n =
  String.length n > 8 && String.equal (String.sub n 0 8) "rt.aget_"

let is_page_aset n =
  String.length n > 8 && String.equal (String.sub n 0 8) "rt.aset_"

let page_field = function
  | Some (Ir.Imm (Ir.Cint off)) -> Printf.sprintf "#%d" off
  | _ -> "#?"

let fields_clash a b =
  String.equal a b
  || (String.length a > 0 && a.[0] = '#' && String.length b > 0 && b.[0] = '#'
     && (String.equal a "#?" || String.equal b "#?"))

(* Access events of one instruction (base variable resolved later). *)
let accesses_of_instr pt mkey (ins : Ir.instr) =
  let base v = Some (Pointsto.pts pt ~mkey v) in
  match ins with
  | Ir.Field_load (_, a, f) -> [ (base a, f, false) ]
  | Ir.Field_store (a, f, _) -> [ (base a, f, true) ]
  | Ir.Static_load (_, c, f) -> [ (None, c ^ "." ^ f, false) ]
  | Ir.Static_store (c, f, _) -> [ (None, c ^ "." ^ f, true) ]
  | Ir.Array_load (_, a, _) -> [ (base a, "[]", false) ]
  | Ir.Array_store (a, _, _) -> [ (base a, "[]", true) ]
  | Ir.Intrinsic (_, n, args) -> (
      let argv j =
        match List.nth_opt args j with Some (Ir.Var v) -> Some v | _ -> None
      in
      let on_base j f w =
        match argv j with Some v -> [ (base v, f, w) ] | None -> []
      in
      if is_page_get n then on_base 0 (page_field (List.nth_opt args 1)) false
      else if is_page_set n then on_base 0 (page_field (List.nth_opt args 1)) true
      else if is_page_aget n then on_base 0 "[]" false
      else if is_page_aset n then on_base 0 "[]" true
      else if String.equal n Rn.arraycopy then
        on_base 0 "[]" false @ on_base 2 "[]" true
      else [])
  | _ -> []

let conflict (e1 : access) (l1 : Iset.t) (e2 : access) (l2 : Iset.t) =
  (e1.awrite || e2.awrite)
  && fields_clash e1.afield e2.afield
  && (match (e1.abase, e2.abase) with
     | None, None -> true (* same static field: afields already equal *)
     | Some b1, Some b2 -> not (Iset.is_empty (Iset.inter b1 b2))
     | None, Some _ | Some _, None -> false)
  && Iset.is_empty (Iset.inter l1 l2)

let check (p : Program.t) =
  if not (has_spawn p) then []
  else begin
    let cg = Callgraph.build p in
    let pt = Pointsto.build ~cg p in
    let spawns =
      (* only spawns reachable from the entry create threads *)
      List.filter (fun (mk, _, _, _) -> Callgraph.is_reachable cg mk)
        (Pointsto.spawn_sites pt)
    in
    if spawns = [] then []
    else begin
      let spawn_arr = Array.of_list spawns in
      let spawn_id = Hashtbl.create 8 in
      Array.iteri (fun i (mk, b, ix, _) -> Hashtbl.replace spawn_id (mk, b, ix) i) spawn_arr;
      (* --- per-spawn child method sets --- *)
      let child_methods =
        Array.map
          (fun (mk, _, _, v) -> Callgraph.reachable_from cg (Pointsto.run_targets pt ~mkey:mk v))
          spawn_arr
      in
      (* --- open-region dataflow in every method containing spawns --- *)
      let spawn_methods =
        List.sort_uniq String.compare (List.map (fun (mk, _, _, _) -> mk) spawns)
      in
      (* (mkey, block, index) -> open spawn set at that position; plus the
         set open at each call site, to taint callees *)
      let open_at = Hashtbl.create 64 in
      let callee_open = Hashtbl.create 16 in
      List.iter
        (fun mk ->
          match Callgraph.method_of_key cg mk with
          | None -> ()
          | Some (_, m) when Array.length m.Ir.body = 0 -> ()
          | Some (_, m) ->
              let cfg = Cfg.of_method m in
              let step_pos b i st ins =
                match st with
                | Sunreached -> st
                | Sopen s -> (
                    match ins with
                    | Ir.Iter_end -> Sopen Ss.empty
                    | Ir.Intrinsic (None, n, [ Ir.Var _ ])
                      when String.equal n Rn.run_thread -> (
                        match Hashtbl.find_opt spawn_id (mk, b, i) with
                        | Some id -> Sopen (Ss.add id s)
                        | None -> st)
                    | _ -> st)
              in
              let r =
                Ssolve.solve ~dir:Dataflow.Forward ~cfg ~init:(Sopen Ss.empty)
                  ~bottom:Sunreached
                  ~transfer:(fun b st ->
                    List.fold_left
                      (fun (st, i) ins -> (step_pos b i st ins, i + 1))
                      (st, 0) m.Ir.body.(b).Ir.instrs
                    |> fst)
              in
              Array.iteri
                (fun b (blk : Ir.block) ->
                  let st = ref r.Ssolve.inb.(b) in
                  List.iteri
                    (fun i ins ->
                      (match !st with
                      | Sopen s when not (Ss.is_empty s) -> (
                          Hashtbl.replace open_at (mk, b, i) s;
                          (* calls made while spawns are open run their
                             whole callee closure concurrently *)
                          match ins with
                          | Ir.Call (_, kind, cls, name, _, _) ->
                              List.iter
                                (fun tk ->
                                  let prev =
                                    Option.value ~default:Ss.empty
                                      (Hashtbl.find_opt callee_open tk)
                                  in
                                  Hashtbl.replace callee_open tk (Ss.union prev s))
                                (Callgraph.call_targets cg kind cls name)
                          | _ -> ())
                      | _ -> ());
                      st := step_pos b i !st ins)
                    blk.Ir.instrs)
                m.Ir.body)
        spawn_methods;
      (* close callee_open over call edges *)
      let changed = ref true in
      while !changed do
        changed := false;
        Hashtbl.iter
          (fun tk s ->
            List.iter
              (fun tk' ->
                let prev = Option.value ~default:Ss.empty (Hashtbl.find_opt callee_open tk') in
                if not (Ss.subset s prev) then begin
                  Hashtbl.replace callee_open tk' (Ss.union prev s);
                  changed := true
                end)
              (Callgraph.callees cg tk))
          (Hashtbl.copy callee_open)
      done;
      (* --- interprocedural entry locksets (intersection over call sites) --- *)
      let locksets = Hashtbl.create 32 in
      Callgraph.iter_methods cg (fun mk _ m -> Hashtbl.replace locksets mk (locksets_of m));
      let held_at mk b i =
        match Hashtbl.find_opt locksets mk with
        | Some arr when b < Array.length arr && i < Array.length arr.(b) ->
            lock_objs pt mk arr.(b).(i)
        | _ -> []
      in
      let entry_locks : (string, Iset.t option ref) Hashtbl.t = Hashtbl.create 32 in
      (* None = "no call site seen yet" = top *)
      Callgraph.iter_methods cg (fun mk _ _ -> Hashtbl.replace entry_locks mk (ref None));
      let entry_of mk =
        match Hashtbl.find_opt entry_locks mk with
        | Some { contents = Some s } -> s
        | _ -> Iset.empty
      in
      let changed = ref true in
      while !changed do
        changed := false;
        Callgraph.iter_methods cg (fun mk _ m ->
            Ir.iteri_instrs
              (fun b i ins ->
                match ins with
                | Ir.Call (_, kind, cls, name, _, _) ->
                    let here =
                      Iset.union (entry_of mk) (Iset.of_list (held_at mk b i))
                    in
                    List.iter
                      (fun tk ->
                        match Hashtbl.find_opt entry_locks tk with
                        | None -> ()
                        | Some r -> (
                            match !r with
                            | None ->
                                r := Some here;
                                changed := true
                            | Some prev ->
                                let next = Iset.inter prev here in
                                if not (Iset.equal next prev) then begin
                                  r := Some next;
                                  changed := true
                                end))
                      (Callgraph.call_targets cg kind cls name)
                | _ -> ())
              m)
      done;
      (* entry methods of spawned threads start with no inherited locks:
         the spawner's held monitors are not held by the child *)
      Array.iter
        (fun (mk, _, _, v) ->
          List.iter
            (fun tk ->
              match Hashtbl.find_opt entry_locks tk with
              | Some r -> r := Some Iset.empty
              | None -> ())
            (Pointsto.run_targets pt ~mkey:mk v))
        spawn_arr;
      let lockset_at mk b i = Iset.union (entry_of mk) (Iset.of_list (held_at mk b i)) in
      (* --- collect events --- *)
      let events_of_method mk =
        match Callgraph.method_of_key cg mk with
        | None -> []
        | Some (_, m) ->
            let acc = ref [] in
            Ir.iteri_instrs
              (fun b i ins ->
                List.iter
                  (fun (abase, afield, awrite) ->
                    let skip =
                      match abase with
                      | Some s -> Iset.is_empty s
                      | None -> false
                    in
                    if not skip then
                      acc :=
                        { amkey = mk; ablock = b; aindex = i; abase; afield; awrite }
                        :: !acc)
                  (accesses_of_instr pt mk ins))
              m;
            List.rev !acc
      in
      let child_events =
        Array.map
          (fun methods ->
            List.concat_map events_of_method
              (List.sort String.compare
                 (Hashtbl.fold (fun k () acc -> k :: acc) methods [])))
          child_methods
      in
      (* spawner events: any access at an open position, or anywhere in a
         method reachable from a call made at an open position *)
      let spawner_events = ref [] in
      Callgraph.iter_methods cg (fun mk _ m ->
          let whole_open = Option.value ~default:Ss.empty (Hashtbl.find_opt callee_open mk) in
          Ir.iteri_instrs
            (fun b i ins ->
              let pos_open =
                Ss.union whole_open
                  (Option.value ~default:Ss.empty (Hashtbl.find_opt open_at (mk, b, i)))
              in
              if not (Ss.is_empty pos_open) then
                List.iter
                  (fun (abase, afield, awrite) ->
                    let skip =
                      match abase with Some s -> Iset.is_empty s | None -> false
                    in
                    if not skip then
                      spawner_events :=
                        ( { amkey = mk; ablock = b; aindex = i; abase; afield; awrite },
                          pos_open )
                        :: !spawner_events)
                  (accesses_of_instr pt mk ins))
            m);
      (* --- must-alias gating between sibling threads --- *)
      let recv_singleton s =
        let mk, _, _, v = spawn_arr.(s) in
        match Iset.elements (Pointsto.pts pt ~mkey:mk v) with
        | [ o ] when not (Pointsto.is_summary pt o) -> Some o
        | _ -> None
      in
      let siblings_share s1 s2 =
        match (recv_singleton s1, recv_singleton s2) with
        | Some a, Some b -> a = b
        | _ -> false
      in
      let multi_spawn s =
        let mk, b, _, _ = spawn_arr.(s) in
        if not (String.equal mk (Callgraph.entry_key cg)) then true
        else
          match Callgraph.method_of_key cg mk with
          | Some (_, m) when Array.length m.Ir.body > 0 ->
              let cyc = Pointsto.blocks_in_cycle m in
              b < Array.length cyc && cyc.(b)
          | _ -> false
      in
      (* overlap: two spawn ids ever open simultaneously? *)
      let overlaps = Hashtbl.create 16 in
      let note_overlap s1 s2 =
        if s1 <> s2 || multi_spawn s1 then begin
          let a, b = if s1 <= s2 then (s1, s2) else (s2, s1) in
          Hashtbl.replace overlaps (a, b) ()
        end
      in
      Hashtbl.iter
        (fun _ s -> Ss.iter (fun a -> Ss.iter (fun b -> note_overlap a b) s) s)
        open_at;
      Hashtbl.iter
        (fun _ s -> Ss.iter (fun a -> Ss.iter (fun b -> note_overlap a b) s) s)
        callee_open;
      (* --- conflicts --- *)
      let findings = ref [] in
      let seen = Hashtbl.create 16 in
      let spawn_desc s =
        let mk, b, i, _ = spawn_arr.(s) in
        Printf.sprintf "%s:b%d/%d" mk b i
      in
      let report (e : access) (e' : access) why =
        let k = (e.amkey, e.ablock, e.aindex, e.afield, e'.amkey) in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          let what =
            Printf.sprintf
              "possible data race on %s: %s here and %s at %s:b%d/%d with disjoint locksets (%s)"
              (if e.abase = None then "static field " ^ e.afield
               else "field " ^ e.afield)
              (if e.awrite then "write" else "read")
              (if e'.awrite then "write" else "read")
              e'.amkey e'.ablock e'.aindex why
          in
          findings :=
            Finding.make ~analysis ~where:e.amkey ~block:e.ablock ~index:e.aindex
              ~severity:Finding.Warning what
            :: !findings
        end
      in
      let lockset_of (e : access) = lockset_at e.amkey e.ablock e.aindex in
      (* spawner × child *)
      List.iter
        (fun ((e : access), open_set) ->
          Ss.iter
            (fun s ->
              List.iter
                (fun (e' : access) ->
                  if conflict e (lockset_of e) e' (lockset_of e') then
                    report e e'
                      (Printf.sprintf "spawner is concurrent with thread spawned at %s"
                         (spawn_desc s)))
                child_events.(s))
            open_set)
        !spawner_events;
      (* child × child for overlapping spawns *)
      Hashtbl.iter
        (fun (s1, s2) () ->
          let full = siblings_share s1 s2 in
          List.iter
            (fun (e : access) ->
              List.iter
                (fun (e' : access) ->
                  let applicable =
                    full || (e.abase = None && e'.abase = None)
                  in
                  if applicable && conflict e (lockset_of e) e' (lockset_of e') then
                    report e e'
                      (Printf.sprintf "threads spawned at %s and %s run concurrently"
                         (spawn_desc s1) (spawn_desc s2)))
                child_events.(s2))
            child_events.(s1))
        overlaps;
      Finding.sort !findings
    end
  end
