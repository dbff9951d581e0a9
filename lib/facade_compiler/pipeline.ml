type validation_error = {
  vwhere : string;
  vwhat : string;
}

exception Invalid_transform of validation_error list

(* Post-transform validation: the invariants of P′ that the runtime
   depends on and that no later stage re-checks. A failure here is a
   compiler bug (the transform emitted something the bounds or the
   closed-world rules forbid), so it runs on every compilation. *)
let validate_transformed cl bounds (p' : Jir.Program.t) =
  let errs = ref [] in
  let err vwhere vwhat = errs := { vwhere; vwhat } :: !errs in
  let in_data_path cname =
    Classify.is_boundary_class cl cname
    ||
    match Transform.facade_base cname with
    | Some base -> Classify.is_data_class cl base
    | None -> false
  in
  List.iter
    (fun (c : Jir.Ir.cls) ->
      let data_path = in_data_path c.Jir.Ir.cname in
      List.iter
        (fun (m : Jir.Ir.meth) ->
          let where = c.Jir.Ir.cname ^ "." ^ m.Jir.Ir.mname in
          Jir.Ir.iter_instrs
            (fun ins ->
              match ins with
              | Jir.Ir.New (_, dc) when data_path && Classify.is_data_class cl dc ->
                  err where
                    (Printf.sprintf "surviving heap allocation of data class %s" dc)
              | Jir.Ir.Intrinsic
                  ( _,
                    name,
                    [ Jir.Ir.Imm (Jir.Ir.Cint tid); Jir.Ir.Imm (Jir.Ir.Cint i) ] )
                when String.equal name Rt_names.pool_param ->
                  let b =
                    match Bounds.bound bounds ~type_id:tid with
                    | b -> b
                    | exception Invalid_argument _ -> 0
                  in
                  if i < 0 || i >= b then
                    err where
                      (Printf.sprintf "pool.param index %d outside bound %d for type id %d"
                         i b tid)
              | _ -> ())
            m)
        c.Jir.Ir.cmethods)
    (Jir.Program.classes p');
  List.rev !errs

type artifact = ..

type t = {
  original : Jir.Program.t;
  transformed : Jir.Program.t;
  classification : Classify.t;
  layout : Layout.t;
  bounds : Bounds.t;
  conversions : string list;
  instrs_in : int;
  instrs_out : int;
  classes_transformed : int;
  seconds : float;
  mutable artifact : artifact option;
}

let artifact t = t.artifact
let set_artifact t a = t.artifact <- Some a

let compile ?(devirtualize = true) ?oversize_static_threshold ~spec p =
  let t0 = Unix.gettimeofday () in
  let cl = Classify.classify p spec in
  Assumptions.check_or_fail p cl;
  let p = if devirtualize then Optimize.devirtualize p else p in
  let layout = Layout.compute p cl in
  let bounds = Bounds.compute p cl layout in
  let r = Transform.run p cl layout bounds ?oversize_static_threshold () in
  (match validate_transformed cl bounds r.Transform.program with
  | [] -> ()
  | errs -> raise (Invalid_transform errs));
  let seconds = Unix.gettimeofday () -. t0 in
  {
    original = p;
    transformed = r.Transform.program;
    classification = cl;
    layout;
    bounds;
    conversions = r.Transform.conversions;
    instrs_in = r.Transform.instrs_in;
    instrs_out = r.Transform.instrs_out;
    classes_transformed = r.Transform.classes_transformed;
    seconds;
    artifact = None;
  }

let instrs_per_second t =
  if t.seconds <= 0.0 then infinity else float_of_int t.instrs_in /. t.seconds

let facades_per_thread t = Bounds.total_facades_per_thread t.bounds
