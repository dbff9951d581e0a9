open Jir
module A = Analysis
module Rn = Facade_compiler.Rt_names

(* Escape-analysis-driven lock elision. A monitor can only be contended
   when the object it locks is reachable by a second thread, so:

   - a program with no [sys.run_thread] anywhere is single-threaded and
     every [monitorenter]/[monitorexit] (and P' [lock.enter]/[lock.exit])
     is removable;
   - otherwise a monitor is removable when every abstract object its
     operand may point to is provably non-escaping per {!A.Escape} — never
     handed to a spawned thread or a static field. An empty points-to set
     keeps the monitor: no alias information means no proof.

   Enter and exit sites decide on the same (method, variable) predicate,
   so pairing (and the Monitors lint) is preserved. The elision does not
   change any pagestore metric — the shared lock pool allocates no page
   records — only the executed instruction count and the lock-pool peak. *)

let as_monitor ins =
  match ins with
  | Ir.Monitor_enter v | Ir.Monitor_exit v -> Some v
  | Ir.Intrinsic (None, n, [ Ir.Var v ])
    when String.equal n Rn.lock_enter || String.equal n Rn.lock_exit ->
      Some v
  | _ -> None

(* Drops every monitor whose (method, variable) pair [keep] rejects. *)
let strip keep =
  let count = ref 0 in
  let strip_meth ~cls (m : Ir.meth) =
    let mkey = A.Callgraph.key ~cls ~name:m.Ir.mname in
    Ir.map_blocks
      (fun _ (blk : Ir.block) ->
        let instrs =
          List.filter
            (fun ins ->
              match as_monitor ins with
              | Some v when not (keep mkey v) ->
                  incr count;
                  false
              | Some _ | None -> true)
            blk.Ir.instrs
        in
        { blk with Ir.instrs })
      m
  in
  Pass.counted count strip_meth

let pass p =
  if not (A.Races.has_spawn p) then strip (fun _ _ -> false)
  else begin
    let pt = A.Pointsto.build p in
    let esc = A.Escape.build pt in
    let keep mkey v =
      let s = A.Pointsto.pts pt ~mkey v in
      A.Pointsto.Iset.is_empty s
      || A.Pointsto.Iset.exists (fun o -> A.Escape.escapes esc o) s
    in
    strip keep
  end

let run ?changed p = Pass.run ?changed (pass p) p
