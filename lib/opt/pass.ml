open Jir

(* The method-level plumbing the program passes share. [map_methods f p]
   rewrites each method with [f ~cls m], which returns the new method and
   whether it differs from [m]. [only] restricts the rewrite to a subset
   of (class, method) pairs — the rest are kept as they are, and classes
   with nothing in scope are not even rebuilt; [changed] hears of every
   method [f] reported as rewritten. The driver uses the pair to run its
   cleanup round on exactly the methods an earlier pass touched. *)

let map_methods ?(only = fun _ _ -> true) ?(changed = fun _ _ -> ()) f p =
  List.fold_left
    (fun acc (c : Ir.cls) ->
      let cls = c.Ir.cname in
      if not (List.exists (fun (m : Ir.meth) -> only cls m.Ir.mname) c.Ir.cmethods) then acc
      else begin
        let meths =
          List.map
            (fun (m : Ir.meth) ->
              if not (only cls m.Ir.mname) then m
              else begin
                let m', did = f ~cls m in
                if did then changed cls m.Ir.mname;
                m'
              end)
            c.Ir.cmethods
        in
        Program.replace_class acc { c with Ir.cmethods = meths }
      end)
    p (Program.classes p)

(* For passes whose per-method counter moves on every rewrite they make:
   the method changed iff the counter did. *)
let counted count f ~cls m =
  let before = !count in
  let m' = f ~cls m in
  (m', !count <> before)
