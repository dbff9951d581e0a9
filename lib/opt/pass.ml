open Jir

(* The method-level plumbing the program passes share. A pass is a
   per-method rewrite plus the counter it reports: [rewrite ~cls m]
   returns the new method and whether it differs from [m], and [count ()]
   reads the pass's reported count so far. Each pass builds a fresh one
   per program, so the counter starts at zero. *)
type t = {
  rewrite : cls:string -> Ir.meth -> Ir.meth * bool;
  count : unit -> int;
}

(* [map_methods f p] rewrites each method with [f ~cls m]. A method [f]
   reports unchanged is kept as itself, not as [f]'s equal copy, and a
   class none of whose methods changed is kept whole, so a pass that
   rewrites little allocates little and the unchanged parts of the
   program stay shared with its input. [only] restricts the rewrite to a
   subset of (class, method) pairs — the rest are kept as they are;
   [changed cls m m'] hears of every method [f] reported as rewritten,
   before and after. The driver uses the pair to run its cleanup round
   on exactly the methods an earlier pass touched, and counts each
   pass's output from the rewritten methods alone. Both rest on every
   pass reporting every rewrite it makes. *)
let map_methods ?(only = fun _ _ -> true) ?(changed = fun _ _ _ -> ()) f p =
  List.fold_left
    (fun acc (c : Ir.cls) ->
      let cls = c.Ir.cname in
      let any = ref false in
      let meths =
        List.map
          (fun (m : Ir.meth) ->
            if not (only cls m.Ir.mname) then m
            else begin
              let m', did = f ~cls m in
              if did then begin
                changed cls m m';
                any := true;
                m'
              end
              else m
            end)
          c.Ir.cmethods
      in
      if !any then Program.replace_class acc { c with Ir.cmethods = meths } else acc)
    p (Program.classes p)

let run ?only ?changed t p =
  let p' = map_methods ?only ?changed t.rewrite p in
  (p', t.count ())

(* For passes whose counter moves on every rewrite they make: the method
   changed iff the counter did. *)
let counted count f =
  {
    rewrite =
      (fun ~cls m ->
        let before = !count in
        let m' = f ~cls m in
        (m', !count <> before));
    count = (fun () -> !count);
  }
