(* One row of the per-pass report: how many instructions the program had
   before/after the pass plus the pass's own primary counter (sites folded,
   copies propagated, instructions removed, sites devirtualized, calls
   inlined). *)

type t = {
  pass : string;
  instrs_before : int;
  instrs_after : int;
  metric : string;
  count : int;
}

let removed d = d.instrs_before - d.instrs_after

let to_string d =
  Printf.sprintf "%-12s %5d -> %5d instrs (%+d)  %s=%d" d.pass d.instrs_before
    d.instrs_after (d.instrs_after - d.instrs_before) d.metric d.count

(* "instrs_removed" for the shrinkage, so a pass whose own metric is
   "removed" (dce) cannot produce a duplicate key *)
let to_json d =
  Obs.Json.(
    Obj
      [
        ("pass", Str d.pass); ("instrs_before", of_int d.instrs_before);
        ("instrs_after", of_int d.instrs_after); ("instrs_removed", of_int (removed d));
        (d.metric, of_int d.count);
      ])
