type severity = Info | Warning | Error

type t = {
  analysis : string;
  where : string;
  block : int;
  index : int;
  what : string;
  severity : severity;
}

let make ~analysis ~where ?(block = -1) ?(index = -1) ?(severity = Error) what =
  { analysis; where; block; index; what; severity }

let of_verify_error (e : Jir.Verify.error) =
  make ~analysis:"verify" ~where:e.Jir.Verify.where e.Jir.Verify.what

let severity_label = function Info -> "info" | Warning -> "warning" | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let at_least sev t = severity_rank t.severity >= severity_rank sev

(* CLI/CI ordering: (file is handled by the caller) method, location,
   then pass name — so diffs of lint output are stable across runs and
   hash-table iteration orders. *)
let compare a b =
  let c = String.compare a.where b.where in
  if c <> 0 then c
  else
    let c = Int.compare a.block b.block in
    if c <> 0 then c
    else
      let c = Int.compare a.index b.index in
      if c <> 0 then c
      else
        let c = String.compare a.analysis b.analysis in
        if c <> 0 then c else String.compare a.what b.what

let sort findings = List.sort_uniq compare findings

let to_string f =
  if f.block < 0 then Printf.sprintf "%s: [%s] %s" f.where f.analysis f.what
  else if f.index < 0 then Printf.sprintf "%s: b%d: [%s] %s" f.where f.block f.analysis f.what
  else Printf.sprintf "%s: b%d/%d: [%s] %s" f.where f.block f.index f.analysis f.what

let to_json f =
  Obs.Json.(
    Obj
      [
        ("analysis", Str f.analysis); ("severity", Str (severity_label f.severity));
        ("where", Str f.where); ("block", of_int f.block); ("index", of_int f.index);
        ("what", Str f.what);
      ])

let list_to_json ?file findings =
  Obs.Json.(
    Obj
      (Option.fold ~none:[] ~some:(fun f -> [ ("file", Str f) ]) file
      @ [
          ("count", of_int (List.length findings));
          ("findings", List (List.map to_json findings));
        ]))
