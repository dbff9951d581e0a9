module T = Tracer

(* ---------- Chrome trace_event JSON ---------- *)

let arg_json = function
  | T.Aint n -> Json.of_int n
  | T.Afloat x -> Json.Num x
  | T.Astr s -> Json.Str s

let event_json ~tid (ev : T.event) =
  let base =
    [
      ("name", Json.Str ev.name);
      ("cat", Json.Str (if ev.cat = "" then "other" else ev.cat));
      ( "ph",
        Json.Str (match ev.ph with T.Begin -> "B" | T.End -> "E" | T.Instant -> "i") );
      ("ts", Json.Num (ev.ts *. 1e6));
      ("pid", Json.Num 1.);
      ("tid", Json.of_int tid);
    ]
  in
  let base = match ev.ph with T.Instant -> base @ [ ("s", Json.Str "t") ] | _ -> base in
  let args =
    let sim = if Float.is_nan ev.sim then [] else [ ("sim_s", Json.Num ev.sim) ] in
    sim @ List.map (fun (k, v) -> (k, arg_json v)) ev.args
  in
  Json.Obj (if args = [] then base else base @ [ ("args", Json.Obj args) ])

let lane_jsons t lid =
  let meta =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.);
        ("tid", Json.of_int lid);
        ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "domain %d" lid)) ]);
      ]
  in
  (* The ring may have overwritten a Begin whose End is still retained;
     such orphan Ends would unbalance the trace, so drop any End seen at
     depth 0 while replaying the retained suffix. *)
  let depth = ref 0 in
  let evs =
    List.filter_map
      (fun (ev : T.event) ->
        match ev.ph with
        | T.Begin ->
            incr depth;
            Some (event_json ~tid:lid ev)
        | T.End ->
            if !depth = 0 then None
            else begin
              decr depth;
              Some (event_json ~tid:lid ev)
            end
        | T.Instant -> Some (event_json ~tid:lid ev))
      (T.lane_events t lid)
  in
  meta :: evs

let chrome_json_string t =
  let events = List.concat_map (lane_jsons t) (T.lanes t) in
  Json.to_string
    (Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ])

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json_string t))

(* ---------- validation ---------- *)

type check = {
  ck_events : int;
  ck_begins : int;
  ck_ends : int;
  ck_instants : int;
  ck_meta : int;
  ck_open : int;
  ck_tids : int;
}

let validate_chrome s =
  let ( let* ) = Result.bind in
  let* root = Json.parse s in
  let* events =
    match Option.bind (Json.member "traceEvents" root) Json.to_list with
    | Some l -> Ok l
    | None -> Error "missing traceEvents array"
  in
  let begins = ref 0 and ends = ref 0 and instants = ref 0 and meta = ref 0 in
  (* per-tid state: open-span name stack + last timestamp *)
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  let err = ref None in
  List.iteri
    (fun i ev ->
      if !err = None then begin
        let fail msg = err := Some (Printf.sprintf "event %d: %s" i msg) in
        let str k = Option.bind (Json.member k ev) Json.to_str in
        let num k = Option.bind (Json.member k ev) Json.to_float in
        match (str "ph", str "name") with
        | None, _ -> fail "missing ph"
        | _, None -> fail "missing name"
        | Some ph, Some name -> (
            match (Option.bind (Json.member "tid" ev) Json.to_int, num "pid") with
            | None, _ -> fail "missing tid"
            | _, None -> fail "missing pid"
            | Some tid, Some _ ->
                if ph = "M" then incr meta
                else
                  (match num "ts" with
                  | None -> fail "missing ts"
                  | Some ts -> (
                      let lt =
                        match Hashtbl.find_opt last_ts tid with
                        | Some r -> r
                        | None ->
                            let r = ref neg_infinity in
                            Hashtbl.replace last_ts tid r;
                            r
                      in
                      if ts < !lt then
                        fail (Printf.sprintf "tid %d: ts went backwards" tid)
                      else begin
                        lt := ts;
                        let stack =
                          match Hashtbl.find_opt stacks tid with
                          | Some r -> r
                          | None ->
                              let r = ref [] in
                              Hashtbl.replace stacks tid r;
                              r
                        in
                        match ph with
                        | "B" ->
                            incr begins;
                            stack := name :: !stack
                        | "E" -> (
                            incr ends;
                            match !stack with
                            | top :: rest ->
                                if top <> name then
                                  fail
                                    (Printf.sprintf
                                       "tid %d: E %S does not match open B %S" tid name top)
                                else stack := rest
                            | [] -> fail (Printf.sprintf "tid %d: E with no open B" tid))
                        | "i" -> incr instants
                        | _ -> fail (Printf.sprintf "unknown ph %S" ph)
                      end)))
      end)
    events;
  match !err with
  | Some e -> Error e
  | None ->
      let opened = Hashtbl.fold (fun _ st acc -> acc + List.length !st) stacks 0 in
      Ok
        {
          ck_events = List.length events;
          ck_begins = !begins;
          ck_ends = !ends;
          ck_instants = !instants;
          ck_meta = !meta;
          ck_open = opened;
          ck_tids = Hashtbl.length last_ts;
        }

(* ---------- profile report ---------- *)

let ms x = Printf.sprintf "%.3f" (x *. 1000.)
let sim_s x = Printf.sprintf "%.6f" x

let profile_report ?(top = 15) t =
  let buf = Buffer.create 1024 in
  let section title body =
    if body <> "" then begin
      Buffer.add_string buf title;
      Buffer.add_char buf '\n';
      Buffer.add_string buf body;
      Buffer.add_char buf '\n'
    end
  in
  let lanes = T.lanes t in
  Buffer.add_string buf
    (Printf.sprintf
       "== trace summary ==\nevents emitted: %d (dropped: %d)  lanes: %d  open spans: %d  \
        unmatched ends: %d\n\n"
       (T.total_emitted t) (T.total_dropped t) (List.length lanes) (T.open_spans t)
       (T.unmatched_ends t));
  (* top spans by self time *)
  let spans = T.span_stats t in
  (if spans <> [] then
     let tbl =
       Metrics.Table.create
         ~headers:[ "span"; "cat"; "count"; "total ms"; "self ms"; "sim s" ]
     in
     let rec take n = function
       | [] -> []
       | _ when n = 0 -> []
       | x :: tl -> x :: take (n - 1) tl
     in
     List.iter
       (fun (s : T.span_stat) ->
         Metrics.Table.add_row tbl
           [
             s.ss_name;
             s.ss_cat;
             Metrics.Table.cell_int s.ss_count;
             ms s.ss_wall_total;
             ms s.ss_wall_self;
             sim_s s.ss_sim_total;
           ])
       (take top spans);
     section
       (Printf.sprintf "== top spans by self time (top %d of %d) ==" top
          (List.length spans))
       (Metrics.Table.render tbl));
  (* GC pauses *)
  let gc_hists =
    List.filter
      (fun (h : T.hist_stat) ->
        h.hs_name = "gc_pause" || String.length h.hs_name > 9
        && String.sub h.hs_name 0 9 = "gc_pause_")
      (T.hist_stats t)
  in
  (if gc_hists <> [] then
     let tbl =
       Metrics.Table.create
         ~headers:[ "gc"; "pauses"; "total sim s"; "min sim s"; "max sim s" ]
     in
     List.iter
       (fun (h : T.hist_stat) ->
         Metrics.Table.add_row tbl
           [
             h.hs_name;
             Metrics.Table.cell_int h.hs_count;
             sim_s h.hs_sum;
             sim_s h.hs_min;
             sim_s h.hs_max;
           ])
       gc_hists;
     section "== GC pauses (simulated) ==" (Metrics.Table.render tbl));
  (* scheduler + store event counts *)
  let insts = T.instant_counts t in
  let by_cat cat = List.filter (fun ((c, _), _) -> c = cat) insts in
  let inst_section title cat =
    let rows = by_cat cat in
    if rows <> [] then begin
      let tbl = Metrics.Table.create ~headers:[ "event"; "count" ] in
      List.iter
        (fun ((_, name), n) -> Metrics.Table.add_row tbl [ name; Metrics.Table.cell_int n ])
        rows;
      section title (Metrics.Table.render tbl)
    end
  in
  inst_section "== scheduler events ==" "par";
  inst_section "== page store events ==" "store";
  inst_section "== VM events ==" "vm";
  (* counters *)
  let counters = T.counter_stats t in
  (if counters <> [] then
     let tbl = Metrics.Table.create ~headers:[ "counter"; "last"; "samples" ] in
     List.iter
       (fun (c : T.counter_stat) ->
         Metrics.Table.add_row tbl
           [ c.cs_name; Printf.sprintf "%g" c.cs_last; Metrics.Table.cell_int c.cs_count ])
       counters;
     section "== counters ==" (Metrics.Table.render tbl));
  Buffer.contents buf
