(* Load generator for a running [facade_cli serve] daemon.

   Simulated clients are state machines, not threads: each tenant gets
   one driver thread and one connection, multiplexing as many logical
   clients as asked (thousands are cheap — the protocol is
   submit-then-poll, so a driver sweep services every client in turn).
   Every job is a sequential run of the [pagerank] sample with the
   server's default page and heap asks. Two phases, after a warmup run
   that pays the tier-2 compile:

   - closed loop: [--clients] logical clients per tenant, each keeping
     exactly one job in flight until it has completed [--requests];
     latency is submit-to-completion-observed.
   - open loop: submissions arrive at [--rate] per second per tenant for
     [--duration] seconds regardless of completions; latency is measured
     from the *scheduled* arrival, so a saturated server shows queueing
     delay instead of coordinated omission.

   Writes BENCH_service.json (p50/p90/p99 latency, throughput, per-tenant
   and aggregate counts, warm-tier check, over-quota probe) and is the
   one check of the service gates; it exits 1, naming each failed gate,
   unless
   - every phase has completions and a positive p50, p99 and throughput;
   - every reported tenant's peak pages and peak heap stay within its
     quota;
   - no post-warmup job compiled a method (the shared warm tier must
     make repeats free);
   - with [--probe-overquota], the probe's page ask was rejected with
     the code [quota_pages]. *)

let socket_path = ref "facade.sock"
let tenants = ref "alpha,beta"
let clients = ref 50
let requests = ref 4
let rate = ref 200.0
let duration = ref 2.0
let probe_overquota = ref 0
let probe_tenant = ref "small"
let out_file = ref "BENCH_service.json"
let do_shutdown = ref false

let args =
  [
    ("--socket", Arg.Set_string socket_path, "PATH daemon socket (default facade.sock)");
    ("--tenants", Arg.Set_string tenants, "A,B comma-separated tenant names");
    ("--clients", Arg.Set_int clients, "N closed-loop logical clients per tenant");
    ("--requests", Arg.Set_int requests, "N requests per closed-loop client");
    ("--rate", Arg.Set_float rate, "R open-loop arrivals/s per tenant");
    ("--duration", Arg.Set_float duration, "S open-loop phase length in seconds");
    ( "--probe-overquota",
      Arg.Set_int probe_overquota,
      "PAGES submit one PAGES-page ask for --probe-tenant and require a quota rejection" );
    ("--probe-tenant", Arg.Set_string probe_tenant, "NAME tenant for the over-quota probe");
    ("--out", Arg.Set_string out_file, "FILE output JSON (default BENCH_service.json)");
    ("--shutdown", Arg.Set do_shutdown, " send Shutdown to the daemon when done");
  ]

let usage = "loadgen: drive a facade_cli serve daemon with simulated tenants"

(* Every job runs this sample, sequentially, with the server's default
   page and heap asks. *)
let program = "pagerank"

(* {2 Measurement} *)

type phase_stats = {
  mutable completed : int;
  mutable rejected : int;
  mutable failed : int;
  mutable latencies : float list;  (* seconds *)
  mutable compiles : int;  (* tier-2 compiles reported by completed jobs *)
  mutable t_start : float;
  mutable t_end : float;
}

let fresh_stats () =
  {
    completed = 0;
    rejected = 0;
    failed = 0;
    latencies = [];
    compiles = 0;
    t_start = 0.;
    t_end = 0.;
  }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1 |> max 0))

let summary st =
  let sorted = Array.of_list st.latencies in
  Array.sort compare sorted;
  let wall = st.t_end -. st.t_start in
  let thr = if wall > 0. then float_of_int st.completed /. wall else 0. in
  ( percentile sorted 0.50 *. 1e3,
    percentile sorted 0.90 *. 1e3,
    percentile sorted 0.99 *. 1e3,
    thr )

let note_outcome st t0 (oc : Service.Proto.outcome) =
  st.completed <- st.completed + 1;
  st.latencies <- (Unix.gettimeofday () -. t0) :: st.latencies;
  st.compiles <- st.compiles + oc.Service.Proto.oc_tier2_compiles

let submission tenant =
  {
    Service.Proto.sb_tenant = tenant;
    sb_prog = Sample program;
    sb_entry = "";
    sb_workers = 0;
    sb_pages = 0;
    sb_heap_bytes = 0;
  }

(* {2 Closed loop} *)

type client_state = {
  mutable outstanding : (int * float) option;  (* job id, submit time *)
  mutable remaining : int;
}

let closed_loop_driver tenant st =
  let conn = Service.Client.connect !socket_path in
  let cs = Array.init !clients (fun _ -> { outstanding = None; remaining = !requests }) in
  st.t_start <- Unix.gettimeofday ();
  let live () =
    Array.exists (fun c -> c.outstanding <> None || c.remaining > 0) cs
  in
  while live () do
    let progress = ref false in
    Array.iter
      (fun c ->
        match c.outstanding with
        | Some (id, t0) -> (
            match Service.Client.poll conn id with
            | `Pending -> ()
            | `Outcome oc ->
                note_outcome st t0 oc;
                c.outstanding <- None;
                c.remaining <- c.remaining - 1;
                progress := true
            | `Failed _ ->
                st.failed <- st.failed + 1;
                c.outstanding <- None;
                c.remaining <- c.remaining - 1;
                progress := true
            | `Error m -> failwith ("loadgen: poll error: " ^ m))
        | None when c.remaining > 0 -> (
            match Service.Client.submit conn (submission tenant) with
            | Ok id ->
                progress := true;
                c.outstanding <- Some (id, Unix.gettimeofday ())
            | Error (`Rejected rj)
              when rj.Service.Proto.rj_code = "tenant_inflight"
                   || rj.Service.Proto.rj_code = "queue_full"
                   || ((rj.Service.Proto.rj_code = "quota_pages"
                       || rj.Service.Proto.rj_code = "quota_heap")
                      && rj.Service.Proto.rj_used > 0) ->
                (* Backpressure, not failure: the quota or queue is
                   momentarily full of this tenant's own work, so a
                   closed-loop client just waits for a slot (the sweep
                   delay throttles retries). A quota rejection with
                   [used = 0] means the ask can never fit and stays
                   terminal. *)
                ()
            | Error (`Rejected _) ->
                progress := true;
                st.rejected <- st.rejected + 1;
                c.remaining <- c.remaining - 1
            | Error (`Error m) -> failwith ("loadgen: submit error: " ^ m))
        | None -> ())
      cs;
    if not !progress then Thread.delay 0.0005
  done;
  st.t_end <- Unix.gettimeofday ();
  Service.Client.close conn

(* {2 Open loop} *)

let open_loop_driver tenant st =
  let conn = Service.Client.connect !socket_path in
  let interval = 1.0 /. !rate in
  let outstanding : (int, float) Hashtbl.t = Hashtbl.create 256 in
  st.t_start <- Unix.gettimeofday ();
  let t_stop = st.t_start +. !duration in
  let next_arrival = ref st.t_start in
  let finished = ref false in
  while not !finished do
    let now = Unix.gettimeofday () in
    (* Fire every arrival whose scheduled time has passed; latency is
       anchored to the schedule, not the (possibly late) send. *)
    while !next_arrival <= now && !next_arrival < t_stop do
      let scheduled = !next_arrival in
      next_arrival := !next_arrival +. interval;
      match Service.Client.submit conn (submission tenant) with
      | Ok id -> Hashtbl.replace outstanding id scheduled
      | Error (`Rejected _) -> st.rejected <- st.rejected + 1
      | Error (`Error m) -> failwith ("loadgen: submit error: " ^ m)
    done;
    let done_ids = ref [] in
    Hashtbl.iter
      (fun id t0 ->
        match Service.Client.poll conn id with
        | `Pending -> ()
        | `Outcome oc ->
            note_outcome st t0 oc;
            done_ids := id :: !done_ids
        | `Failed _ ->
            st.failed <- st.failed + 1;
            done_ids := id :: !done_ids
        | `Error m -> failwith ("loadgen: poll error: " ^ m))
      outstanding;
    List.iter (Hashtbl.remove outstanding) !done_ids;
    if Unix.gettimeofday () >= t_stop && Hashtbl.length outstanding = 0 then
      finished := true
    else if !done_ids = [] then Thread.delay 0.0005
  done;
  st.t_end <- Unix.gettimeofday ();
  Service.Client.close conn

(* {2 Output and gates} *)

(* One phase over all its tenants: the merged latencies and completions,
   over the span from the first tenant's start to the last one's end. *)
let phase_total per_tenant =
  let sum f = List.fold_left (fun a (_, st) -> a + f st) 0 per_tenant in
  {
    (fresh_stats ()) with
    completed = sum (fun st -> st.completed);
    compiles = sum (fun st -> st.compiles);
    latencies = List.concat_map (fun (_, st) -> st.latencies) per_tenant;
    t_start = List.fold_left (fun a (_, st) -> min a st.t_start) infinity per_tenant;
    t_end = List.fold_left (fun a (_, st) -> max a st.t_end) 0. per_tenant;
  }

let stats_json st =
  let p50, p90, p99, thr = summary st in
  Obs.Json.
    [
      ("completed", of_int st.completed); ("p50_ms", rounded 3 p50); ("p90_ms", rounded 3 p90);
      ("p99_ms", rounded 3 p99); ("throughput_jps", rounded 2 thr);
    ]

let phase_json per_tenant =
  let tenant (name, st) =
    Obs.Json.(
      Obj
        ((("tenant", Str name) :: stats_json st)
        @ [ ("rejected", of_int st.rejected); ("failed", of_int st.failed) ]))
  in
  Obs.Json.Obj
    (stats_json (phase_total per_tenant)
    @ [ ("tenants", Obs.Json.List (List.map tenant per_tenant)) ])

let tenant_report_json (r : Service.Proto.tenant_report) =
  Obs.Json.(
    Obj
      [
        ("tenant", Str r.tn_name); ("done", of_int r.tn_done); ("failed", of_int r.tn_failed);
        ("rejected", of_int r.tn_rejected); ("peak_pages", of_int r.tn_peak_pages);
        ("peak_heap_bytes", of_int r.tn_peak_heap); ("quota_pages", of_int r.tn_quota_pages);
        ("quota_heap_bytes", of_int r.tn_quota_heap); ("total_steps", of_int r.tn_total_steps);
        ("total_records", of_int r.tn_total_records);
      ])

let fail fmt = Printf.ksprintf Option.some fmt

let phase_failures (name, per_tenant) =
  let total = phase_total per_tenant in
  let p50, _, p99, thr = summary total in
  if total.completed = 0 then [ Printf.sprintf "phase gate: %s has no completions" name ]
  else
    List.filter_map
      (fun (what, v) ->
        if v > 0. then None else fail "phase gate: %s %s is %g, not > 0" name what v)
      [ ("p50_ms", p50); ("p99_ms", p99); ("throughput_jps", thr) ]

let quota_failures (r : Service.Proto.tenant_report) =
  List.filter_map
    (fun (what, peak, quota) ->
      if peak <= quota then None
      else fail "quota gate: tenant %s peak %s %d > quota %d" r.tn_name what peak quota)
    [
      ("pages", r.tn_peak_pages, r.tn_quota_pages);
      ("heap bytes", r.tn_peak_heap, r.tn_quota_heap);
    ]

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let tenant_names =
    String.split_on_char ',' !tenants |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if tenant_names = [] then failwith "loadgen: no tenants";
  let ctl = Service.Client.connect !socket_path in
  (* Warmup: one run pays the tier-2 compiles; everything after must hit
     the shared warm tier. *)
  let warmup_compiles =
    match Service.Client.submit ctl (submission (List.hd tenant_names)) with
    | Ok id -> (
        match Service.Client.wait_outcome ctl id with
        | Ok oc -> oc.Service.Proto.oc_tier2_compiles
        | Error m -> failwith ("loadgen: warmup failed: " ^ m))
    | Error (`Rejected rj) ->
        failwith ("loadgen: warmup rejected: " ^ Service.Proto.reject_message rj)
    | Error (`Error m) -> failwith ("loadgen: warmup error: " ^ m)
  in
  let run_phase driver =
    let per_tenant = List.map (fun t -> (t, fresh_stats ())) tenant_names in
    let threads =
      List.map (fun (t, st) -> Thread.create (fun () -> driver t st) ()) per_tenant
    in
    List.iter Thread.join threads;
    per_tenant
  in
  let phases =
    [ ("closed_loop", run_phase closed_loop_driver); ("open_loop", run_phase open_loop_driver) ]
  in
  let probe =
    if !probe_overquota <= 0 then None
    else
      let ask = { (submission !probe_tenant) with Service.Proto.sb_pages = !probe_overquota } in
      match Service.Client.submit ctl ask with
      | Ok _ -> Some (Error "over-quota probe was accepted")
      | Error (`Rejected rj) -> Some (Ok rj)
      | Error (`Error m) -> Some (Error m)
  in
  let reports =
    List.filter_map
      (fun t ->
        match Service.Client.tenant_report ctl t with Ok r -> Some r | Error _ -> None)
      (List.sort_uniq compare
         (tenant_names @ if !probe_overquota > 0 then [ !probe_tenant ] else []))
  in
  let srv_report = Service.Client.server_report ctl in
  if !do_shutdown then ignore (Service.Client.shutdown ctl);
  Service.Client.close ctl;
  let phase_compiles = (phase_total (List.concat_map snd phases)).compiles in
  let json =
    let open Obs.Json in
    Obj
      (List.map (fun (name, per_tenant) -> (name, phase_json per_tenant)) phases
      @ [
          ( "warm_tier",
            Obj
              [
                ("warmup_compiles", of_int warmup_compiles);
                ("phase_compiles", of_int phase_compiles);
              ] );
        ]
      @ (match probe with
        | None -> []
        | Some (Ok rj) ->
            [
              ( "overquota_probe",
                Obj
                  [
                    ("tenant", Str !probe_tenant); ("code", Str rj.rj_code);
                    ("used", of_int rj.rj_used); ("limit", of_int rj.rj_limit);
                  ] );
            ]
        | Some (Error m) ->
            [ ("overquota_probe", Obj [ ("tenant", Str !probe_tenant); ("error", Str m) ]) ])
      @ [ ("tenant_reports", List (List.map tenant_report_json reports)) ]
      @ (match srv_report with
        | Ok s ->
            [
              ( "server",
                Obj
                  [
                    ("done", of_int s.sv_done); ("failed", of_int s.sv_failed);
                    ("rejected", of_int s.sv_rejected); ("programs", of_int s.sv_programs);
                    ("pool_workers", of_int s.sv_pool_workers);
                  ] );
            ]
        | Error _ -> [])
      @ [
          ( "config",
            Obj
              [
                ("program", Str program); ("tenants", of_int (List.length tenant_names));
                ("clients", of_int !clients); ("requests", of_int !requests); ("rate", Num !rate);
                ("duration", Num !duration);
              ] );
        ])
    |> to_string
  in
  Out_channel.with_open_text !out_file (fun oc -> output_string oc (json ^ "\n"));
  print_endline json;
  let failures =
    List.concat_map phase_failures phases
    @ List.concat_map quota_failures reports
    @ Option.to_list
        (if phase_compiles = 0 then None
         else fail "warm-tier gate: post-warmup jobs compiled %d methods" phase_compiles)
    @
    match probe with
    | None | Some (Ok { Service.Proto.rj_code = "quota_pages"; _ }) -> []
    | Some (Ok rj) ->
        Option.to_list (fail "probe gate: probe rejected with %s, not quota_pages" rj.rj_code)
    | Some (Error m) -> [ "probe gate: " ^ m ]
  in
  List.iter (fun m -> prerr_endline ("loadgen: FAIL: " ^ m)) failures;
  exit (if failures = [] then 0 else 1)
