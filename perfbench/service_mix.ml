(* The service-mix traffic: two tenants on a [facade_cli serve] daemon in
   its own process, driven by this process as the one load generator.

   It runs in the traced run of pagerank-warm, not as a gated workload of
   its own: on a 2-vCPU virtual machine its client-side latency follows
   the host's wake-up latency, which the calibration kernel does not
   track, and identical runs differed by up to 2x (see METRICS.md). The
   per-layer figures it reports carry no bound.

   The daemon's runners and domain pool, and the generator's connections,
   stay within the host's core count (one generator thread). Phase one is
   an open loop at a fixed rate in windows of seeded arrivals: each window
   holds a fixed count of requests, uniformly placed (a Poisson process
   conditioned on its count), 95% short allocating jobs ([pagerank],
   [iteration], [collections], about 1 ms each, sequential) and 5% long
   [pagerank-par-large] jobs on the daemon's shared domain pool, with kind
   and tenant order seeded. Latency runs from a request's scheduled
   arrival to the poll response that reports its completion; each
   accepted request is polled [poll_interval] after its previous poll
   answered. Between windows the generator drains and runs the
   calibration kernel while the daemon is idle. Phase two is a closed
   loop with one outstanding request per core, measuring capacity. *)

module C = Service.Client
module Proto = Service.Proto

let exe = "_build/default/bin/facade_cli.exe"
let cores = max 1 (Domain.recommended_domain_count ())
let poll_interval = 0.0002
let rate = 100.  (* open-loop arrivals per second, both tenants *)
let window_s = 1.0
let open_windows = 10  (* 1000 open-loop requests *)
let closed_s = 2.0
let long_share = 20  (* one request in [long_share] is a long job *)
let tenants = [| "alpha"; "beta" |]

type kind = { prog : string; workers : int }

let kinds =
  [|
    { prog = "pagerank"; workers = 0 };
    { prog = "iteration"; workers = 0 };
    { prog = "collections"; workers = 0 };
    { prog = "pagerank-par-large"; workers = cores };
  |]

let long_kind = 3

(* What a correct outcome of each kind looks like: the oracle's result,
   and the steps and peak native bytes of the warm-up reply. *)
type expect = { result : string; steps : int; peak_native : int }

(* {2 The daemon} *)

let daemon_pid = ref None

let stop_daemon conn pid =
  (match C.shutdown conn with Ok () -> () | Error m -> Printf.eprintf "daemon shutdown: %s\n%!" m);
  C.close conn;
  let deadline = Util.now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  reap ();
  daemon_pid := None

let () =
  at_exit (fun () ->
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !daemon_pid)

let start_daemon sock =
  (try Sys.remove sock with Sys_error _ -> ());
  (* Quotas (pages, heap MB, in-flight jobs) far above what the mix
     reserves, so admission never rejects a request. *)
  let quota = "65536:8192:1024" in
  let argv =
    [|
      exe; "serve"; "--socket"; sock; "--pool-workers"; string_of_int cores; "--runners"; string_of_int cores;
      "--no-default-tenants"; "--tenant"; tenants.(0) ^ ":" ^ quota; "--tenant"; tenants.(1) ^ ":" ^ quota;
    |]
  in
  let log = Unix.openfile "_perfbench/daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe argv Unix.stdin log log in
  Unix.close log;
  daemon_pid := Some pid;
  let deadline = Util.now () +. 30. in
  let rec connect () =
    match C.connect sock with
    | c -> c
    | exception Unix.Unix_error _ when Util.now () < deadline ->
        Unix.sleepf 0.002;
        connect ()
  in
  (pid, connect ())

let submission tenant k =
  {
    Proto.sb_tenant = tenant;
    sb_prog = Proto.Sample k.prog;
    sb_entry = "";
    sb_workers = k.workers;
    sb_pages = 0;
    sb_heap_bytes = 0;
  }

let wait conn id =
  let rec loop () =
    match C.poll conn id with
    | `Pending ->
        Unix.sleepf poll_interval;
        loop ()
    | `Outcome oc -> oc
    | `Failed m | `Error m -> failwith ("service-mix set-up job failed: " ^ m)
  in
  loop ()

let run_once conn tenant k =
  match C.submit conn (submission tenant k) with
  | Ok id -> wait conn id
  | Error (`Rejected rj) -> failwith ("service-mix set-up rejected: " ^ rj.Proto.rj_code)
  | Error (`Error m) -> failwith ("service-mix set-up: " ^ m)

(* Set-up: the oracle and a local facade run of each program, then the
   daemon from process start to the first warm reply for each program
   (one cold submission that compiles, one warm one). A warm reply must
   match the oracle's result and the local run's step count. *)
let setup sock =
  let local =
    Array.map
      (fun k ->
        let s = List.find (fun s -> s.Samples.name = k.prog) Samples.all in
        let oracle = Cold.reference s.Samples.program in
        let c = Cold.run ~spec:s.Samples.spec (Jir.Text_format.to_string s.Samples.program) in
        if not (Cold.matches oracle c.Cold.first) then
          failwith ("service-mix: local run of " ^ k.prog ^ " differs from oracle");
        (oracle, (Cold.counts c.Cold.first).Cold.steps))
      kinds
  in
  let pid, conn = start_daemon sock in
  let expect =
    Array.mapi
      (fun i k ->
        let oracle, steps = local.(i) in
        let cold = run_once conn tenants.(0) k in
        let warm = run_once conn tenants.(1) k in
        if
          warm.Proto.oc_result <> oracle.Cold.ref_result
          || warm.Proto.oc_steps <> cold.Proto.oc_steps
          || warm.Proto.oc_steps <> steps
          || warm.Proto.oc_tier2_compiles <> 0
        then failwith ("service-mix: warm reply of " ^ k.prog ^ " differs from its reference");
        { result = oracle.Cold.ref_result; steps; peak_native = warm.Proto.oc_peak_native })
      kinds
  in
  (pid, conn, expect)

(* {2 Requests} *)

type req = {
  id : int;  (** generator-side request id *)
  kind : int;
  tenant : int;
  sched : float;
  mutable sent : float;
  mutable job : int;
  mutable done_at : float;
  mutable queued_ms : float;
  mutable run_ms : float;
  mutable polls : int;
  mutable ok : bool;
  mutable rejected : bool;
  mutable lane : int;
}

let new_req id kind tenant sched =
  { id; kind; tenant; sched; sent = 0.; job = -1; done_at = 0.; queued_ms = 0.; run_ms = 0.; polls = 0; ok = false;
    rejected = false; lane = 0 }

(* {2 Pipelined connections}

   The generator never waits on the daemon: a request frame is written
   the moment it is due, and responses are read when the socket is
   readable. The daemon answers one connection's frames in order, so each
   connection keeps a FIFO of response handlers. *)

type pconn = { fd : Unix.file_descr; rbuf : Buffer.t; handlers : (Proto.response -> unit) Queue.t }

let pconnect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; rbuf = Buffer.create 4096; handlers = Queue.create () }

let send pc req k =
  let payload = Proto.encode_request req in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  let rec write off = if off < 4 + n then write (off + Unix.write pc.fd b off (4 + n - off)) in
  write 0;
  Queue.add k pc.handlers

let chunk = Bytes.create 65536

let receive pc =
  let n = Unix.read pc.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "service-mix: daemon closed the connection";
  Buffer.add_subbytes pc.rbuf chunk 0 n;
  let s = Buffer.contents pc.rbuf in
  let rec frames off =
    if String.length s - off >= 4 then begin
      let len = Int32.to_int (String.get_int32_be s off) in
      if String.length s - off - 4 >= len then begin
        (match Proto.decode_response (String.sub s (off + 4) len) with
        | Ok r -> (Queue.pop pc.handlers) r
        | Error m -> failwith ("service-mix: bad response: " ^ m));
        frames (off + 4 + len)
      end
      else off
    end
    else off
  in
  let off = frames 0 in
  Buffer.clear pc.rbuf;
  Buffer.add_substring pc.rbuf s off (String.length s - off)

(* The generator's event loop. [next] yields the next request (or None
   when none is ready to be scheduled); each is submitted when due, and
   each accepted one is polled [poll_interval] after its previous poll
   answered. Lanes give each in-flight request its own span stack in the
   trace; all spans of a request carry its id. *)
let drive ?tr conns expect ~next ~on_done =
  let in_flight = ref 0 in
  let polls_due = ref [] in  (* (time, request), unordered *)
  let free_lanes = ref [] and lanes = ref 0 in
  let take_lane () =
    match !free_lanes with
    | l :: rest ->
        free_lanes := rest;
        l
    | [] ->
        incr lanes;
        !lanes
  in
  let conn r = conns.(r.tenant mod Array.length conns) in
  let args r = [ ("request", Obs.Tracer.Aint r.id) ] in
  let span_begin r name =
    Option.iter (fun t -> Obs.Tracer.span_begin t ~lane:r.lane ~args:(args r) ~cat:"service" name) tr
  in
  let span_end r = Option.iter (fun t -> Obs.Tracer.span_end t ~lane:r.lane ()) tr in
  let finish r =
    r.done_at <- Util.now ();
    Option.iter
      (fun t ->
        Obs.Tracer.instant t ~lane:r.lane ~args:(("ok", Obs.Tracer.Aint (Bool.to_int r.ok)) :: args r)
          ~cat:"service" "service.outcome")
      tr;
    span_end r;
    free_lanes := r.lane :: !free_lanes;
    decr in_flight;
    on_done r
  in
  let poll r =
    r.polls <- r.polls + 1;
    span_begin r "service.poll";
    send (conn r) (Proto.Result r.job) (fun resp ->
        span_end r;
        match resp with
        | Proto.Job_status (Proto.Queued | Proto.Running) ->
            polls_due := (Util.now () +. poll_interval, r) :: !polls_due
        | Proto.Job_outcome oc ->
            r.queued_ms <- float_of_int oc.Proto.oc_queued_ns /. 1e6;
            r.run_ms <- float_of_int oc.Proto.oc_run_ns /. 1e6;
            let e = expect.(r.kind) in
            r.ok <-
              oc.Proto.oc_result = e.result && oc.Proto.oc_steps = e.steps
              && oc.Proto.oc_peak_native = e.peak_native;
            finish r
        | Proto.Job_failed _ -> finish r
        | _ -> failwith "service-mix: unexpected response to a poll")
  in
  let submit r =
    r.sent <- Util.now ();
    r.lane <- take_lane ();
    incr in_flight;
    span_begin r "request";
    span_begin r "service.submit";
    send (conn r) (Proto.Submit (submission tenants.(r.tenant) kinds.(r.kind))) (fun resp ->
        span_end r;
        match resp with
        | Proto.Accepted id ->
            r.job <- id;
            polls_due := (Util.now () +. poll_interval, r) :: !polls_due
        | Proto.Rejected _ ->
            r.rejected <- true;
            finish r
        | _ -> failwith "service-mix: unexpected response to a submission")
  in
  let pending = ref None in
  let continue = ref true in
  while !continue do
    if Option.is_none !pending then pending := next ();
    let now = Util.now () in
    (match !pending with
    | Some r when r.sched <= now ->
        submit r;
        pending := None
    | _ -> ());
    let due, later = List.partition (fun (t, _) -> t <= now) !polls_due in
    polls_due := later;
    List.iter (fun (_, r) -> poll r) due;
    if Option.is_none !pending && !in_flight = 0 then continue := false
    else begin
      let wake = match !pending with Some r -> r.sched | None -> infinity in
      let wake = List.fold_left (fun acc (t, _) -> Float.min acc t) wake !polls_due in
      let timeout = if wake = infinity then 1.0 else Float.max 0. (wake -. Util.now ()) in
      let fds = Array.to_list (Array.map (fun pc -> pc.fd) conns) in
      match Unix.select fds [] [] timeout with
      | ready, _, _ -> Array.iter (fun pc -> if List.mem pc.fd ready then receive pc) conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done

(* A seeded deck of request kinds with exact proportions: per
   [long_share] requests one long job, the rest short kinds in turn. *)
let kind_of i = if i mod long_share = long_share - 1 then long_kind else i mod long_share mod 3

let deck rng n =
  let d = Array.init n kind_of in
  Compile_cold.shuffle rng d;
  d

(** Run the traffic once against a fresh daemon; per-layer metrics. *)
let probe ~(adj : Util.adjuster) ~seed =
  let sock = Printf.sprintf "_perfbench/serve-%d.sock" (Unix.getpid ()) in
  let rng = Random.State.make [| seed; 0x5e2f |] in
  let tr = Obs.Tracer.create () in
  let per_window = int_of_float (rate *. window_s) in
  let calibs = ref [] in
  let calibrate () =
    for _ = 1 to 3 do
      calibs := Calib.run_ms adj.Util.part :: !calibs
    done
  in
  let next_id = ref 0 in
  let fresh kind tenant sched =
    incr next_id;
    new_req !next_id kind tenant sched
  in
  let pid, conn, expect = setup sock in
  (* At most [cores] connections at any time: the set-up client closes
     before the generator's own connections open. *)
  C.close conn;
  let conns = Array.init (min cores (Array.length tenants)) (fun _ -> pconnect sock) in
  let cpu0 = Util.cpu_ms pid in
  calibrate ();
  (* Phase one: open-loop windows. *)
  let done_open = ref [] in
  for _ = 1 to open_windows do
    let kinds_w = deck rng per_window in
    let offsets = Array.init per_window (fun _ -> Random.State.float rng window_s) in
    Array.sort compare offsets;
    let t0 = Util.now () +. 0.001 in
    let reqs = Array.mapi (fun i k -> fresh k (Random.State.int rng 2) (t0 +. offsets.(i))) kinds_w in
    let i = ref 0 in
    drive ~tr conns expect
      ~next:(fun () ->
        if !i < per_window then begin
          incr i;
          Some reqs.(!i - 1)
        end
        else None)
      ~on_done:(fun r -> done_open := r :: !done_open);
    calibrate ()
  done;
  (* Phase two: closed loop, one outstanding request per core. *)
  let kinds_c = deck rng 4000 in
  let completed_c = ref 0 and done_closed = ref [] in
  let t_c1 = Util.now () +. closed_s in
  let ready = Queue.create () in
  for c = 0 to cores - 1 do
    Queue.add c ready
  done;
  let client_of = Hashtbl.create 8 in
  drive conns expect
    ~next:(fun () ->
      if Util.now () >= t_c1 || Queue.is_empty ready then None
      else begin
        let c = Queue.pop ready in
        let r = fresh kinds_c.(!next_id mod Array.length kinds_c) (c mod 2) (Util.now ()) in
        Hashtbl.replace client_of r.id c;
        Some r
      end)
    ~on_done:(fun r ->
      if r.done_at <= t_c1 then incr completed_c;
      done_closed := r :: !done_closed;
      Queue.add (Hashtbl.find client_of r.id) ready);
  calibrate ();
  let cpu_ms = Util.cpu_ms pid -. cpu0 in
  Array.iter (fun pc -> Unix.close pc.fd) conns;
  stop_daemon (C.connect sock) pid;
  let all = !done_open @ !done_closed in
  let good = List.length (List.filter (fun r -> r.ok) all) in
  let adjust ms = ms *. adj.Util.calib_ref /. Util.median_l !calibs in
  let ms_of f l = Array.of_list (List.map f l) in
  let o = !done_open in
  let lat = ms_of (fun r -> adjust ((r.done_at -. r.sched) *. 1e3)) o in
  let from_sent r = (r.done_at -. r.sent) *. 1e3 in
  let pick f l = ms_of (fun r -> adjust (f r)) l in
  let queue = pick (fun r -> r.queued_ms) o and run = pick (fun r -> r.run_ms) o in
  (* Add-up check: the daemon's queue and run time must fit inside the
     client-observed time of every completed request (0.1 ms slack for
     the two processes' clock reads). *)
  let fits = List.for_all (fun r -> (not r.ok) || r.queued_ms +. r.run_ms <= from_sent r +. 0.1) o in
  let polls = List.fold_left (fun acc r -> acc + r.polls) 0 all in
  let lag = ms_of (fun r -> (r.sent -. r.sched) *. 1e3) o in
  let per_good x = x /. float_of_int (max 1 good) in
  let traced_ok = Util.export_trace tr "_perfbench/trace-service-mix.json" in
  let layers =
    [
      ("service.latency_ms_p50", Util.percentile lat 0.5);
      ("service.latency_ms_p99", Util.percentile lat 0.99);
      ("service.throughput_per_s", float_of_int !completed_c /. (adjust (closed_s *. 1e3) /. 1e3));
      ("service.queue_ms_p50", Util.percentile queue 0.5);
      ("service.queue_ms_p99", Util.percentile queue 0.99);
      ("service.run_ms_p50", Util.percentile run 0.5);
      ("parallel.par_job_run_ms_p50", Util.median (pick (fun r -> r.run_ms) (List.filter (fun r -> r.kind = long_kind) o)));
      ("service.overhead_ms_p50", Util.median (pick (fun r -> from_sent r -. r.queued_ms -. r.run_ms) o));
      ("service.polls_per_request", per_good (float_of_int polls));
      ("service.daemon_cpu_ms_per_request", per_good cpu_ms);
      ("service.rejected", float_of_int (List.length (List.filter (fun r -> r.rejected) all)));
      ("loadgen.lag_ms_p99", Util.percentile lag 0.99);
    ]
  in
  (fits && traced_ok, List.length all, List.length all - good, layers)
