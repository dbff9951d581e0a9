(* The service layer: wire-protocol codec and framing (directed + fuzz),
   admission control and runtime quota enforcement, co-tenant isolation
   (directed bit-exactness and a qcheck interleaving property), and the
   Unix-socket daemon end-to-end — including that garbage on one
   connection never takes the daemon down. *)

module P = Service.Proto
module Tn = Service.Tenant
module Eng = Service.Engine
module Sch = Service.Scheduler
module Srv = Service.Server
module Cl = Service.Client

let sub ?(tenant = "t") ?(prog = "fig2") ?(entry = "") ?(workers = 0) ?(pages = 0)
    ?(heap = 0) () =
  {
    P.sb_tenant = tenant;
    sb_prog = P.Sample prog;
    sb_entry = entry;
    sb_workers = workers;
    sb_pages = pages;
    sb_heap_bytes = heap;
  }

(* ---------- codec ---------- *)

let gen_str = QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 40))
let gen_nat = QCheck.Gen.int_bound (1 lsl 40)

let gen_request =
  let open QCheck.Gen in
  frequency
    [
      ( 4,
        map
          (fun (tenant, prog, entry, (workers, pages, heap)) ->
            P.Submit
              {
                P.sb_tenant = tenant;
                sb_prog = P.Sample prog;
                sb_entry = entry;
                sb_workers = workers;
                sb_pages = pages;
                sb_heap_bytes = heap;
              })
          (quad gen_str gen_str gen_str
             (triple (int_bound 255) (int_bound 0xffff_ffff) gen_nat)) );
      (2, map (fun id -> P.Status id) gen_nat);
      (2, map (fun id -> P.Result id) gen_nat);
      (1, map (fun t -> P.Tenant_stats t) gen_str);
      (1, return P.Server_stats);
      (1, return P.Shutdown);
    ]

let gen_response =
  let open QCheck.Gen in
  let reject =
    map
      (fun (c, d, (u, l)) -> { P.rj_code = c; rj_detail = d; rj_used = u; rj_limit = l })
      (triple gen_str gen_str (pair gen_nat gen_nat))
  in
  let outcome =
    map
      (fun (r, (a, b, c, d), (e, f, g, (h, i))) ->
        {
          P.oc_result = r;
          oc_steps = a;
          oc_page_records = b;
          oc_live_pages = c;
          oc_peak_native = d;
          oc_tier2_compiles = e;
          oc_tier2_recompiles = f;
          oc_osr_entries = g;
          oc_queued_ns = h;
          oc_run_ns = i;
        })
      (triple gen_str
         (quad gen_nat gen_nat gen_nat gen_nat)
         (quad gen_nat gen_nat gen_nat (pair gen_nat gen_nat)))
  in
  frequency
    [
      (2, map (fun id -> P.Accepted id) gen_nat);
      (2, map (fun rj -> P.Rejected rj) reject);
      ( 1,
        map
          (fun s -> P.Job_status s)
          (oneofl [ P.Queued; P.Running; P.Finished; P.Failed ]) );
      (2, map (fun o -> P.Job_outcome o) outcome);
      (1, map (fun m -> P.Job_failed m) gen_str);
      (1, map (fun m -> P.Err m) gen_str);
      (1, return P.Bye);
    ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request codec round-trips" ~count:500
    (QCheck.make gen_request)
    (fun r -> P.decode_request (P.encode_request r) = Ok r)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response codec round-trips" ~count:500
    (QCheck.make gen_response)
    (fun r -> P.decode_response (P.encode_response r) = Ok r)

(* The decoder must be total: arbitrary bytes produce [Ok] or [Error],
   never an exception — this is what stands between a malicious frame
   and a dead daemon. *)
let prop_decoder_total =
  QCheck.Test.make ~name:"decoders never raise on garbage" ~count:1000
    (QCheck.make QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 120)))
    (fun s ->
      (match P.decode_request s with Ok _ | Error _ -> true)
      && match P.decode_response s with Ok _ | Error _ -> true)

let test_codec_directed () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty payload" true (is_err (P.decode_request ""));
  Alcotest.(check bool) "unknown tag" true (is_err (P.decode_request "\x7f"));
  let good = P.encode_request (P.Submit (sub ())) in
  Alcotest.(check bool)
    "truncated submit" true
    (is_err (P.decode_request (String.sub good 0 (String.length good - 3))));
  Alcotest.(check bool) "trailing bytes" true (is_err (P.decode_request (good ^ "\x00")));
  (* A string length field claiming more than the frame cap must be
     rejected before any attempt to read it. *)
  Alcotest.(check bool)
    "huge string length" true
    (is_err (P.decode_request "\x04\xff\xff\xff\xff"))

(* ---------- framing ---------- *)

(* Frames pass through a temp file: same [in_channel] path the daemon
   reads sockets with. *)
let with_bytes bytes f =
  let path = Filename.temp_file "facade_svc" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic))

let frame_bytes payload =
  let b = Buffer.create 64 in
  let n = String.length payload in
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

let test_framing_directed () =
  let bad = function Error (`Bad _) -> true | _ -> false in
  with_bytes (frame_bytes "abc" ^ frame_bytes "") (fun ic ->
      Alcotest.(check bool) "good frame" true (P.read_frame ic = Ok "abc");
      Alcotest.(check bool) "zero-length frame" true (bad (P.read_frame ic)));
  with_bytes (String.sub (frame_bytes "hello world") 0 9) (fun ic ->
      Alcotest.(check bool) "truncated body" true (bad (P.read_frame ic)));
  with_bytes "\x7f\xff\xff\xff" (fun ic ->
      Alcotest.(check bool) "oversized length" true (bad (P.read_frame ic)));
  with_bytes "\x00\x00" (fun ic ->
      Alcotest.(check bool) "partial header is EOF" true (P.read_frame ic = Error `Eof));
  with_bytes "" (fun ic ->
      Alcotest.(check bool) "empty stream is EOF" true (P.read_frame ic = Error `Eof))

let prop_framing_roundtrip =
  QCheck.Test.make ~name:"frames round-trip byte streams" ~count:50
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 5)
           (string_size ~gen:(char_range '\000' '\255') (int_range 1 300))))
    (fun payloads ->
      with_bytes
        (String.concat "" (List.map frame_bytes payloads))
        (fun ic ->
          List.for_all (fun p -> P.read_frame ic = Ok p) payloads
          && P.read_frame ic = Error `Eof))

(* ---------- scheduler helpers ---------- *)

let generous = { Tn.q_pages = 4096; q_heap_bytes = 256 lsl 20; q_inflight = 64 }

(* Two runner threads (the default config), so jobs genuinely overlap. *)
let mk_sched ?(tenants = []) ?default_quota () =
  let engine = Eng.create ~pool_workers:0 in
  let sched = Sch.create ?default_quota ~engine ~tenants () in
  (engine, sched)

let teardown (engine, sched) =
  Sch.stop sched;
  Eng.shutdown engine

let submit_ok sched s =
  match Sch.submit sched s with
  | Ok id -> id
  | Error rj -> Alcotest.failf "unexpected rejection: %s" (P.reject_message rj)

let wait_done sched id =
  match Sch.wait_job sched id with
  | Some (Sch.Done oc) -> oc
  | Some (Sch.Failed m) -> Alcotest.failf "job %d failed: %s" id m
  | _ -> Alcotest.failf "job %d vanished" id

let wait_failed sched id =
  match Sch.wait_job sched id with
  | Some (Sch.Failed m) -> m
  | Some (Sch.Done _) -> Alcotest.failf "job %d unexpectedly succeeded" id
  | _ -> Alcotest.failf "job %d vanished" id

(* Fields a co-tenant could conceivably perturb; queue/run timestamps
   excluded (wall-clock), compile counters compared separately (they
   belong to the shared tier, not the run). *)
let run_key (oc : P.outcome) =
  ( oc.P.oc_result,
    oc.P.oc_steps,
    oc.P.oc_page_records,
    oc.P.oc_live_pages,
    oc.P.oc_peak_native )

(* ---------- admission control ---------- *)

let test_admission_rejects () =
  let tiny = { Tn.q_pages = 2; q_heap_bytes = 1 lsl 20; q_inflight = 4 } in
  let low_heap = { Tn.q_pages = 4096; q_heap_bytes = 100; q_inflight = 4 } in
  let no_jobs = { generous with Tn.q_inflight = 0 } in
  let env =
    mk_sched ~tenants:[ ("small", tiny); ("lowheap", low_heap); ("busy", no_jobs) ] ()
  in
  let _, sched = env in
  Fun.protect ~finally:(fun () -> teardown env) @@ fun () ->
  let code s =
    match Sch.submit sched s with
    | Error rj -> (rj.P.rj_code, rj.P.rj_used, rj.P.rj_limit)
    | Ok _ -> ("accepted", 0, 0)
  in
  (* Default ask is 64 pages / 8 MiB: over the page quota. *)
  Alcotest.(check (triple string int int))
    "page quota" ("quota_pages", 0, 2)
    (code (sub ~tenant:"small" ()));
  Alcotest.(check (triple string int int))
    "heap quota" ("quota_heap", 0, 100)
    (code (sub ~tenant:"lowheap" ()));
  Alcotest.(check (triple string int int))
    "inflight cap" ("tenant_inflight", 0, 0)
    (code (sub ~tenant:"busy" ()));
  (* No default quota: unregistered tenants are turned away. *)
  let c, _, _ = code (sub ~tenant:"nobody" ()) in
  Alcotest.(check string) "unknown tenant" "unknown_tenant" c;
  let c, _, _ = code (sub ~tenant:"small" ~prog:"no_such_program" ()) in
  Alcotest.(check string) "unknown program" "unknown_program" c;
  let c, _, _ = code (sub ~tenant:"small" ~entry:"Nope.nope" ()) in
  Alcotest.(check string) "unknown entry" "unknown_entry" c;
  let c, u, l = code (sub ~tenant:"small" ~workers:99 ()) in
  Alcotest.(check (triple string int int))
    "worker cap" ("bad_request", 99, 16) (c, u, l);
  (* A rejected tenant's ledger stays clean: nothing reserved. *)
  match Sch.tenant sched "small" with
  | None -> Alcotest.fail "tenant record missing"
  | Some tn ->
      Alcotest.(check int) "nothing reserved" 0 tn.Tn.pages_reserved;
      Alcotest.(check bool) "rejections counted" true (tn.Tn.jobs_rejected > 0)

(* Admission grants a reservation; the runtime enforces exactly that
   reservation as a store cap. A 1-page cap on a program that needs more
   fails *inside the run* with the structured quota error — and the
   failure is the tenant's alone. *)
let test_runtime_quota_trip () =
  let env = mk_sched ~default_quota:generous () in
  let _, sched = env in
  Fun.protect ~finally:(fun () -> teardown env) @@ fun () ->
  let id = submit_ok sched (sub ~tenant:"cramped" ~prog:"pagerank" ~pages:1 ()) in
  let msg = wait_failed sched id in
  Alcotest.(check bool)
    (Printf.sprintf "quota message (%s)" msg)
    true
    (String.length msg >= 22 && String.sub msg 0 22 = "quota exceeded: pages ");
  (* The same program under a sufficient cap still runs to completion,
     and the failed run left no reservation behind. *)
  let oc = wait_done sched (submit_ok sched (sub ~tenant:"cramped" ~prog:"pagerank" ())) in
  Alcotest.(check bool) "ran" true (oc.P.oc_steps > 0);
  match Sch.tenant sched "cramped" with
  | None -> Alcotest.fail "tenant record missing"
  | Some tn ->
      Alcotest.(check int) "ledger drained" 0 tn.Tn.pages_reserved;
      Alcotest.(check int) "one failure" 1 tn.Tn.jobs_failed

(* ---------- co-tenant isolation ---------- *)

(* A tenant's run under co-tenant load must be bit-exact with the same
   submission on an otherwise idle scheduler: same result, steps, page
   records, live pages, peak native bytes — and zero compiles either
   way, because both hit the shared warm tier. *)
let test_cotenant_isolation () =
  let env = mk_sched ~default_quota:generous () in
  let _, sched = env in
  Fun.protect ~finally:(fun () -> teardown env) @@ fun () ->
  (* Warm both programs' tiers so compile work doesn't differ between
     the solo and contended runs. *)
  ignore (wait_done sched (submit_ok sched (sub ~tenant:"victim" ~prog:"pagerank" ())));
  ignore (wait_done sched (submit_ok sched (sub ~tenant:"noisy" ~prog:"collections" ())));
  let solo = wait_done sched (submit_ok sched (sub ~tenant:"victim" ~prog:"pagerank" ())) in
  Alcotest.(check int) "solo run is warm" 0 solo.P.oc_tier2_compiles;
  (* Contended: the victim's job runs while the co-tenant churns through
     its own jobs on the other runner. *)
  let noisy_ids =
    List.init 6 (fun _ -> submit_ok sched (sub ~tenant:"noisy" ~prog:"collections" ()))
  in
  let victim_id = submit_ok sched (sub ~tenant:"victim" ~prog:"pagerank" ()) in
  let contended = wait_done sched victim_id in
  List.iter (fun id -> ignore (wait_done sched id)) noisy_ids;
  Alcotest.(check bool)
    "contended == solo, bit-exact" true
    (run_key contended = run_key solo);
  Alcotest.(check int) "steps" solo.P.oc_steps contended.P.oc_steps;
  Alcotest.(check int) "contended run is warm" 0 contended.P.oc_tier2_compiles

(* qcheck: any interleaving of submissions from N tenants (a) never
   drives a tenant's reservation ledger past its quota, and (b) leaves
   per-tenant accounting equal to the same jobs run sequentially —
   every completed job contributes exactly the solo run's steps and
   page records, no matter what ran beside it. *)
let prop_interleaved_tenants =
  let names = [| "t0"; "t1"; "t2" |] in
  QCheck.Test.make ~name:"interleaved tenants: quotas + additive accounting" ~count:6
    (QCheck.make
       ~print:(fun l -> String.concat "" (List.map string_of_int l))
       QCheck.Gen.(list_size (int_range 6 24) (int_bound 2)))
    (fun picks ->
      let engine = Eng.create ~pool_workers:0 in
      Fun.protect ~finally:(fun () -> Eng.shutdown engine) @@ fun () ->
      (* Solo baseline straight through the engine: no tenant involved. *)
      let entry = Option.get (Eng.lookup engine "fig2") in
      let solo =
        (Eng.run engine entry ~workers:0 ~pages:0 ~heap:0 ~max_steps:50_000_000)
          .Eng.r_outcome
      in
      let ask = (2 * solo.P.oc_live_pages) + 4 in
      (* Quota fits two concurrent reservations, not three: with enough
         submissions some are rejected, which is part of the property —
         rejected jobs must not leak into the accounting. *)
      let quota =
        { Tn.q_pages = (2 * ask) + 1; q_heap_bytes = 64 lsl 20; q_inflight = 2 }
      in
      let tenants = Array.to_list (Array.map (fun n -> (n, quota)) names) in
      let sched = Sch.create ~engine ~tenants () in
      Fun.protect ~finally:(fun () -> Sch.stop sched) @@ fun () ->
      let submitted = Array.make (Array.length names) 0 in
      List.iter
        (fun i ->
          submitted.(i) <- submitted.(i) + 1;
          ignore (Sch.submit sched (sub ~tenant:names.(i) ~pages:ask ())))
        picks;
      Sch.wait_idle sched;
      Array.to_list names
      |> List.for_all (fun name ->
             match Sch.tenant_report sched name with
             | None -> false
             | Some r ->
                 r.P.tn_peak_pages <= r.P.tn_quota_pages
                 && r.P.tn_peak_heap <= r.P.tn_quota_heap
                 && r.P.tn_pages_reserved = 0
                 && r.P.tn_inflight = 0
                 && r.P.tn_failed = 0
                 && r.P.tn_total_steps = r.P.tn_done * solo.P.oc_steps
                 && r.P.tn_total_records = r.P.tn_done * solo.P.oc_page_records)
      && Array.to_list names
         |> List.mapi (fun i name ->
                match Sch.tenant_report sched name with
                | Some r -> r.P.tn_done + r.P.tn_rejected = submitted.(i)
                | None -> false)
         |> List.for_all Fun.id)

(* ---------- the daemon over its socket ---------- *)

let sock_path () = Printf.sprintf "/tmp/facade-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000)

let start_server ?(tenants = []) () =
  let cfg =
    {
      Srv.default_config with
      Srv.socket_path = sock_path ();
      pool_workers = 0;
      tenants;
      default_quota = Some generous;
    }
  in
  (Srv.start cfg, cfg.Srv.socket_path)

(* Malformed traffic — an oversized length prefix, then a well-framed
   garbage payload on a fresh connection — must each get a structured
   answer without disturbing the daemon or other connections. *)
let test_daemon_survives_garbage () =
  let srv, path = start_server () in
  Fun.protect ~finally:(fun () -> Srv.stop srv) @@ fun () ->
  (* Connection 1: claim a 2 GiB frame. Server answers Err and hangs up. *)
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc "\x7f\xff\xff\xff";
  flush oc;
  (match P.read_frame ic with
  | Ok payload -> (
      match P.decode_response payload with
      | Ok (P.Err _) -> ()
      | _ -> Alcotest.fail "expected Err for oversized frame")
  | Error _ -> Alcotest.fail "expected a response frame");
  Alcotest.(check bool)
    "server hung up after framing loss" true
    (P.read_frame ic = Error `Eof);
  Unix.close fd;
  (* Connection 2: a well-framed payload that doesn't decode. Err, but
     the connection survives and serves the next request. *)
  let fd2 = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd2 (ADDR_UNIX path);
  let ic2 = Unix.in_channel_of_descr fd2 and oc2 = Unix.out_channel_of_descr fd2 in
  P.write_frame oc2 "\xff\xfe\xfd";
  (match P.read_frame ic2 with
  | Ok payload -> (
      match P.decode_response payload with
      | Ok (P.Err _) -> ()
      | _ -> Alcotest.fail "expected Err for garbage payload")
  | Error _ -> Alcotest.fail "expected a response frame");
  P.write_frame oc2 (P.encode_request P.Server_stats);
  (match P.read_frame ic2 with
  | Ok payload -> (
      match P.decode_response payload with
      | Ok (P.Server_report _) -> ()
      | _ -> Alcotest.fail "expected Server_report after recovery")
  | Error _ -> Alcotest.fail "connection should have survived the bad payload");
  Unix.close fd2;
  (* And the daemon still serves brand-new clients. *)
  let c = Cl.connect path in
  (match Cl.server_report c with
  | Ok r -> Alcotest.(check int) "no jobs ran" 0 r.P.sv_done
  | Error m -> Alcotest.failf "daemon dead after garbage: %s" m);
  Cl.close c

let test_socket_end_to_end () =
  let tiny = { Tn.q_pages = 2; q_heap_bytes = 1 lsl 20; q_inflight = 4 } in
  let srv, path = start_server ~tenants:[ ("small", tiny) ] () in
  let c = Cl.connect path in
  let ok = function Ok v -> v | Error m -> Alcotest.failf "client error: %s" m in
  let oc1 =
    match Cl.submit c (sub ~tenant:"alpha" ~prog:"pagerank" ()) with
    | Ok id -> ok (Cl.wait_outcome c id)
    | Error _ -> Alcotest.fail "first submit rejected"
  in
  (* Same program again: the warm shared tier means zero compiles and
     identical execution. *)
  let oc2 =
    match Cl.submit c (sub ~tenant:"alpha" ~prog:"pagerank" ()) with
    | Ok id -> ok (Cl.wait_outcome c id)
    | Error _ -> Alcotest.fail "second submit rejected"
  in
  Alcotest.(check int) "repeat run compiles nothing" 0 oc2.P.oc_tier2_compiles;
  Alcotest.(check bool) "repeat run bit-exact" true (run_key oc2 = run_key oc1);
  (* Structured rejection crosses the wire intact. *)
  (match Cl.submit c (sub ~tenant:"small" ~prog:"pagerank" ()) with
  | Error (`Rejected rj) ->
      Alcotest.(check string) "probe code" "quota_pages" rj.P.rj_code;
      Alcotest.(check int) "probe limit" 2 rj.P.rj_limit
  | _ -> Alcotest.fail "over-quota submit should be rejected");
  let tr = ok (Cl.tenant_report c "alpha") in
  Alcotest.(check int) "tenant did two jobs" 2 tr.P.tn_done;
  Alcotest.(check int)
    "tenant accounting is additive" (2 * oc1.P.oc_steps) tr.P.tn_total_steps;
  let sr = ok (Cl.server_report c) in
  Alcotest.(check int) "one program compiled once" 1 sr.P.sv_tier_compiles;
  ok (Cl.shutdown c);
  Cl.close c;
  Srv.wait srv;
  Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists path)

let () =
  Random.self_init ();
  Alcotest.run "service"
    [
      ( "proto",
        [
          Alcotest.test_case "directed decode errors" `Quick test_codec_directed;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_decoder_total;
        ] );
      ( "framing",
        [
          Alcotest.test_case "directed framing errors" `Quick test_framing_directed;
          QCheck_alcotest.to_alcotest prop_framing_roundtrip;
        ] );
      ( "admission",
        [
          Alcotest.test_case "structured rejections" `Quick test_admission_rejects;
          Alcotest.test_case "runtime cap = admission reservation" `Quick
            test_runtime_quota_trip;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "co-tenant load leaves runs bit-exact" `Quick
            test_cotenant_isolation;
          QCheck_alcotest.to_alcotest prop_interleaved_tenants;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "garbage frames don't kill the daemon" `Quick
            test_daemon_survives_garbage;
          Alcotest.test_case "socket end-to-end with warm tier" `Quick
            test_socket_end_to_end;
        ] );
    ]
