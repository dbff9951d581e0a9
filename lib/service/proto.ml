(* Wire protocol for [facade_cli serve].

   Frames are length-prefixed: a 4-byte big-endian payload length
   followed by that many bytes. Payloads are a tag byte plus fixed-width
   big-endian fields (u8, u32, u64) and u32-length-prefixed strings —
   deliberately not a textual format, so the fuzz suite can exercise the
   decoder on genuinely arbitrary bytes.

   The decoder is total: [decode_request]/[decode_response] return
   [Error _] on any malformed input and never raise, which is what lets
   the daemon answer garbage with a structured [Err] instead of dying. *)

let max_frame_bytes = 1 lsl 20
(* Largest accepted payload (1 MiB). A reader that sees a larger length
   prefix rejects the frame without attempting to buffer it. *)

type prog = Sample of string
(* Programs are addressed by name in the daemon's registry (the bundled
   samples); the daemon compiles each once and serves every later
   submission from the warm pipeline + tier. *)

type submit = {
  sb_tenant : string;
  sb_prog : prog;
  sb_entry : string;  (* "" = the program's own entry; validated otherwise *)
  sb_workers : int;  (* 0 = sequential, n>0 = parallel on the shared pool *)
  sb_pages : int;  (* requested page reservation; 0 = server default *)
  sb_heap_bytes : int;  (* requested native-byte reservation; 0 = default *)
}

type request =
  | Submit of submit
  | Status of int
  | Result of int
  | Tenant_stats of string
  | Server_stats
  | Shutdown

type reject = {
  rj_code : string;
  (* one of: unknown_program, unknown_entry, unknown_tenant, quota_pages,
     quota_heap, tenant_inflight, queue_full, bad_request *)
  rj_detail : string;
  rj_used : int;
  rj_limit : int;
}

type outcome = {
  oc_result : string;
  oc_steps : int;
  oc_page_records : int;
  oc_live_pages : int;
  oc_peak_native : int;
  oc_tier2_compiles : int;
  oc_tier2_recompiles : int;  (* always 0; kept for the wire format *)
  oc_osr_entries : int;  (* always 0; kept for the wire format *)
  oc_queued_ns : int;
  oc_run_ns : int;
}

type tenant_report = {
  tn_name : string;
  tn_done : int;
  tn_failed : int;
  tn_rejected : int;
  tn_inflight : int;
  tn_pages_reserved : int;
  tn_heap_reserved : int;
  tn_peak_pages : int;
  tn_peak_heap : int;
  tn_quota_pages : int;
  tn_quota_heap : int;
  tn_total_steps : int;
  tn_total_records : int;
}

type server_report = {
  sv_queued : int;
  sv_running : int;
  sv_done : int;
  sv_failed : int;
  sv_rejected : int;
  sv_programs : int;
  sv_tier_compiles : int;
  sv_pool_workers : int;
}

type status = Queued | Running | Finished | Failed

type response =
  | Accepted of int
  | Rejected of reject
  | Job_status of status
  | Job_outcome of outcome
  | Job_failed of string
  | Tenant_report of tenant_report
  | Server_report of server_report
  | Err of string
  | Bye

(* {2 Primitive writers} *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Proto.put_u32";
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u64 b v =
  if v < 0 then invalid_arg "Proto.put_u64";
  for i = 7 downto 0 do
    put_u8 b (v lsr (i * 8))
  done

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

(* {2 Primitive readers}

   [Bad] is internal: the public decode entry points catch it (and any
   other exception, as a belt) and return [Error]. *)

exception Bad of string

type cur = { buf : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.buf then raise (Bad "truncated payload")

let get_u8 c =
  need c 1;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  let a = get_u8 c in
  let b = get_u8 c in
  let d = get_u8 c in
  let e = get_u8 c in
  (a lsl 24) lor (b lsl 16) lor (d lsl 8) lor e

let get_u64 c =
  let v = ref 0 in
  for _ = 1 to 8 do
    let byte = get_u8 c in
    if !v lsr 55 <> 0 then raise (Bad "u64 overflows native int");
    v := (!v lsl 8) lor byte
  done;
  !v

let get_str c =
  let n = get_u32 c in
  if n > max_frame_bytes then raise (Bad "string length exceeds frame cap");
  need c n;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let finish c v =
  if c.pos <> String.length c.buf then raise (Bad "trailing bytes in payload");
  v

(* {2 Requests} *)

let encode_request r =
  let b = Buffer.create 64 in
  (match r with
  | Submit s ->
      put_u8 b 0x01;
      put_str b s.sb_tenant;
      (match s.sb_prog with
      | Sample name ->
          put_u8 b 0x00;
          put_str b name);
      put_str b s.sb_entry;
      put_u8 b s.sb_workers;
      put_u32 b s.sb_pages;
      put_u64 b s.sb_heap_bytes
  | Status id ->
      put_u8 b 0x02;
      put_u64 b id
  | Result id ->
      put_u8 b 0x03;
      put_u64 b id
  | Tenant_stats t ->
      put_u8 b 0x04;
      put_str b t
  | Server_stats -> put_u8 b 0x05
  | Shutdown -> put_u8 b 0x06);
  Buffer.contents b

let decode_request s =
  let c = { buf = s; pos = 0 } in
  try
    Ok
      (finish c
         (match get_u8 c with
         | 0x01 ->
             let sb_tenant = get_str c in
             let sb_prog =
               match get_u8 c with
               | 0x00 -> Sample (get_str c)
               | t -> raise (Bad (Printf.sprintf "unknown program kind 0x%02x" t))
             in
             let sb_entry = get_str c in
             let sb_workers = get_u8 c in
             let sb_pages = get_u32 c in
             let sb_heap_bytes = get_u64 c in
             Submit { sb_tenant; sb_prog; sb_entry; sb_workers; sb_pages; sb_heap_bytes }
         | 0x02 -> Status (get_u64 c)
         | 0x03 -> Result (get_u64 c)
         | 0x04 -> Tenant_stats (get_str c)
         | 0x05 -> Server_stats
         | 0x06 -> Shutdown
         | t -> raise (Bad (Printf.sprintf "unknown request tag 0x%02x" t))))
  with
  | Bad m -> Error m
  | _ -> Error "malformed request"

(* {2 Responses} *)

let put_reject b r =
  put_str b r.rj_code;
  put_str b r.rj_detail;
  put_u64 b r.rj_used;
  put_u64 b r.rj_limit

let get_reject c =
  let rj_code = get_str c in
  let rj_detail = get_str c in
  let rj_used = get_u64 c in
  let rj_limit = get_u64 c in
  { rj_code; rj_detail; rj_used; rj_limit }

let encode_response r =
  let b = Buffer.create 64 in
  (match r with
  | Accepted id ->
      put_u8 b 0x81;
      put_u64 b id
  | Rejected rj ->
      put_u8 b 0x82;
      put_reject b rj
  | Job_status st ->
      put_u8 b 0x83;
      put_u8 b
        (match st with Queued -> 0 | Running -> 1 | Finished -> 2 | Failed -> 3)
  | Job_outcome o ->
      put_u8 b 0x84;
      put_str b o.oc_result;
      put_u64 b o.oc_steps;
      put_u64 b o.oc_page_records;
      put_u64 b o.oc_live_pages;
      put_u64 b o.oc_peak_native;
      put_u64 b o.oc_tier2_compiles;
      put_u64 b o.oc_tier2_recompiles;
      put_u64 b o.oc_osr_entries;
      put_u64 b o.oc_queued_ns;
      put_u64 b o.oc_run_ns
  | Job_failed m ->
      put_u8 b 0x85;
      put_str b m
  | Tenant_report t ->
      put_u8 b 0x86;
      put_str b t.tn_name;
      put_u64 b t.tn_done;
      put_u64 b t.tn_failed;
      put_u64 b t.tn_rejected;
      put_u64 b t.tn_inflight;
      put_u64 b t.tn_pages_reserved;
      put_u64 b t.tn_heap_reserved;
      put_u64 b t.tn_peak_pages;
      put_u64 b t.tn_peak_heap;
      put_u64 b t.tn_quota_pages;
      put_u64 b t.tn_quota_heap;
      put_u64 b t.tn_total_steps;
      put_u64 b t.tn_total_records
  | Server_report s ->
      put_u8 b 0x87;
      put_u64 b s.sv_queued;
      put_u64 b s.sv_running;
      put_u64 b s.sv_done;
      put_u64 b s.sv_failed;
      put_u64 b s.sv_rejected;
      put_u64 b s.sv_programs;
      put_u64 b s.sv_tier_compiles;
      put_u64 b s.sv_pool_workers
  | Err m ->
      put_u8 b 0x88;
      put_str b m
  | Bye -> put_u8 b 0x89);
  Buffer.contents b

let decode_response s =
  let c = { buf = s; pos = 0 } in
  try
    Ok
      (finish c
         (match get_u8 c with
         | 0x81 -> Accepted (get_u64 c)
         | 0x82 -> Rejected (get_reject c)
         | 0x83 -> (
             match get_u8 c with
             | 0 -> Job_status Queued
             | 1 -> Job_status Running
             | 2 -> Job_status Finished
             | 3 -> Job_status Failed
             | v -> raise (Bad (Printf.sprintf "unknown status %d" v)))
         | 0x84 ->
             let oc_result = get_str c in
             let oc_steps = get_u64 c in
             let oc_page_records = get_u64 c in
             let oc_live_pages = get_u64 c in
             let oc_peak_native = get_u64 c in
             let oc_tier2_compiles = get_u64 c in
             let oc_tier2_recompiles = get_u64 c in
             let oc_osr_entries = get_u64 c in
             let oc_queued_ns = get_u64 c in
             let oc_run_ns = get_u64 c in
             Job_outcome
               {
                 oc_result;
                 oc_steps;
                 oc_page_records;
                 oc_live_pages;
                 oc_peak_native;
                 oc_tier2_compiles;
                 oc_tier2_recompiles;
                 oc_osr_entries;
                 oc_queued_ns;
                 oc_run_ns;
               }
         | 0x85 -> Job_failed (get_str c)
         | 0x86 ->
             let tn_name = get_str c in
             let tn_done = get_u64 c in
             let tn_failed = get_u64 c in
             let tn_rejected = get_u64 c in
             let tn_inflight = get_u64 c in
             let tn_pages_reserved = get_u64 c in
             let tn_heap_reserved = get_u64 c in
             let tn_peak_pages = get_u64 c in
             let tn_peak_heap = get_u64 c in
             let tn_quota_pages = get_u64 c in
             let tn_quota_heap = get_u64 c in
             let tn_total_steps = get_u64 c in
             let tn_total_records = get_u64 c in
             Tenant_report
               {
                 tn_name;
                 tn_done;
                 tn_failed;
                 tn_rejected;
                 tn_inflight;
                 tn_pages_reserved;
                 tn_heap_reserved;
                 tn_peak_pages;
                 tn_peak_heap;
                 tn_quota_pages;
                 tn_quota_heap;
                 tn_total_steps;
                 tn_total_records;
               }
         | 0x87 ->
             let sv_queued = get_u64 c in
             let sv_running = get_u64 c in
             let sv_done = get_u64 c in
             let sv_failed = get_u64 c in
             let sv_rejected = get_u64 c in
             let sv_programs = get_u64 c in
             let sv_tier_compiles = get_u64 c in
             let sv_pool_workers = get_u64 c in
             Server_report
               {
                 sv_queued;
                 sv_running;
                 sv_done;
                 sv_failed;
                 sv_rejected;
                 sv_programs;
                 sv_tier_compiles;
                 sv_pool_workers;
               }
         | 0x88 -> Err (get_str c)
         | 0x89 -> Bye
         | t -> raise (Bad (Printf.sprintf "unknown response tag 0x%02x" t))))
  with
  | Bad m -> Error m
  | _ -> Error "malformed response"

(* {2 Framing}

   Channel-based: sockets are wrapped with
   [Unix.in_channel_of_descr]/[out_channel_of_descr]. [read_frame]
   distinguishes a clean EOF at a frame boundary ([Error `Eof]) from a
   malformed frame ([Error (`Bad _)]): the daemon closes quietly on the
   former and answers [Err] before closing on the latter. *)

let write_frame oc payload =
  let n = String.length payload in
  if n > max_frame_bytes then invalid_arg "Proto.write_frame: payload too large";
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (n land 0xff));
  output_bytes oc hdr;
  output_string oc payload;
  flush oc

let read_frame ic =
  match really_input_string ic 4 with
  | exception End_of_file -> Error `Eof
  | exception Sys_error _ -> Error `Eof
  | hdr -> (
      let n =
        (Char.code hdr.[0] lsl 24)
        lor (Char.code hdr.[1] lsl 16)
        lor (Char.code hdr.[2] lsl 8)
        lor Char.code hdr.[3]
      in
      if n = 0 then Error (`Bad "empty frame")
      else if n > max_frame_bytes then
        Error (`Bad (Printf.sprintf "oversized frame (%d bytes > %d cap)" n max_frame_bytes))
      else
        match really_input_string ic n with
        | payload -> Ok payload
        | exception End_of_file -> Error (`Bad "truncated frame")
        | exception Sys_error _ -> Error (`Bad "truncated frame"))

let reject_message r =
  Printf.sprintf "%s: %s (used=%d limit=%d)" r.rj_code r.rj_detail r.rj_used r.rj_limit
