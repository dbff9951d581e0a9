(* Single-call probes of one layer, timed from outside over many calls.
   Each returns the median of [reps] batches, weather-adjusted with a
   kernel median taken right before it. *)

module Store = Pagestore.Store

let reps = 5

let adjusted adj per_call =
  let calib = Util.calib_median adj 3 in
  let xs = Array.init reps (fun _ -> per_call ()) in
  Util.median xs *. adj.Util.calib_ref /. calib

(** [Store.get_f64] over 8192 24-byte records, visited in a strided order
    so the walk covers every page; ns per read. *)
let read_f64_ns adj =
  let s = Store.create () in
  Store.register_thread s 0;
  let n = 8192 in
  let addrs = Array.init n (fun _ -> Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:24) in
  Array.iteri (fun i a -> Store.set_f64 s a ~offset:4 (float_of_int i)) addrs;
  let passes = 100 in
  adjusted adj (fun () ->
      let acc = ref 0. in
      let t0 = Util.now () in
      for _ = 1 to passes do
        for i = 0 to n - 1 do
          acc := !acc +. Store.get_f64 s addrs.((i * 7919) land (n - 1)) ~offset:4
        done
      done;
      let dt = Util.now () -. t0 in
      if !acc <> float_of_int (passes * n * (n - 1) / 2) then failwith "read_f64 probe: wrong sum";
      dt *. 1e9 /. float_of_int (passes * n))

(** [Store.alloc_record] of 24-byte records, with an [iteration_end]
    every 4096 records so pages are bulk-reclaimed and recycled; ns per
    allocation. *)
let alloc_ns adj =
  let s = Store.create () in
  Store.register_thread s 0;
  let n = 400_000 in
  adjusted adj (fun () ->
      Store.iteration_start s ~thread:0;
      let t0 = Util.now () in
      for i = 1 to n do
        ignore (Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:24);
        if i land 4095 = 0 then begin
          Store.iteration_end s ~thread:0;
          Store.iteration_start s ~thread:0
        end
      done;
      let dt = Util.now () -. t0 in
      Store.iteration_end s ~thread:0;
      dt *. 1e9 /. float_of_int n)

(** One [Proto] round trip as the service pays it per request: encode
    and decode a submission, then encode and decode an outcome; µs. *)
let codec_us adj =
  let open Service.Proto in
  let sub =
    Submit
      {
        sb_tenant = "alpha";
        sb_prog = Sample "pagerank";
        sb_entry = "";
        sb_workers = 0;
        sb_pages = 0;
        sb_heap_bytes = 0;
      }
  in
  let oc =
    Job_outcome
      {
        oc_result = "1.0000000000000002";
        oc_steps = 10989;
        oc_page_records = 330;
        oc_live_pages = 0;
        oc_peak_native = 65536;
        oc_tier2_compiles = 0;
        oc_tier2_recompiles = 0;
        oc_osr_entries = 0;
        oc_queued_ns = 12345;
        oc_run_ns = 987654;
      }
  in
  let n = 20_000 in
  adjusted adj (fun () ->
      let t0 = Util.now () in
      for _ = 1 to n do
        (match decode_request (encode_request sub) with Ok _ -> () | Error m -> failwith m);
        match decode_response (encode_response oc) with Ok _ -> () | Error m -> failwith m
      done;
      (Util.now () -. t0) *. 1e6 /. float_of_int n)

(** The fixed per-run cost: [run_facade] of the 9-step [strings] sample
    on a warm tier; median µs of single runs. Checked against the
    oracle. *)
let run_fixed_us adj =
  let s = Samples.strings in
  let c = Cold.run ~spec:s.Samples.spec (Jir.Text_format.to_string s.Samples.program) in
  let oracle = Cold.reference s.Samples.program in
  let run () = Facade_vm.Interp.run_facade ~quicken:true ~tier:c.Cold.tier c.Cold.pl in
  for _ = 1 to 50 do
    ignore (run ())
  done;
  adjusted adj (fun () ->
      Util.median
        (Array.init 200 (fun _ ->
             let t0 = Util.now () in
             let o = run () in
             let dt = Util.now () -. t0 in
             if not (Cold.matches oracle o) then failwith "run_fixed probe: output differs from oracle";
             dt *. 1e6)))
