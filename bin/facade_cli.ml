(* The facade command-line interface.

   facade_cli experiments [NAME] [--quick]  - reproduce the paper's tables/figures
   facade_cli samples                       - list the bundled jir sample programs
   facade_cli demo NAME                     - transform + run a sample in both modes
   facade_cli run NAME [--workers N]        - run a sample's P' on a domain pool
                       [--trace FILE]         (exporting a Chrome trace)
   facade_cli profile NAME [--top N]        - traced run + plain-text profile report
   facade_cli validate-trace FILE           - schema-check an exported Chrome trace
   facade_cli inspect NAME [--original]     - pretty-print a sample (P' by default)
   facade_cli check FILE [--json]           - verify + flow-sensitive analyses
   facade_cli lint FILE [--data ...]        - full FACADE invariant lint
   facade_cli opt-report NAME [--json]      - per-pass optimizer deltas + link and
                                              tier-2 fusion site counts *)

open Cmdliner

let quick =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Use reduced dataset sizes: a fast smoke run, not a gate. Two claims \
           depend on data size and do not hold at the reduced sizes (Table 2's \
           P-vs-P' memory under the 4g budget and GPS's space reduction in P'), \
           so a quick run reports 29/31 and exits non-zero; only the full run \
           checks every claim.")

let no_opt =
  Arg.(
    value & flag
    & info [ "no-opt" ]
        ~doc:
          "Disable the JIR optimizer pipeline; link and execute the facade \
           transform's output as it is.")

let no_tier2 =
  Arg.(
    value & flag
    & info [ "no-tier2" ]
        ~doc:
          "Keep execution on the interpreter (tier 1): no tier-2 closure compiler, \
           so every instruction runs unfused, one jir instruction per step.")

let tier_feedback (rep : Opt.Driver.report option) =
  Option.map
    (fun (r : Opt.Driver.report) ->
      {
        Facade_vm.Compile_tier.fb_mono = r.Opt.Driver.tier_mono;
        fb_leaves = r.Opt.Driver.tier_leaves;
      })
    rep

(* P' as [run] and [profile] execute it: in tier 2 unless [no_tier2],
   with the tier built for the pipeline's cached link (the program
   [run_facade] executes), and on a private pool of [workers] domains
   when given. *)
let run_facade_sample ?heap ~workers ~no_tier2 ~rep pl =
  let tier =
    if no_tier2 then None
    else
      Some
        (Facade_vm.Interp.make_tier ?feedback:(tier_feedback rep)
           (Facade_vm.Link.facade_program pl))
  in
  let run pool = Facade_vm.Interp.run_facade ?heap ?pool ?tier pl in
  match workers with
  | None -> run None
  | Some n -> Parallel.Pool.with_pool ~workers:n (fun p -> run (Some p))

let print_tier_line ~tier2 (o : Facade_vm.Interp.outcome) =
  if tier2 then begin
    let s = o.Facade_vm.Interp.stats in
    Printf.printf "tier2: %d compiled, %d entries, %d deopts\n"
      s.Facade_vm.Exec_stats.tier2_compiles s.Facade_vm.Exec_stats.tier2_entries
      s.Facade_vm.Exec_stats.tier2_deopts;
    Printf.printf "tier2 slots: %d int, %d float, %d boxed\n"
      s.Facade_vm.Exec_stats.tier2_int_slots s.Facade_vm.Exec_stats.tier2_float_slots
      s.Facade_vm.Exec_stats.tier2_boxed_slots;
    Printf.printf "tier2 delegated: %d\n" s.Facade_vm.Exec_stats.tier2_delegated
  end

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Execute spawned threads on a pool of $(docv) OCaml domains \
           (work-stealing scheduler). Without it, each spawned thread runs inline \
           where it is spawned.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record an execution trace and write it to $(docv) as Chrome \
           trace_event JSON (loadable in Perfetto or chrome://tracing).")

let heap_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "heap-mb" ] ~docv:"MB"
        ~doc:
          "Attach a simulated generational heap of $(docv) MiB and report its \
           GC activity (pauses appear in the trace as $(b,gc) spans).")

let heap_of_mb = function
  | None -> None
  | Some mb ->
      if mb < 1 then invalid_arg "--heap-mb must be >= 1";
      Some (Heapsim.Heap.create (Heapsim.Hconfig.make ~heap_bytes:(mb * 1024 * 1024) ()))

let print_gc_lines heap tracer =
  match heap with
  | None -> ()
  | Some h ->
      let gs = Heapsim.Heap.stats h in
      Printf.printf "gc: minors=%d majors=%d\n" gs.Heapsim.Gc_stats.minor_gcs
        gs.Heapsim.Gc_stats.major_gcs;
      Printf.printf "gc_pause_total=%.9f\n" gs.Heapsim.Gc_stats.gc_seconds;
      (match Option.map (fun tr -> Obs.Tracer.hist_stat tr "gc_pause") tracer with
      | Some (Some hs) -> Printf.printf "trace_gc_pause_total=%.9f\n" hs.Obs.Tracer.hs_sum
      | Some None -> Printf.printf "trace_gc_pause_total=0.000000000\n"
      | None -> ())

(* ---------- experiments ---------- *)

let experiments_cmd =
  let exp_name =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf "One of: %s."
               (String.concat ", " Experiments.Harness.selection_names)))
  in
  let run name quick =
    match Experiments.Harness.selection_of_string name with
    | Some sel ->
        let claims = Experiments.Harness.run ~quick sel in
        if Metrics.Report.all_hold claims then `Ok () else `Error (false, "some claims diverge")
    | None -> `Error (true, "unknown experiment " ^ name)
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce the paper's evaluation tables and figures.")
    Term.(ret (const run $ exp_name $ quick))

(* ---------- samples ---------- *)

(* Every bundled sample a command can name: [Samples.all] (the program set
   the benchmarks and [samples] list) plus the two kept out of it —
   [racy_counter], whose threads really race with --workers, and
   [original_calls]. *)
let find_sample name =
  List.find_opt
    (fun s -> String.equal s.Samples.name name)
    (Samples.racy_counter :: Samples.original_calls :: Samples.all)

let samples_cmd =
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-12s %d classes, data path: %s\n" s.Samples.name
          (List.length (Jir.Program.classes s.Samples.program))
          (String.concat ", " s.Samples.spec.Facade_compiler.Classify.data_roots))
      Samples.all
  in
  Cmd.v
    (Cmd.info "samples" ~doc:"List the bundled jir sample programs.")
    Term.(const run $ const ())

(* ---------- demo ---------- *)

let sample_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SAMPLE" ~doc:"Sample name (see $(b,samples)).")

let demo_cmd =
  let run name =
    match find_sample name with
    | None -> `Error (true, "unknown sample " ^ name)
    | Some s ->
        let pl =
          Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program
        in
        Printf.printf "transformed %d classes, %d -> %d instructions, %.3fs\n"
          pl.Facade_compiler.Pipeline.classes_transformed
          pl.Facade_compiler.Pipeline.instrs_in pl.Facade_compiler.Pipeline.instrs_out
          pl.Facade_compiler.Pipeline.seconds;
        let is_data c =
          Facade_compiler.Classify.is_data_class pl.Facade_compiler.Pipeline.classification c
        in
        let o_p =
          Facade_vm.(Interp.run_object_linked (Link.object_program ~is_data s.Samples.program))
        in
        let o_p' = Facade_vm.Interp.run_facade pl in
        let v o =
          match o.Facade_vm.Interp.result with
          | Some x -> Facade_vm.Value.to_string x
          | None -> "-"
        in
        Printf.printf "P : result=%s, data heap objects=%d\n" (v o_p)
          o_p.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects;
        Printf.printf "P': result=%s, page records=%d, facades=%d\n" (v o_p')
          o_p'.Facade_vm.Interp.stats.Facade_vm.Exec_stats.page_records
          o_p'.Facade_vm.Interp.facades_allocated;
        if
          (match o_p.Facade_vm.Interp.result, o_p'.Facade_vm.Interp.result with
          | Some a, Some b -> Facade_vm.Value.equal_ref a b
          | None, None -> true
          | _ -> false)
        then begin
          print_endline "results agree";
          `Ok ()
        end
        else `Error (false, "results diverge")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Transform a sample and run P and P' in the VM.")
    Term.(ret (const run $ sample_arg))

(* ---------- run (facade mode, optional domain pool) ---------- *)

let run_cmd =
  let run name workers no_opt no_tier2 trace heap_mb =
    match find_sample name with
    | None -> `Error (true, "unknown sample " ^ name)
    | Some s -> (
        match workers with
        | Some n when n < 1 -> `Error (true, "--workers must be >= 1")
        | _ ->
            let pl0 =
              Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program
            in
            let pl, rep =
              if no_opt then (pl0, None)
              else
                let pl', r = Opt.Driver.optimize_pipeline pl0 in
                (pl', Some r)
            in
            let heap = heap_of_mb heap_mb in
            let exec () =
              let t0 = Unix.gettimeofday () in
              let o = run_facade_sample ?heap ~workers ~no_tier2 ~rep pl in
              (o, Unix.gettimeofday () -. t0)
            in
            let tracer, (o, wall) =
              match trace with
              | Some _ ->
                  let tr = Obs.Tracer.create () in
                  Obs.Tracer.install tr;
                  let r = Fun.protect ~finally:Obs.Tracer.uninstall exec in
                  (Some tr, r)
              | None -> (None, exec ())
            in
            let result =
              match o.Facade_vm.Interp.result with
              | Some x -> Facade_vm.Value.to_string x
              | None -> "-"
            in
            Printf.printf "result=%s  wall=%.4fs  workers=%s\n" result wall
              (match workers with Some n -> string_of_int n | None -> "sequential");
            Printf.printf
              "steps=%d  page records=%d  facades=%d  locks peak=%d\n"
              o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.steps
              o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.page_records
              o.Facade_vm.Interp.facades_allocated o.Facade_vm.Interp.locks_peak;
            (match o.Facade_vm.Interp.store_stats with
            | Some st ->
                Printf.printf "store: %d records, %d pages created, %d live\n"
                  st.Pagestore.Store.records_allocated
                  st.Pagestore.Store.pages_created st.Pagestore.Store.live_pages
            | None -> ());
            print_tier_line ~tier2:(not no_tier2) o;
            print_gc_lines heap tracer;
            (match (tracer, trace) with
            | Some tr, Some path ->
                Obs.Export.write_chrome tr path;
                Printf.printf "trace written to %s (%d events, %d dropped)\n" path
                  (Obs.Tracer.total_emitted tr) (Obs.Tracer.total_dropped tr)
            | _ -> ());
            (* Parallel runs are re-validated against the static
               boundedness certificate: every pool peak under its certified
               bound, facade count a multiple of the per-thread population.
               The certificate is derived from the pre-optimization P' —
               the compiler's pools are sized from it, and optimized runs
               can only touch fewer slots. *)
            (match workers with
            | None -> `Ok ()
            | Some _ -> (
                let cert = Analysis.Certify.of_pipeline pl0 in
                match Facade_vm.Cert_check.validate pl0 o with
                | Ok () ->
                    Printf.printf
                      "certificate: ok (%d facades/thread certified, paper \
                       count %d)\n"
                      cert.Analysis.Certify.per_thread
                      cert.Analysis.Certify.paper_per_thread;
                    `Ok ()
                | Error errs ->
                    List.iter
                      (fun e -> Printf.printf "certificate: %s\n" e)
                      errs;
                    `Error (false, "boundedness certificate violated"))))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Transform a sample, optimize it unless $(b,--no-opt) is given, and \
          execute P' in facade mode, optionally running its threads in \
          parallel on real OCaml domains. With $(b,--trace), record VM, GC, \
          page-store and scheduler events to a Chrome trace file. Each \
          method is compiled at its first call by the tier-2 closure \
          compiler unless $(b,--no-tier2) is given.")
    Term.(
      ret
        (const run $ sample_arg $ workers_arg $ no_opt $ no_tier2 $ trace_arg
       $ heap_mb_arg))

(* ---------- profile ---------- *)

(* Per-method call counts and inline-cache hit rates from the Exec_stats
   per-method counters, paired with each method's static IC site count. *)
let method_profile ~top rp (stats : Facade_vm.Exec_stats.t) =
  let module R = Facade_vm.Resolved in
  let rows =
    Array.to_list (Array.mapi (fun midx (m : R.meth) -> (midx, m)) rp.R.methods)
    |> List.filter_map (fun (midx, (m : R.meth)) ->
           let calls = Facade_vm.Exec_stats.method_calls stats midx in
           if calls = 0 then None else Some (midx, m, calls))
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let tbl =
    Metrics.Table.create
      ~headers:[ "method"; "calls"; "ic sites"; "ic hits"; "ic misses"; "hit %" ]
  in
  List.iter
    (fun (midx, (m : R.meth), calls) ->
      let hits = stats.Facade_vm.Exec_stats.m_ic_hits.(midx) in
      let misses = stats.Facade_vm.Exec_stats.m_ic_misses.(midx) in
      let rate =
        if hits + misses = 0 then "-"
        else Printf.sprintf "%.1f" (100.0 *. float_of_int hits /. float_of_int (hits + misses))
      in
      Metrics.Table.add_row tbl
        [
          m.R.m_cls ^ "." ^ m.R.m_name;
          Metrics.Table.cell_int calls;
          Metrics.Table.cell_int (Facade_vm.Quicken.ic_sites m);
          Metrics.Table.cell_int hits;
          Metrics.Table.cell_int misses;
          rate;
        ])
    (take top rows);
  Printf.printf "== method profile (top %d of %d called) ==\n%s\n" top
    (List.length rows) (Metrics.Table.render tbl)

let profile_cmd =
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the top-spans-by-self-time table.")
  in
  let run name workers no_opt no_tier2 heap_mb top trace =
    match find_sample name with
    | None -> `Error (true, "unknown sample " ^ name)
    | Some s -> (
        match workers with
        | Some n when n < 1 -> `Error (true, "--workers must be >= 1")
        | _ ->
            let pl =
              Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program
            in
            let pl, rep =
              if no_opt then (pl, None)
              else
                let pl', r = Opt.Driver.optimize_pipeline pl in
                (pl', Some r)
            in
            let heap = heap_of_mb heap_mb in
            let tr = Obs.Tracer.create () in
            Obs.Tracer.install tr;
            let o =
              Fun.protect ~finally:Obs.Tracer.uninstall (fun () ->
                  run_facade_sample ?heap ~workers ~no_tier2 ~rep pl)
            in
            Printf.printf "%s: result=%s  steps=%d\n" name
              (match o.Facade_vm.Interp.result with
              | Some x -> Facade_vm.Value.to_string x
              | None -> "-")
              o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.steps;
            print_tier_line ~tier2:(not no_tier2) o;
            print_newline ();
            (* The link is cached per pipeline, so this is the same
               resolved program the run above executed — method indices
               line up with the per-method stat arrays. *)
            method_profile ~top (Facade_vm.Link.facade_program pl)
              o.Facade_vm.Interp.stats;
            print_string (Obs.Export.profile_report ~top tr);
            print_gc_lines heap (Some tr);
            (match trace with
            | Some path ->
                Obs.Export.write_chrome tr path;
                Printf.printf "trace written to %s\n" path
            | None -> ());
            `Ok ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a sample under the tracer and print a plain-text profile: \
          per-method call counts and IC hit rates, top spans by self time, \
          GC pause table, scheduler and page-store event counts. \
          $(b,--trace) additionally exports the Chrome trace.")
    Term.(
      ret
        (const run $ sample_arg $ workers_arg $ no_opt $ no_tier2 $ heap_mb_arg
       $ top $ trace_arg))

(* ---------- validate-trace ---------- *)

let validate_trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A Chrome trace JSON file (from $(b,--trace)).")
  in
  let run file =
    let s = In_channel.with_open_text file In_channel.input_all in
    match Obs.Export.validate_chrome s with
    | Ok c ->
        Printf.printf "ok: %d events (%d B / %d E / %d i / %d M), %d lanes, %d open\n"
          c.Obs.Export.ck_events c.Obs.Export.ck_begins c.Obs.Export.ck_ends
          c.Obs.Export.ck_instants c.Obs.Export.ck_meta c.Obs.Export.ck_tids
          c.Obs.Export.ck_open;
        `Ok ()
    | Error e -> `Error (false, "invalid trace: " ^ e)
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:
         "Parse a Chrome trace JSON file and check the trace_event schema: \
          required fields, per-thread timestamp monotonicity, and balanced \
          begin/end nesting.")
    Term.(ret (const run $ file))

(* ---------- inspect ---------- *)

let inspect_cmd =
  let original =
    Arg.(value & flag & info [ "original" ] ~doc:"Print the original program P instead of P'.")
  in
  let as_text =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:"Emit the parseable textual format (compose with $(b,transform)).")
  in
  let run name original as_text =
    match find_sample name with
    | None -> `Error (true, "unknown sample " ^ name)
    | Some s ->
        let program =
          if original then s.Samples.program
          else
            (Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program)
              .Facade_compiler.Pipeline.transformed
        in
        if as_text then print_string (Jir.Text_format.to_string program)
        else print_string (Jir.Pretty.program_to_string program);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Pretty-print a sample program (generated P' by default).")
    Term.(ret (const run $ sample_arg $ original $ as_text))

(* ---------- transform (file-based workflow) ---------- *)

let transform_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A jir program in the textual format.")
  in
  let data_roots =
    Arg.(
      required
      & opt (some (list string)) None
      & info [ "data" ] ~docv:"CLASSES"
          ~doc:"Comma-separated data-class roots (the FACADE user's list).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Write P' here (default: stdout).")
  in
  let run_it =
    Arg.(value & flag & info [ "run" ] ~doc:"Also execute P and P' in the VM and compare.")
  in
  let run input data_roots output run_it =
    let source = In_channel.with_open_text input In_channel.input_all in
    match Jir.Text_format.parse source with
    | exception Jir.Text_format.Parse_error { line; message } ->
        `Error (false, Printf.sprintf "%s:%d: %s" input line message)
    | program -> (
        match Jir.Verify.check_program program with
        | _ :: _ as errs ->
            `Error
              ( false,
                String.concat "\n"
                  (List.map
                     (fun (e : Jir.Verify.error) ->
                       Printf.sprintf "%s: %s" e.Jir.Verify.where e.Jir.Verify.what)
                     errs) )
        | [] -> (
            let spec = { Facade_compiler.Classify.data_roots; boundary = [] } in
            match Facade_compiler.Pipeline.compile ~spec program with
            | exception Facade_compiler.Assumptions.Violated vs ->
                `Error
                  ( false,
                    "closed-world assumption violations:\n"
                    ^ String.concat "\n"
                        (List.map
                           (fun (v : Facade_compiler.Assumptions.violation) ->
                             Printf.sprintf "  %s: %s" v.Facade_compiler.Assumptions.cls
                               v.Facade_compiler.Assumptions.detail)
                           vs) )
            | pl ->
                let text =
                  Jir.Text_format.to_string pl.Facade_compiler.Pipeline.transformed
                in
                (match output with
                | Some path -> Out_channel.with_open_text path (fun oc ->
                      Out_channel.output_string oc text)
                | None -> print_string text);
                if run_it then begin
                  let is_data c =
                    Facade_compiler.Classify.is_data_class
                      pl.Facade_compiler.Pipeline.classification c
                  in
                  let o_p =
                    Facade_vm.(Interp.run_object_linked (Link.object_program ~is_data program))
                  in
                  let o_p' = Facade_vm.Interp.run_facade pl in
                  let v o =
                    match o.Facade_vm.Interp.result with
                    | Some x -> Facade_vm.Value.to_string x
                    | None -> "-"
                  in
                  Printf.eprintf "P = %s, P' = %s\n" (v o_p) (v o_p')
                end;
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Parse a jir source file, apply the FACADE transformation, print P'.")
    Term.(ret (const run $ input $ data_roots $ output $ run_it))

(* ---------- check / lint (static analysis over a jir source file) ---------- *)

let jir_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"A jir program in the textual format.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit findings as a JSON object on stdout (for CI consumption).")

let strict_flag =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit nonzero on any warning-or-above finding (e.g. the static \
           race detector's). Without it only error-severity findings fail \
           the command; warnings still print.")

(* Findings always print in the canonical sorted order (method, block,
   index, analysis, message) so text and JSON output are byte-stable
   across runs. *)
let emit_findings ~file ~json ~strict findings =
  let findings = Analysis.Finding.sort findings in
  if json then print_endline (Obs.Json.to_string (Analysis.Finding.list_to_json ~file findings))
  else List.iter (fun f -> print_endline (Analysis.Finding.to_string f)) findings;
  let threshold =
    if strict then Analysis.Finding.Warning else Analysis.Finding.Error
  in
  match List.filter (Analysis.Finding.at_least threshold) findings with
  | [] ->
      if (not json) && findings = [] then print_endline "no findings";
      `Ok ()
  | fs -> `Error (false, Printf.sprintf "%d finding(s)" (List.length fs))

(* Parse failures and structural verifier errors are reported through the
   same finding channel so --json output stays machine-readable. *)
let findings_of_file file analyze =
  let source = In_channel.with_open_text file In_channel.input_all in
  match Jir.Text_format.parse source with
  | exception Jir.Text_format.Parse_error { line; message } ->
      [
        Analysis.Finding.make ~analysis:"parse"
          ~where:(Printf.sprintf "%s:%d" file line)
          message;
      ]
  | program -> (
      match Analysis.Lint.verify_findings program with
      | _ :: _ as errs -> errs
      | [] -> analyze program)

let check_cmd =
  let run file json strict no_opt =
    let findings =
      findings_of_file file (fun program ->
          match Analysis.Lint.check_program program with
          | _ :: _ as fs -> fs
          | [] ->
              (* The program is clean: also run the optimizer over it and
                 re-check the result, so `check` catches any pass that
                 would corrupt this input. *)
              if no_opt then []
              else
                let p', _ = Opt.Driver.optimize_program program in
                List.map
                  (fun (f : Analysis.Finding.t) ->
                    { f with Analysis.Finding.analysis = "opt-" ^ f.Analysis.Finding.analysis })
                  (Analysis.Lint.verify_findings p' @ Analysis.Lint.check_program p'))
    in
    emit_findings ~file ~json ~strict findings
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify a jir source file: structural well-formedness plus the \
          definite-assignment, monitor-pairing and interprocedural \
          static-race analyses. Unless $(b,--no-opt) is given, the \
          optimizer pipeline then runs over the clean program and the same \
          checks re-run on its output (findings prefixed $(b,opt-)), \
          proving the passes preserve the invariants on this input. With \
          $(b,--strict), warning-severity findings (races) also fail the \
          command.")
    Term.(ret (const run $ jir_file_arg $ json_flag $ strict_flag $ no_opt))

(* ---------- opt-report ---------- *)

let opt_report_cmd =
  let run name json =
    match find_sample name with
    | None -> `Error (true, "unknown sample " ^ name)
    | Some s ->
        let pl =
          Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program
        in
        let pl', rep = Opt.Driver.optimize_pipeline pl in
        let rp = Facade_vm.Link.facade_program pl' in
        let c = Facade_vm.Quicken.counts rp in
        if json then
          let open Obs.Json in
          let quicken =
            Facade_vm.Quicken.
              [
                ("ic_virtual_sites", c.ic_virtual_sites); ("ic_field_sites", c.ic_field_sites);
                ("specialized_accessors", c.specialized_accessors);
                ("fused_pairs", c.fused_pairs); ("imm_ops", c.imm_ops);
              ]
          in
          print_string
            (to_string
               (Obj
                  [
                    ("sample", Str name); ("opt", Opt.Driver.report_to_json rep);
                    ("quicken", Obj (List.map (fun (k, n) -> (k, of_int n)) quicken));
                  ]))
        else begin
          Printf.printf "%s: %d -> %d instructions after optimization\n" name
            rep.Opt.Driver.instrs_before rep.Opt.Driver.instrs_after;
          List.iter
            (fun d -> print_endline ("  " ^ Opt.Delta.to_string d))
            rep.Opt.Driver.deltas;
          Printf.printf
            "quicken: %d IC virtual sites, %d IC field sites, %d specialized \
             accessors, %d fused pairs (tier 2), %d immediate ops\n"
            c.Facade_vm.Quicken.ic_virtual_sites c.Facade_vm.Quicken.ic_field_sites
            c.Facade_vm.Quicken.specialized_accessors c.Facade_vm.Quicken.fused_pairs
            c.Facade_vm.Quicken.imm_ops;
          Printf.printf
            "tier2 feedback: %d monomorphic method names, %d leaf-inline \
             candidates\n"
            (List.length rep.Opt.Driver.tier_mono)
            (List.length rep.Opt.Driver.tier_leaves);
          (match rep.Opt.Driver.tier_mono with
          | [] -> ()
          | ms -> Printf.printf "  monomorphic: %s\n" (String.concat ", " ms));
          (match rep.Opt.Driver.tier_leaves with
          | [] -> ()
          | ls ->
              Printf.printf "  leaves: %s\n"
                (String.concat ", " (List.map (fun (c, m) -> c ^ "." ^ m) ls)))
        end;
        print_newline ();
        `Ok ()
  in
  Cmd.v
    (Cmd.info "opt-report"
       ~doc:
         "Compile a sample, run the optimizer pipeline over P', and print the \
          per-pass IR deltas (instructions removed, copies propagated, sites \
          devirtualized, calls inlined) plus the linked program's site counts: \
          inline caches, specialized page accessors and constant operands from \
          the link, and the windows tier 2 fuses when it compiles each \
          method.")
    Term.(ret (const run $ sample_arg $ json_flag))

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt string "facade.sock"
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path the daemon listens on.")
  in
  let pool_workers_arg =
    Arg.(
      value
      & opt int 2
      & info [ "pool-workers" ] ~docv:"N"
          ~doc:
            "Size of the shared domain pool parallel jobs run on. The pool is \
             spawned once at startup and reused by every submission; 0 disables \
             it (parallel jobs then spawn private pools).")
  in
  let runners_arg =
    Arg.(
      value
      & opt int 2
      & info [ "runners" ] ~docv:"N" ~doc:"Number of concurrently executing jobs.")
  in
  let max_queue_arg =
    Arg.(
      value
      & opt int 1024
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Queued-job cap; submissions beyond it are rejected ($(i,queue_full)).")
  in
  let job_pages_arg =
    Arg.(
      value
      & opt int 64
      & info [ "job-pages" ] ~docv:"N"
          ~doc:"Default per-job page reservation (a submission may ask for more).")
  in
  let job_heap_mb_arg =
    Arg.(
      value
      & opt int 8
      & info [ "job-heap-mb" ] ~docv:"MB" ~doc:"Default per-job native-byte reservation.")
  in
  let tenant_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "tenant" ] ~docv:"NAME:PAGES:HEAPMB:INFLIGHT"
          ~doc:
            "Configure a tenant quota (repeatable): max concurrently reserved \
             pages, native megabytes, and in-flight jobs. Unlisted tenants get \
             the default quota unless $(b,--no-default-tenants).")
  in
  let no_default_arg =
    Arg.(
      value & flag
      & info [ "no-default-tenants" ]
          ~doc:"Reject submissions from tenants not configured with $(b,--tenant).")
  in
  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Export one Chrome trace per tenant (submit/start/done instants and \
             a latency histogram) into DIR at shutdown.")
  in
  let parse_tenant spec =
    match String.split_on_char ':' spec with
    | [ name; pages; heap_mb; inflight ] -> (
        match
          (int_of_string_opt pages, int_of_string_opt heap_mb, int_of_string_opt inflight)
        with
        | Some p, Some h, Some i ->
            Ok (name, { Service.Tenant.q_pages = p; q_heap_bytes = h lsl 20; q_inflight = i })
        | _ -> Error spec)
    | _ -> Error spec
  in
  let run socket pool_workers runners max_queue job_pages job_heap_mb tenant_specs
      no_default trace_dir =
    let tenants = List.map parse_tenant tenant_specs in
    match List.find_map (function Error s -> Some s | Ok _ -> None) tenants with
    | Some spec ->
        `Error
          (true, Printf.sprintf "bad --tenant entry %S (want NAME:PAGES:HEAPMB:INFLIGHT)" spec)
    | None ->
        let cfg =
          {
            Service.Server.socket_path = socket;
            pool_workers = max 0 pool_workers;
            sched_config =
              {
                Service.Scheduler.default_config with
                c_runners = max 1 runners;
                c_max_queue = max 1 max_queue;
                c_job_pages = max 1 job_pages;
                c_job_heap = max 1 job_heap_mb lsl 20;
              };
            tenants = List.filter_map Result.to_option tenants;
            default_quota =
              (if no_default then None else Some Service.Tenant.default_quota);
            trace_dir;
          }
        in
        Printf.printf "facade_cli serve: listening on %s (pool=%d runners=%d)\n%!"
          socket cfg.Service.Server.pool_workers runners;
        Service.Server.serve cfg;
        Printf.printf "facade_cli serve: stopped\n%!";
        `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent multi-tenant daemon: submissions arrive over a \
          Unix-domain socket (length-prefixed framed protocol), each program is \
          compiled once and reruns hit the warm tier-2 tier, parallel jobs share \
          one long-lived domain pool, and per-tenant page/heap quotas are \
          enforced at admission and again by the runtime. Shut it down with a \
          $(i,Shutdown) request (e.g. $(b,bench/loadgen --shutdown)).")
    Term.(
      ret
        (const run $ socket_arg $ pool_workers_arg $ runners_arg $ max_queue_arg
       $ job_pages_arg $ job_heap_mb_arg $ tenant_arg $ no_default_arg $ trace_dir_arg))

let lint_cmd =
  let data_roots =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "data" ] ~docv:"CLASSES"
          ~doc:
            "Comma-separated data-class roots. When given, the boundary-leak \
             detector runs with the resulting classification; without it only \
             the classification-independent analyses run.")
  in
  let boundary =
    Arg.(
      value
      & opt (list string) []
      & info [ "boundary" ] ~docv:"SPECS"
          ~doc:
            "Comma-separated boundary annotations, each $(i,Class:field:field...) \
             — the class stays on the heap, the listed fields are data.")
  in
  let parse_boundary entry =
    match String.split_on_char ':' entry with
    | cls :: (_ :: _ as fields) -> (cls, fields)
    | _ -> failwith (Printf.sprintf "bad --boundary entry %S (want Class:field...)" entry)
  in
  let run file data_roots boundary json strict =
    match
      findings_of_file file (fun program ->
          let classification =
            match data_roots with
            | None -> None
            | Some roots ->
                let spec =
                  {
                    Facade_compiler.Classify.data_roots = roots;
                    boundary = List.map parse_boundary boundary;
                  }
                in
                Some (Facade_compiler.Classify.classify program spec)
          in
          Analysis.Lint.check_program ?classification program)
    with
    | findings -> emit_findings ~file ~json ~strict findings
    | exception Failure msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the FACADE invariant linter over a jir source file: structural \
          verification, definite assignment, monitor pairing, the \
          interprocedural static race detector, and (with $(b,--data)) the \
          boundary-leak detector enforcing the paper's interaction-point \
          discipline.")
    Term.(
      ret (const run $ jir_file_arg $ data_roots $ boundary $ json_flag $ strict_flag))

let () =
  let info =
    Cmd.info "facade_cli" ~version:"1.0.0"
      ~doc:"FACADE (ASPLOS 2015) reproduction: compiler, runtime, and evaluation."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiments_cmd;
            samples_cmd;
            demo_cmd;
            run_cmd;
            serve_cmd;
            profile_cmd;
            validate_trace_cmd;
            inspect_cmd;
            transform_cmd;
            check_cmd;
            lint_cmd;
            opt_report_cmd;
          ]))
