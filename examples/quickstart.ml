(* Quickstart: the paper's Figure 2 end to end.

   Build the Professor/Student program in jir, compile it with the FACADE
   pipeline, and run both the original (P, object mode) and the generated
   (P', facade mode) programs in the VM. They compute the same result; P
   allocates a heap object per data item while P' allocates page records
   and a statically bounded set of facades.

   Run with:  dune exec examples/quickstart.exe                           *)

let () =
  let sample = Samples.fig2 in
  print_endline "=== 1. The original program P (excerpt) ===";
  let prof = Jir.Program.get_class sample.Samples.program "Professor" in
  Format.printf "%a@." Jir.Pretty.pp_cls prof;

  print_endline "=== 2. Compile with FACADE ===";
  let pl = Facade_compiler.Pipeline.compile ~spec:sample.Samples.spec sample.Samples.program in
  Printf.printf "transformed %d classes (%d -> %d instructions) in %.3fs\n"
    pl.Facade_compiler.Pipeline.classes_transformed pl.Facade_compiler.Pipeline.instrs_in
    pl.Facade_compiler.Pipeline.instrs_out pl.Facade_compiler.Pipeline.seconds;
  Printf.printf "facade pool bound per thread: %d facades\n\n"
    (Facade_compiler.Pipeline.facades_per_thread pl);

  print_endline "=== 3. The generated facade class (excerpt) ===";
  let fc = Jir.Program.get_class pl.Facade_compiler.Pipeline.transformed "Professor$Facade" in
  Format.printf "%a@." Jir.Pretty.pp_cls fc;

  print_endline "=== 4. Run both versions ===";
  let is_data c =
    Facade_compiler.Classify.is_data_class pl.Facade_compiler.Pipeline.classification c
  in
  let o_p =
    Facade_vm.(Interp.run_object_linked (Link.object_program ~is_data sample.Samples.program))
  in
  let o_p' = Facade_vm.Interp.run_facade pl in
  let show name (o : Facade_vm.Interp.outcome) =
    Printf.printf "%-3s result=%s  data heap objects=%d  page records=%d  facades=%d\n" name
      (match o.Facade_vm.Interp.result with
      | Some v -> Facade_vm.Value.to_string v
      | None -> "-")
      o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects
      o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.page_records
      o.Facade_vm.Interp.facades_allocated
  in
  show "P" o_p;
  show "P'" o_p';
  match o_p.Facade_vm.Interp.result, o_p'.Facade_vm.Interp.result with
  | Some a, Some b when Facade_vm.Value.equal_ref a b ->
      print_endline "\nP and P' agree: the transformation preserved semantics."
  | _ -> failwith "results diverge!"
