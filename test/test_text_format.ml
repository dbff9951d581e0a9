(* Round-trip tests for the jir textual format: serialize -> parse must be
   the identity (checked via re-serialization), and parsed programs must
   verify and behave identically in the VM. *)

module TF = Jir.Text_format

let roundtrip_fixpoint name program =
  let s1 = TF.to_string program in
  let p2 =
    try TF.parse s1
    with TF.Parse_error { line; message } ->
      Alcotest.failf "%s: parse error at line %d: %s\n%s" name line message s1
  in
  let s2 = TF.to_string p2 in
  Alcotest.(check string) (name ^ ": serialize . parse fixpoint") s1 s2;
  p2

let test_samples_roundtrip () =
  List.iter
    (fun (s : Samples.sample) ->
      let p2 = roundtrip_fixpoint s.Samples.name s.Samples.program in
      Jir.Verify.check_or_fail p2;
      Alcotest.(check (pair string string))
        (s.Samples.name ^ ": entry survives")
        (Jir.Program.entry s.Samples.program)
        (Jir.Program.entry p2))
    Samples.all

let test_transformed_roundtrip () =
  (* The generated P' uses intrinsics, facade classes, offset statics —
     all must survive the text format too. *)
  List.iter
    (fun (s : Samples.sample) ->
      let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
      ignore (roundtrip_fixpoint (s.Samples.name ^ "'") pl.Facade_compiler.Pipeline.transformed))
    Samples.all

let test_parsed_program_runs () =
  let s = Samples.fig2 in
  let p2 = TF.parse (TF.to_string s.Samples.program) in
  let o = Vm_runs.run_object p2 in
  Alcotest.(check bool) "same result after round-trip" true
    (match o.Facade_vm.Interp.result with
    | Some (Facade_vm.Value.Int 8) -> true
    | _ -> false)

let parse_error src =
  match TF.parse src with
  | _ -> Alcotest.fail "expected a parse error"
  | exception TF.Parse_error { line; message } -> (line, message)

let test_parse_error_reports_line () =
  (* missing ';' on line 2 *)
  Alcotest.(check int) "line number" 2
    (fst (parse_error "class A {\n  field int x\n}\nentry A.main\n"))

(* A truncated file fails at its last line, whether or not a newline ends
   it, not at a line 0 no editor shows. *)
let test_end_of_input_reports_last_line () =
  let check name src line =
    Alcotest.(check (pair int string)) name (line, "unexpected end of input") (parse_error src)
  in
  check "class cut after a field" "class A {\n  field int x;\n" 2;
  check "no final newline" "class A {\n  field int x;" 2;
  check "method body cut" "class A {\n  method m() {\n    b0:\n      return;\n\n" 5

(* Lines are tokenized as the parser reaches them, so the first error in
   the source is the one reported: the missing ';' on line 3 wins over the
   bad character on line 5. *)
let test_errors_in_source_order () =
  let src =
    "class A {\n  field int x;\n  field int y\n  method m() {\n    local z: int ~;\n"
    ^ "    b0:\n      return;\n  }\n}\nentry A.m\n"
  in
  Alcotest.(check (pair int string)) "first error" (3, "missing ';'") (parse_error src)

let test_parse_minimal () =
  let src =
    {|
class Main {
  static method main() : int {
    local x: int;
    local y: int;
    b0:
      x = 40;
      y = 2;
      x = x + y;
      return x;
  }
}
entry Main.main
|}
  in
  let p = TF.parse src in
  Jir.Verify.check_or_fail p;
  let o = Vm_runs.run_object p in
  Alcotest.(check bool) "hand-written source runs" true
    (match o.Facade_vm.Interp.result with
    | Some (Facade_vm.Value.Int 42) -> true
    | _ -> false)

let test_special_floats () =
  let p =
    Jir.Program.make
      [
        Jir.Builder.cls "Main"
          ~methods:
            [
              (let m = Jir.Builder.create ~static:true "main" in
               let b = Jir.Builder.entry m in
               let x = Jir.Builder.fresh m (Jir.Jtype.Prim Jir.Jtype.Double) in
               Jir.Builder.const_f b x Float.nan;
               Jir.Builder.const_f b x Float.infinity;
               Jir.Builder.const_f b x Float.neg_infinity;
               Jir.Builder.const_f b x (-0.5);
               Jir.Builder.ret b None;
               Jir.Builder.finish m);
            ];
      ]
  in
  ignore (roundtrip_fixpoint "special floats" p)

let prop_synthetic_roundtrip =
  QCheck.Test.make ~name:"synthetic programs round-trip" ~count:15
    QCheck.(pair (int_range 1 10) (int_range 1 5))
    (fun (classes, mpc) ->
      let program, _ = Samples.synthetic ~classes ~methods_per_class:mpc in
      let s1 = TF.to_string program in
      let s2 = TF.to_string (TF.parse s1) in
      String.equal s1 s2)

let prop_string_literals_roundtrip =
  QCheck.Test.make ~name:"string literals round-trip" ~count:100
    QCheck.(string_gen_of_size (Gen.int_range 0 20) Gen.printable)
    (fun text ->
      let m = Jir.Builder.create ~static:true "main" in
      let b = Jir.Builder.entry m in
      let x = Jir.Builder.fresh m (Jir.Jtype.Ref Jir.Jtype.string_class) in
      Jir.Builder.add b (Jir.Ir.Const (x, Jir.Ir.Cstr text));
      Jir.Builder.ret b None;
      let p = Jir.Program.make [ Jir.Builder.cls "Main" ~methods:[ Jir.Builder.finish m ] ] in
      let s1 = TF.to_string p in
      String.equal s1 (TF.to_string (TF.parse s1)))

let () =
  Alcotest.run "text_format"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "all samples" `Quick test_samples_roundtrip;
          Alcotest.test_case "transformed programs" `Quick test_transformed_roundtrip;
          Alcotest.test_case "parsed program runs" `Quick test_parsed_program_runs;
          Alcotest.test_case "special floats" `Quick test_special_floats;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_synthetic_roundtrip; prop_string_literals_roundtrip ] );
      ( "parsing",
        [
          Alcotest.test_case "error line numbers" `Quick test_parse_error_reports_line;
          Alcotest.test_case "end of input names the last line" `Quick
            test_end_of_input_reports_last_line;
          Alcotest.test_case "errors in source order" `Quick test_errors_in_source_order;
          Alcotest.test_case "hand-written source" `Quick test_parse_minimal;
        ] );
    ]
