(* Round-trip tests for the jir textual format: serialize -> parse must be
   the identity (checked via re-serialization), and parsed programs must
   verify and behave identically in the VM. *)

module TF = Jir.Text_format

let roundtrip_fixpoint name program =
  let s1 = TF.to_string program in
  let p2 =
    try TF.parse s1
    with TF.Parse_error { pos = { line; col }; message } ->
      Alcotest.failf "%s: parse error at %d:%d: %s\n%s" name line col message s1
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
  | exception TF.Parse_error { pos = { line; col }; message } -> (line, col, message)

let pos_msg = Alcotest.(triple int int string)

let test_parse_error_reports_line () =
  (* missing ';' on line 2, just past the line's last token *)
  Alcotest.check pos_msg "position" (2, 14, "missing ';'")
    (parse_error "class A {\n  field int x\n}\nentry A.main\n")

(* A truncated file fails just past the end of its last line, whether or
   not a newline ends it, not at a line 0 no editor shows. *)
let test_end_of_input_reports_last_line () =
  let check name src line col =
    Alcotest.check pos_msg name (line, col, "unexpected end of input") (parse_error src)
  in
  check "class cut after a field" "class A {\n  field int x;\n" 2 15;
  check "no final newline" "class A {\n  field int x;" 2 15;
  check "method body cut" "class A {\n  method m() {\n    b0:\n      return;\n\n" 5 1

(* Errors come out in source order: the missing ';' on line 3 wins over
   the bad character on line 5. Within a line, a bad character wins over
   a syntax error and a missing ';' wins over trailing tokens. *)
let test_errors_in_source_order () =
  let src =
    "class A {\n  field int x;\n  field int y\n  method m() {\n    local z: int ~;\n"
    ^ "    b0:\n      return;\n  }\n}\nentry A.m\n"
  in
  Alcotest.check pos_msg "first error" (3, 14, "missing ';'") (parse_error src);
  Alcotest.check pos_msg "bad character before a syntax error" (1, 11, "unexpected character ~")
    (parse_error "class A { ~\n}\n");
  Alcotest.check pos_msg "bad character after a syntax error" (1, 13, "unexpected character ~")
    (parse_error "class { A } ~\n");
  Alcotest.check pos_msg "missing ';' over trailing tokens" (3, 15, "missing ';'")
    (parse_error "class A {\n  method m() {\n    x = y[z] w\n  }\n}\n")

(* One malformed input per message the parser can report, with the
   position each is reported at: the offending token, or for a missing
   ';' just past the line's last token. *)
let in_method stmt =
  "class A {\n  method m() {\n    local x: int;\n    b0:\n      " ^ stmt
  ^ "\n      return;\n  }\n}\n"

let test_error_positions () =
  List.iter
    (fun (src, expected) -> Alcotest.check pos_msg src expected (parse_error src))
    [
      (in_method "x = \"abc;", (5, 11, "unterminated string literal"));
      (in_method "x = \"\\q\";", (5, 11, "bad string literal \"\\q\""));
      (in_method "x = #foo;", (5, 11, "bad # token"));
      (in_method "x = 1.2.3;", (5, 11, "bad float literal 1.2.3"));
      (in_method "x = 12abc;", (5, 11, "bad int literal 12abc"));
      ("class A {\n  field int x ~;\n}\n", (2, 15, "unexpected character ~"));
      (in_method "x = ;", (5, 11, "unexpected end of line"));
      (in_method "x = static C.m(1);", (5, 22, "expected an identifier"));
      (in_method "x = static Cf;", (5, 18, "expected a dotted name, got Cf"));
      (in_method "goto x7;", (5, 12, "expected a block label, got x7"));
      (in_method "goto bx;", (5, 12, "bad block label bx"));
      (in_method "x = @f(-y);", (5, 15, "expected a number after '-'"));
      (in_method "x = @f(=);", (5, 14, "bad intrinsic operand"));
      (in_method "x = static C.(x);", (5, 18, "dangling '.' in call target"));
      (in_method "x = virtual C.m(x);", (5, 19, "virtual/special call needs a receiver"));
      (in_method "x = -=;", (5, 12, "bad negation"));
      (in_method "x = new int;", (5, 15, "bad new expression"));
      (in_method "x = static;", (5, 17, "bad static expression"));
      (in_method "x = a.b.c;", (5, 11, "dotted receiver"));
      (in_method "x = y z;", (5, 13, "bad right-hand side"));
      (in_method "static C.f;", (5, 14, "bad static statement"));
      (in_method "x;", (5, 8, "bad statement"));
      (in_method "return (;", (5, 14, "bad return"));
      (in_method "if x else b1;", (5, 12, "expected 'goto'"));
      (in_method "if x goto b1 b2;", (5, 20, "expected 'else'"));
      (in_method "x = (int y;", (5, 16, "expected ')'"));
      (in_method "x[y] y;", (5, 12, "expected '='"));
      ("class A {\n  field int x;\n", (2, 15, "unexpected end of input"));
      ("class A {\n  field int x\n}\n", (2, 14, "missing ';'"));
      ("class A {\n  field int x = y;\n}\n", (2, 17, "bad initializer"));
      ("class A {\n  method m() (\n}\n", (2, 14, "expected '{' or ';'"));
      ( "class A {\n  method m() {\n    b0:\n      x = y;\n    b1:\n      return;\n  }\n}\n",
        (5, 5, "block has no terminator") );
      ( "class A {\n  method m() {\n    b0:\n      return;\n      x = y;\n  }\n}\n",
        (5, 7, "statement after terminator") );
      (in_method "x = y[z] w;", (5, 16, "trailing tokens"));
      ("class A {\n  local x: int;\n}\n", (2, 3, "expected a field, method, or '}'"));
      ("klass A {\n}\n", (1, 1, "expected a class, interface, or entry declaration"));
      ("class A extends {\n}\n", (1, 17, "expected an identifier"));
    ]

(* A class declared twice is a parse error at the second declaration,
   reported before anything after it. *)
let test_duplicate_class () =
  Alcotest.check pos_msg "second declaration" (5, 7, "duplicate class A")
    (parse_error "class A {\n}\nclass B {\n}\nclass A {\n  field int x ~;\n}\n")

(* Random single-byte edits of every sample's text (P and P′) either
   parse or fail with a [Parse_error] positioned inside the text; no
   other exception escapes. *)
let prop_edits_fail_with_position =
  let texts =
    lazy
      (Array.of_list
         (List.concat_map
            (fun (s : Samples.sample) ->
              let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
              [
                TF.to_string s.Samples.program;
                TF.to_string pl.Facade_compiler.Pipeline.transformed;
              ])
            Samples.all))
  in
  let alphabet = " \t\n;:{}()[]<>=!+-*/%&|^@#\".,0123456789abexp_$~\\" in
  QCheck.Test.make ~name:"edited samples parse or fail with a position" ~count:1000
    QCheck.(
      quad (int_bound 1000) (int_bound 1_000_000) (int_bound 2)
        (int_bound (String.length alphabet - 1)))
    (fun (which, at, edit, b) ->
      let texts = Lazy.force texts in
      let src = texts.(which mod Array.length texts) in
      let n = String.length src in
      let i = at mod n in
      let c = String.make 1 alphabet.[b] in
      let src =
        match edit with
        | 0 -> String.sub src 0 i ^ c ^ String.sub src (i + 1) (n - i - 1)
        | 1 -> String.sub src 0 i ^ String.sub src (i + 1) (n - i - 1)
        | _ -> String.sub src 0 i ^ c ^ String.sub src i (n - i)
      in
      let lines = List.length (String.split_on_char '\n' src) in
      match TF.parse src with
      | _ -> true
      | exception TF.Parse_error { pos = { line; col }; message } ->
          (line >= 1 && line <= lines && col >= 1)
          || QCheck.Test.fail_reportf "%s at %d:%d outside the text" message line col)

(* Every occurrence of a name in a parsed program is one string. *)
let test_names_interned () =
  let p = TF.parse (TF.to_string Samples.fig2.Samples.program) in
  let vars = ref [] in
  List.iter
    (fun (c : Jir.Ir.cls) ->
      List.iter
        (fun (m : Jir.Ir.meth) ->
          List.iter (fun (v, _) -> vars := v :: !vars) (m.Jir.Ir.params @ m.Jir.Ir.locals);
          Jir.Ir.iter_instrs (Jir.Ir.iter_vars (fun v -> vars := v :: !vars)) m)
        c.Jir.Ir.cmethods)
    (Jir.Program.classes p);
  let repeated =
    List.filter (fun v -> List.length (List.filter (String.equal v) !vars) > 1) !vars
  in
  Alcotest.(check bool) "some name repeats" true (repeated <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " is one string") true
        (List.for_all (fun w -> (not (String.equal v w)) || v == w) !vars))
    repeated

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

(* Every operator symbol the tokenizer knows, one and two characters
   wide, survives a round trip; a character it does not know is named. *)
let test_operator_symbols () =
  let open Jir in
  let module B = Builder in
  let int_t = Jtype.Prim Jtype.Int in
  let m = B.create ~static:true "main" ~params:[ ("a", int_t); ("b", int_t) ] ~ret:int_t in
  let blk = B.entry m in
  let x = B.fresh m int_t in
  List.iter
    (fun op -> B.binop blk x op "a" "b")
    Ir.[ Add; Sub; Mul; Div; Rem; Lt; Le; Gt; Ge; Eq; Ne; And; Or; Xor; Shl; Shr ];
  B.add blk (Ir.Unop (x, Ir.Neg, "a"));
  B.add blk (Ir.Unop (x, Ir.Not, "a"));
  B.ret blk (Some x);
  ignore
    (roundtrip_fixpoint "operators"
       (Program.make ~entry:("Main", "main") [ B.cls "Main" ~methods:[ B.finish m ] ]));
  Alcotest.check pos_msg "unknown character" (2, 15, "unexpected character ~")
    (parse_error "class A {\n  field int x ~;\n}\n")

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
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "duplicate class" `Quick test_duplicate_class;
          Alcotest.test_case "names interned" `Quick test_names_interned;
          Alcotest.test_case "hand-written source" `Quick test_parse_minimal;
          Alcotest.test_case "operator symbols" `Quick test_operator_symbols;
          QCheck_alcotest.to_alcotest prop_edits_fail_with_position;
        ] );
    ]
