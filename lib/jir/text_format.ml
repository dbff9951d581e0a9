exception Parse_error of { line : int; message : string }

(* ---------- serialization ---------- *)

let type_str = Jtype.to_string

let float_str x =
  if Float.is_nan x then "#nan"
  else if x = Float.infinity then "#inf"
  else if x = Float.neg_infinity then "#-inf"
  else Printf.sprintf "%h" x

let const_str = function
  | Ir.Cint n -> string_of_int n
  | Ir.Cfloat x -> float_str x
  | Ir.Cbool b -> string_of_bool b
  | Ir.Cnull -> "null"
  | Ir.Cstr s -> Printf.sprintf "%S" s

let binop_str = function
  | Ir.Add -> "+" | Ir.Sub -> "-" | Ir.Mul -> "*" | Ir.Div -> "/" | Ir.Rem -> "%"
  | Ir.Lt -> "<" | Ir.Le -> "<=" | Ir.Gt -> ">" | Ir.Ge -> ">=" | Ir.Eq -> "=="
  | Ir.Ne -> "!=" | Ir.And -> "&" | Ir.Or -> "|" | Ir.Xor -> "^" | Ir.Shl -> "<<"
  | Ir.Shr -> ">>"

let kind_str = function
  | Ir.Virtual -> "virtual"
  | Ir.Special -> "special"
  | Ir.Static -> "static"

let operand_str = function
  | Ir.Var v -> v
  | Ir.Imm c -> const_str c

let check_no_dot what v =
  if String.contains v '.' then
    invalid_arg (Printf.sprintf "Text_format.to_string: %s %s contains a dot" what v)

let instr_str ins =
  let b = Buffer.create 32 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  (match ins with
  | Ir.Const (v, c) -> p "%s = %s" v (const_str c)
  | Ir.Move (a, x) -> p "%s = %s" a x
  | Ir.Binop (v, op, x, y) -> p "%s = %s %s %s" v x (binop_str op) y
  | Ir.Unop (v, Ir.Neg, x) -> p "%s = -%s" v x
  | Ir.Unop (v, Ir.Not, x) -> p "%s = !%s" v x
  | Ir.New (v, c) -> p "%s = new %s" v c
  | Ir.New_array (v, ty, n) -> p "%s = new %s[%s]" v (type_str ty) n
  | Ir.Field_load (d, o, f) ->
      check_no_dot "receiver" o;
      p "%s = %s.%s" d o f
  | Ir.Field_store (o, f, s) ->
      check_no_dot "receiver" o;
      p "%s.%s = %s" o f s
  | Ir.Static_load (d, c, f) -> p "%s = static %s.%s" d c f
  | Ir.Static_store (c, f, s) -> p "static %s.%s = %s" c f s
  | Ir.Array_load (d, a, i) -> p "%s = %s[%s]" d a i
  | Ir.Array_store (a, i, s) -> p "%s[%s] = %s" a i s
  | Ir.Array_length (d, a) -> p "%s = len %s" d a
  | Ir.Call (ret, kind, cls, name, recv, args) ->
      (match ret with Some r -> p "%s = " r | None -> ());
      p "%s " (kind_str kind);
      (match recv with
      | Some r ->
          check_no_dot "receiver" r;
          p "%s." r
      | None -> ());
      p "%s.%s(%s)" cls name (String.concat ", " args)
  | Ir.Instance_of (d, a, ty) -> p "%s = %s instanceof %s" d a (type_str ty)
  | Ir.Cast (d, s, ty) -> p "%s = (%s) %s" d (type_str ty) s
  | Ir.Monitor_enter v -> p "monitorenter %s" v
  | Ir.Monitor_exit v -> p "monitorexit %s" v
  | Ir.Iter_start -> p "iterstart"
  | Ir.Iter_end -> p "iterend"
  | Ir.Intrinsic (ret, name, ops) ->
      (match ret with Some r -> p "%s = " r | None -> ());
      p "@%s(%s)" name (String.concat ", " (List.map operand_str ops)));
  Buffer.contents b

let term_str = function
  | Ir.Ret None -> "return"
  | Ir.Ret (Some v) -> "return " ^ v
  | Ir.Jump n -> Printf.sprintf "goto b%d" n
  | Ir.Branch (v, t, e) -> Printf.sprintf "if %s goto b%d else b%d" v t e

let meth_str buf (m : Ir.meth) =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "  %smethod %s(%s)"
    (if m.Ir.mstatic then "static " else "")
    m.Ir.mname
    (String.concat ", " (List.map (fun (v, ty) -> v ^ ": " ^ type_str ty) m.Ir.params));
  (match m.Ir.mret with Some ty -> p " : %s" (type_str ty) | None -> ());
  if Array.length m.Ir.body = 0 then p ";\n"
  else begin
    p " {\n";
    List.iter (fun (v, ty) -> p "    local %s: %s;\n" v (type_str ty)) m.Ir.locals;
    Array.iteri
      (fun i (blk : Ir.block) ->
        p "    b%d:\n" i;
        List.iter (fun ins -> p "      %s;\n" (instr_str ins)) blk.Ir.instrs;
        p "      %s;\n" (term_str blk.Ir.term))
      m.Ir.body;
    p "  }\n"
  end

let cls_str buf (c : Ir.cls) =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "%s %s" (if c.Ir.cinterface then "interface" else "class") c.Ir.cname;
  (match c.Ir.super with Some s -> p " extends %s" s | None -> ());
  (match c.Ir.interfaces with
  | [] -> ()
  | is -> p " implements %s" (String.concat ", " is));
  p " {\n";
  List.iter
    (fun (f : Ir.field) ->
      p "  %sfield %s %s" (if f.Ir.fstatic then "static " else "") (type_str f.Ir.ftype)
        f.Ir.fname;
      (match f.Ir.finit with Some k -> p " = %s" (const_str k) | None -> ());
      p ";\n")
    c.Ir.cfields;
  List.iter (meth_str buf) c.Ir.cmethods;
  p "}\n"

let to_string p =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      cls_str buf c;
      Buffer.add_char buf '\n')
    (Program.classes p);
  let ec, em = Program.entry p in
  Buffer.add_string buf (Printf.sprintf "entry %s.%s\n" ec em);
  Buffer.contents buf

(* ---------- tokenizer ---------- *)

type tok =
  | Tid of string
  | Tint of int
  | Tfloat of float
  | Tstr of string
  | Tsym of string

let is_ident_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || ch = '$'

let is_ident_char ch =
  is_ident_start ch || (ch >= '0' && ch <= '9') || ch = '.'

(* Tokenize [s.[pos .. stop - 1]], one source line, in place: indices
   stay absolute into [s], so no line is copied out of the source. *)
let tokenize ~line s ~pos ~stop:n =
  let fail message = raise (Parse_error { line; message }) in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref pos in
  while !i < n do
    let ch = s.[!i] in
    if ch = ' ' || ch = '\t' then incr i
    else if ch = '/' && !i + 1 < n && s.[!i + 1] = '/' then i := n (* comment *)
    else if ch = '<' && !i + 5 < n && String.sub s !i 6 = "<init>" then begin
      push (Tid "<init>");
      i := !i + 6
    end
    else if ch = '"' then begin
      (* A string literal: find the closing unescaped quote and reuse
         OCaml's lexical conventions via Scanf. *)
      let fin = ref (-1) in
      let esc = ref false in
      let j = ref (!i + 1) in
      while !fin < 0 && !j < n do
        (if !esc then esc := false
         else if s.[!j] = '\\' then esc := true
         else if s.[!j] = '"' then fin := !j);
        incr j
      done;
      if !fin < 0 then fail "unterminated string literal";
      let j = fin in
      let lit = String.sub s !i (!j - !i + 1) in
      (match Scanf.sscanf_opt lit "%S" (fun x -> x) with
      | Some x -> push (Tstr x)
      | None -> fail ("bad string literal " ^ lit));
      i := !j + 1
    end
    else if ch = '#' then begin
      (* Special float tokens: #nan, #inf, #-inf. *)
      let take word v =
        let l = String.length word in
        if !i + l <= n && String.sub s !i l = word then begin
          push (Tfloat v);
          i := !i + l;
          true
        end
        else false
      in
      if not (take "#nan" Float.nan || take "#-inf" Float.neg_infinity || take "#inf" Float.infinity)
      then fail "bad # token"
    end
    else if ch >= '0' && ch <= '9' then begin
      let j = ref !i in
      let is_float = ref false in
      while
        !j < n
        && (let c = s.[!j] in
            (c >= '0' && c <= '9')
            || c = '.' || c = 'x' || c = 'p' || c = 'e' || c = 'E'
            || (c >= 'a' && c <= 'f')
            || (c >= 'A' && c <= 'F')
            || ((c = '+' || c = '-') && !j > !i && (s.[!j - 1] = 'p' || s.[!j - 1] = 'e')))
      do
        if s.[!j] = '.' || s.[!j] = 'p' || s.[!j] = 'x' then is_float := true;
        incr j
      done;
      let lit = String.sub s !i (!j - !i) in
      (if !is_float then
         match float_of_string_opt lit with
         | Some f -> push (Tfloat f)
         | None -> fail ("bad float literal " ^ lit)
       else
         match int_of_string_opt lit with
         | Some k -> push (Tint k)
         | None -> fail ("bad int literal " ^ lit));
      i := !j
    end
    else if is_ident_start ch then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      push (Tid (String.sub s !i (!j - !i)));
      i := !j
    end
    else begin
      let next = if !i + 1 < n then s.[!i + 1] else ' ' in
      let two =
        match ch, next with
        | '<', '=' -> "<="
        | '>', '=' -> ">="
        | '=', '=' -> "=="
        | '!', '=' -> "!="
        | '<', '<' -> "<<"
        | '>', '>' -> ">>"
        | _ -> ""
      in
      if two <> "" then begin
        push (Tsym two);
        i := !i + 2
      end
      else begin
        let one =
          match ch with
          | '{' -> "{" | '}' -> "}" | '(' -> "(" | ')' -> ")" | '[' -> "[" | ']' -> "]"
          | ':' -> ":" | ';' -> ";" | ',' -> "," | '=' -> "=" | '@' -> "@" | '+' -> "+"
          | '-' -> "-" | '*' -> "*" | '/' -> "/" | '%' -> "%" | '<' -> "<" | '>' -> ">"
          | '&' -> "&" | '|' -> "|" | '^' -> "^" | '!' -> "!"
          | _ -> fail (Printf.sprintf "unexpected character %c" ch)
        in
        push (Tsym one);
        incr i
      end
    end
  done;
  List.rev !toks

(* ---------- parser ---------- *)

type cursor = {
  mutable toks : tok list;
  line : int;
}

let fail cur message = raise (Parse_error { line = cur.line; message })

let peek cur = match cur.toks with [] -> None | t :: _ -> Some t

let next cur =
  match cur.toks with
  | [] -> fail cur "unexpected end of line"
  | t :: rest ->
      cur.toks <- rest;
      t

let expect_sym cur s =
  match next cur with
  | Tsym x when String.equal x s -> ()
  | _ -> fail cur (Printf.sprintf "expected '%s'" s)

let expect_id cur =
  match next cur with
  | Tid x -> x
  | _ -> fail cur "expected an identifier"

let eat_sym cur s =
  match peek cur with
  | Some (Tsym x) when String.equal x s ->
      ignore (next cur);
      true
  | _ -> false

let parse_type cur =
  let name = expect_id cur in
  let ty = ref (Jtype.of_name name) in
  while eat_sym cur "[" do
    expect_sym cur "]";
    ty := Jtype.Array !ty
  done;
  !ty

let split_last_dot cur q =
  match String.rindex_opt q '.' with
  | Some i -> (String.sub q 0 i, String.sub q (i + 1) (String.length q - i - 1))
  | None -> fail cur (Printf.sprintf "expected a dotted name, got %s" q)

let block_id cur label =
  if String.length label < 2 || label.[0] <> 'b' then
    fail cur ("expected a block label, got " ^ label);
  match int_of_string_opt (String.sub label 1 (String.length label - 1)) with
  | Some n -> n
  | None -> fail cur ("bad block label " ^ label)

let binop_of_sym = function
  | "+" -> Some Ir.Add | "-" -> Some Ir.Sub | "*" -> Some Ir.Mul | "/" -> Some Ir.Div
  | "%" -> Some Ir.Rem | "<" -> Some Ir.Lt | "<=" -> Some Ir.Le | ">" -> Some Ir.Gt
  | ">=" -> Some Ir.Ge | "==" -> Some Ir.Eq | "!=" -> Some Ir.Ne | "&" -> Some Ir.And
  | "|" -> Some Ir.Or | "^" -> Some Ir.Xor | "<<" -> Some Ir.Shl | ">>" -> Some Ir.Shr
  | _ -> None

let parse_args cur =
  expect_sym cur "(";
  if eat_sym cur ")" then []
  else begin
    let args = ref [ expect_id cur ] in
    while eat_sym cur "," do
      args := expect_id cur :: !args
    done;
    expect_sym cur ")";
    List.rev !args
  end

let parse_operands cur =
  expect_sym cur "(";
  if eat_sym cur ")" then []
  else begin
    let operand () =
      match next cur with
      | Tid "null" -> Ir.Imm Ir.Cnull
      | Tid "true" -> Ir.Imm (Ir.Cbool true)
      | Tid "false" -> Ir.Imm (Ir.Cbool false)
      | Tid v -> Ir.Var v
      | Tint n -> Ir.Imm (Ir.Cint n)
      | Tfloat f -> Ir.Imm (Ir.Cfloat f)
      | Tstr s -> Ir.Imm (Ir.Cstr s)
      | Tsym "-" -> (
          match next cur with
          | Tint n -> Ir.Imm (Ir.Cint (-n))
          | Tfloat f -> Ir.Imm (Ir.Cfloat (-.f))
          | _ -> fail cur "expected a number after '-'")
      | Tsym _ -> fail cur "bad intrinsic operand"
    in
    let ops = ref [ operand () ] in
    while eat_sym cur "," do
      ops := operand () :: !ops
    done;
    expect_sym cur ")";
    List.rev !ops
  end

(* A call after the kind keyword: [recv.]Cls.meth(args). The tokenizer
   folds dots into identifiers, so "C.<init>" arrives as "C." + "<init>". *)
let parse_call cur ret kind =
  let q = expect_id cur in
  let q =
    if String.length q > 0 && q.[String.length q - 1] = '.' then
      match peek cur with
      | Some (Tid ("<init>" as ctor)) ->
          ignore (next cur);
          q ^ ctor
      | _ -> fail cur "dangling '.' in call target"
    else q
  in
  let args = parse_args cur in
  let prefix, mname = split_last_dot cur q in
  match kind with
  | Ir.Static -> Ir.Call (ret, kind, prefix, mname, None, args)
  | Ir.Virtual | Ir.Special -> (
      match String.index_opt prefix '.' with
      | None -> fail cur "virtual/special call needs a receiver"
      | Some i ->
          let recv = String.sub prefix 0 i in
          let cls = String.sub prefix (i + 1) (String.length prefix - i - 1) in
          Ir.Call (ret, kind, cls, mname, Some recv, args))

let parse_kind = function
  | "virtual" -> Some Ir.Virtual
  | "special" -> Some Ir.Special
  | "static" -> Some Ir.Static
  | _ -> None

(* The right-hand side of [dst = ...]. *)
let parse_rhs cur dst =
  match next cur with
  | Tint n -> Ir.Const (dst, Ir.Cint n)
  | Tfloat f -> Ir.Const (dst, Ir.Cfloat f)
  | Tstr s -> Ir.Const (dst, Ir.Cstr s)
  | Tsym "-" -> (
      match next cur with
      | Tint n -> Ir.Const (dst, Ir.Cint (-n))
      | Tfloat f -> Ir.Const (dst, Ir.Cfloat (-.f))
      | Tid v -> Ir.Unop (dst, Ir.Neg, v)
      | _ -> fail cur "bad negation")
  | Tsym "!" -> Ir.Unop (dst, Ir.Not, expect_id cur)
  | Tsym "@" ->
      let name = expect_id cur in
      Ir.Intrinsic (Some dst, name, parse_operands cur)
  | Tsym "(" ->
      let ty = parse_type cur in
      expect_sym cur ")";
      Ir.Cast (dst, expect_id cur, ty)
  | Tid "null" -> Ir.Const (dst, Ir.Cnull)
  | Tid "true" -> Ir.Const (dst, Ir.Cbool true)
  | Tid "false" -> Ir.Const (dst, Ir.Cbool false)
  | Tid "len" -> Ir.Array_length (dst, expect_id cur)
  | Tid "new" -> (
      (* [new C] | [new T[n]] | [new T[][n]] (nested element types): a
         '[' immediately followed by ']' extends the element type; a '['
         followed by a variable is the length. *)
      let ty = ref (Jtype.of_name (expect_id cur)) in
      let result = ref None in
      while !result = None && eat_sym cur "[" do
        if eat_sym cur "]" then ty := Jtype.Array !ty
        else begin
          let n = expect_id cur in
          expect_sym cur "]";
          result := Some (Ir.New_array (dst, !ty, n))
        end
      done;
      match !result, !ty with
      | Some ins, _ -> ins
      | None, Jtype.Ref c -> Ir.New (dst, c)
      | None, (Jtype.Prim _ | Jtype.Array _) -> fail cur "bad new expression")
  | Tid "static" -> (
      (* Either a static call or a static field load; a call has
         parentheses after the dotted name. *)
      match cur.toks with
      | Tid _ :: Tsym "(" :: _ -> parse_call cur (Some dst) Ir.Static
      | Tid q :: rest ->
          cur.toks <- rest;
          let c, f = split_last_dot cur q in
          Ir.Static_load (dst, c, f)
      | _ -> fail cur "bad static expression")
  | Tid kind_or_var -> (
      match parse_kind kind_or_var with
      | Some kind -> parse_call cur (Some dst) kind
      | None -> (
          let q = kind_or_var in
          match peek cur with
          | None ->
              (* Move or field load, depending on dots. *)
              if String.contains q '.' then begin
                let recv, f = split_last_dot cur q in
                if String.contains recv '.' then fail cur "dotted receiver";
                Ir.Field_load (dst, recv, f)
              end
              else Ir.Move (dst, q)
          | Some (Tsym "[") ->
              ignore (next cur);
              let i = expect_id cur in
              expect_sym cur "]";
              Ir.Array_load (dst, q, i)
          | Some (Tid "instanceof") ->
              ignore (next cur);
              Ir.Instance_of (dst, q, parse_type cur)
          | Some (Tsym op) when binop_of_sym op <> None ->
              ignore (next cur);
              let y = expect_id cur in
              Ir.Binop (dst, Option.get (binop_of_sym op), q, y)
          | Some _ -> fail cur "bad right-hand side"))
  | Tsym _ -> fail cur "bad right-hand side"

(* One statement line (the trailing ';' is already stripped). *)
let parse_stmt cur =
  match next cur with
  | Tid "monitorenter" -> Ir.Monitor_enter (expect_id cur)
  | Tid "monitorexit" -> Ir.Monitor_exit (expect_id cur)
  | Tid "iterstart" -> Ir.Iter_start
  | Tid "iterend" -> Ir.Iter_end
  | Tsym "@" ->
      let name = expect_id cur in
      Ir.Intrinsic (None, name, parse_operands cur)
  | Tid "static" -> (
      (* static C.f = x  |  static C.m(args) *)
      match cur.toks with
      | Tid _ :: Tsym "(" :: _ -> parse_call cur None Ir.Static
      | Tid q :: Tsym "=" :: rest ->
          cur.toks <- rest;
          let c, f = split_last_dot cur q in
          Ir.Static_store (c, f, expect_id cur)
      | _ -> fail cur "bad static statement")
  | Tid kind_or_lhs -> (
      match parse_kind kind_or_lhs with
      | Some kind -> parse_call cur None kind
      | None -> (
          let q = kind_or_lhs in
          match peek cur with
          | Some (Tsym "=") ->
              ignore (next cur);
              if String.contains q '.' then begin
                (* o.f = x *)
                let recv, f = split_last_dot cur q in
                if String.contains recv '.' then fail cur "dotted receiver";
                Ir.Field_store (recv, f, expect_id cur)
              end
              else parse_rhs cur q
          | Some (Tsym "[") ->
              ignore (next cur);
              let i = expect_id cur in
              expect_sym cur "]";
              expect_sym cur "=";
              Ir.Array_store (q, i, expect_id cur)
          | _ -> fail cur "bad statement"))
  | _ -> fail cur "bad statement"

let parse_terminator cur =
  match next cur with
  | Tid "return" -> (
      match peek cur with
      | None -> Ir.Ret None
      | Some (Tid v) ->
          ignore (next cur);
          Ir.Ret (Some v)
      | Some _ -> fail cur "bad return")
  | Tid "goto" -> Ir.Jump (block_id cur (expect_id cur))
  | Tid "if" ->
      let v = expect_id cur in
      (match next cur with
      | Tid "goto" -> ()
      | _ -> fail cur "expected 'goto'");
      let t = block_id cur (expect_id cur) in
      (match next cur with
      | Tid "else" -> ()
      | _ -> fail cur "expected 'else'");
      let e = block_id cur (expect_id cur) in
      Ir.Branch (v, t, e)
  | _ -> fail cur "expected a terminator"

let is_terminator_line toks =
  match toks with
  | Tid ("return" | "goto" | "if") :: _ -> true
  | _ -> false

(* ---------- line-structured program parser ---------- *)

type line = {
  num : int;
  toks : tok list;
}

(* The source as a stream of its non-blank lines. Each line is tokenized
   only when the parser reaches it, so a line's tokens die as soon as its
   statement is built instead of living until the whole file has been
   tokenized; it also makes errors come out in source order. [scanned]
   counts the lines read so far, blank ones included. *)
type lines = {
  src : string;
  mutable off : int;
  mutable scanned : int;
}

let rec read_line ls =
  let n = String.length ls.src in
  if ls.off > n then None
  else begin
    let stop = Option.value ~default:n (String.index_from_opt ls.src ls.off '\n') in
    let num = ls.scanned + 1 in
    let toks = tokenize ~line:num ls.src ~pos:ls.off ~stop in
    ls.scanned <- num;
    ls.off <- stop + 1;
    match toks with [] -> read_line ls | _ -> Some { num; toks }
  end

(* The source's last line, for errors at end of input: a final newline
   ends the last line rather than starting another. *)
let last_line ls =
  if String.ends_with ~suffix:"\n" ls.src then ls.scanned - 1 else ls.scanned

let parse source =
  let ls = { src = source; off = 0; scanned = 0 } in
  let fail_at num message = raise (Parse_error { line = num; message }) in
  let next_line () =
    match read_line ls with
    | Some l -> l
    | None -> fail_at (last_line ls) "unexpected end of input"
  in
  let strip_semi l =
    match List.rev l.toks with
    | Tsym ";" :: rest -> { l with toks = List.rev rest }
    | _ -> fail_at l.num "missing ';'"
  in
  let classes = ref [] in
  let entry = ref None in
  let parse_field l ~static toks =
    let cur = { toks; line = l.num } in
    let ty = parse_type cur in
    let name = expect_id cur in
    let init =
      if eat_sym cur "=" then
        Some
          (match next cur with
          | Tint n -> Ir.Cint n
          | Tfloat f -> Ir.Cfloat f
          | Tstr s -> Ir.Cstr s
          | Tid "null" -> Ir.Cnull
          | Tid "true" -> Ir.Cbool true
          | Tid "false" -> Ir.Cbool false
          | Tsym "-" -> (
              match next cur with
              | Tint n -> Ir.Cint (-n)
              | Tfloat f -> Ir.Cfloat (-.f)
              | _ -> fail cur "bad initializer")
          | _ -> fail cur "bad initializer")
      else None
    in
    { Ir.fname = name; ftype = ty; fstatic = static; finit = init }
  in
  let parse_method_header l ~static toks =
    let cur = { toks; line = l.num } in
    let name = expect_id cur in
    expect_sym cur "(";
    let params = ref [] in
    if not (eat_sym cur ")") then begin
      let param () =
        let v = expect_id cur in
        expect_sym cur ":";
        let ty = parse_type cur in
        (v, ty)
      in
      params := [ param () ];
      while eat_sym cur "," do
        params := param () :: !params
      done;
      expect_sym cur ")"
    end;
    let ret = if eat_sym cur ":" then Some (parse_type cur) else None in
    let has_body =
      match cur.toks with
      | [ Tsym "{" ] -> true
      | [ Tsym ";" ] -> false
      | _ -> fail cur "expected '{' or ';'"
    in
    (name, static, List.rev !params, ret, has_body)
  in
  let parse_method_body () =
    (* locals, then labelled blocks, until '}'. *)
    let locals = ref [] in
    let blocks = ref [] in
    let current_label = ref None in
    let current_instrs = ref [] in
    let current_term = ref None in
    let flush l =
      match !current_label with
      | None -> ()
      | Some _ ->
          let term =
            match !current_term with
            | Some t -> t
            | None -> fail_at l "block has no terminator"
          in
          blocks := { Ir.instrs = List.rev !current_instrs; term } :: !blocks;
          current_label := None;
          current_instrs := [];
          current_term := None
    in
    let finished = ref false in
    while not !finished do
      let l = next_line () in
      match l.toks with
      | [ Tsym "}" ] ->
          flush l.num;
          finished := true
      | Tid "local" :: _ ->
          let { toks; _ } = strip_semi l in
          let cur = { toks = List.tl toks; line = l.num } in
          let v = expect_id cur in
          expect_sym cur ":";
          let ty = parse_type cur in
          locals := (v, ty) :: !locals
      | [ Tid label; Tsym ":" ] ->
          flush l.num;
          current_label := Some (block_id { toks = []; line = l.num } label)
      | _ ->
          let { toks; _ } = strip_semi l in
          if !current_term <> None then fail_at l.num "statement after terminator";
          if is_terminator_line toks then
            current_term := Some (parse_terminator { toks; line = l.num })
          else begin
            let cur = { toks; line = l.num } in
            let ins = parse_stmt cur in
            if cur.toks <> [] then fail_at l.num "trailing tokens";
            current_instrs := ins :: !current_instrs
          end
    done;
    (List.rev !locals, Array.of_list (List.rev !blocks))
  in
  let parse_class l ~interface toks =
    let cur = { toks; line = l.num } in
    let name = expect_id cur in
    let super =
      match peek cur with
      | Some (Tid "extends") ->
          ignore (next cur);
          Some (expect_id cur)
      | _ -> None
    in
    let interfaces =
      match peek cur with
      | Some (Tid "implements") ->
          ignore (next cur);
          let is = ref [ expect_id cur ] in
          while eat_sym cur "," do
            is := expect_id cur :: !is
          done;
          List.rev !is
      | _ -> []
    in
    expect_sym cur "{";
    let fields = ref [] in
    let methods = ref [] in
    let finished = ref false in
    while not !finished do
      let l = next_line () in
      match l.toks with
      | [ Tsym "}" ] -> finished := true
      | Tid "field" :: _ -> (
          match (strip_semi l).toks with
          | Tid "field" :: rest -> fields := parse_field l ~static:false rest :: !fields
          | _ -> fail_at l.num "bad field")
      | Tid "static" :: Tid "field" :: _ -> (
          match (strip_semi l).toks with
          | Tid "static" :: Tid "field" :: rest ->
              fields := parse_field l ~static:true rest :: !fields
          | _ -> fail_at l.num "bad field")
      | Tid "method" :: rest | Tid "static" :: Tid "method" :: rest ->
          let static = match l.toks with Tid "static" :: _ -> true | _ -> false in
          let name, mstatic, params, mret, has_body = parse_method_header l ~static rest in
          let locals, body =
            if has_body then parse_method_body () else ([], [||])
          in
          methods :=
            { Ir.mname = name; mstatic; params; mret; locals; body } :: !methods
      | _ -> fail_at l.num "expected a field, method, or '}'"
    done;
    {
      Ir.cname = name;
      super;
      interfaces;
      cfields = List.rev !fields;
      cmethods = List.rev !methods;
      cinterface = interface;
    }
  in
  let finished = ref false in
  while not !finished do
    match read_line ls with
    | None -> finished := true
    | Some l -> (
        match l.toks with
        | Tid "class" :: rest -> classes := parse_class l ~interface:false rest :: !classes
        | Tid "interface" :: rest -> classes := parse_class l ~interface:true rest :: !classes
        | [ Tid "entry"; Tid q ] ->
            let c, m = split_last_dot { toks = []; line = l.num } q in
            entry := Some (c, m)
        | _ -> fail_at l.num "expected a class, interface, or entry declaration")
  done;
  match !entry with
  | Some entry -> Program.make ~entry (List.rev !classes)
  | None -> Program.make (List.rev !classes)
