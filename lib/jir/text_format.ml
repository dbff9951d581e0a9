type pos = { line : int; col : int }

exception Parse_error of { pos : pos; message : string }

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

(* ---------- scanner ---------- *)

(* The parser reads the source in place, one token ahead: the scanner
   state holds the current token's kind and source span, and a literal's
   value. Every name is interned once per parse from its span, so a name
   the source repeats allocates nothing after its first occurrence.

   Lines structure the grammar: a declaration or statement is one line,
   and the scanner reports the end of the current line as [Eol]. On a
   line that must end with ';' (a field, a local, a statement), that
   final ';' also reads as [Eol], so the grammar below never sees it. The
   helpers are top-level functions over the state rather than closures,
   so reading a token allocates nothing but the value it returns. *)

type kind =
  | Eol | Id | Int | Float | Str
  | Lbrace | Rbrace | Lparen | Rparen | Lbrack | Rbrack | Colon | Semi | Comma | Assign | At
  | Plus | Minus | Star | Slash | Percent | Lt | Gt | Amp | Bar | Caret | Bang
  | Le | Ge | Eqeq | Ne | Shl | Shr

type st = {
  src : string;
  mutable line : int;  (* the current line: its number, first offset and end *)
  mutable bol : int;
  mutable eol : int;  (* offset of the line's '\n', or the source length *)
  mutable pos : int;  (* where the next token's scan starts *)
  mutable semi_end : bool;  (* the line must end with ';', which reads as [Eol] *)
  mutable semi_final : bool;  (* [Eol] came from that final ';' *)
  mutable kind : kind;
  mutable tstart : int;  (* the current token's span; [Eol]'s is empty *)
  mutable tend : int;
  mutable prev_end : int;  (* end of the token before the current one *)
  mutable ival : int;
  mutable fval : float;
  mutable sval : string;
  mutable names : string array;  (* open addressing; [""] marks a free slot *)
  mutable nnames : int;
}

let error line col message = raise (Parse_error { pos = { line; col }; message })

let col_of st off = off - st.bol + 1

let lex_error st off message = error st.line (col_of st off) message

(* ----- interning ----- *)

let rec span_hash s i stop h =
  if i >= stop then h else span_hash s (i + 1) stop ((h * 31) + Char.code (String.unsafe_get s i))

(* [s.[i + j .. i + len - 1]] equals [name.[j .. len - 1]]. *)
let rec span_equal s i name j len =
  j >= len
  || String.unsafe_get s (i + j) = String.unsafe_get name j && span_equal s i name (j + 1) len

let rec probe names s pos len i =
  let k = Array.unsafe_get names i in
  if String.length k = 0 || (String.length k = len && span_equal s pos k 0 len) then i
  else probe names s pos len ((i + 1) land (Array.length names - 1))

let slot names s pos len =
  probe names s pos len (span_hash s pos (pos + len) 0 land (Array.length names - 1))

let grow st =
  let names = Array.make (2 * Array.length st.names) "" in
  Array.iter
    (fun k -> if String.length k > 0 then names.(slot names k 0 (String.length k)) <- k)
    st.names;
  st.names <- names

(* The one string for the name spelled at [src.[pos .. pos + len - 1]]. *)
let intern st pos len =
  if len = 0 then ""
  else begin
    let i = slot st.names st.src pos len in
    let k = Array.unsafe_get st.names i in
    if String.length k > 0 then k
    else begin
      let k = String.sub st.src pos len in
      st.names.(i) <- k;
      st.nnames <- st.nnames + 1;
      if 2 * st.nnames > Array.length st.names then grow st;
      k
    end
  end

(* ----- tokens ----- *)

let rec skip_blanks s i n =
  if i < n && (String.unsafe_get s i = ' ' || String.unsafe_get s i = '\t') then
    skip_blanks s (i + 1) n
  else i

let comment_at s i n = String.unsafe_get s i = '/' && i + 1 < n && String.unsafe_get s (i + 1) = '/'

(* Only blanks and a comment follow offset [i] on the current line. *)
let blank_from st i =
  let i = skip_blanks st.src i st.eol in
  i >= st.eol || comment_at st.src i st.eol

let is_ident_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || ch = '$'

let is_ident_char ch = is_ident_start ch || (ch >= '0' && ch <= '9') || ch = '.'

let rec ident_end s i n =
  if i < n && is_ident_char (String.unsafe_get s i) then ident_end s (i + 1) n else i

let set st kind start stop =
  st.kind <- kind;
  st.tstart <- start;
  st.tend <- stop;
  st.pos <- stop

let set_eol st off =
  st.kind <- Eol;
  st.tstart <- off;
  st.tend <- off;
  st.pos <- st.eol

(* Offset of the quote closing the string literal opened before [j], or
   -1 if the line ends first. *)
let rec string_end s j n esc =
  if j >= n then -1
  else
    let c = String.unsafe_get s j in
    if esc then string_end s (j + 1) n false
    else if c = '\\' then string_end s (j + 1) n true
    else if c = '"' then j
    else string_end s (j + 1) n false

let rec has_backslash s i stop =
  i < stop && (String.unsafe_get s i = '\\' || has_backslash s (i + 1) stop)

(* A string literal follows OCaml's lexical conventions, read by Scanf
   when it holds an escape. *)
let scan_string st i =
  let s = st.src in
  let j = string_end s (i + 1) st.eol false in
  if j < 0 then lex_error st i "unterminated string literal";
  (if has_backslash s (i + 1) j then begin
     let lit = String.sub s i (j - i + 1) in
     match Scanf.sscanf_opt lit "%S" (fun x -> x) with
     | Some x -> st.sval <- x
     | None -> lex_error st i ("bad string literal " ^ lit)
   end
   else st.sval <- String.sub s (i + 1) (j - i - 1));
  set st Str i (j + 1)

(* Special float tokens: #nan, #inf, #-inf. *)
let scan_special st i =
  let s = st.src and n = st.eol in
  let word w = i + String.length w <= n && span_equal s i w 0 (String.length w) in
  let v =
    if word "#nan" then Float.nan
    else if word "#-inf" then Float.neg_infinity
    else if word "#inf" then Float.infinity
    else lex_error st i "bad # token"
  in
  st.fval <- v;
  set st Float i (i + if v = Float.neg_infinity then 5 else 4)

let rec number_end s i j n =
  if
    j < n
    &&
    let c = String.unsafe_get s j in
    (c >= '0' && c <= '9')
    || c = '.' || c = 'x' || c = 'p' || c = 'e' || c = 'E'
    || (c >= 'a' && c <= 'f')
    || (c >= 'A' && c <= 'F')
    || ((c = '+' || c = '-') && j > i
       && (String.unsafe_get s (j - 1) = 'p' || String.unsafe_get s (j - 1) = 'e'))
  then number_end s i (j + 1) n
  else j

let rec floaty s i stop =
  i < stop
  && (let c = String.unsafe_get s i in
      c = '.' || c = 'p' || c = 'x' || floaty s (i + 1) stop)

(* The value of [s.[i .. stop - 1]] if it is all decimal digits, else -1.
   Callers pass at most 18 digits, so it cannot overflow. *)
let rec decimal s i stop acc =
  if i >= stop then acc
  else
    let c = String.unsafe_get s i in
    if c >= '0' && c <= '9' then decimal s (i + 1) stop ((acc * 10) + Char.code c - 48) else -1

(* A literal with '.', 'p' or 'x' is a float (hex floats included);
   anything else [int_of_string] reads is an int. *)
let scan_number st i =
  let s = st.src in
  let j = number_end s i i st.eol in
  if floaty s i j then begin
    let lit = String.sub s i (j - i) in
    match float_of_string_opt lit with
    | Some f ->
        st.fval <- f;
        set st Float i j
    | None -> lex_error st i ("bad float literal " ^ lit)
  end
  else begin
    let v = if j - i <= 18 then decimal s i j 0 else -1 in
    if v >= 0 then begin
      st.ival <- v;
      set st Int i j
    end
    else begin
      let lit = String.sub s i (j - i) in
      match int_of_string_opt lit with
      | Some k ->
          st.ival <- k;
          set st Int i j
      | None -> lex_error st i ("bad int literal " ^ lit)
    end
  end

let scan_symbol st i c =
  let next = if i + 1 < st.eol then String.unsafe_get st.src (i + 1) else ' ' in
  match c, next with
  | '<', '=' -> set st Le i (i + 2)
  | '>', '=' -> set st Ge i (i + 2)
  | '=', '=' -> set st Eqeq i (i + 2)
  | '!', '=' -> set st Ne i (i + 2)
  | '<', '<' -> set st Shl i (i + 2)
  | '>', '>' -> set st Shr i (i + 2)
  | ';', _ when st.semi_end && blank_from st (i + 1) ->
      st.semi_final <- true;
      set_eol st i
  | _ ->
      let k =
        match c with
        | '{' -> Lbrace | '}' -> Rbrace | '(' -> Lparen | ')' -> Rparen | '[' -> Lbrack
        | ']' -> Rbrack | ':' -> Colon | ';' -> Semi | ',' -> Comma | '=' -> Assign | '@' -> At
        | '+' -> Plus | '-' -> Minus | '*' -> Star | '/' -> Slash | '%' -> Percent | '<' -> Lt
        | '>' -> Gt | '&' -> Amp | '|' -> Bar | '^' -> Caret | '!' -> Bang
        | _ -> lex_error st i (Printf.sprintf "unexpected character %c" c)
      in
      set st k i (i + 1)

(* Read the next token of the current line. At the line's end the token
   is [Eol], positioned just past the last token (or at a final ';'). *)
let scan st =
  st.prev_end <- st.tend;
  let s = st.src and n = st.eol in
  let i = skip_blanks s st.pos n in
  if i >= n || comment_at s i n then set_eol st st.prev_end
  else begin
    let c = String.unsafe_get s i in
    if c = '<' && i + 5 < n && span_equal s i "<init>" 0 6 then set st Id i (i + 6)
    else if c = '"' then scan_string st i
    else if c = '#' then scan_special st i
    else if c >= '0' && c <= '9' then scan_number st i
    else if is_ident_start c then set st Id i (ident_end s (i + 1) n)
    else scan_symbol st i c
  end

let rec line_end s i n = if i >= n || String.unsafe_get s i = '\n' then i else line_end s (i + 1) n

(* Move to the next line with a token on it and read that token; false
   at the end of the source. A final newline ends the last line rather
   than starting another. *)
let rec next_line st =
  let n = String.length st.src in
  if st.eol + 1 > n then false
  else begin
    st.line <- st.line + 1;
    st.bol <- st.eol + 1;
    st.eol <- line_end st.src st.bol n;
    st.pos <- st.bol;
    st.tend <- st.bol;
    st.semi_end <- false;
    st.semi_final <- false;
    scan st;
    match st.kind with Eol -> next_line st | _ -> true
  end

(* Every syntax error goes through here, so the precedence the grammar
   promises holds whatever the parser had read of the line: a lexical
   error anywhere on the line is reported first, then a missing final
   ';' on a line that needs one, then [message] at [off]. *)
let fail st off message =
  let need_semi = st.semi_end in
  st.semi_end <- false;
  st.pos <- st.bol;
  st.tend <- st.bol;
  let last = ref Eol and last_end = ref st.bol in
  scan st;
  while st.kind <> Eol do
    last := st.kind;
    last_end := st.tend;
    scan st
  done;
  if need_semi && !last <> Semi then error st.line (col_of st !last_end) "missing ';'";
  error st.line (col_of st off) message

(* The source ended inside a class or a method: reported just past the
   end of its last line. *)
let end_of_input st =
  let s = st.src in
  let n = String.length s in
  let stop = if n > 0 && s.[n - 1] = '\n' then n - 1 else n in
  let line = if stop < n then st.line - 1 else st.line in
  let rec start i = if i > 0 && s.[i - 1] <> '\n' then start (i - 1) else i in
  error line (stop - start stop + 1) "unexpected end of input"

(* The rest of the line, once its construct is read, must still scan,
   and a line that needs a final ';' must have one. *)
let finish_line st =
  while st.kind <> Eol do
    scan st
  done;
  if st.semi_end && not st.semi_final then fail st st.tstart "missing ';'"

(* From here on the line must end with ';'. Only the line's first token
   can have been read, and it is re-read if it was that ';'. *)
let enter_semi st =
  st.semi_end <- true;
  match st.kind with
  | Semi ->
      st.pos <- st.bol;
      st.tend <- st.bol;
      scan st
  | _ -> ()

(* ---------- parser ---------- *)

let is_word st w =
  st.kind = Id
  && st.tend - st.tstart = String.length w
  && span_equal st.src st.tstart w 0 (String.length w)

(* The first character after the current token, skipping blanks. *)
let next_char st =
  let i = skip_blanks st.src st.tend st.eol in
  if i < st.eol then String.unsafe_get st.src i else '\n'

(* The token after the current one is '=' (not "=="). *)
let assign_follows st =
  let i = skip_blanks st.src st.tend st.eol in
  i < st.eol
  && String.unsafe_get st.src i = '='
  && not (i + 1 < st.eol && String.unsafe_get st.src (i + 1) = '=')

(* The line is the current identifier and ':' alone. *)
let label_follows st =
  let i = skip_blanks st.src st.tend st.eol in
  i < st.eol && String.unsafe_get st.src i = ':' && blank_from st (i + 1)

let need st = if st.kind = Eol then fail st st.tstart "unexpected end of line"

let ident st = intern st st.tstart (st.tend - st.tstart)

let expect_id st =
  need st;
  if st.kind <> Id then fail st st.tstart "expected an identifier";
  let v = ident st in
  scan st;
  v

let expect st k message =
  need st;
  if st.kind <> k then fail st st.tstart message;
  scan st

let eat st k =
  if st.kind = k then begin
    scan st;
    true
  end
  else false

let rec last_dot s i j =
  if j <= i then -1 else if String.unsafe_get s (j - 1) = '.' then j - 1 else last_dot s i (j - 1)

let rec first_dot s i j =
  if i >= j then -1 else if String.unsafe_get s i = '.' then i else first_dot s (i + 1) j

(* The last '.' of the name at [qs, qe). *)
let split_dot st qs qe =
  let d = last_dot st.src qs qe in
  if d < 0 then fail st qs ("expected a dotted name, got " ^ String.sub st.src qs (qe - qs));
  d

let parse_type st =
  let ty = ref (Jtype.of_name (expect_id st)) in
  while eat st Lbrack do
    expect st Rbrack "expected ']'";
    ty := Jtype.Array !ty
  done;
  !ty

(* "bN" at [qs, qe) names block N. *)
let block_label st qs qe =
  let s = st.src in
  if qe - qs < 2 || s.[qs] <> 'b' then
    fail st qs ("expected a block label, got " ^ String.sub s qs (qe - qs));
  let v = if qe - qs <= 19 then decimal s (qs + 1) qe 0 else -1 in
  if v >= 0 then v
  else
    match int_of_string_opt (String.sub s (qs + 1) (qe - qs - 1)) with
    | Some n -> n
    | None -> fail st qs ("bad block label " ^ String.sub s qs (qe - qs))

let expect_label st =
  need st;
  if st.kind <> Id then fail st st.tstart "expected an identifier";
  let qs = st.tstart and qe = st.tend in
  scan st;
  block_label st qs qe

let binop_of_kind = function
  | Plus -> Some Ir.Add | Minus -> Some Ir.Sub | Star -> Some Ir.Mul | Slash -> Some Ir.Div
  | Percent -> Some Ir.Rem | Lt -> Some Ir.Lt | Le -> Some Ir.Le | Gt -> Some Ir.Gt
  | Ge -> Some Ir.Ge | Eqeq -> Some Ir.Eq | Ne -> Some Ir.Ne | Amp -> Some Ir.And
  | Bar -> Some Ir.Or | Caret -> Some Ir.Xor | Shl -> Some Ir.Shl | Shr -> Some Ir.Shr
  | _ -> None

(* [{',' item}], then ['(' [item {',' item}] ')'] *)
let rec more st item =
  if eat st Comma then
    let x = item st in
    x :: more st item
  else []

let paren_list st item =
  expect st Lparen "expected '('";
  if eat st Rparen then []
  else begin
    let x = item st in
    let rest = more st item in
    expect st Rparen "expected ')'";
    x :: rest
  end

let operand st =
  need st;
  let op =
    match st.kind with
    | Id ->
        if is_word st "null" then Ir.Imm Ir.Cnull
        else if is_word st "true" then Ir.Imm (Ir.Cbool true)
        else if is_word st "false" then Ir.Imm (Ir.Cbool false)
        else Ir.Var (ident st)
    | Int -> Ir.Imm (Ir.Cint st.ival)
    | Float -> Ir.Imm (Ir.Cfloat st.fval)
    | Str -> Ir.Imm (Ir.Cstr st.sval)
    | Minus -> (
        scan st;
        need st;
        match st.kind with
        | Int -> Ir.Imm (Ir.Cint (-st.ival))
        | Float -> Ir.Imm (Ir.Cfloat (-.st.fval))
        | _ -> fail st st.tstart "expected a number after '-'")
    | _ -> fail st st.tstart "bad intrinsic operand"
  in
  scan st;
  op

(* A call after the kind keyword: [recv.]Cls.meth(args). "<init>" is a
   token of its own, so "C.<init>" arrives as "C." and "<init>". *)
let parse_call st ret kind =
  need st;
  if st.kind <> Id then fail st st.tstart "expected an identifier";
  let qs = st.tstart and qe = st.tend in
  scan st;
  let ctor = String.unsafe_get st.src (qe - 1) = '.' in
  let init =
    if ctor then begin
      if not (is_word st "<init>") then fail st qs "dangling '.' in call target";
      let name = ident st in
      scan st;
      name
    end
    else ""
  in
  let args = paren_list st expect_id in
  let d = if ctor then qe - 1 else split_dot st qs qe in
  let mname = if ctor then init else intern st (d + 1) (qe - d - 1) in
  match kind with
  | Ir.Static -> Ir.Call (ret, kind, intern st qs (d - qs), mname, None, args)
  | Ir.Virtual | Ir.Special ->
      let i = first_dot st.src qs d in
      if i < 0 then fail st qs "virtual/special call needs a receiver";
      Ir.Call (ret, kind, intern st (i + 1) (d - i - 1), mname, Some (intern st qs (i - qs)), args)

(* [new C] | [new T[n]] | [new T[][n]] (nested element types): a '['
   immediately followed by ']' extends the element type; a '[' followed
   by a variable is the length. *)
let rec parse_new st dst ts ty =
  if eat st Lbrack then begin
    if eat st Rbrack then parse_new st dst ts (Jtype.Array ty)
    else begin
      let n = expect_id st in
      expect st Rbrack "expected ']'";
      Ir.New_array (dst, ty, n)
    end
  end
  else
    match ty with
    | Jtype.Ref c -> Ir.New (dst, c)
    | Jtype.Prim _ | Jtype.Array _ -> fail st ts "bad new expression"

(* The name at [qs, qe) read as a field access: receiver and field. *)
let field_of st qs qe d =
  if first_dot st.src qs d >= 0 then fail st qs "dotted receiver";
  (intern st qs (d - qs), intern st (d + 1) (qe - d - 1))

(* A right-hand side that starts with a name: a keyword form, a call, a
   move, a field or array load, [instanceof] or a binary operation. *)
let parse_rhs_id st dst =
  if is_word st "null" then (scan st; Ir.Const (dst, Ir.Cnull))
  else if is_word st "true" then (scan st; Ir.Const (dst, Ir.Cbool true))
  else if is_word st "false" then (scan st; Ir.Const (dst, Ir.Cbool false))
  else if is_word st "len" then (scan st; Ir.Array_length (dst, expect_id st))
  else if is_word st "new" then begin
    scan st;
    let ts = st.tstart in
    parse_new st dst ts (Jtype.of_name (expect_id st))
  end
  else if is_word st "static" then begin
    (* Either a static call or a static field load; a call has
       parentheses after the dotted name. *)
    scan st;
    if st.kind <> Id then fail st st.tstart "bad static expression";
    if next_char st = '(' then parse_call st (Some dst) Ir.Static
    else begin
      let qs = st.tstart and qe = st.tend in
      scan st;
      let d = split_dot st qs qe in
      Ir.Static_load (dst, intern st qs (d - qs), intern st (d + 1) (qe - d - 1))
    end
  end
  else if is_word st "virtual" then (scan st; parse_call st (Some dst) Ir.Virtual)
  else if is_word st "special" then (scan st; parse_call st (Some dst) Ir.Special)
  else begin
    let qs = st.tstart and qe = st.tend in
    scan st;
    match st.kind with
    | Eol ->
        (* Move or field load, depending on dots. *)
        let d = last_dot st.src qs qe in
        if d < 0 then Ir.Move (dst, intern st qs (qe - qs))
        else
          let recv, f = field_of st qs qe d in
          Ir.Field_load (dst, recv, f)
    | Lbrack ->
        scan st;
        let i = expect_id st in
        expect st Rbrack "expected ']'";
        Ir.Array_load (dst, intern st qs (qe - qs), i)
    | Id when is_word st "instanceof" ->
        scan st;
        Ir.Instance_of (dst, intern st qs (qe - qs), parse_type st)
    | k -> (
        match binop_of_kind k with
        | Some op ->
            scan st;
            let y = expect_id st in
            Ir.Binop (dst, op, intern st qs (qe - qs), y)
        | None -> fail st st.tstart "bad right-hand side")
  end

(* The right-hand side of [dst = ...]. *)
let parse_rhs st dst =
  need st;
  match st.kind with
  | Int ->
      let n = st.ival in
      scan st;
      Ir.Const (dst, Ir.Cint n)
  | Float ->
      let f = st.fval in
      scan st;
      Ir.Const (dst, Ir.Cfloat f)
  | Str ->
      let s = st.sval in
      scan st;
      Ir.Const (dst, Ir.Cstr s)
  | Minus -> (
      scan st;
      need st;
      match st.kind with
      | Int ->
          let n = st.ival in
          scan st;
          Ir.Const (dst, Ir.Cint (-n))
      | Float ->
          let f = st.fval in
          scan st;
          Ir.Const (dst, Ir.Cfloat (-.f))
      | Id -> Ir.Unop (dst, Ir.Neg, expect_id st)
      | _ -> fail st st.tstart "bad negation")
  | Bang ->
      scan st;
      Ir.Unop (dst, Ir.Not, expect_id st)
  | At ->
      scan st;
      let name = expect_id st in
      Ir.Intrinsic (Some dst, name, paren_list st operand)
  | Lparen ->
      scan st;
      let ty = parse_type st in
      expect st Rparen "expected ')'";
      Ir.Cast (dst, expect_id st, ty)
  | Id -> parse_rhs_id st dst
  | _ -> fail st st.tstart "bad right-hand side"

(* One statement; the line's final ';' reads as its end. *)
let parse_stmt st =
  need st;
  match st.kind with
  | At ->
      scan st;
      let name = expect_id st in
      Ir.Intrinsic (None, name, paren_list st operand)
  | Id ->
      if is_word st "monitorenter" then (scan st; Ir.Monitor_enter (expect_id st))
      else if is_word st "monitorexit" then (scan st; Ir.Monitor_exit (expect_id st))
      else if is_word st "iterstart" then (scan st; Ir.Iter_start)
      else if is_word st "iterend" then (scan st; Ir.Iter_end)
      else if is_word st "static" then begin
        (* static C.f = x  |  static C.m(args) *)
        scan st;
        if st.kind = Id && next_char st = '(' then parse_call st None Ir.Static
        else if st.kind = Id && assign_follows st then begin
          let qs = st.tstart and qe = st.tend in
          scan st;
          scan st;
          let d = split_dot st qs qe in
          let c = intern st qs (d - qs) and f = intern st (d + 1) (qe - d - 1) in
          Ir.Static_store (c, f, expect_id st)
        end
        else fail st st.tstart "bad static statement"
      end
      else if is_word st "virtual" then (scan st; parse_call st None Ir.Virtual)
      else if is_word st "special" then (scan st; parse_call st None Ir.Special)
      else begin
        let qs = st.tstart and qe = st.tend in
        scan st;
        match st.kind with
        | Assign ->
            scan st;
            let d = last_dot st.src qs qe in
            if d >= 0 then begin
              (* o.f = x *)
              let recv, f = field_of st qs qe d in
              Ir.Field_store (recv, f, expect_id st)
            end
            else parse_rhs st (intern st qs (qe - qs))
        | Lbrack ->
            scan st;
            let i = expect_id st in
            expect st Rbrack "expected ']'";
            expect st Assign "expected '='";
            let v = expect_id st in
            Ir.Array_store (intern st qs (qe - qs), i, v)
        | _ -> fail st st.tstart "bad statement"
      end
  | _ -> fail st st.tstart "bad statement"

let is_terminator st = is_word st "return" || is_word st "goto" || is_word st "if"

let parse_terminator st =
  if is_word st "return" then begin
    scan st;
    match st.kind with
    | Eol -> Ir.Ret None
    | Id -> Ir.Ret (Some (expect_id st))
    | _ -> fail st st.tstart "bad return"
  end
  else if is_word st "goto" then (scan st; Ir.Jump (expect_label st))
  else begin
    scan st;
    let v = expect_id st in
    need st;
    if not (is_word st "goto") then fail st st.tstart "expected 'goto'";
    scan st;
    let t = expect_label st in
    need st;
    if not (is_word st "else") then fail st st.tstart "expected 'else'";
    scan st;
    let e = expect_label st in
    Ir.Branch (v, t, e)
  end

(* ---------- line-structured program parser ---------- *)

(* A method body: locals, then labelled blocks, until its '}'. [instrs]
   and [term] belong to the block being read, and [labelled] says a label
   opened it; statements before the first label join the first block. *)
let close_block st blocks instrs term =
  match term with
  | Some term -> { Ir.instrs = List.rev instrs; term } :: blocks
  | None -> fail st st.tstart "block has no terminator"

let rec parse_body st locals blocks labelled instrs term =
  if not (next_line st) then end_of_input st;
  if st.kind = Rbrace && blank_from st st.tend then
    let blocks = if labelled then close_block st blocks instrs term else blocks in
    (List.rev locals, Array.of_list (List.rev blocks))
  else if is_word st "local" then begin
    enter_semi st;
    scan st;
    let v = expect_id st in
    expect st Colon "expected ':'";
    let ty = parse_type st in
    finish_line st;
    parse_body st ((v, ty) :: locals) blocks labelled instrs term
  end
  else if st.kind = Id && label_follows st then begin
    let blocks = if labelled then close_block st blocks instrs term else blocks in
    ignore (block_label st st.tstart st.tend : int);
    if labelled then parse_body st locals blocks true [] None
    else parse_body st locals blocks true instrs term
  end
  else begin
    enter_semi st;
    if Option.is_some term then fail st st.tstart "statement after terminator";
    if is_terminator st then begin
      let t = parse_terminator st in
      finish_line st;
      parse_body st locals blocks labelled instrs (Some t)
    end
    else begin
      let ins = parse_stmt st in
      if st.kind <> Eol then fail st st.tstart "trailing tokens";
      finish_line st;
      parse_body st locals blocks labelled (ins :: instrs) term
    end
  end

let field_init st =
  need st;
  let c =
    match st.kind with
    | Int -> Ir.Cint st.ival
    | Float -> Ir.Cfloat st.fval
    | Str -> Ir.Cstr st.sval
    | Id when is_word st "null" -> Ir.Cnull
    | Id when is_word st "true" -> Ir.Cbool true
    | Id when is_word st "false" -> Ir.Cbool false
    | Minus -> (
        scan st;
        need st;
        match st.kind with
        | Int -> Ir.Cint (-st.ival)
        | Float -> Ir.Cfloat (-.st.fval)
        | _ -> fail st st.tstart "bad initializer")
    | _ -> fail st st.tstart "bad initializer"
  in
  scan st;
  c

(* After [field] or [static field]. *)
let parse_field st ~static =
  let ty = parse_type st in
  let name = expect_id st in
  let init = if eat st Assign then Some (field_init st) else None in
  finish_line st;
  { Ir.fname = name; ftype = ty; fstatic = static; finit = init }

let param st =
  let v = expect_id st in
  expect st Colon "expected ':'";
  (v, parse_type st)

(* After [method] or [static method]: the header, then the body unless
   the header ends with ';'. *)
let parse_method st ~static =
  let name = expect_id st in
  let params = paren_list st param in
  let mret = if eat st Colon then Some (parse_type st) else None in
  let has_body =
    match st.kind with
    | Lbrace when blank_from st st.tend -> true
    | Semi when blank_from st st.tend -> false
    | _ -> fail st st.tstart "expected '{' or ';'"
  in
  let locals, body = if has_body then parse_body st [] [] false [] None else ([], [||]) in
  { Ir.mname = name; mstatic = static; params; mret; locals; body }

let rec parse_members st fields methods =
  if not (next_line st) then end_of_input st;
  let member = "expected a field, method, or '}'" in
  if st.kind = Rbrace && blank_from st st.tend then (List.rev fields, List.rev methods)
  else if is_word st "field" then begin
    enter_semi st;
    scan st;
    let f = parse_field st ~static:false in
    parse_members st (f :: fields) methods
  end
  else if is_word st "method" then begin
    scan st;
    let m = parse_method st ~static:false in
    parse_members st fields (m :: methods)
  end
  else if is_word st "static" then begin
    let first = st.tstart in
    scan st;
    if is_word st "field" then begin
      enter_semi st;
      scan st;
      let f = parse_field st ~static:true in
      parse_members st (f :: fields) methods
    end
    else if is_word st "method" then begin
      scan st;
      let m = parse_method st ~static:true in
      parse_members st fields (m :: methods)
    end
    else fail st first member
  end
  else fail st st.tstart member

(* After [class] or [interface]; [classes] are those declared before. *)
let parse_class st classes ~interface =
  let ns = st.tstart in
  let name = expect_id st in
  let super = if is_word st "extends" then (scan st; Some (expect_id st)) else None in
  let interfaces =
    if is_word st "implements" then begin
      scan st;
      let i = expect_id st in
      i :: more st expect_id
    end
    else []
  in
  expect st Lbrace "expected '{'";
  finish_line st;
  if List.exists (fun (c : Ir.cls) -> String.equal c.Ir.cname name) classes then
    fail st ns ("duplicate class " ^ name);
  let cfields, cmethods = parse_members st [] [] in
  { Ir.cname = name; super; interfaces; cfields; cmethods; cinterface = interface }

let rec parse_decls st classes entry =
  let decl = "expected a class, interface, or entry declaration" in
  if not (next_line st) then (List.rev classes, entry)
  else if is_word st "class" then begin
    scan st;
    let c = parse_class st classes ~interface:false in
    parse_decls st (c :: classes) entry
  end
  else if is_word st "interface" then begin
    scan st;
    let c = parse_class st classes ~interface:true in
    parse_decls st (c :: classes) entry
  end
  else if is_word st "entry" then begin
    (* [entry C.m], two tokens exactly *)
    let first = st.tstart in
    scan st;
    if st.kind <> Id then fail st first decl;
    let qs = st.tstart and qe = st.tend in
    scan st;
    if st.kind <> Eol then fail st first decl;
    let d = split_dot st qs qe in
    parse_decls st classes (Some (intern st qs (d - qs), intern st (d + 1) (qe - d - 1)))
  end
  else fail st st.tstart decl

let parse source =
  let st =
    {
      src = source; line = 0; bol = 0; eol = -1; pos = 0; semi_end = false;
      semi_final = false; kind = Eol; tstart = 0; tend = 0; prev_end = 0; ival = 0;
      fval = 0.; sval = ""; names = Array.make 256 ""; nnames = 0;
    }
  in
  match parse_decls st [] None with
  | classes, Some entry -> Program.make ~entry classes
  | classes, None -> Program.make classes
