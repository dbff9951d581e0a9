(** A textual surface syntax for jir programs, with a serializer and
    parser that round-trip.

    The syntax is line-oriented and Jimple-flavoured:

    {v
    class Professor extends Person implements Comparable {
      field int id;
      static field int count = 0;
      method addStudent(s: Student) {
        local n: int;
        local one: int;
        b0:
          n = this.numStudents;
          this.students[n] = s;
          one = 1;
          n = n + one;
          this.numStudents = n;
          return;
      }
    }
    entry Main.main
    v}

    Statement forms: moves ([x = y]), literals ([x = 42], [x = 4.5],
    [x = true], [x = null], [x = "s"]), binary/unary operators,
    [x = new C], [x = new T\[n\]], field and array loads/stores,
    [x = static C.f] / [static C.f = x], [x = len a],
    [\[x =\] virtual|special|static \[recv.\]C.m(args)],
    [x = y instanceof T], [x = (T) y], [monitorenter x], [monitorexit x],
    [iterstart], [iterend], [\[x =\] @intrinsic(arg, ...)];
    terminators: [return \[x\]], [goto bN], [if x goto bN else bM]. *)

type pos = { line : int; col : int }
(** A source position: 1-based line and column (a byte offset into the
    line). *)

exception Parse_error of { pos : pos; message : string }

val to_string : Program.t -> string
(** Serialize a program; the output parses back to an equal program. *)

val parse : string -> Program.t
(** Parse the textual format. Raises {!Parse_error} with a 1-based line
    and column on malformed input, a class declared twice included. The
    result is *not* verified; run {!Verify.check_program} separately.

    Parsing streams: a scanner reads the source in place, one token ahead,
    and the parser builds the program's [Ir] directly from it, so no line
    or token list is built and no line is copied out of the source. Each
    name is interned once per parse from its source span, so every
    occurrence of a name in the parsed program is one string. Errors come
    out in source order: the first malformed line is the one reported.
    Within a line, a bad character anywhere outranks a syntax error, and a
    missing final [;] outranks any other syntax error. Input that ends
    inside a class or a method body is reported just past the end of the
    source's last line (a final newline does not start a new line). *)
