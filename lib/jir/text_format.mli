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

exception Parse_error of { line : int; message : string }

val to_string : Program.t -> string
(** Serialize a program; the output parses back to an equal program. *)

val parse : string -> Program.t
(** Parse the textual format. Raises {!Parse_error} with a 1-based line
    number on malformed input. The result is *not* verified; run
    {!Verify.check_program} separately.

    Parsing streams: the source is scanned by offset and each line is
    tokenized only when the parser reaches it, so no line is copied out
    of the source and a line's tokens are garbage once its declaration or
    statement is built. Errors therefore come out in source order: the
    first malformed line is the one reported, whether the fault is a bad
    character or a bad statement. Input that ends inside a class or a
    method body is reported at the source's last line (a final newline
    does not start a new line). *)
