(** Live-variable analysis (backward, may), over bitsets.

    A variable is live at a point if some path from that point reads it
    before writing it. [frame] numbers a method's variables once and
    keeps, next to each instruction, the number of the variable it
    defines and of those it reads, so [solve] hashes no name. DCE solves
    a frame, drops dead sites from its blocks and solves it again; the
    by-name [live_in]/[live_out] serve the tests. Produces no findings
    itself. *)

(** Sets of variable numbers, one bit each. *)
module Bits : sig
  type t = int array

  (** [create n]: the empty set over [n] variables. *)
  val create : int -> t

  val mem : t -> int -> bool
  val add : t -> int -> unit
  val remove : t -> int -> unit
end

type site = {
  ins : Jir.Ir.instr;
  def : int;          (** number of the variable it defines, or -1 *)
  reads : int array;  (** numbers of the variables it reads *)
}

type frame = {
  ids : int Jir.Stbl.t;          (** variable name -> number *)
  cfg : Cfg.t;
  sites : site list array;       (** per block, in order; a client may
                                     replace a block's list, never its
                                     terminator *)
  term_reads : int array array;  (** per block, what its terminator reads *)
}

val frame : Jir.Ir.meth -> frame

type t = {
  vars : int Jir.Stbl.t;    (** the frame's [ids] *)
  live_in : Bits.t array;   (** live variables at block entry *)
  live_out : Bits.t array;  (** live variables at block exit *)
}

(** The fixpoint over the frame's current sites. *)
val solve : frame -> t

val analyze : Jir.Ir.meth -> t

(** [live_in r b v]: is the variable named [v] live at block [b]'s entry
    ([live_out]: exit)? *)
val live_in : t -> int -> string -> bool
val live_out : t -> int -> string -> bool
