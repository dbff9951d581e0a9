(** Def/use extraction per jir instruction.

    Every jir instruction defines at most one variable; everything else it
    touches is a use. Terminators only use. *)

val def : Jir.Ir.instr -> Jir.Ir.var option
val uses : Jir.Ir.instr -> Jir.Ir.var list
val term_uses : Jir.Ir.terminator -> Jir.Ir.var list

(** [reads ins v] is [List.mem v (uses ins)], [term_reads t v] is
    [List.mem v (term_uses t)] and [defines ins v] is [def ins = Some v];
    none of them allocates. *)

val reads : Jir.Ir.instr -> Jir.Ir.var -> bool
val term_reads : Jir.Ir.terminator -> Jir.Ir.var -> bool
val defines : Jir.Ir.instr -> Jir.Ir.var -> bool
