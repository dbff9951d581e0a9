(** The tier-2 closure compiler: the profile-guided native tier above
    the interpreter (tier 1).

    Each resolved method is translated at its first call into
    directly-composed OCaml closures. Its one-for-one linked body is
    first fused into superinstructions ({!Fuse}); then there is one
    closure per fused instruction,
    pre-composed per basic block, with operator/accessor/operand
    dispatch hoisted to compile time, virtual calls monomorphized
    against inline-cache snapshots already warm at compile time (a
    linked program that ran before), and leaf callees devirtualized and
    inlined. Locals that provably hold only ints (or only floats) and
    that only typed templates touch live unboxed in the activation, not
    in the [Value.t] frame. Compiled code installs
    behind the interpreter's dispatch hook ({!Interp}'s [run_method])
    and is semantically identical to tier-1: results, output, step
    counts, dispatch counts, heap totals, and pool peaks all match, and
    the differential suite asserts it over every sample.

    When a compiled assumption breaks — polymorphic receiver, monitor
    (lock-contention) region, or the step budget expiring inside
    compiled code — the guard raises {!Vm_state.Tier_deopt} {e before}
    the faulting instruction's accounting; the compiled activation
    writes its unboxed locals back into the slot-indexed frame array,
    and the handler resumes tier-1 execution on that frame at the block
    and the source pc of the faulting window's first instruction,
    recording a [tier_deopt] obs instant. A
    method that deopts {!deopt_limit} times retires to tier-1. *)

type feedback = {
  fb_mono : string list;
      (** method names with a single implementation, per the opt
          pipeline's class-hierarchy analysis: inline-cache misses on
          these delegate one dispatch to the interpreter instead of
          deoptimizing the whole method *)
  fb_leaves : (string * string) list;
      (** (class, method) pairs the opt pipeline judged inline-worthy;
          they get the wider inline budget (the local structural leaf
          test still applies) *)
}

val no_feedback : feedback

val deopt_limit : int
(** Deopts tolerated per method before its compiled code is retired. *)

val make : ?feedback:feedback -> hooks:Vm_state.hooks -> Resolved.program -> Vm_state.tier
(** Build the tier state for a linked program: per-method code slots
    (all cold, compiled by {!Interp} at each method's first call),
    deopt counters, the vtable-scan CHA table, and the leaf-inlining
    candidates. *)

val compile_into : Vm_state.tier -> Vm_state.st -> int -> unit
(** [compile_into t st mx] compiles method [mx] and installs it as
    [T_fn] (abstract or oversized methods retire to [T_dead]); no-op if
    already installed. Adds the method's unboxed int, unboxed float and
    boxed frame slots to [st]'s [tier2_*_slots] counters. Racing installs from several domains are benign:
    compiled code is semantically identical to the interpreter, so
    correctness never depends on when — or whether — compilation
    happens. *)
