(** The original name-based tree-walking interpreter, kept as the
    reference implementation for the resolved-execution VM: frames are
    string-keyed hashtables and every call re-resolves its target through
    {!Jir.Hierarchy}. Same outcome type and entry points as {!Interp};
    raises {!Interp.Vm_error} on runtime failure. The differential tests
    run both VMs on every sample, and the [bench vm] target measures the
    resolved VM's steps/second against this one. *)

val run_object :
  ?heap:Heapsim.Heap.t ->
  ?is_data:(string -> bool) ->
  ?max_steps:int ->
  Jir.Program.t ->
  Interp.outcome

val run_facade :
  ?heap:Heapsim.Heap.t ->
  ?max_steps:int ->
  ?page_bytes:int ->
  Facade_compiler.Pipeline.t ->
  Interp.outcome
