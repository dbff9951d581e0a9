(* Bit-exact rendering of a run's result for the differential oracles.
   [Value.to_string] prints floats with %g, six significant digits, so a
   float that differs in its seventh digit would compare equal; %h
   prints every bit of the double (and tells -0.0 from 0.0).
   [Value.to_string] itself stays as it is: sys.print output goes
   through it. *)

let exact_value = function
  | Facade_vm.Value.Float x -> Printf.sprintf "%h" x
  | v -> Facade_vm.Value.to_string v

let exact_result = function Some v -> exact_value v | None -> "-"
