(* Shorthands for the run shapes the suites repeat. In [Interp], tier 2
   runs if a [?tier] is passed and a facade run is parallel if a [?pool]
   is passed; here [~tier2:true] builds a fresh tier for the program the
   run executes, and [with_workers] makes the pool. *)

module I = Facade_vm.Interp

(* P linked with [is_data], in tier 2 when [tier2]. *)
let run_object ?heap ?max_steps ?(tier2 = false) ?is_data p =
  let rp = Facade_vm.Link.object_program ?is_data p in
  let tier = if tier2 then Some (I.make_tier rp) else None in
  I.run_object_linked ?heap ?max_steps ?tier rp

(* A fresh tier for [pl]'s cached link: the program [run_facade] runs. *)
let facade_tier pl = I.make_tier (Facade_vm.Link.facade_program pl)

(* [f None], or [f (Some pool)] on a private pool of [n] domains. *)
let with_workers workers f =
  match workers with
  | None -> f None
  | Some n -> Parallel.Pool.with_pool ~workers:n (fun pool -> f (Some pool))
