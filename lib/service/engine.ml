(* Compile-once program registry plus the shared execution resources.

   The first submission of a program pays for the whole pipeline —
   classify/transform, the optimizer, linking — and builds one detached
   warm tier ({!Facade_vm.Interp.make_tier}); every later run of that
   program reuses the cached pipeline and tier, so repeat submissions
   see zero tier-2 compiles. A job asking for workers runs on the domain
   pool created once at server start ([?pool]), which is what amortizes
   [Domain.spawn] to zero across submissions; with [pool_workers = 0]
   each such job gets a private pool for its run instead. *)

module I = Facade_vm.Interp
module ES = Facade_vm.Exec_stats

type entry = {
  e_name : string;
  e_pl : Facade_compiler.Pipeline.t;
  e_tier : Facade_vm.Vm_state.tier;
  e_entry_method : string;
}

type t = {
  mu : Mutex.t;  (* guards [programs] and [compiles] *)
  programs : (string, entry) Hashtbl.t;
  pool : Parallel.Pool.t option;  (* None when pool_workers = 0 *)
  pool_workers : int;
  mutable compiles : int;  (* pipelines compiled (not tier-2 compiles) *)
}

let create ~pool_workers =
  {
    mu = Mutex.create ();
    programs = Hashtbl.create 8;
    pool =
      (if pool_workers > 0 then Some (Parallel.Pool.create ~workers:pool_workers)
       else None);
    pool_workers;
    compiles = 0;
  }

let shutdown t = Option.iter Parallel.Pool.shutdown t.pool

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let build_entry name =
  match List.find_opt (fun s -> s.Samples.name = name) Samples.all with
  | None -> None
  | Some s ->
      let pl0 = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
      let pl, rep = Opt.Driver.optimize_pipeline pl0 in
      let feedback =
        {
          Facade_vm.Compile_tier.fb_mono = rep.Opt.Driver.tier_mono;
          fb_leaves = rep.Opt.Driver.tier_leaves;
        }
      in
      (* Link eagerly, under the registry lock, so the per-pipeline link
         cache is filled before any runner touches it and the tier is
         built against the exact resolved program every run will
         execute. *)
      let rp = Facade_vm.Link.facade_program pl in
      let tier = I.make_tier ~feedback rp in
      let cls, meth = Jir.Program.entry s.Samples.program in
      Some { e_name = name; e_pl = pl; e_tier = tier; e_entry_method = cls ^ "." ^ meth }

let lookup t name =
  with_mu t (fun () ->
      match Hashtbl.find_opt t.programs name with
      | Some e -> Some e
      | None -> (
          match build_entry name with
          | None -> None
          | Some e ->
              Hashtbl.replace t.programs name e;
              t.compiles <- t.compiles + 1;
              Some e))

let program_count t = with_mu t (fun () -> Hashtbl.length t.programs)
let compile_count t = with_mu t (fun () -> t.compiles)

type run_result = {
  r_outcome : Proto.outcome;
  r_store : Pagestore.Store.stats option;
}

(* Execute one admitted job. [pages]/[heap] are the reservation admission
   granted: they become the run's store caps, so runtime enforcement
   matches admission exactly. Raises whatever the VM raises (notably
   [Pagestore.Store.Quota_exceeded]); the scheduler maps that to a
   failed job. *)
let run t entry ~workers ~pages ~heap ~max_steps =
  let t0 = Unix.gettimeofday () in
  let exec pool =
    I.run_facade ~tier:entry.e_tier ~page_quota:pages ~heap_budget:heap ~max_steps ?pool
      entry.e_pl
  in
  let o =
    match (workers, t.pool) with
    | 0, _ -> exec None
    | _, (Some _ as pool) -> exec pool
    | w, None -> Parallel.Pool.with_pool ~workers:(max 1 w) (fun p -> exec (Some p))
  in
  let run_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  let st = o.I.stats in
  let store = o.I.store_stats in
  {
    r_outcome =
      {
        Proto.oc_result =
          (match o.I.result with Some v -> Facade_vm.Value.to_string v | None -> "-");
        oc_steps = st.ES.steps;
        oc_page_records = st.ES.page_records;
        oc_live_pages =
          (match store with Some s -> s.Pagestore.Store.live_pages | None -> 0);
        oc_peak_native =
          (match store with Some s -> s.Pagestore.Store.peak_native_bytes | None -> 0);
        oc_tier2_compiles = st.ES.tier2_compiles;
        oc_tier2_recompiles = st.ES.tier2_recompiles;
        oc_osr_entries = st.ES.osr_entries;
        oc_queued_ns = 0;
        oc_run_ns = run_ns;
      };
    r_store = store;
  }
