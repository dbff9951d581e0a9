(* The domain-parallel runtime: deque/pool/sched fork-join, the constant
   time bit-vector scan, Exec_stats shard merging, a multicore stress of
   the shared lock pool and page store, and the parallel-vs-sequential
   differential over every shipped sample. *)

module PS = Pagestore
module Bitvec = PS.Bitvec
module Store = PS.Store
module Lock_pool = PS.Lock_pool
module Pool = Parallel.Pool
module Sched = Parallel.Sched
module Stats = Facade_vm.Exec_stats

(* ---------- pool / sched basics ---------- *)

let test_pool_runs_tasks () =
  let pool = Pool.create ~workers:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let hits = Atomic.make 0 in
      Sched.run_list pool
        (List.init 64 (fun _ () -> Atomic.incr hits));
      Alcotest.(check int) "all tasks ran" 64 (Atomic.get hits))

let test_sched_nested_spawn () =
  let pool = Pool.create ~workers:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let hits = Atomic.make 0 in
      let g = Sched.group pool in
      Sched.spawn g (fun () ->
          Atomic.incr hits;
          Sched.spawn g (fun () -> Atomic.incr hits));
      Sched.wait g;
      Alcotest.(check int) "parent and nested child ran" 2 (Atomic.get hits))

let test_sched_exception () =
  let pool = Pool.create ~workers:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let g = Sched.group pool in
      Sched.spawn g (fun () -> failwith "boom");
      Sched.spawn g (fun () -> ());
      Alcotest.check_raises "first task exception re-raised at join"
        (Failure "boom") (fun () -> Sched.wait g))

(* [with_pool] shuts its pool down and re-raises when the body raises.
   More raising bodies than OCaml's 128-domain cap, then a pool that
   still runs every task, show each pool's domains were joined. *)
let test_with_pool_raise () =
  for _ = 1 to 130 do
    Alcotest.check_raises "body's exception re-raised" (Failure "body") (fun () ->
        Pool.with_pool ~workers:1 (fun pool ->
            Sched.run_list pool [ (fun () -> ()) ];
            failwith "body"))
  done;
  let hits = Atomic.make 0 in
  Pool.with_pool ~workers:2 (fun pool ->
      Sched.run_list pool (List.init 64 (fun _ () -> Atomic.incr hits)));
  Alcotest.(check int) "a later pool runs every task" 64 (Atomic.get hits)

(* ---------- satellite: constant-time lowest_clear vs the scan ---------- *)

let test_lowest_clear_pinned () =
  for limit = 1 to 62 do
    let check word =
      Alcotest.(check int)
        (Printf.sprintf "word=%x limit=%d" word limit)
        (Bitvec.lowest_clear_scan word ~limit)
        (Bitvec.lowest_clear word ~limit)
    in
    check 0;
    check ((1 lsl limit) - 1);
    (* all set below the limit *)
    check (-1);
    (* every word bit set *)
    for b = 0 to limit - 1 do
      check (1 lsl b);
      (* single bit set *)
      check ((1 lsl b) - 1);
      (* b low bits set: lowest clear is b *)
      check (lnot (1 lsl b))
      (* single bit clear *)
    done
  done

let prop_lowest_clear =
  QCheck.Test.make ~name:"lowest_clear agrees with the linear scan" ~count:2000
    QCheck.(pair int (int_range 1 62))
    (fun (word, limit) ->
      Bitvec.lowest_clear word ~limit = Bitvec.lowest_clear_scan word ~limit)

(* The bit vector creates its words as acquisition reaches them. Two
   domains released together fill fresh vectors, so they race through
   every growth of the word array: each bit must be handed out exactly
   once, which fails if a growth ever drops a word another domain has
   set bits in. *)
let test_bitvec_growth_race () =
  let n = 62 * 16 in
  for round = 1 to 100 do
    let bv = Bitvec.create n in
    let go = Atomic.make false in
    let fill () =
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      let rec loop acc =
        match Bitvec.acquire_first_free bv with
        | Some i -> loop (i :: acc)
        | None -> acc
      in
      loop []
    in
    let ds = List.init 2 (fun _ -> Domain.spawn fill) in
    Atomic.set go true;
    let got = List.sort compare (List.concat_map Domain.join ds) in
    if got <> List.init n Fun.id || Bitvec.count_set bv <> n then
      Alcotest.failf "round %d: %d bits handed out, %d distinct, %d set" round
        (List.length got)
        (List.length (List.sort_uniq compare got))
        (Bitvec.count_set bv)
  done

(* ---------- satellite: Exec_stats shard merge ---------- *)

let test_stats_merge_of_split () =
  let ops_a (s : Stats.t) =
    Stats.note_alloc s ~cls:"A" ~is_data:true;
    Stats.note_alloc s ~cls:"B" ~is_data:false;
    Stats.note_record s;
    Stats.note_pool_use s ~type_id:3 ~index:2;
    s.Stats.steps <- s.Stats.steps + 10;
    s.Stats.static_dispatches <- s.Stats.static_dispatches + 4;
    s.Stats.mix.(Stats.cat_arith) <- s.Stats.mix.(Stats.cat_arith) + 7;
    s.Stats.output <- "second" :: "first" :: s.Stats.output
  in
  let ops_b (s : Stats.t) =
    Stats.note_alloc s ~cls:"A" ~is_data:true;
    Stats.note_record s;
    Stats.note_record s;
    Stats.note_pool_use s ~type_id:3 ~index:5;
    Stats.note_pool_use s ~type_id:9 ~index:1;
    s.Stats.steps <- s.Stats.steps + 3;
    s.Stats.virtual_dispatches <- s.Stats.virtual_dispatches + 2;
    s.Stats.mix.(Stats.cat_call_virtual) <- s.Stats.mix.(Stats.cat_call_virtual) + 1;
    s.Stats.ic_hits <- s.Stats.ic_hits + 5;
    s.Stats.ic_misses <- s.Stats.ic_misses + 1;
    s.Stats.output <- "third" :: s.Stats.output
  in
  let whole = Stats.create () in
  ops_a whole;
  ops_b whole;
  let shard_a = Stats.create () and shard_b = Stats.create () in
  ops_a shard_a;
  ops_b shard_b;
  let merged = Stats.copy shard_a in
  Stats.merge merged shard_b;
  Alcotest.(check int) "heap objects" whole.Stats.heap_objects merged.Stats.heap_objects;
  Alcotest.(check int) "data objects" whole.Stats.data_objects merged.Stats.data_objects;
  Alcotest.(check int) "page records" whole.Stats.page_records merged.Stats.page_records;
  Alcotest.(check int) "steps" whole.Stats.steps merged.Stats.steps;
  Alcotest.(check int) "static dispatches" whole.Stats.static_dispatches
    merged.Stats.static_dispatches;
  Alcotest.(check int) "virtual dispatches" whole.Stats.virtual_dispatches
    merged.Stats.virtual_dispatches;
  Alcotest.(check (list string)) "output in order" (Stats.output_lines whole)
    (Stats.output_lines merged);
  Alcotest.(check int) "class A count" (Stats.class_count whole "A")
    (Stats.class_count merged "A");
  Alcotest.(check int) "class B count" (Stats.class_count whole "B")
    (Stats.class_count merged "B");
  Alcotest.(check (list (pair string int))) "instruction mix" (Stats.instr_mix whole)
    (Stats.instr_mix merged);
  Alcotest.(check (option int)) "pool index max for 3" (Hashtbl.find_opt whole.Stats.max_pool_index 3)
    (Hashtbl.find_opt merged.Stats.max_pool_index 3);
  Alcotest.(check (option int)) "pool index max for 9" (Hashtbl.find_opt whole.Stats.max_pool_index 9)
    (Hashtbl.find_opt merged.Stats.max_pool_index 9);
  (* merge must not disturb the source shard *)
  Alcotest.(check int) "source shard untouched" 3 shard_b.Stats.steps

(* ---------- satellite: multicore lock-pool / store stress ---------- *)

(* [domains] workers hammer monitor_enter/exit on a small shared record set
   while doing a deliberately racy read-modify-write under the lock, and
   each allocates records on its own store thread. If the pool ever let two
   domains hold the same record's lock, increments would be lost. *)
let test_multicore_stress () =
  let domains = 4 and records = 8 and rounds = 400 and allocs = 200 in
  let store = Store.create () in
  let locks = Lock_pool.create ~capacity:64 () in
  Store.register_thread store 0;
  for t = 1 to domains do
    Store.register_thread store t
  done;
  let shared =
    Array.init records (fun _ ->
        Store.alloc_record store ~thread:0 ~type_id:1 ~data_bytes:16)
  in
  let counters = Array.make records 0 in
  let pool = Pool.create ~workers:domains in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Sched.run_list pool
        (List.init domains (fun t () ->
             let thread = t + 1 in
             for i = 0 to rounds - 1 do
               let r = (i + t) mod records in
               Lock_pool.monitor_enter locks store shared.(r) ~thread;
               (* reentrant acquire of the same lock *)
               Lock_pool.monitor_enter locks store shared.(r) ~thread;
               let v = counters.(r) in
               Domain.cpu_relax ();
               counters.(r) <- v + 1;
               Lock_pool.monitor_exit locks store shared.(r) ~thread;
               Lock_pool.monitor_exit locks store shared.(r) ~thread
             done;
             for _ = 1 to allocs do
               ignore
                 (Store.alloc_record store ~thread ~type_id:2 ~data_bytes:24)
             done)));
  Alcotest.(check int) "no lost increments (mutual exclusion held)"
    (domains * rounds)
    (Array.fold_left ( + ) 0 counters);
  Alcotest.(check int) "all locks returned to the pool" 0
    (Lock_pool.locks_in_use locks);
  Alcotest.(check int) "bit vector consistent at quiescence" 0
    (Lock_pool.bits_in_use locks);
  Alcotest.(check bool) "contention was real" true
    (Lock_pool.peak_locks_in_use locks >= 1);
  Array.iter
    (fun a ->
      Alcotest.(check int) "record lock field zeroed" 0
        (Store.get_lock_field store a))
    shared;
  for t = 1 to domains do
    match Store.thread_totals store ~thread:t with
    | None -> Alcotest.fail "worker thread unregistered"
    | Some tt ->
        Alcotest.(check int)
          (Printf.sprintf "thread %d allocation total" t)
          allocs tt.Store.thread_records
  done;
  Alcotest.(check int) "store saw every allocation"
    (records + (domains * allocs))
    (Store.stats store).Store.records_allocated

(* The lock table is filled on demand and grows by doubling. Four domains
   each hold [per_domain] locks at once, so the table passes several growth
   points, while a fifth domain waits on a lock taken before any growth:
   the wait must end normally once that lock is released, and every lock
   must return to the pool. *)
let test_lock_pool_growth_under_contention () =
  let domains = 4 and per_domain = 40 and rounds = 5 in
  let store = Store.create () in
  let locks = Lock_pool.create ~capacity:512 () in
  for t = 0 to domains + 1 do
    Store.register_thread store t
  done;
  let held = Store.alloc_record store ~thread:0 ~type_id:1 ~data_bytes:8 in
  let recs =
    Array.init domains (fun _ ->
        Array.init per_domain (fun _ ->
            Store.alloc_record store ~thread:0 ~type_id:1 ~data_bytes:8))
  in
  Lock_pool.monitor_enter locks store held ~thread:0;
  let waiting = Atomic.make false and waited = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        let thread = domains + 1 in
        Atomic.set waiting true;
        Lock_pool.monitor_enter locks store held ~thread;
        Atomic.set waited true;
        Lock_pool.monitor_exit locks store held ~thread)
  in
  while not (Atomic.get waiting) do
    Domain.cpu_relax ()
  done;
  Thread.delay 0.02;
  let lockers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let thread = d + 1 in
            for _ = 1 to rounds do
              Array.iter (fun r -> Lock_pool.monitor_enter locks store r ~thread) recs.(d);
              let ids = Array.map (Store.get_lock_field store) recs.(d) in
              if Array.exists (fun id -> id = 0) ids
                 || List.length (List.sort_uniq compare (Array.to_list ids)) <> per_domain
              then failwith "held records do not have distinct lock ids";
              Array.iter (fun r -> Lock_pool.monitor_exit locks store r ~thread) recs.(d)
            done))
  in
  List.iter Domain.join lockers;
  Alcotest.(check bool) "waiter still blocked while the lock is held" false
    (Atomic.get waited);
  Lock_pool.monitor_exit locks store held ~thread:0;
  Domain.join waiter;
  Alcotest.(check bool) "waiter took the lock after the growth" true (Atomic.get waited);
  Alcotest.(check bool) "table grew past several doublings" true
    (Lock_pool.peak_locks_in_use locks > 32);
  Alcotest.(check int) "all locks returned to the pool" 0 (Lock_pool.locks_in_use locks);
  Alcotest.(check int) "bit vector consistent at quiescence" 0
    (Lock_pool.bits_in_use locks);
  Alcotest.(check int) "held record's lock field zeroed" 0
    (Store.get_lock_field store held)

(* ---------- satellite: heap shard merge / flush-order invariance ---------- *)

module Heap = Heapsim.Heap
module Shard = Heapsim.Heap.Shard

let big_heap () =
  (* Large enough that none of the shard tests ever triggers a GC, so
     live populations are pure bookkeeping and flush order provably
     cannot matter. *)
  Heap.create (Heapsim.Hconfig.make ~heap_bytes:(1 lsl 26) ())

(* A tiny op language over the shard API. I/O quanta are dyadic
   (n/1024 s) so float accumulation is exact in any association. *)
type sop =
  | Oalloc of Heap.lifetime * int
  | Oalloc_many of Heap.lifetime * int * int
  | Onative of int
  | Oio of int

let lifetimes = [| Heap.Temp; Heap.Iteration; Heap.Control; Heap.Permanent |]

let op_of_ints (tag, a, b) =
  let lt = lifetimes.(abs a mod 4) in
  match abs tag mod 4 with
  | 0 -> Oalloc (lt, 8 + (abs b mod 256))
  | 1 -> Oalloc_many (lt, 8 + (abs b mod 64), 1 + (abs a mod 8))
  | 2 -> Onative (8 * (1 + (abs b mod 32)))
  | _ -> Oio (abs b mod 64)

let apply_direct h = function
  | Oalloc (lt, bytes) -> Heap.alloc h ~lifetime:lt ~bytes
  | Oalloc_many (lt, bytes_each, count) ->
      Heap.alloc_many h ~lifetime:lt ~bytes_each ~count
  | Onative bytes -> Heap.native_alloc h ~bytes
  | Oio n ->
      Heapsim.Sim_clock.charge (Heap.clock h) Heapsim.Sim_clock.Load
        (float_of_int n /. 1024.)

let apply_shard s = function
  | Oalloc (lt, bytes) -> Shard.alloc s ~lifetime:lt ~bytes
  | Oalloc_many (lt, bytes_each, count) ->
      Shard.alloc_many s ~lifetime:lt ~bytes_each ~count
  | Onative bytes -> Shard.native_alloc s ~bytes
  | Oio n -> Shard.charge_io s ~seconds:(float_of_int n /. 1024.)

let heap_totals h =
  let gs = Heap.stats h in
  ( ( gs.Heapsim.Gc_stats.objects_allocated,
      gs.Heapsim.Gc_stats.bytes_allocated,
      Heap.native_bytes h ),
    ( Heap.live_objects h,
      Heap.live_bytes h,
      Heapsim.Sim_clock.get (Heap.clock h) Heapsim.Sim_clock.Load ) )

let totals_testable =
  Alcotest.(pair (triple int int int) (triple int int (float 0.0)))

(* Split an op sequence across k shards and flush the shards in an
   arbitrary interleaved order: every final heap total must equal the
   direct sequential application. This is exactly the freedom the
   parallel interpreter exploits — children fill shards in any real-time
   order, and joins merge/flush them at happens-before edges. *)
let prop_shard_flush_order =
  QCheck.Test.make ~name:"interleaved shard flush order is invisible" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 60) (triple int int int))
        (int_range 1 6) int)
    (fun (raw, k, seed) ->
      let ops = List.map op_of_ints raw in
      let direct = big_heap () in
      List.iter (apply_direct direct) ops;
      let sharded = big_heap () in
      let shards = Array.init k (fun _ -> Shard.create ()) in
      List.iteri (fun i op -> apply_shard shards.(i mod k) op) ops;
      (* Deterministic shuffle of the flush order from the seed. *)
      let order = Array.init k (fun i -> i) in
      let st = ref (abs seed + 1) in
      for i = k - 1 downto 1 do
        st := (!st * 1103515245) + 12345;
        let j = abs !st mod (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      Array.iter (fun i -> Shard.flush sharded shards.(i)) order;
      Array.for_all Shard.is_empty shards
      && heap_totals direct = heap_totals sharded)

let test_shard_merge_of_split () =
  let ops_a =
    [
      Oalloc (Heap.Permanent, 48); Oalloc_many (Heap.Iteration, 16, 5);
      Onative 4096; Oio 8; Oalloc (Heap.Temp, 24);
    ]
  and ops_b =
    [
      Oalloc (Heap.Iteration, 16); Onative 512; Oio 3;
      Oalloc_many (Heap.Control, 32, 2);
    ]
  in
  let direct = big_heap () in
  List.iter (apply_direct direct) (ops_a @ ops_b);
  let merged = big_heap () in
  let sa = Shard.create () and sb = Shard.create () in
  List.iter (apply_shard sa) ops_a;
  List.iter (apply_shard sb) ops_b;
  let objs, bytes = Shard.pending sa in
  Alcotest.(check bool) "pending counts charged work" true (objs = 7 && bytes > 0);
  Shard.merge ~dst:sa ~src:sb;
  Alcotest.(check bool) "merge clears the source" true (Shard.is_empty sb);
  Shard.flush merged sa;
  Alcotest.(check bool) "flush clears the shard" true (Shard.is_empty sa);
  Alcotest.check totals_testable "merge-of-split equals direct application"
    (heap_totals direct) (heap_totals merged);
  (* native_free folds into the same delta *)
  Shard.native_alloc sa ~bytes:64;
  Shard.native_free sa ~bytes:24;
  Shard.flush merged sa;
  Alcotest.(check int) "net native delta" (Heap.native_bytes direct + 40)
    (Heap.native_bytes merged)

(* ---------- satellite: parallel-vs-sequential differential ---------- *)

(* One line per observable. Everything here must be bit-exact between the
   sequential path and any pool size: results and printed output, facade
   and lock-pool populations, page-store totals, and the final heap-level
   totals accumulated through the per-domain shards. GC pause *counts*
   are deliberately absent — batching moves trigger points, and the
   contract only makes the totals exact. *)
let run_fingerprint ?workers pl =
  let heap = big_heap () in
  let o =
    Vm_runs.with_workers workers (fun pool -> Facade_vm.Interp.run_facade ~heap ?pool pl)
  in
  let gs = Heap.stats heap in
  let records, live =
    match o.Facade_vm.Interp.store_stats with
    | Some st -> (st.Store.records_allocated, st.Store.live_pages)
    | None -> (0, 0)
  in
  let result = Exact.exact_result o.Facade_vm.Interp.result in
  let pool_peaks =
    Hashtbl.fold
      (fun tid idx acc -> (tid, idx) :: acc)
      o.Facade_vm.Interp.stats.Stats.max_pool_index []
    |> List.sort compare
    |> List.map (fun (t, i) -> Printf.sprintf "%d:%d" t i)
    |> String.concat ","
  in
  [
    "result=" ^ result;
    Printf.sprintf "facades=%d locks_peak=%d" o.Facade_vm.Interp.facades_allocated
      o.Facade_vm.Interp.locks_peak;
    Printf.sprintf "page_records=%d steps=%d"
      o.Facade_vm.Interp.stats.Stats.page_records
      o.Facade_vm.Interp.stats.Stats.steps;
    Printf.sprintf "store_records=%d live_pages=%d" records live;
    Printf.sprintf "heap_objects=%d heap_bytes=%d"
      gs.Heapsim.Gc_stats.objects_allocated gs.Heapsim.Gc_stats.bytes_allocated;
    Printf.sprintf "native=%d live_objects=%d live_bytes=%d"
      (Heap.native_bytes heap) (Heap.live_objects heap) (Heap.live_bytes heap);
    "pool_peaks=" ^ pool_peaks;
  ]
  @ Stats.output_lines o.Facade_vm.Interp.stats

let test_parallel_differential () =
  List.iter
    (fun (s : Samples.sample) ->
      let pl =
        Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program
      in
      let seq = run_fingerprint pl in
      List.iter
        (fun w ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: workers=%d matches sequential" s.Samples.name w)
            seq
            (run_fingerprint ~workers:w pl))
        [ 1; 2; 4; 8 ])
    Samples.all

(* The samples that take locks, pinned to their recorded results, steps
   and lock-pool peaks: the on-demand lock table must not change what a
   run does or how many locks it holds at once, sequentially or on 4
   workers. *)
let test_lock_samples_pinned () =
  List.iter
    (fun (name, result, steps, locks_peak) ->
      let s = List.find (fun (s : Samples.sample) -> s.Samples.name = name) Samples.all in
      let pl = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
      let seq = run_fingerprint pl in
      Alcotest.(check (list string)) (name ^ ": workers=4 matches sequential") seq
        (run_fingerprint ~workers:4 pl);
      let o = Facade_vm.Interp.run_facade pl in
      Alcotest.(check string) (name ^ ": result") result
        (Exact.exact_result o.Facade_vm.Interp.result);
      Alcotest.(check int) (name ^ ": steps") steps o.Facade_vm.Interp.stats.Stats.steps;
      Alcotest.(check int) (name ^ ": locks_peak") locks_peak o.Facade_vm.Interp.locks_peak)
    [
      ("locking", "3", 43, 2);
      ("locking-large", "6400", 38689, 2);
      ("threads", "201", 2430, 1);
    ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "tasks all run" `Quick test_pool_runs_tasks;
          Alcotest.test_case "nested spawn on 1 worker" `Quick test_sched_nested_spawn;
          Alcotest.test_case "exception re-raised at join" `Quick test_sched_exception;
          Alcotest.test_case "with_pool re-raises and joins" `Quick test_with_pool_raise;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "lowest_clear pinned to scan" `Quick
            test_lowest_clear_pinned;
          QCheck_alcotest.to_alcotest prop_lowest_clear;
          Alcotest.test_case "growth race hands out each bit once" `Quick
            test_bitvec_growth_race;
        ] );
      ( "exec-stats",
        [ Alcotest.test_case "merge of split equals whole" `Quick test_stats_merge_of_split ] );
      ( "heap-shard",
        [
          Alcotest.test_case "merge of split equals direct" `Quick
            test_shard_merge_of_split;
          QCheck_alcotest.to_alcotest prop_shard_flush_order;
        ] );
      ( "stress",
        [
          Alcotest.test_case "multicore lock pool + store" `Quick test_multicore_stress;
          Alcotest.test_case "lock table grows under contention" `Quick
            test_lock_pool_growth_under_contention;
        ] );
      ( "differential",
        [
          Alcotest.test_case "lock samples pinned" `Quick test_lock_samples_pinned;
          Alcotest.test_case "every sample: parallel == sequential" `Quick
            test_parallel_differential;
        ] );
    ]
