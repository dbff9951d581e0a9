module PS = Pagestore
module Addr = PS.Addr
module Page = PS.Page
module Pool = PS.Page_pool
module Mgr = PS.Page_manager
module Store = PS.Store

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"Addr pack/unpack" ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 ((1 lsl 28) - 1)))
    (fun (page, offset) ->
      let a = Addr.make ~page ~offset in
      Addr.page a = page && Addr.offset a = offset && not (Addr.is_null a))

let test_addr_null () =
  Alcotest.(check bool) "null is null" true (Addr.is_null Addr.null);
  Alcotest.(check int) "null encodes as 0" 0 (Addr.to_int Addr.null);
  let a = Addr.make ~page:0 ~offset:0 in
  Alcotest.(check bool) "page0/off0 is not null" false (Addr.is_null a)

let test_addr_add () =
  let a = Addr.make ~page:3 ~offset:100 in
  let b = Addr.add a 28 in
  Alcotest.(check int) "same page" 3 (Addr.page b);
  Alcotest.(check int) "offset advanced" 128 (Addr.offset b)

let prop_page_i32_roundtrip =
  QCheck.Test.make ~name:"Page i32 roundtrip" ~count:300 QCheck.int32 (fun v ->
      let p = Page.create ~bytes:64 in
      Page.write_i32 p 8 (Int32.to_int v);
      Page.read_i32 p 8 = Int32.to_int v)

let prop_page_i64_roundtrip =
  QCheck.Test.make ~name:"Page i64 roundtrip (63-bit ints)" ~count:300 QCheck.int (fun v ->
      let p = Page.create ~bytes:64 in
      Page.write_i64 p 0 v;
      Page.read_i64 p 0 = v)

let prop_page_f64_roundtrip =
  QCheck.Test.make ~name:"Page f64 roundtrip incl. sign/NaN" ~count:300 QCheck.float (fun v ->
      let p = Page.create ~bytes:64 in
      Page.write_f64 p 16 v;
      let r = Page.read_f64 p 16 in
      Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float v))

let test_page_f64_negative () =
  (* The sign bit lives in bit 63 — the case a naive 63-bit int path loses. *)
  let p = Page.create ~bytes:32 in
  Page.write_f64 p 0 (-1.5);
  Alcotest.(check (float 0.0)) "negative survives" (-1.5) (Page.read_f64 p 0)

let test_page_u16 () =
  let p = Page.create ~bytes:16 in
  Page.write_u16 p 2 0x7fff;
  Alcotest.(check int) "u16 max" 0x7fff (Page.read_u16 p 2);
  Page.write_u16 p 2 0;
  Alcotest.(check int) "u16 zero" 0 (Page.read_u16 p 2)

let test_page_blit () =
  let a = Page.create ~bytes:64 and b = Page.create ~bytes:64 in
  Page.write_i32 a 0 111;
  Page.write_i32 a 4 222;
  Page.blit ~src:a ~src_off:0 ~dst:b ~dst_off:8 ~len:8;
  Alcotest.(check int) "copied 1" 111 (Page.read_i32 b 8);
  Alcotest.(check int) "copied 2" 222 (Page.read_i32 b 12)

let test_size_class () =
  Alcotest.(check int) "tiny" 0 (PS.Size_class.index 8);
  Alcotest.(check int) "boundary inclusive" 0 (PS.Size_class.index 16);
  Alcotest.(check int) "page-sized" (PS.Size_class.count - 1) (PS.Size_class.index 32768);
  Alcotest.(check int) "oversize" (-1) (PS.Size_class.index 32769)

let test_pool_recycling () =
  let pool = Pool.create () in
  let a = Pool.acquire pool in
  Pool.release pool a;
  let b = Pool.acquire pool in
  Alcotest.(check int) "recycled id" a b;
  Alcotest.(check int) "one page created" 1 (Pool.pages_created pool);
  Alcotest.(check int) "one recycle" 1 (Pool.pages_recycled pool)

let test_pool_recycled_pages_are_zeroed () =
  let pool = Pool.create () in
  let a = Pool.acquire pool in
  Page.write_i64 (Pool.page pool a) 0 0x55aa;
  Pool.release pool a;
  let b = Pool.acquire pool in
  Alcotest.(check int) "zeroed" 0 (Page.read_i64 (Pool.page pool b) 0)

let test_pool_oversize_freed () =
  let pool = Pool.create () in
  let before = Pool.native_bytes pool in
  let id = Pool.acquire_oversize pool ~bytes:100_000 in
  Alcotest.(check int) "native grows" (before + 100_000) (Pool.native_bytes pool);
  Pool.release_oversize pool id;
  Alcotest.(check int) "native returns" before (Pool.native_bytes pool);
  Alcotest.check_raises "dead page" (Invalid_argument "Page_pool.page: dead page") (fun () ->
      ignore (Pool.page pool id))

let test_manager_bump_contiguous () =
  let pool = Pool.create () in
  let m = Mgr.create pool in
  let a = Mgr.alloc m ~bytes:16 in
  let b = Mgr.alloc m ~bytes:16 in
  (* Continuous allocation requests get contiguous space (§3.6 policy 1). *)
  Alcotest.(check int) "same page" (Addr.page a) (Addr.page b);
  Alcotest.(check int) "contiguous" (Addr.offset a + 16) (Addr.offset b)

let test_manager_large_records_on_empty_pages () =
  let pool = Pool.create () in
  let m = Mgr.create pool in
  let a = Mgr.alloc m ~bytes:20_000 in
  let b = Mgr.alloc m ~bytes:20_000 in
  Alcotest.(check bool) "separate pages" true (Addr.page a <> Addr.page b);
  Alcotest.(check int) "each at page start" 0 (Addr.offset a)

let test_manager_never_spans_pages () =
  let pool = Pool.create () in
  let m = Mgr.create pool in
  (* 1024-byte records: 32 fit exactly; the 33rd must open a new page. *)
  let addrs = List.init 40 (fun _ -> Mgr.alloc m ~bytes:1024) in
  List.iter
    (fun a ->
      Alcotest.(check bool) "fits in page" true (Addr.offset a + 1024 <= 32 * 1024))
    addrs

let test_manager_release_recycles () =
  let pool = Pool.create () in
  let m = Mgr.create pool in
  for _ = 1 to 100 do
    ignore (Mgr.alloc m ~bytes:4000)
  done;
  let live_before = Pool.live_pages pool in
  Alcotest.(check bool) "pages in use" true (live_before > 0);
  Mgr.release_all m;
  Alcotest.(check int) "all returned" 0 (Pool.live_pages pool);
  Alcotest.(check bool) "released flag" true (Mgr.released m);
  Alcotest.check_raises "alloc after release"
    (Invalid_argument "Page_manager.alloc: released manager") (fun () ->
      ignore (Mgr.alloc m ~bytes:16))

(* A manager releases its pages newest first onto the pool's LIFO free
   list, so the next manager gets the same page ids in the order the
   first one took them. *)
let test_manager_recycles_in_taken_order () =
  let pool = Pool.create () in
  (* Over half a page each, so every record opens its own page. *)
  let pages m = List.init 4 (fun _ -> Addr.page (Mgr.alloc m ~bytes:20_000)) in
  let m = Mgr.create pool in
  let first = pages m in
  Mgr.release_all m;
  let again = pages (Mgr.create pool) in
  Alcotest.(check (list int)) "same ids, same order" first again

let test_manager_tree_release () =
  let pool = Pool.create () in
  let parent = Mgr.create pool in
  let child = Mgr.create_child parent in
  let grandchild = Mgr.create_child child in
  ignore (Mgr.alloc parent ~bytes:100);
  ignore (Mgr.alloc child ~bytes:100);
  ignore (Mgr.alloc grandchild ~bytes:100);
  Mgr.release_all parent;
  Alcotest.(check bool) "subtree released" true
    (Mgr.released child && Mgr.released grandchild);
  Alcotest.(check int) "all pages returned" 0 (Pool.live_pages pool)

let test_manager_oversize_early_release () =
  let pool = Pool.create () in
  let m = Mgr.create pool in
  let a = Mgr.alloc m ~bytes:100_000 in
  let native = Pool.native_bytes pool in
  Mgr.release_oversize_early m a;
  Alcotest.(check bool) "native shrank" true (Pool.native_bytes pool < native);
  Mgr.release_all m

let prop_manager_allocations_disjoint =
  QCheck.Test.make ~name:"allocated records never overlap" ~count:50
    QCheck.(small_list (int_range 1 2048))
    (fun sizes ->
      let pool = Pool.create () in
      let m = Mgr.create pool in
      let spans =
        List.map
          (fun bytes ->
            let a = Mgr.alloc m ~bytes in
            (Addr.page a, Addr.offset a, bytes))
          sizes
      in
      let overlap (p1, o1, n1) (p2, o2, n2) =
        p1 = p2 && o1 < o2 + n2 && o2 < o1 + n1
      in
      let rec pairwise = function
        | [] -> true
        | x :: rest -> (not (List.exists (overlap x) rest)) && pairwise rest
      in
      pairwise spans)

(* ---------- Store ---------- *)

let mk_store () =
  let s = Store.create () in
  Store.register_thread s 0;
  s

let test_store_record_header () =
  let s = mk_store () in
  let a = Store.alloc_record s ~thread:0 ~type_id:12 ~data_bytes:16 in
  Alcotest.(check int) "type id written" 12 (Store.type_id s a);
  Alcotest.(check int) "lock field clear" 0 (Store.get_lock_field s a)

let test_store_fields () =
  let s = mk_store () in
  let a = Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:24 in
  Store.set_i32 s a ~offset:4 1254;
  Store.set_f64 s a ~offset:8 3.25;
  Store.set_i64 s a ~offset:16 (-42);
  Alcotest.(check int) "i32" 1254 (Store.get_i32 s a ~offset:4);
  Alcotest.(check (float 0.0)) "f64" 3.25 (Store.get_f64 s a ~offset:8);
  Alcotest.(check int) "i64 negative" (-42) (Store.get_i64 s a ~offset:16)

let test_store_array () =
  let s = mk_store () in
  let a = Store.alloc_array s ~thread:0 ~type_id:25 ~elem_bytes:4 ~length:9 in
  Alcotest.(check int) "length" 9 (Store.array_length s a);
  Alcotest.(check int) "type" 25 (Store.type_id s a);
  let off = Store.array_elem_offset ~elem_bytes:4 ~index:3 in
  Store.set_i32 s a ~offset:off 777;
  Alcotest.(check int) "elem" 777 (Store.get_i32 s a ~offset:off)

let test_store_ref_fields () =
  let s = mk_store () in
  let a = Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:8 in
  let b = Store.alloc_record s ~thread:0 ~type_id:2 ~data_bytes:8 in
  Store.set_ref s a ~offset:4 b;
  Alcotest.(check bool) "ref roundtrip" true (Addr.equal b (Store.get_ref s a ~offset:4));
  Store.set_ref s a ~offset:4 Addr.null;
  Alcotest.(check bool) "null ref" true (Addr.is_null (Store.get_ref s a ~offset:4))

let test_store_arraycopy () =
  let s = mk_store () in
  let a = Store.alloc_array s ~thread:0 ~type_id:7 ~elem_bytes:4 ~length:10 in
  let b = Store.alloc_array s ~thread:0 ~type_id:7 ~elem_bytes:4 ~length:10 in
  for i = 0 to 9 do
    Store.set_i32 s a ~offset:(Store.array_elem_offset ~elem_bytes:4 ~index:i) (i * i)
  done;
  Store.arraycopy s ~src:a ~src_pos:2 ~dst:b ~dst_pos:0 ~len:5 ~elem_bytes:4;
  Alcotest.(check int) "copied" 16
    (Store.get_i32 s b ~offset:(Store.array_elem_offset ~elem_bytes:4 ~index:2))

let test_store_iterations () =
  let s = mk_store () in
  Store.iteration_start s ~thread:0;
  for _ = 1 to 1000 do
    ignore (Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:64)
  done;
  let live = Store.live_page_objects s in
  Alcotest.(check bool) "pages live inside iteration" true (live > 0);
  Store.iteration_end s ~thread:0;
  Alcotest.(check int) "released at iteration end" 0 (Store.live_page_objects s);
  (* The next iteration reuses the recycled pages — few fresh creations. *)
  let created = (Store.stats s).Store.pages_created in
  Store.iteration_start s ~thread:0;
  for _ = 1 to 1000 do
    ignore (Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:64)
  done;
  Store.iteration_end s ~thread:0;
  Alcotest.(check int) "pages recycled, none created" created
    (Store.stats s).Store.pages_created

let test_store_thread_parenting () =
  let s = mk_store () in
  Store.iteration_start s ~thread:0;
  Store.register_thread ~parent:0 s 1;
  ignore (Store.alloc_record s ~thread:1 ~type_id:1 ~data_bytes:64);
  (* Ending the spawning iteration reclaims the child thread's pages too. *)
  Store.iteration_end s ~thread:0;
  Alcotest.(check int) "child pages reclaimed" 0 (Store.live_page_objects s)

let test_store_unregistered_thread () =
  let s = Store.create () in
  Alcotest.check_raises "unknown thread" (Invalid_argument "Store: thread 5 not registered")
    (fun () -> ignore (Store.alloc_record s ~thread:5 ~type_id:1 ~data_bytes:8))

(* ---------- facade pools ---------- *)

let test_facade_pool_bounds () =
  let p = PS.Facade_pool.create ~bounds:[| 1; 3; 0 |] in
  Alcotest.(check int) "total = params + receivers" (1 + 3 + 0 + 3)
    (PS.Facade_pool.total_facades p);
  let f = PS.Facade_pool.param p ~type_id:1 ~index:2 in
  Alcotest.(check int) "slot" 2 f.PS.Facade_pool.slot;
  Alcotest.check_raises "beyond bound"
    (Invalid_argument "Facade_pool.param: index 3 exceeds static bound 3 for type 1") (fun () ->
      ignore (PS.Facade_pool.param p ~type_id:1 ~index:3))

let test_facade_bind_read () =
  let p = PS.Facade_pool.create ~bounds:[| 2 |] in
  let f = PS.Facade_pool.param p ~type_id:0 ~index:0 in
  let a = Addr.make ~page:5 ~offset:16 in
  PS.Facade_pool.bind f a;
  Alcotest.(check bool) "read returns binding" true (Addr.equal a (PS.Facade_pool.read f));
  let g = PS.Facade_pool.param p ~type_id:0 ~index:0 in
  Alcotest.(check bool) "same facade reused" true (f == g)

(* ---------- bit vector & lock pool ---------- *)

let test_bitvec_sequential () =
  let bv = PS.Bitvec.create 100 in
  let a = PS.Bitvec.acquire_first_free bv in
  let b = PS.Bitvec.acquire_first_free bv in
  Alcotest.(check (option int)) "first" (Some 0) a;
  Alcotest.(check (option int)) "second" (Some 1) b;
  PS.Bitvec.clear bv 0;
  Alcotest.(check (option int)) "reuses lowest" (Some 0) (PS.Bitvec.acquire_first_free bv);
  Alcotest.(check int) "two set" 2 (PS.Bitvec.count_set bv)

let test_bitvec_exhaustion () =
  let bv = PS.Bitvec.create 3 in
  ignore (PS.Bitvec.acquire_first_free bv);
  ignore (PS.Bitvec.acquire_first_free bv);
  ignore (PS.Bitvec.acquire_first_free bv);
  Alcotest.(check (option int)) "exhausted" None (PS.Bitvec.acquire_first_free bv)

let test_bitvec_parallel_domains () =
  (* Real parallel acquisition: every acquired index must be unique, and
     with no clears the indices are the lowest ones. The larger vector
     makes the domains race through several growths of its word array. *)
  List.iter
    (fun (n, domains, each) ->
      let bv = PS.Bitvec.create n in
      let acquire_n () = List.init each (fun _ -> PS.Bitvec.acquire_first_free bv) in
      let ds = List.init domains (fun _ -> Domain.spawn acquire_n) in
      let got = List.filter_map Fun.id (List.concat_map Domain.join ds) in
      let total = domains * each in
      Alcotest.(check (list int)) "distinct lowest indices" (List.init total Fun.id)
        (List.sort compare got);
      Alcotest.(check int) "count_set agrees" total (PS.Bitvec.count_set bv))
    [ (64, 2, 16); (1000, 4, 100) ]

let test_lock_pool_reentrant () =
  let s = mk_store () in
  let lp = PS.Lock_pool.create ~capacity:8 () in
  let a = Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:8 in
  PS.Lock_pool.monitor_enter lp s a ~thread:0;
  Alcotest.(check bool) "lock id in record" true (Store.get_lock_field s a > 0);
  PS.Lock_pool.monitor_enter lp s a ~thread:0;
  Alcotest.(check int) "one lock in use" 1 (PS.Lock_pool.locks_in_use lp);
  PS.Lock_pool.monitor_exit lp s a ~thread:0;
  Alcotest.(check int) "still held" 1 (PS.Lock_pool.locks_in_use lp);
  PS.Lock_pool.monitor_exit lp s a ~thread:0;
  Alcotest.(check int) "returned to pool" 0 (PS.Lock_pool.locks_in_use lp);
  Alcotest.(check int) "lock space zeroed" 0 (Store.get_lock_field s a)

let test_lock_pool_two_records () =
  let s = mk_store () in
  let lp = PS.Lock_pool.create ~capacity:8 () in
  let a = Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:8 in
  let b = Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:8 in
  PS.Lock_pool.monitor_enter lp s a ~thread:0;
  PS.Lock_pool.monitor_enter lp s b ~thread:0;
  Alcotest.(check int) "two locks" 2 (PS.Lock_pool.locks_in_use lp);
  Alcotest.(check bool) "distinct ids" true
    (Store.get_lock_field s a <> Store.get_lock_field s b);
  PS.Lock_pool.monitor_exit lp s b ~thread:0;
  PS.Lock_pool.monitor_exit lp s a ~thread:0;
  Alcotest.(check int) "peak recorded" 2 (PS.Lock_pool.peak_locks_in_use lp)

let test_lock_pool_recycles_ids () =
  let s = mk_store () in
  let lp = PS.Lock_pool.create ~capacity:2 () in
  (* Locking many records sequentially must not exhaust a 2-lock pool. *)
  for _ = 1 to 10 do
    let r = Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:8 in
    PS.Lock_pool.monitor_enter lp s r ~thread:0;
    PS.Lock_pool.monitor_exit lp s r ~thread:0
  done;
  Alcotest.(check int) "pool empty again" 0 (PS.Lock_pool.locks_in_use lp)

let test_lock_pool_exit_errors () =
  let s = mk_store () in
  let lp = PS.Lock_pool.create ~capacity:2 () in
  let a = Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:8 in
  Alcotest.check_raises "exit without enter"
    (Invalid_argument "Lock_pool.monitor_exit: record is not locked") (fun () ->
      PS.Lock_pool.monitor_exit lp s a ~thread:0)

(* Locks are created on first use, so a pool's creation cost does not
   depend on its capacity. An eager table at 32767 locks would allocate
   megabytes; the two creations must allocate the same few words. *)
let test_lock_pool_create_is_constant () =
  let allocated_by f =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.allocated_bytes () -. before
  in
  let small = allocated_by (fun () -> PS.Lock_pool.create ~capacity:8 ()) in
  let large = allocated_by (fun () -> PS.Lock_pool.create ~capacity:32767 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "capacity 32767 allocates %.0f bytes, capacity 8 %.0f" large small)
    true
    (large -. small <= 64.)

(* The (capacity+1)-th concurrently held lock raises [Pool_exhausted], and
   the pool keeps working afterwards: releasing one lock lets the refused
   record in, and every id returns to the pool. *)
let test_lock_pool_exhaustion () =
  List.iter
    (fun capacity ->
      let s = mk_store () in
      let lp = PS.Lock_pool.create ~capacity () in
      let recs =
        Array.init (capacity + 1) (fun _ ->
            Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:8)
      in
      for i = 0 to capacity - 1 do
        PS.Lock_pool.monitor_enter lp s recs.(i) ~thread:0
      done;
      let name what = Printf.sprintf "capacity %d: %s" capacity what in
      Alcotest.check_raises (name "one more lock") PS.Lock_pool.Pool_exhausted (fun () ->
          PS.Lock_pool.monitor_enter lp s recs.(capacity) ~thread:0);
      Alcotest.(check int) (name "refused record unlocked") 0
        (Store.get_lock_field s recs.(capacity));
      Alcotest.(check int) (name "all in use") capacity (PS.Lock_pool.locks_in_use lp);
      PS.Lock_pool.monitor_exit lp s recs.(0) ~thread:0;
      PS.Lock_pool.monitor_enter lp s recs.(capacity) ~thread:0;
      Alcotest.(check int) (name "freed id reused") 1 (Store.get_lock_field s recs.(capacity));
      for i = 1 to capacity do
        PS.Lock_pool.monitor_exit lp s recs.(i) ~thread:0
      done;
      Alcotest.(check int) (name "pool empty") 0 (PS.Lock_pool.locks_in_use lp);
      Alcotest.(check int) (name "bits clear") 0 (PS.Lock_pool.bits_in_use lp);
      Alcotest.(check int) (name "peak") capacity (PS.Lock_pool.peak_locks_in_use lp))
    [ 1; 3; 512 ]

(* A call that raises inside the pool (here the store rejects an address
   on a page that does not exist) must release the pool's registry: the
   next call on a valid record of the same pool has to go through rather
   than fail with a deadlock error or block. *)
let test_lock_pool_releases_registry_on_raise () =
  let s = mk_store () in
  let lp = PS.Lock_pool.create ~capacity:8 () in
  let good = Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:8 in
  let bad = Addr.make ~page:40 ~offset:0 in
  let raises_invalid what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let enter_exit_good () =
    PS.Lock_pool.monitor_enter lp s good ~thread:0;
    PS.Lock_pool.monitor_exit lp s good ~thread:0
  in
  raises_invalid "monitor_enter on a missing page" (fun () ->
      PS.Lock_pool.monitor_enter lp s bad ~thread:0);
  enter_exit_good ();
  raises_invalid "monitor_exit on a missing page" (fun () ->
      PS.Lock_pool.monitor_exit lp s bad ~thread:0);
  enter_exit_good ();
  (* The pool's own rejections take the same path. *)
  raises_invalid "monitor_exit of an unlocked record" (fun () ->
      PS.Lock_pool.monitor_exit lp s good ~thread:0);
  PS.Lock_pool.monitor_enter lp s good ~thread:0;
  raises_invalid "monitor_exit by a non-owner" (fun () ->
      PS.Lock_pool.monitor_exit lp s good ~thread:1);
  PS.Lock_pool.monitor_exit lp s good ~thread:0;
  Alcotest.(check int) "pool empty" 0 (PS.Lock_pool.locks_in_use lp);
  Alcotest.(check int) "bits clear" 0 (PS.Lock_pool.bits_in_use lp)

let test_lock_pool_parallel_domains () =
  (* Two domains increment a shared page counter under the same record
     lock; the total must show no lost updates. *)
  let s = mk_store () in
  Store.register_thread s 1;
  Store.register_thread s 2;
  let lp = PS.Lock_pool.create ~capacity:8 () in
  let rec_ = Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:8 in
  let worker thread () =
    for _ = 1 to 1000 do
      PS.Lock_pool.monitor_enter lp s rec_ ~thread;
      let v = Store.get_i32 s rec_ ~offset:4 in
      Store.set_i32 s rec_ ~offset:4 (v + 1);
      PS.Lock_pool.monitor_exit lp s rec_ ~thread
    done
  in
  let d1 = Domain.spawn (worker 1) in
  let d2 = Domain.spawn (worker 2) in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "no lost updates" 2000 (Store.get_i32 s rec_ ~offset:4);
  Alcotest.(check int) "lock returned" 0 (PS.Lock_pool.locks_in_use lp)

let test_store_parallel_domain_alloc () =
  (* Two Domains allocate through their own page managers concurrently;
     the shared page pool is mutex-protected, and every record must be
     readable with its own value afterwards. *)
  let s = mk_store () in
  Store.register_thread s 1;
  Store.register_thread s 2;
  let alloc_n thread () =
    Array.init 2000 (fun i ->
        let a = Store.alloc_record s ~thread ~type_id:thread ~data_bytes:8 in
        Store.set_i32 s a ~offset:4 ((thread * 100000) + i);
        a)
  in
  let d1 = Domain.spawn (alloc_n 1) in
  let d2 = Domain.spawn (alloc_n 2) in
  let a1 = Domain.join d1 and a2 = Domain.join d2 in
  Array.iteri
    (fun i a ->
      Alcotest.(check int) "thread 1 record intact" (100000 + i) (Store.get_i32 s a ~offset:4))
    a1;
  Array.iteri
    (fun i a ->
      Alcotest.(check int) "thread 2 record intact" (200000 + i) (Store.get_i32 s a ~offset:4))
    a2;
  Alcotest.(check int) "all records counted" (4000 + 0)
    ((Store.stats s).Store.records_allocated)

(* Registration publishes a new thread map while other domains allocate
   through the one they read: two domains register, allocate on and
   release short-lived threads in a loop while two others allocate 3000
   records each. No allocation may miss its thread or lose a record. *)
let test_store_register_while_allocating () =
  let s = mk_store () in
  Store.register_thread s 1;
  Store.register_thread s 2;
  let stop = Atomic.make false in
  let alloc_n thread () =
    Array.init 3000 (fun i ->
        let a = Store.alloc_record s ~thread ~type_id:thread ~data_bytes:8 in
        Store.set_i32 s a ~offset:4 ((thread * 100000) + i);
        a)
  in
  let churn base () =
    let n = ref 0 in
    while not (Atomic.get stop) do
      let id = base + !n in
      Store.register_thread s id;
      let a = Store.alloc_record s ~thread:id ~type_id:3 ~data_bytes:8 in
      Store.set_i32 s a ~offset:4 id;
      if Store.get_i32 s a ~offset:4 <> id then failwith "churned record overwritten";
      Store.release_thread s id;
      incr n
    done;
    !n
  in
  let c1 = Domain.spawn (churn 1_000) and c2 = Domain.spawn (churn 1_000_000) in
  let d1 = Domain.spawn (alloc_n 1) and d2 = Domain.spawn (alloc_n 2) in
  let a1 = Domain.join d1 and a2 = Domain.join d2 in
  Atomic.set stop true;
  let n1 = Domain.join c1 and n2 = Domain.join c2 in
  List.iter
    (fun (thread, addrs) ->
      Array.iteri
        (fun i a ->
          Alcotest.(check int) "record intact" ((thread * 100000) + i)
            (Store.get_i32 s a ~offset:4))
        addrs)
    [ (1, a1); (2, a2) ];
  Alcotest.(check int) "all records counted" (6000 + n1 + n2)
    (Store.stats s).Store.records_allocated

(* The record path allocates nothing on the OCaml heap: once a first
   round has created the pages, a round of 4096 records (or arrays)
   takes recycled pages and allocates 0 minor words. *)
let test_store_alloc_allocates_nothing () =
  let s = mk_store () in
  let round alloc =
    Store.iteration_start s ~thread:0;
    let w0 = Gc.minor_words () in
    for _ = 1 to 4096 do
      alloc ()
    done;
    let w = Gc.minor_words () -. w0 in
    Store.iteration_end s ~thread:0;
    w
  in
  let record () = ignore (Store.alloc_record s ~thread:0 ~type_id:1 ~data_bytes:24) in
  let array () = ignore (Store.alloc_array s ~thread:0 ~type_id:2 ~elem_bytes:8 ~length:3) in
  ignore (round record);
  ignore (round array);
  Alcotest.(check (float 0.)) "alloc_record" 0. (round record);
  Alcotest.(check (float 0.)) "alloc_array" 0. (round array)

let test_layout_rt_constants () =
  Alcotest.(check int) "record header is 4 bytes" 4 PS.Layout_rt.record_header_bytes;
  Alcotest.(check int) "array header is 8 bytes" 8 PS.Layout_rt.array_header_bytes;
  Alcotest.(check int) "type id at 0" 0 PS.Layout_rt.type_id_offset;
  Alcotest.(check int) "lock at 2" 2 PS.Layout_rt.lock_offset

(* Model-based test: a random sequence of record allocations and typed
   field writes, mirrored in a plain OCaml association model; every read
   from the store must agree with the model. *)
let prop_store_matches_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (2, return `Alloc);
          (5, map2 (fun r v -> `Write_i32 (r, v)) (int_bound 63) int);
          (3, map2 (fun r v -> `Write_f64 (r, v)) (int_bound 63) (float_bound_inclusive 1e9));
          (5, map (fun r -> `Read (r)) (int_bound 63));
        ])
  in
  QCheck.Test.make ~name:"store agrees with a reference model" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) op_gen))
    (fun ops ->
      let s = mk_store () in
      (* Records with two slots: i32 at 4, f64 at 8. *)
      let records = ref [||] in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      let with_record r f =
        let n = Array.length !records in
        if n > 0 then f !records.(r mod n)
      in
      List.iter
        (fun op ->
          match op with
          | `Alloc ->
              let a = Store.alloc_record s ~thread:0 ~type_id:7 ~data_bytes:16 in
              Hashtbl.replace model a (0, 0.0);
              records := Array.append !records [| a |]
          | `Write_i32 (r, v) ->
              with_record r (fun a ->
                  let v = v land 0x7FFFFFFF in
                  Store.set_i32 s a ~offset:4 v;
                  let _, f = Hashtbl.find model a in
                  Hashtbl.replace model a (v, f))
          | `Write_f64 (r, v) ->
              with_record r (fun a ->
                  Store.set_f64 s a ~offset:8 v;
                  let i, _ = Hashtbl.find model a in
                  Hashtbl.replace model a (i, v))
          | `Read r ->
              with_record r (fun a ->
                  let i, f = Hashtbl.find model a in
                  if Store.get_i32 s a ~offset:4 <> i then ok := false;
                  if Store.get_f64 s a ~offset:8 <> f then ok := false;
                  if Store.type_id s a <> 7 then ok := false))
        ops;
      !ok)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_addr_roundtrip;
      prop_page_i32_roundtrip;
      prop_page_i64_roundtrip;
      prop_page_f64_roundtrip;
      prop_manager_allocations_disjoint;
      prop_store_matches_model;
    ]

let () =
  Alcotest.run "pagestore"
    [
      ( "addr",
        [
          Alcotest.test_case "null" `Quick test_addr_null;
          Alcotest.test_case "add" `Quick test_addr_add;
        ] );
      ( "page",
        [
          Alcotest.test_case "f64 negative" `Quick test_page_f64_negative;
          Alcotest.test_case "u16" `Quick test_page_u16;
          Alcotest.test_case "blit" `Quick test_page_blit;
        ] );
      ("size_class", [ Alcotest.test_case "classes" `Quick test_size_class ]);
      ( "page_pool",
        [
          Alcotest.test_case "recycling" `Quick test_pool_recycling;
          Alcotest.test_case "recycled pages zeroed" `Quick test_pool_recycled_pages_are_zeroed;
          Alcotest.test_case "oversize freed" `Quick test_pool_oversize_freed;
        ] );
      ( "page_manager",
        [
          Alcotest.test_case "bump contiguous" `Quick test_manager_bump_contiguous;
          Alcotest.test_case "large on empty pages" `Quick test_manager_large_records_on_empty_pages;
          Alcotest.test_case "never spans" `Quick test_manager_never_spans_pages;
          Alcotest.test_case "release recycles" `Quick test_manager_release_recycles;
          Alcotest.test_case "recycles in taken order" `Quick test_manager_recycles_in_taken_order;
          Alcotest.test_case "tree release" `Quick test_manager_tree_release;
          Alcotest.test_case "oversize early release" `Quick test_manager_oversize_early_release;
        ] );
      ( "store",
        [
          Alcotest.test_case "record header" `Quick test_store_record_header;
          Alcotest.test_case "fields" `Quick test_store_fields;
          Alcotest.test_case "arrays" `Quick test_store_array;
          Alcotest.test_case "ref fields" `Quick test_store_ref_fields;
          Alcotest.test_case "arraycopy" `Quick test_store_arraycopy;
          Alcotest.test_case "iterations" `Quick test_store_iterations;
          Alcotest.test_case "thread parenting" `Quick test_store_thread_parenting;
          Alcotest.test_case "unregistered thread" `Quick test_store_unregistered_thread;
          Alcotest.test_case "parallel domain alloc" `Quick test_store_parallel_domain_alloc;
          Alcotest.test_case "register/release while allocating" `Quick
            test_store_register_while_allocating;
          Alcotest.test_case "alloc allocates nothing" `Quick test_store_alloc_allocates_nothing;
        ] );
      ( "facade_pool",
        [
          Alcotest.test_case "bounds" `Quick test_facade_pool_bounds;
          Alcotest.test_case "bind/read" `Quick test_facade_bind_read;
        ] );
      ( "locks",
        [
          Alcotest.test_case "bitvec sequential" `Quick test_bitvec_sequential;
          Alcotest.test_case "bitvec exhaustion" `Quick test_bitvec_exhaustion;
          Alcotest.test_case "bitvec parallel" `Quick test_bitvec_parallel_domains;
          Alcotest.test_case "reentrant" `Quick test_lock_pool_reentrant;
          Alcotest.test_case "two records" `Quick test_lock_pool_two_records;
          Alcotest.test_case "recycles ids" `Quick test_lock_pool_recycles_ids;
          Alcotest.test_case "exit errors" `Quick test_lock_pool_exit_errors;
          Alcotest.test_case "parallel domains" `Quick test_lock_pool_parallel_domains;
          Alcotest.test_case "create is constant" `Quick test_lock_pool_create_is_constant;
          Alcotest.test_case "exhaustion" `Quick test_lock_pool_exhaustion;
          Alcotest.test_case "registry released on raise" `Quick
            test_lock_pool_releases_registry_on_raise;
        ] );
      ("layout_rt", [ Alcotest.test_case "constants" `Quick test_layout_rt_constants ]);
      ("properties", qsuite);
    ]
