type t = {
  page_bytes : int;
  mutex : Mutex.t;
  (* [mutex] guards table growth and the fresh/oversize allocation path
     (next_id, created, native, peak_native). The recycle path — the hot
     one under many domains — is lock-free: [free] is a Treiber stack
     over an immutable list (CAS on physically fresh cons cells, so ABA
     cannot occur), and live/recycled are atomic counters. Reading a page
     id off the stack happens-before any use of that id, so the plain
     [table] read below always observes an array that contains it (grows
     only ever copy entries forward). *)
  mutable table : Page.t array;
  mutable next_id : int;
  free : int list Atomic.t; (* standard pages available for reuse *)
  live : int Atomic.t;
  mutable created : int;
  recycled : int Atomic.t;
  mutable native : int;
  mutable peak_native : int;
}

(* Unallocated and discarded table slots hold this shared zero-length
   page rather than an option: the per-access option match (tag test
   plus a dependent [Some] field load) was measurable on the facade data
   path, and a zero-length page fails every accessor's bounds check, so
   a stale id still traps. [Page.create] rejects zero bytes, so no live
   page can alias the sentinel. *)
let dead = Page.sentinel

let default_page_bytes = 32 * 1024

let create ?(page_bytes = default_page_bytes) () =
  if page_bytes <= 0 then invalid_arg "Page_pool.create: non-positive page size";
  {
    page_bytes;
    mutex = Mutex.create ();
    table = Array.make 64 dead;
    next_id = 0;
    free = Atomic.make [];
    live = Atomic.make 0;
    created = 0;
    recycled = Atomic.make 0;
    native = 0;
    peak_native = 0;
  }

let page_bytes t = t.page_bytes

let with_lock t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let grow_table t =
  let table = Array.make (2 * Array.length t.table) dead in
  Array.blit t.table 0 table 0 (Array.length t.table);
  t.table <- table

let fresh_page t ~bytes =
  if t.next_id >= Array.length t.table then grow_table t;
  let id = t.next_id in
  t.next_id <- id + 1;
  t.table.(id) <- Page.create ~bytes;
  t.created <- t.created + 1;
  t.native <- t.native + bytes;
  if t.native > t.peak_native then t.peak_native <- t.native;
  id

(* A recycled page id, or -1 when the free list is empty. *)
let rec pop_free t =
  match Atomic.get t.free with
  | [] -> -1
  | id :: rest as old -> if Atomic.compare_and_set t.free old rest then id else pop_free t

let rec push_free t id =
  let old = Atomic.get t.free in
  if not (Atomic.compare_and_set t.free old (id :: old)) then push_free t id

(* Distinct instant names per acquisition path keep the golden-trace
   invariants arithmetic: fresh + oversize = pages_created and
   recycled = pages_recycled, with no arg parsing. *)
let trace_page name id =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"store" ~args:[ ("page", Obs.Tracer.Aint id) ] name

let acquire t =
  Atomic.incr t.live;
  let id = pop_free t in
  if id >= 0 then begin
    let p = t.table.(id) in
    Page.fill p ~off:0 ~len:(Page.capacity p) '\000';
    Atomic.incr t.recycled;
    trace_page "page_recycled" id;
    id
  end
  else begin
    let id = with_lock t (fun () -> fresh_page t ~bytes:t.page_bytes) in
    trace_page "page_fresh" id;
    if Obs.Trace.on () then
      Obs.Trace.counter ~name:"live_pages" (float_of_int (Atomic.get t.live));
    id
  end

let acquire_oversize t ~bytes =
  if bytes <= t.page_bytes then
    invalid_arg "Page_pool.acquire_oversize: fits in a standard page";
  Atomic.incr t.live;
  let id = with_lock t (fun () -> fresh_page t ~bytes) in
  trace_page "page_oversize" id;
  id

let release t id =
  (let p = t.table.(id) in
   if Page.capacity p = 0 then invalid_arg "Page_pool.release: page already discarded"
   else if Page.capacity p <> t.page_bytes then
     invalid_arg "Page_pool.release: oversize page");
  Atomic.decr t.live;
  push_free t id;
  trace_page "page_release" id

let release_oversize t id =
  with_lock t (fun () ->
      let p = t.table.(id) in
      if Page.capacity p = 0 then
        invalid_arg "Page_pool.release_oversize: page already discarded";
      t.native <- t.native - Page.capacity p;
      t.table.(id) <- dead;
      Atomic.decr t.live);
  trace_page "page_release_oversize" id

let[@inline never] dead_page () = invalid_arg "Page_pool.page: dead page"

let[@inline always] page t id =
  let p = t.table.(id) in
  if Page.capacity p = 0 then dead_page () else p

(* The facade data path resolves a page per access; the dim-0 sentinel
   already makes the accessors trap on a discarded id, so the hot path
   skips the redundant liveness check above. *)
let[@inline always] page_unchecked t id = t.table.(id)

let live_pages t = Atomic.get t.live
let pages_created t = t.created
let pages_recycled t = Atomic.get t.recycled
let native_bytes t = t.native
let peak_native_bytes t = t.peak_native
let free_pages t = List.length (Atomic.get t.free)
