type thread = int

type thread_state = {
  default_mgr : Page_manager.t;
  mutable stack : Page_manager.t list;  (* innermost iteration first *)
}

module Imap = Map.Make (Int)

type t = {
  pool : Page_pool.t;
  mu : Mutex.t;  (* serializes registration: [threads] updates *)
  threads : thread_state Imap.t Atomic.t;
      (* The live threads, as an immutable map: writers build the next
         map while holding [mu] and publish it with [Atomic.set], so the
         allocation path finds its thread with one atomic read and a
         map descent — no mutex, no allocation. *)
  records : int Atomic.t;
  (* Resource limits for multi-tenant runs; 0 means unlimited. Plain int
     reads on the allocation path — the unset check is a single compare. *)
  mutable max_live_pages : int;
  mutable max_native_bytes : int;
}

type quota_kind = Q_pages | Q_heap_bytes

exception Quota_exceeded of { kind : quota_kind; used : int; limit : int }

let quota_kind_label = function Q_pages -> "pages" | Q_heap_bytes -> "heap_bytes"

let quota_message = function
  | Quota_exceeded { kind; used; limit } ->
      Some
        (Printf.sprintf "quota exceeded: %s used=%d limit=%d"
           (quota_kind_label kind) used limit)
  | _ -> None

let create ?page_bytes () =
  {
    pool = Page_pool.create ?page_bytes ();
    mu = Mutex.create ();
    threads = Atomic.make Imap.empty;
    records = Atomic.make 0;
    max_live_pages = 0;
    max_native_bytes = 0;
  }

let set_limits t ?max_live_pages ?max_native_bytes () =
  (match max_live_pages with
  | Some v -> t.max_live_pages <- max 0 v
  | None -> ());
  match max_native_bytes with
  | Some v -> t.max_native_bytes <- max 0 v
  | None -> ()

(* Enforced after the page acquisition that crossed the line: the store
   may briefly hold one page past the quota, but the allocation that
   needed it never completes, so no record is ever written beyond the
   budget. Raising here propagates through the VM (and, in parallel
   runs, through the pool's join) and fails only the offending run —
   co-tenants hold their own stores. *)
let[@inline] check_limits t =
  if t.max_live_pages > 0 then begin
    let used = Page_pool.live_pages t.pool in
    if used > t.max_live_pages then
      raise (Quota_exceeded { kind = Q_pages; used; limit = t.max_live_pages })
  end;
  if t.max_native_bytes > 0 then begin
    let used = Page_pool.native_bytes t.pool in
    if used > t.max_native_bytes then
      raise (Quota_exceeded { kind = Q_heap_bytes; used; limit = t.max_native_bytes })
  end

let pool t = t.pool

let with_mu t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let[@inline never] not_registered id =
  invalid_arg (Printf.sprintf "Store: thread %d not registered" id)

let thread_state t id =
  match Imap.find id (Atomic.get t.threads) with
  | st -> st
  | exception Not_found -> not_registered id

let current_mgr st =
  match st.stack with [] -> st.default_mgr | m :: _ -> m

let register_thread ?parent t id =
  let parent_mgr =
    match parent with None -> None | Some p -> Some (current_mgr (thread_state t p))
  in
  with_mu t (fun () ->
      let threads = Atomic.get t.threads in
      if Imap.mem id threads then
        invalid_arg (Printf.sprintf "Store.register_thread: thread %d already registered" id);
      let default_mgr =
        match parent_mgr with
        | None -> Page_manager.create t.pool
        | Some m -> Page_manager.create_child m
      in
      Atomic.set t.threads
        (Imap.add id { default_mgr; stack = [] } threads))

let release_thread t id =
  let st = thread_state t id in
  Page_manager.release_all st.default_mgr;
  with_mu t (fun () -> Atomic.set t.threads (Imap.remove id (Atomic.get t.threads)))

let iteration_start t ~thread =
  let st = thread_state t thread in
  st.stack <- Page_manager.create_child (current_mgr st) :: st.stack

let iteration_end t ~thread =
  let st = thread_state t thread in
  match st.stack with
  | [] -> invalid_arg "Store.iteration_end: no iteration open"
  | m :: rest ->
      Page_manager.release_all m;
      st.stack <- rest

let iteration_depth t ~thread = List.length (thread_state t thread).stack

let[@inline always] page_of t addr = Page_pool.page_unchecked t.pool (Addr.page addr)

(* Allocation bodies shared by the global-counter and buffered ([local])
   entry points: everything except publishing to [t.records]. *)
let alloc_record_st t st ~type_id ~data_bytes =
  if type_id < 0 || type_id > Layout_rt.max_type_id then
    invalid_arg "Store.alloc_record: type id out of range";
  let bytes = Layout_rt.record_header_bytes + data_bytes in
  let addr = Page_manager.alloc (current_mgr st) ~bytes in
  check_limits t;
  Page.write_u16 (page_of t addr) (Addr.offset addr + Layout_rt.type_id_offset) type_id;
  addr

let alloc_array_st alloc t st ~type_id ~elem_bytes ~length =
  if length < 0 then invalid_arg "Store.alloc_array: negative length";
  let bytes = Layout_rt.array_header_bytes + (elem_bytes * length) in
  let addr = alloc (current_mgr st) ~bytes in
  check_limits t;
  let p = page_of t addr and off = Addr.offset addr in
  Page.write_u16 p (off + Layout_rt.type_id_offset) type_id;
  Page.write_i32 p (off + Layout_rt.length_offset) length;
  addr

let alloc_record t ~thread ~type_id ~data_bytes =
  let st = thread_state t thread in
  let addr = alloc_record_st t st ~type_id ~data_bytes in
  Atomic.incr t.records;
  addr

let alloc_array_with alloc t ~thread ~type_id ~elem_bytes ~length =
  let st = thread_state t thread in
  let addr = alloc_array_st alloc t st ~type_id ~elem_bytes ~length in
  Atomic.incr t.records;
  addr

let alloc_array = alloc_array_with Page_manager.alloc
let alloc_array_oversize = alloc_array_with Page_manager.alloc_oversize

let free_oversize_st st addr =
  (* The page may have been allocated by any manager on this thread's
     stack; try innermost-out. *)
  let rec try_mgrs = function
    | [] -> Page_manager.release_oversize_early st.default_mgr addr
    | m :: rest -> (
        try Page_manager.release_oversize_early m addr
        with Invalid_argument _ -> try_mgrs rest)
  in
  try_mgrs st.stack

let free_oversize_early t ~thread addr = free_oversize_st (thread_state t thread) addr

(* {2 Buffered per-domain handle} *)

type local = {
  l_store : t;
  l_thread : thread;
  l_state : thread_state;  (* resolved once, under the registry mutex *)
  mutable l_pending : int; (* records not yet published to [records] *)
}

let local t ~thread =
  { l_store = t; l_thread = thread; l_state = thread_state t thread; l_pending = 0 }

let local_thread l = l.l_thread
let local_pending l = l.l_pending

let local_flush l =
  if l.l_pending > 0 then begin
    ignore (Atomic.fetch_and_add l.l_store.records l.l_pending);
    l.l_pending <- 0
  end

let local_alloc_record l ~type_id ~data_bytes =
  let addr = alloc_record_st l.l_store l.l_state ~type_id ~data_bytes in
  l.l_pending <- l.l_pending + 1;
  addr

let local_alloc_array_with alloc l ~type_id ~elem_bytes ~length =
  let addr = alloc_array_st alloc l.l_store l.l_state ~type_id ~elem_bytes ~length in
  l.l_pending <- l.l_pending + 1;
  addr

let local_alloc_array = local_alloc_array_with Page_manager.alloc
let local_alloc_array_oversize = local_alloc_array_with Page_manager.alloc_oversize

let local_free_oversize_early l addr = free_oversize_st l.l_state addr

let local_iteration_start l =
  let st = l.l_state in
  st.stack <- Page_manager.create_child (current_mgr st) :: st.stack

let local_iteration_end l =
  let st = l.l_state in
  match st.stack with
  | [] -> invalid_arg "Store.local_iteration_end: no iteration open"
  | m :: rest ->
      Page_manager.release_all m;
      st.stack <- rest

(* The accessors below, like the allocation paths above, resolve page
   and offset separately rather than as a pair: without flambda, a
   cross-function tuple return allocates on every call, and these are
   the interpreter's per-access hot path. *)

let type_id t addr =
  Page.read_u16 (page_of t addr) (Addr.offset addr + Layout_rt.type_id_offset)

let array_length t addr =
  Page.read_i32 (page_of t addr) (Addr.offset addr + Layout_rt.length_offset)

let get_i8 t addr ~offset =
  Page.read_u8 (page_of t addr) (Addr.offset addr + offset)

let set_i8 t addr ~offset v =
  Page.write_u8 (page_of t addr) (Addr.offset addr + offset) v

let get_i16 t addr ~offset =
  Page.read_u16 (page_of t addr) (Addr.offset addr + offset)

let set_i16 t addr ~offset v =
  Page.write_u16 (page_of t addr) (Addr.offset addr + offset) v

let get_i32 t addr ~offset =
  Page.read_i32 (page_of t addr) (Addr.offset addr + offset)

let set_i32 t addr ~offset v =
  Page.write_i32 (page_of t addr) (Addr.offset addr + offset) v

let get_i64 t addr ~offset =
  Page.read_i64 (page_of t addr) (Addr.offset addr + offset)

let set_i64 t addr ~offset v =
  Page.write_i64 (page_of t addr) (Addr.offset addr + offset) v

let get_f32 t addr ~offset =
  Page.read_f32 (page_of t addr) (Addr.offset addr + offset)

let set_f32 t addr ~offset v =
  Page.write_f32 (page_of t addr) (Addr.offset addr + offset) v

let get_f64 t addr ~offset =
  Page.read_f64 (page_of t addr) (Addr.offset addr + offset)

let set_f64 t addr ~offset v =
  Page.write_f64 (page_of t addr) (Addr.offset addr + offset) v

let get_ref t addr ~offset = Addr.of_int (get_i64 t addr ~offset)
let set_ref t addr ~offset v = set_i64 t addr ~offset (Addr.to_int v)

let array_elem_offset ~elem_bytes ~index =
  Layout_rt.array_header_bytes + (elem_bytes * index)

let arraycopy t ~src ~src_pos ~dst ~dst_pos ~len ~elem_bytes =
  if len < 0 then invalid_arg "Store.arraycopy: negative length";
  Page.blit ~src:(page_of t src)
    ~src_off:(Addr.offset src + array_elem_offset ~elem_bytes ~index:src_pos)
    ~dst:(page_of t dst)
    ~dst_off:(Addr.offset dst + array_elem_offset ~elem_bytes ~index:dst_pos)
    ~len:(len * elem_bytes)

let get_lock_field t addr =
  Page.read_u16 (page_of t addr) (Addr.offset addr + Layout_rt.lock_offset)

let set_lock_field t addr v =
  Page.write_u16 (page_of t addr) (Addr.offset addr + Layout_rt.lock_offset) v

type stats = {
  records_allocated : int;
  pages_created : int;
  pages_recycled : int;
  live_pages : int;
  native_bytes : int;
  peak_native_bytes : int;
}

let stats t =
  {
    records_allocated = Atomic.get t.records;
    pages_created = Page_pool.pages_created t.pool;
    pages_recycled = Page_pool.pages_recycled t.pool;
    live_pages = Page_pool.live_pages t.pool;
    native_bytes = Page_pool.native_bytes t.pool;
    peak_native_bytes = Page_pool.peak_native_bytes t.pool;
  }

let live_page_objects t = Page_pool.live_pages t.pool
