type current = { mutable page_id : int; mutable next : int }

type t = {
  pool : Page_pool.t;
  current : current array;  (* one bump cursor per size class *)
  mutable owned : int array;
      (* standard pages held, in [owned.(0 .. n_owned - 1)]: a growable
         array rather than a list, so taking a page allocates nothing
         until a manager outgrows the initial capacity *)
  mutable n_owned : int;
  mutable oversize : int list;
  mutable children : t list;
  mutable is_released : bool;
  mutable records : int;
  mutable bytes : int;
}

let create pool =
  {
    pool;
    current = Array.init Size_class.count (fun _ -> { page_id = -1; next = 0 });
    owned = Array.make 4 0;
    n_owned = 0;
    oversize = [];
    children = [];
    is_released = false;
    records = 0;
    bytes = 0;
  }

let create_child t =
  if t.is_released then invalid_arg "Page_manager.create_child: released";
  let child = create t.pool in
  t.children <- child :: t.children;
  child

let check_live t fn = if t.is_released then invalid_arg (fn ^ ": released manager")

let fresh_page t =
  let id = Page_pool.acquire t.pool in
  if t.n_owned = Array.length t.owned then begin
    let a = Array.make (2 * t.n_owned) 0 in
    Array.blit t.owned 0 a 0 t.n_owned;
    t.owned <- a
  end;
  t.owned.(t.n_owned) <- id;
  t.n_owned <- t.n_owned + 1;
  id

let note t ~bytes =
  t.records <- t.records + 1;
  t.bytes <- t.bytes + bytes

let alloc_oversize t ~bytes =
  check_live t "Page_manager.alloc_oversize";
  let page_bytes = Page_pool.page_bytes t.pool in
  let alloc_bytes = max bytes (page_bytes + 1) in
  let id = Page_pool.acquire_oversize t.pool ~bytes:alloc_bytes in
  t.oversize <- id :: t.oversize;
  note t ~bytes;
  Addr.make ~page:id ~offset:0

let alloc t ~bytes =
  check_live t "Page_manager.alloc";
  if bytes <= 0 then invalid_arg "Page_manager.alloc: non-positive size";
  let page_bytes = Page_pool.page_bytes t.pool in
  if bytes > page_bytes then alloc_oversize t ~bytes
  else if bytes > page_bytes / 2 then begin
    (* Large records start on an empty page so they never share and never
       span (§3.6 policy 2). *)
    let id = fresh_page t in
    note t ~bytes;
    Addr.make ~page:id ~offset:0
  end
  else begin
    (* bytes <= page_bytes/2 is always classed, so [index] is >= 0 *)
    let cur = t.current.(Size_class.index bytes) in
    if cur.page_id < 0 || cur.next + bytes > page_bytes then begin
      cur.page_id <- fresh_page t;
      cur.next <- 0
    end;
    let addr = Addr.make ~page:cur.page_id ~offset:cur.next in
    cur.next <- cur.next + bytes;
    note t ~bytes;
    addr
  end

let release_oversize_early t addr =
  check_live t "Page_manager.release_oversize_early";
  let id = Addr.page addr in
  if not (List.mem id t.oversize) then
    invalid_arg "Page_manager.release_oversize_early: not an owned oversize page";
  t.oversize <- List.filter (fun p -> p <> id) t.oversize;
  Page_pool.release_oversize t.pool id

let rec release_all t =
  if not t.is_released then begin
    t.is_released <- true;
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"store"
        ~args:
          [
            ("pages", Obs.Tracer.Aint (t.n_owned + List.length t.oversize));
            ("records", Obs.Tracer.Aint t.records);
          ]
        "bulk_reclaim";
    List.iter release_all t.children;
    t.children <- [];
    (* newest first, so the free list hands pages back in the order a
       manager took them *)
    for i = t.n_owned - 1 downto 0 do
      Page_pool.release t.pool t.owned.(i)
    done;
    t.n_owned <- 0;
    List.iter (Page_pool.release_oversize t.pool) t.oversize;
    t.oversize <- [];
    Array.iter
      (fun cur ->
        cur.page_id <- -1;
        cur.next <- 0)
      t.current
  end

let released t = t.is_released
let records_allocated t = t.records
let bytes_allocated t = t.bytes
let pages_owned t = t.n_owned + List.length t.oversize
