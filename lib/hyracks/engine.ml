module Heap = Heapsim.Heap
module Clock = Heapsim.Sim_clock
module Store = Pagestore.Store

type mode = Object_mode | Facade_mode

type config = {
  mode : mode;
  heap_gb : float;
  machines : int;
  workers_per_machine : int;
  cost : Hcost.t;
  total_budget_gb : float;
}

let default_config mode =
  {
    mode;
    heap_gb = 8.0;
    machines = 10;
    workers_per_machine = 8;
    cost = Hcost.default;
    total_budget_gb = 8.0;
  }

type metrics = {
  et : float;
  gt : float;
  peak_memory_mb : float;
  minor_gcs : int;
  major_gcs : int;
  heap_objects : int;
  data_objects : int;
  page_records : int;
  pages_created : int;
  distinct_keys : int;
  completed : bool;
  oom_at : float;
}

type 'a outcome = {
  output : 'a option;
  metrics : metrics;
}

type ctx = {
  config : config;
  heap_ : Heap.t;
  clock_ : Clock.t;
  store_ : Store.t option;
  mutable data_objects : int;
  mutable page_records : int;
  mutable distinct : int;
  mutable last_native : int;
  mutable last_pages : int;
}

let scaled_gb = 1 lsl 20

let machine_slice config arr =
  let m = config.machines in
  let n = Array.length arr in
  let mine = ref [] in
  for i = n - 1 downto 0 do
    if i mod m = 0 then mine := arr.(i) :: !mine
  done;
  Array.of_list !mine

let heap c = c.heap_
let store c = c.store_
let cfg c = c.config
let charge c cat s = Clock.charge c.clock_ cat s

let alloc_temps c ~count =
  Heap.alloc_many c.heap_ ~lifetime:Heap.Temp ~bytes_each:c.config.cost.Hcost.temp_bytes ~count

let note_data_objects c n = c.data_objects <- c.data_objects + n
let note_record c = c.page_records <- c.page_records + 1
let note_distinct c n = c.distinct <- c.distinct + n

let sync_native c =
  match c.store_ with
  | None -> ()
  | Some store ->
      let s = Store.stats store in
      let dn = s.Store.native_bytes - c.last_native in
      if dn > 0 then Heap.native_alloc c.heap_ ~bytes:dn
      else if dn < 0 then Heap.native_free c.heap_ ~bytes:(-dn);
      c.last_native <- s.Store.native_bytes;
      let dp = s.Store.pages_created - c.last_pages in
      if dp > 0 then Heap.alloc_many c.heap_ ~lifetime:Heap.Control ~bytes_each:48 ~count:dp;
      c.last_pages <- s.Store.pages_created

let parallel_time c t = t /. float_of_int c.config.workers_per_machine

let with_run config body =
  let heap_bytes = int_of_float (config.heap_gb *. float_of_int scaled_gb) in
  let clock_ = Clock.create () in
  let heap_ = Heap.create ~clock:clock_ (Heapsim.Hconfig.make ~heap_bytes ()) in
  let store_ =
    match config.mode with
    | Object_mode -> None
    | Facade_mode ->
        let s = Store.create () in
        Store.register_thread s 0;
        Some s
  in
  let c =
    {
      config;
      heap_;
      clock_;
      store_;
      data_objects = 0;
      page_records = 0;
      distinct = 0;
      last_native = 0;
      last_pages = 0;
    }
  in
  (* Framework-permanent state: frame pools, job metadata, thread pools. *)
  Heap.alloc_many heap_ ~lifetime:Heap.Permanent ~bytes_each:1024 ~count:256;
  let output, completed, oom_at =
    match body c with
    | v -> (Some v, true, 0.0)
    | exception Heap.Out_of_memory { at_seconds; _ } -> (None, false, at_seconds)
  in
  sync_native c;
  let peak = Heap.peak_memory_bytes heap_ in
  (* Fairness rule for P' (§4.2): total footprint beyond the budget is an
     out-of-memory failure even if the run finished. *)
  let budget = int_of_float (config.total_budget_gb *. float_of_int scaled_gb) in
  let over_budget = config.mode = Facade_mode && peak > budget in
  let completed = completed && not over_budget in
  let oom_at = if over_budget then Clock.total clock_ else oom_at in
  let hs = Heap.stats heap_ in
  let metrics =
    {
      et = Clock.total clock_;
      gt = Clock.get clock_ Clock.Gc;
      peak_memory_mb = float_of_int peak /. float_of_int scaled_gb *. 1000.0;
      minor_gcs = hs.Heapsim.Gc_stats.minor_gcs;
      major_gcs = hs.Heapsim.Gc_stats.major_gcs;
      heap_objects = hs.Heapsim.Gc_stats.objects_allocated;
      data_objects = c.data_objects;
      page_records = c.page_records;
      pages_created =
        (match store_ with Some s -> (Store.stats s).Store.pages_created | None -> 0);
      distinct_keys = c.distinct;
      completed;
      oom_at;
    }
  in
  { output = (if completed then output else None); metrics }
