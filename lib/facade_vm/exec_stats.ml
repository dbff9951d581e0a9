type t = {
  mutable heap_objects : int;
  mutable data_objects : int;
  mutable page_records : int;
  max_pool_index : (int, int) Hashtbl.t;
  mutable steps : int;
  mutable output : string list;
  mutable static_dispatches : int;
  mutable virtual_dispatches : int;
  mutable ic_hits : int;
  mutable ic_misses : int;
  (* Per-method profile counters, indexed by resolved method index. Sized
     by [ensure_methods] at VM setup (zero-length outside the resolved
     interpreter); [facade_cli profile] reports them. *)
  mutable m_calls : int array;
  mutable m_ic_hits : int array;
  mutable m_ic_misses : int array;
  (* Tier transition counters (tier-2 closure compiler). The last two are
     always 0 since tier 2 compiles each method at its first call (no
     on-stack replacement, no IC-drift recompilation); they stay because
     the perfbench ledger and the service wire format still carry them. *)
  mutable tier2_compiles : int;
  mutable tier2_entries : int;
  mutable tier2_deopts : int;
  mutable tier2_int_slots : int;
  mutable tier2_float_slots : int;
  mutable tier2_boxed_slots : int;
  mutable tier2_delegated : int;
  mutable tier2_recompiles : int;
  mutable osr_entries : int;
}

let create () =
  {
    heap_objects = 0;
    data_objects = 0;
    page_records = 0;
    max_pool_index = Hashtbl.create 16;
    steps = 0;
    output = [];
    static_dispatches = 0;
    virtual_dispatches = 0;
    ic_hits = 0;
    ic_misses = 0;
    m_calls = [||];
    m_ic_hits = [||];
    m_ic_misses = [||];
    tier2_compiles = 0;
    tier2_entries = 0;
    tier2_deopts = 0;
    tier2_int_slots = 0;
    tier2_float_slots = 0;
    tier2_boxed_slots = 0;
    tier2_delegated = 0;
    tier2_recompiles = 0;
    osr_entries = 0;
  }

let grow a n = if Array.length a >= n then a else Array.append a (Array.make (n - Array.length a) 0)

let ensure_methods t n =
  if Array.length t.m_calls < n then begin
    t.m_calls <- grow t.m_calls n;
    t.m_ic_hits <- grow t.m_ic_hits n;
    t.m_ic_misses <- grow t.m_ic_misses n
  end

let note_mcall t mx =
  if mx < Array.length t.m_calls then t.m_calls.(mx) <- t.m_calls.(mx) + 1

let note_ic_hit t mx =
  t.ic_hits <- t.ic_hits + 1;
  if mx < Array.length t.m_ic_hits then t.m_ic_hits.(mx) <- t.m_ic_hits.(mx) + 1

let note_ic_miss t mx =
  t.ic_misses <- t.ic_misses + 1;
  if mx < Array.length t.m_ic_misses then t.m_ic_misses.(mx) <- t.m_ic_misses.(mx) + 1

let method_calls t mx = if mx < Array.length t.m_calls then t.m_calls.(mx) else 0

let note_alloc t ~is_data =
  t.heap_objects <- t.heap_objects + 1;
  if is_data then t.data_objects <- t.data_objects + 1

let note_record t = t.page_records <- t.page_records + 1

let note_pool_use t ~type_id ~index =
  let m = Option.value ~default:(-1) (Hashtbl.find_opt t.max_pool_index type_id) in
  if index > m then Hashtbl.replace t.max_pool_index type_id index

let zero t =
  t.heap_objects <- 0;
  t.data_objects <- 0;
  t.page_records <- 0;
  Hashtbl.reset t.max_pool_index;
  t.steps <- 0;
  t.output <- [];
  t.static_dispatches <- 0;
  t.virtual_dispatches <- 0;
  t.ic_hits <- 0;
  t.ic_misses <- 0;
  Array.fill t.m_calls 0 (Array.length t.m_calls) 0;
  Array.fill t.m_ic_hits 0 (Array.length t.m_ic_hits) 0;
  Array.fill t.m_ic_misses 0 (Array.length t.m_ic_misses) 0;
  t.tier2_compiles <- 0;
  t.tier2_entries <- 0;
  t.tier2_deopts <- 0;
  t.tier2_int_slots <- 0;
  t.tier2_float_slots <- 0;
  t.tier2_boxed_slots <- 0;
  t.tier2_delegated <- 0;
  t.tier2_recompiles <- 0;
  t.osr_entries <- 0

let copy t =
  {
    t with
    max_pool_index = Hashtbl.copy t.max_pool_index;
    m_calls = Array.copy t.m_calls;
    m_ic_hits = Array.copy t.m_ic_hits;
    m_ic_misses = Array.copy t.m_ic_misses;
  }

(* Fold [src] into [dst]. Additive counters sum; pool indices take the
   max; [src]'s output is treated as printed after [dst]'s (both lists
   are reversed, so [src] goes in front). Associative and commutative on
   everything except output order, which follows merge order — exactly
   the deterministic join order the parallel VM merges children in. *)
let merge dst src =
  dst.heap_objects <- dst.heap_objects + src.heap_objects;
  dst.data_objects <- dst.data_objects + src.data_objects;
  dst.page_records <- dst.page_records + src.page_records;
  Hashtbl.iter
    (fun type_id idx ->
      let m = Option.value ~default:(-1) (Hashtbl.find_opt dst.max_pool_index type_id) in
      if idx > m then Hashtbl.replace dst.max_pool_index type_id idx)
    src.max_pool_index;
  dst.steps <- dst.steps + src.steps;
  dst.output <- src.output @ dst.output;
  dst.static_dispatches <- dst.static_dispatches + src.static_dispatches;
  dst.virtual_dispatches <- dst.virtual_dispatches + src.virtual_dispatches;
  dst.ic_hits <- dst.ic_hits + src.ic_hits;
  dst.ic_misses <- dst.ic_misses + src.ic_misses;
  ensure_methods dst (Array.length src.m_calls);
  Array.iteri (fun i n -> dst.m_calls.(i) <- dst.m_calls.(i) + n) src.m_calls;
  Array.iteri (fun i n -> dst.m_ic_hits.(i) <- dst.m_ic_hits.(i) + n) src.m_ic_hits;
  Array.iteri (fun i n -> dst.m_ic_misses.(i) <- dst.m_ic_misses.(i) + n) src.m_ic_misses;
  dst.tier2_compiles <- dst.tier2_compiles + src.tier2_compiles;
  dst.tier2_entries <- dst.tier2_entries + src.tier2_entries;
  dst.tier2_deopts <- dst.tier2_deopts + src.tier2_deopts;
  dst.tier2_int_slots <- dst.tier2_int_slots + src.tier2_int_slots;
  dst.tier2_float_slots <- dst.tier2_float_slots + src.tier2_float_slots;
  dst.tier2_boxed_slots <- dst.tier2_boxed_slots + src.tier2_boxed_slots;
  dst.tier2_delegated <- dst.tier2_delegated + src.tier2_delegated;
  dst.tier2_recompiles <- dst.tier2_recompiles + src.tier2_recompiles;
  dst.osr_entries <- dst.osr_entries + src.osr_entries

let output_lines t = List.rev t.output
