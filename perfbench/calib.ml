(* The calibration kernel: a fixed amount of work that no program change
   can change, timed next to every measurement so each reported time can
   be rescaled to a reference-speed host.

   It uses only the stdlib and Bigarray and allocates nothing on the
   OCaml heap inside its loops. An LCG drives read-modify-writes with a
   data-dependent branch into two float64 arrays: 512 KiB, cache-resident
   like the page working set of the PageRank workload, and 32 MiB, bound
   by memory latency like the collector's traversal of a compiler's heap.
   Host weather slows the two differently; on the reference host a
   cache-only kernel tracked a PageRank job's drift but missed most of a
   cold compile's, so a cold compile is divided by the sum and a PageRank
   job by the cache part alone. *)

open Bigarray

type buf = (float, float64_elt, c_layout) Array1.t

let make cells : buf =
  let a = Array1.create float64 c_layout cells in
  Array1.fill a 1.0;
  a

let cache = make (1 lsl 16)
let memory = make (1 lsl 22)

let rmw (buf : buf) iters =
  let mask = Array1.dim buf - 1 in
  let x = ref 12345 in
  for _ = 1 to iters do
    x := (!x * 1103515245 + 12345) land 0x3fff_ffff;
    let j = !x land mask in
    let v = Array1.unsafe_get buf j in
    if !x land 0x100 = 0 then Array1.unsafe_set buf j ((v *. 0.5) +. 1.0)
    else Array1.unsafe_set buf ((j + 1) land mask) ((v *. 0.25) +. 1.5)
  done

let work () =
  rmw cache 500_000;
  rmw memory 100_000

(** What a timing is divided by: the whole kernel, or its cache part
    alone, for a workload whose working set stays in cache. *)
type part = Whole | Cache

(** One timed kernel run, in milliseconds. Both parts always run, so the
    kernel does the same work between ops whichever part is read. *)
let run_ms part =
  let t0 = Unix.gettimeofday () in
  rmw cache 500_000;
  let t1 = Unix.gettimeofday () in
  rmw memory 100_000;
  let t2 = Unix.gettimeofday () in
  match part with Whole -> (t2 -. t0) *. 1e3 | Cache -> (t1 -. t0) *. 1e3

(** Minor-heap words one kernel run allocates; the benchmark checks at
    start-up that it is 0, so the kernel stays independent of the GC. *)
let alloc_words () =
  let w0 = Gc.minor_words () in
  work ();
  Gc.minor_words () -. w0
