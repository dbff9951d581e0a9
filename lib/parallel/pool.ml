(* Fixed-size Domain worker pool over one mutex-guarded FIFO, with
   fork/join groups.

   Every submission, from a worker or from outside, lands in the one
   queue; idle workers park on [nonempty] and each submit signals one of
   them. The VM schedules a few coarse logical threads per superstep, so
   hand-off is not where its time goes: a work-stealing pool measured no
   better here (DESIGN §8).

   A join ([wait]) parks when called from a domain outside the pool and
   helps (runs queued tasks) when called from one of its workers. A
   parked caller leaves the CPU to the workers, so a 1-worker pool has
   exactly one executor; a worker must help, since a parked worker could
   deadlock a 1-worker pool whose queued children it alone can run.

   Tasks must not raise: [exec] swallows escaping exceptions to keep the
   domain alive. [spawn] wraps every task to capture the first exception
   and re-raise it at the join, so user code never relies on this
   backstop. *)

type task = unit -> unit

type t = {
  id : int;
  queue : task Queue.t; (* guarded by [mu] *)
  mu : Mutex.t;
  nonempty : Condition.t; (* signalled by every submit, broadcast by shutdown *)
  mutable stop : bool; (* guarded by [mu] *)
  mutable domains : unit Domain.t list;
}

let next_id = Atomic.make 0

(* The id of the pool the current domain works for, or -1. *)
let worker_of : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let on_worker t = Domain.DLS.get worker_of = t.id

let exec task =
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"par" "task" (fun () -> try task () with _ -> ())
  else try task () with _ -> ()

(* Take the next task, parking while the queue is empty; [None] once the
   pool is stopped and drained. *)
let next_task t =
  Mutex.lock t.mu;
  let rec take () =
    match Queue.take_opt t.queue with
    | Some _ as r -> r
    | None when t.stop -> None
    | None ->
        if Obs.Trace.on () then Obs.Trace.instant ~cat:"par" "worker_park";
        Condition.wait t.nonempty t.mu;
        take ()
  in
  let r = take () in
  Mutex.unlock t.mu;
  r

let rec worker_loop t =
  match next_task t with
  | Some task ->
      exec task;
      worker_loop t
  | None -> ()

let create ~workers =
  if workers < 1 then invalid_arg "Pool.create: workers < 1";
  let t =
    {
      id = Atomic.fetch_and_add next_id 1;
      queue = Queue.create ();
      mu = Mutex.create ();
      nonempty = Condition.create ();
      stop = false;
      domains = [];
    }
  in
  t.domains <-
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set worker_of t.id;
            worker_loop t));
  t

let submit t task =
  Mutex.lock t.mu;
  Queue.push task t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.mu;
  if Obs.Trace.on () then Obs.Trace.instant ~cat:"par" "task_submit"

let try_help t =
  Mutex.lock t.mu;
  let r = Queue.take_opt t.queue in
  Mutex.unlock t.mu;
  match r with
  | Some task ->
      exec task;
      true
  | None -> false

let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~workers f =
  let t = create ~workers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ---------- fork/join groups ---------- *)

type group = {
  pool : t;
  remaining : int Atomic.t;
  first_exn : exn option Atomic.t;
  gmu : Mutex.t;
  drained : Condition.t;
}

let group pool =
  {
    pool;
    remaining = Atomic.make 0;
    first_exn = Atomic.make None;
    gmu = Mutex.create ();
    drained = Condition.create ();
  }

let spawn g f =
  Atomic.incr g.remaining;
  submit g.pool (fun () ->
      (try f ()
       with e -> ignore (Atomic.compare_and_set g.first_exn None (Some e)));
      (* The last task to finish wakes parked waiters. The broadcast is
         taken under [gmu] so a waiter that just observed [remaining > 0]
         is already inside [Condition.wait] when we get the lock. *)
      if Atomic.fetch_and_add g.remaining (-1) = 1 then begin
        Mutex.lock g.gmu;
        Condition.broadcast g.drained;
        Mutex.unlock g.gmu
      end)

(* A worker runs queued tasks until the group drains, spinning while the
   tasks it waits for run on other domains. *)
let rec help g =
  if Atomic.get g.remaining > 0 then begin
    if not (try_help g.pool) then Domain.cpu_relax ();
    help g
  end

let park g =
  Mutex.lock g.gmu;
  while Atomic.get g.remaining > 0 do
    Condition.wait g.drained g.gmu
  done;
  Mutex.unlock g.gmu

let wait g =
  let traced = Obs.Trace.on () && Atomic.get g.remaining > 0 in
  if traced then Obs.Trace.span_begin ~cat:"par" "join_wait";
  if on_worker g.pool then help g else park g;
  if traced then Obs.Trace.span_end ();
  match Atomic.get g.first_exn with
  | Some e ->
      Atomic.set g.first_exn None;
      raise e
  | None -> ()
