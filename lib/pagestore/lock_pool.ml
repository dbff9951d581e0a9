exception Pool_exhausted

type lock = {
  id : int;
  mu : Mutex.t;
  mutable owner : int;    (* logical thread id; -1 when unowned *)
  mutable entries : int;  (* reentrancy depth *)
  mutable blockers : int; (* threads inside or waiting on this lock *)
}

type t = {
  registry : Mutex.t;  (* serializes lock-field assignment and recycling *)
  mutable locks : lock array;  (* under [registry]; [unused] until first use *)
  bits : Bitvec.t;
  mutable in_use : int;
  mutable peak : int;
}

(* Marks a table slot whose lock has not been created yet; never handed
   out. *)
let unused = { id = -1; mu = Mutex.create (); owner = -1; entries = 0; blockers = 0 }

let create ?(capacity = 512) () =
  if capacity <= 0 || capacity > Layout_rt.max_lock_id then
    invalid_arg "Lock_pool.create: capacity out of range";
  {
    registry = Mutex.create ();
    locks = [||];
    bits = Bitvec.create capacity;
    in_use = 0;
    peak = 0;
  }

let capacity t = Bitvec.length t.bits

(* The lock with id [id], created on first use. Caller holds [registry].
   The bit vector hands out ids lowest-free-first, so the table only ever
   needs to reach one past the highest id used so far; it grows by
   doubling, capped at the capacity. A grown table holds the same lock
   records, so a thread blocked on a lock's [mu] is unaffected. An id at
   or past the capacity raises [Invalid_argument], as an array index. *)
let lock_of t id =
  let n = Array.length t.locks in
  if id >= n && n < capacity t then begin
    let locks = Array.make (min (capacity t) (max (id + 1) (2 * n))) unused in
    Array.blit t.locks 0 locks 0 n;
    t.locks <- locks
  end;
  let l = t.locks.(id) in
  if l != unused then l
  else begin
    let l = { id; mu = Mutex.create (); owner = -1; entries = 0; blockers = 0 } in
    t.locks.(id) <- l;
    l
  end

let monitor_enter t store addr ~thread =
  (* [None]: reentrant entry, done; [Some contended]: take [l.mu]. *)
  let l, take =
    Mutex.protect t.registry (fun () ->
        let field = Store.get_lock_field store addr in
        let l =
          if field = 0 then begin
            match Bitvec.acquire_first_free t.bits with
            | None -> raise Pool_exhausted
            | Some id ->
                t.in_use <- t.in_use + 1;
                if t.in_use > t.peak then t.peak <- t.in_use;
                Store.set_lock_field store addr (id + 1);
                lock_of t id
          end
          else lock_of t (field - 1)
        in
        if l.owner = thread then begin
          (* Reentrant entry: the intrinsic lock is already held by this
             thread. *)
          l.entries <- l.entries + 1;
          (l, None)
        end
        else begin
          l.blockers <- l.blockers + 1;
          (* Read under the registry: a live owner means we are about to
             block on [l.mu] rather than take it uncontended. *)
          (l, Some (l.owner >= 0))
        end)
  in
  match take with
  | None -> ()
  | Some contended ->
      if contended && Obs.Trace.on () then
        Obs.Trace.instant ~cat:"store"
          ~args:[ ("lock", Obs.Tracer.Aint l.id) ]
          "lock_contended";
      Mutex.lock l.mu;
      l.owner <- thread;
      l.entries <- 1

let monitor_exit t store addr ~thread =
  Mutex.protect t.registry (fun () ->
      let field = Store.get_lock_field store addr in
      if field = 0 then invalid_arg "Lock_pool.monitor_exit: record is not locked";
      let l = lock_of t (field - 1) in
      if l.owner <> thread then
        invalid_arg "Lock_pool.monitor_exit: thread does not own the lock";
      l.entries <- l.entries - 1;
      if l.entries = 0 then begin
        l.owner <- -1;
        l.blockers <- l.blockers - 1;
        if l.blockers = 0 then begin
          (* Last thread out: zero the record's lock space and return the
             lock to the pool by flipping its bit (paper §3.4). *)
          Store.set_lock_field store addr 0;
          Bitvec.clear t.bits l.id;
          t.in_use <- t.in_use - 1
        end;
        Mutex.unlock l.mu
      end)

let locks_in_use t = t.in_use
let peak_locks_in_use t = t.peak
let bits_in_use t = Bitvec.count_set t.bits
