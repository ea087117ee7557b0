(* A fixed-size domain pool with chunked fan-out/fan-in.

   Life of a job: the submitter publishes (task, chunks) under the mutex,
   bumps the epoch, and broadcasts; every parked helper wakes, records the
   epoch, and joins the submitter in draining chunk indices from one
   atomic counter; each helper reports completion under the mutex; the
   submitter returns once every helper has reported.  Helpers park again
   waiting for the next epoch.  The atomic counter gives dynamic load
   balancing (a domain stuck on an expensive chunk does not stall the
   others); the epoch protocol means helpers are spawned exactly once per
   pool, not per job. *)

module Telemetry = Kola_telemetry.Telemetry

type t = {
  size : int;  (* total domains per job, including the submitter *)
  mutable task : (int -> unit) option;
  mutable chunks : int;
  next : int Atomic.t;       (* next unclaimed chunk of the current job *)
  mutable completed : int;   (* helpers finished with the current job *)
  mutable epoch : int;
  mutable stop : bool;
  mutex : Mutex.t;
  work : Condition.t;  (* new epoch published, or shutdown *)
  idle : Condition.t;  (* a helper finished the current job *)
  mutable helpers : unit Domain.t list;
}

(* A daemon's workers and one run's morsel domains each stay at or below
   this; both at the bound, with the main domain, stay well under the
   OCaml runtime's limit of 128 domains per process. *)
let max_domains = 32

let resolve_jobs jobs =
  if jobs <= 0 then min (Domain.recommended_domain_count ()) max_domains
  else jobs

(* Claim and run chunks until the counter runs dry.  Tasks must not
   escape: a raising task would kill the helper's loop and hang every
   future job, so anything raised here is dropped — [map] catches user
   exceptions itself and re-raises them in the submitter.  A chunk
   claimed by a helper (rather than the submitter) counts as a steal:
   work the submitter would otherwise have run itself. *)
let rec drain ?(helper = false) t task chunks =
  let i = Atomic.fetch_and_add t.next 1 in
  if i < chunks then begin
    if helper then Telemetry.count "pool.steal";
    (try
       Telemetry.span "pool.chunk" @@ fun () ->
       if Telemetry.enabled () then begin
         let t0 = Telemetry.now () in
         task i;
         Telemetry.observe "pool.chunk_ms" ((Telemetry.now () -. t0) *. 1000.)
       end
       else task i
     with _ -> ());
    drain ~helper t task chunks
  end

let helper_loop t =
  let my_epoch = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.stop) && t.epoch = !my_epoch do
      Condition.wait t.work t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      my_epoch := t.epoch;
      let task = Option.get t.task and chunks = t.chunks in
      Mutex.unlock t.mutex;
      drain ~helper:true t task chunks;
      Mutex.lock t.mutex;
      t.completed <- t.completed + 1;
      Condition.broadcast t.idle;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.helpers;
  t.helpers <- []

let create ?(jobs = 0) () =
  let size = resolve_jobs jobs in
  let t =
    {
      size;
      task = None;
      chunks = 0;
      next = Atomic.make 0;
      completed = 0;
      epoch = 0;
      stop = false;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      helpers = [];
    }
  in
  (* One spawn at a time: when one fails (the runtime caps the domains
     a process may run), the helpers already parked are shut down and
     joined before the exception goes on, so none is left behind. *)
  (try
     for _ = 2 to size do
       t.helpers <- Domain.spawn (fun () -> helper_loop t) :: t.helpers
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     shutdown t;
     Printexc.raise_with_backtrace e bt);
  t

let size t = t.size

let run t ~chunks task =
  if t.stop then invalid_arg "Pool.run: pool is shut down";
  if chunks <= 0 then ()
  else if t.size = 1 || chunks = 1 then
    for i = 0 to chunks - 1 do
      task i
    done
  else begin
    Mutex.lock t.mutex;
    t.task <- Some task;
    t.chunks <- chunks;
    Atomic.set t.next 0;
    t.completed <- 0;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* the submitter works too, then waits for every helper to report *)
    Fun.protect
      (fun () -> drain t task chunks)
      ~finally:(fun () ->
        Mutex.lock t.mutex;
        while t.completed < t.size - 1 do
          Condition.wait t.idle t.mutex
        done;
        t.task <- None;
        Mutex.unlock t.mutex)
  end

let map t f (xs : 'a array) : 'b array =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let err = Atomic.make None in
    (* a few chunks per domain so a slow chunk rebalances *)
    let chunk_count = min n (t.size * 4) in
    let chunk_size = (n + chunk_count - 1) / chunk_count in
    run t ~chunks:chunk_count (fun c ->
        let lo = c * chunk_size in
        let hi = min n (lo + chunk_size) - 1 in
        for i = lo to hi do
          (* The first exception aborts the whole map: once [err] is set,
             every domain skips its remaining items instead of running
             them to completion — work past the failure is wasted (and,
             under a deadline, actively harmful). *)
          if Atomic.get err = None then
            match f xs.(i) with
            | y -> out.(i) <- Some y
            | exception e -> ignore (Atomic.compare_and_set err None (Some e))
        done);
    (match Atomic.get err with Some e -> raise e | None -> ());
    (* Unreachable by construction: an item is only ever skipped after
       [err] was set, and a set [err] re-raised above — so reaching this
       map means every slot was written. *)
    Array.map (function Some y -> y | None -> assert false) out
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect (fun () -> f t) ~finally:(fun () -> shutdown t)

(* ------------------------------------------------------------------ *)
(* Service: long-lived worker domains draining a bounded task queue.

   Where the pool above fans one job out and joins it (single submitter,
   barrier semantics), a service accepts independent fire-and-forget
   tasks from any domain and applies admission control: [submit] either
   enqueues — workers pick tasks up in FIFO order — or rejects
   immediately when the backlog has reached the bound, reporting the
   depth the submitter can put in a 429-style response.  Overload
   therefore degrades into predictable queueing latency plus fast
   rejections instead of an unbounded backlog.

   Tasks must not leak exceptions into the worker loop (a dead worker
   would silently shrink the service), so anything a task raises is
   swallowed and counted ([service.task_error]); user-level error
   handling belongs inside the task. *)
module Service = struct
  type t = {
    workers : int;
    bound : int;
    tasks : (unit -> unit) Queue.t;  (* under [lock] *)
    lock : Mutex.t;
    task_ready : Condition.t;  (* task enqueued, or shutdown *)
    drained : Condition.t;     (* a worker went idle *)
    mutable running : int;     (* tasks currently executing *)
    mutable stop : bool;
    mutable domains : unit Domain.t list;
    submitted : int Atomic.t;
    rejected : int Atomic.t;
    errors : int Atomic.t;
  }

  type stats = {
    workers : int;
    bound : int;
    queued : int;
    running : int;
    submitted : int;
    rejected : int;
    errors : int;
  }

  let worker_loop t =
    let rec loop () =
      Mutex.lock t.lock;
      while (not t.stop) && Queue.is_empty t.tasks do
        Condition.wait t.task_ready t.lock
      done;
      if Queue.is_empty t.tasks then begin
        (* stop requested and nothing left to drain *)
        Mutex.unlock t.lock
      end
      else begin
        let task = Queue.pop t.tasks in
        t.running <- t.running + 1;
        Mutex.unlock t.lock;
        (try task ()
         with _ ->
           Atomic.incr t.errors;
           Telemetry.count "service.task_error");
        Mutex.lock t.lock;
        t.running <- t.running - 1;
        Condition.broadcast t.drained;
        Mutex.unlock t.lock;
        loop ()
      end
    in
    loop ()

  let shutdown t =
    Mutex.lock t.lock;
    if t.stop then Mutex.unlock t.lock
    else begin
      t.stop <- true;
      Condition.broadcast t.task_ready;
      Mutex.unlock t.lock;
      List.iter Domain.join t.domains;
      t.domains <- []
    end

  let create ?(workers = 0) ?(queue = 64) () =
    let workers = resolve_jobs workers in
    let t =
      {
        workers;
        bound = max 0 queue;
        tasks = Queue.create ();
        lock = Mutex.create ();
        task_ready = Condition.create ();
        drained = Condition.create ();
        running = 0;
        stop = false;
        domains = [];
        submitted = Atomic.make 0;
        rejected = Atomic.make 0;
        errors = Atomic.make 0;
      }
    in
    (* One spawn at a time, as in [create] above: when one fails, the
       workers already running are shut down and joined before the
       exception goes on. *)
    (try
       for _ = 1 to workers do
         t.domains <- Domain.spawn (fun () -> worker_loop t) :: t.domains
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       shutdown t;
       Printexc.raise_with_backtrace e bt);
    t

  (* Queued tasks not yet started.  Racy by nature (the answer can be
     stale the instant it returns); exact inside [submit]'s own lock. *)
  let depth t = Mutex.protect t.lock (fun () -> Queue.length t.tasks)

  let submit t task =
    Mutex.lock t.lock;
    if t.stop then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.Service.submit: service is shut down"
    end;
    let depth = Queue.length t.tasks in
    if depth >= t.bound then begin
      Mutex.unlock t.lock;
      Atomic.incr t.rejected;
      Telemetry.count "service.rejected";
      Error depth
    end
    else begin
      Queue.push task t.tasks;
      Condition.signal t.task_ready;
      Mutex.unlock t.lock;
      Atomic.incr t.submitted;
      Telemetry.count "service.submitted";
      Ok (depth + 1)
    end

  (* Block until no task is queued or running — the quiesce point
     shutdown (and tests) use to assert a clean drain. *)
  let drain t =
    Mutex.lock t.lock;
    while not (Queue.is_empty t.tasks && t.running = 0) do
      Condition.wait t.drained t.lock
    done;
    Mutex.unlock t.lock

  let stats t =
    Mutex.lock t.lock;
    let queued = Queue.length t.tasks and running = t.running in
    Mutex.unlock t.lock;
    {
      workers = t.workers;
      bound = t.bound;
      queued;
      running;
      submitted = Atomic.get t.submitted;
      rejected = Atomic.get t.rejected;
      errors = Atomic.get t.errors;
    }
end
