(* The parallel dispatch tier: a pool of OCaml 5 domains fed by one
   bounded FIFO queue that any idle worker pops from.

   The engine thread is the only producer. [submit] blocks while the
   queue holds [capacity] tasks.

   The barrier: [barrier] blocks the caller until every submitted
   task has completed (not merely been dequeued). The engine calls it
   at each tick barrier so a simulated tick's handler side effects are
   all visible before virtual time advances — that, plus the hand-off
   queue in [Pubsub] for publishes made from handlers, is what keeps
   the pooled engine's observable behaviour equal to the inline one.

   Failures: the first exception a task raises is kept with its
   backtrace and re-raised by the next [barrier], on the engine
   thread, so a handler that raises on a worker fails the run just as
   it does inline. Later exceptions before that barrier are dropped.

   One mutex guards the queue and the counts. The counter pool.tasks
   is created at [create], so engines that never spawn a pool emit no
   pool metrics. *)

module Trace = Tpbs_trace.Trace

let capacity = 1024

type t = {
  mutable workers : unit Domain.t list;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  not_full : Condition.t;
  idle : Condition.t;
  mutable submitted : int;
  mutable completed : int;
  mutable stop : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  c_tasks : Trace.Counter.t;
}

(* Set on pool worker domains via DLS so [on_worker] lets the engine
   detect calls made from handler code running off the engine thread
   (those must hand off instead of touching engine state directly). *)
let worker_key = Domain.DLS.new_key (fun () -> false)
let on_worker () = Domain.DLS.get worker_key

let worker_loop t () =
  Domain.DLS.set worker_key true;
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.queue) then begin
      let task = Queue.pop t.queue in
      Condition.signal t.not_full;
      Mutex.unlock t.mutex;
      let failure =
        match task () with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.mutex;
      if Option.is_none t.failure then t.failure <- failure;
      t.completed <- t.completed + 1;
      if t.completed = t.submitted then Condition.broadcast t.idle;
      next ()
    end
    else if t.stop then Mutex.unlock t.mutex
    else begin
      Condition.wait t.nonempty t.mutex;
      next ()
    end
  in
  next ()

let create ~workers =
  let t =
    {
      workers = [];
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      not_full = Condition.create ();
      idle = Condition.create ();
      submitted = 0;
      completed = 0;
      stop = false;
      failure = None;
      c_tasks = Trace.counter (Trace.ambient ()) "pool.tasks";
    }
  in
  t.workers <-
    List.init (max 1 workers) (fun _ -> Domain.spawn (worker_loop t));
  t

let submit t task =
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: the pool is shut down"
  end;
  while Queue.length t.queue >= capacity do
    Condition.wait t.not_full t.mutex
  done;
  Queue.push task t.queue;
  t.submitted <- t.submitted + 1;
  Trace.Counter.incr t.c_tasks;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* Wait until every submitted task has completed. Also the engine's
   tick barrier: after it returns, all handler side effects of the
   tick are visible to the engine thread. *)
let barrier t =
  Mutex.lock t.mutex;
  while t.completed < t.submitted do
    Condition.wait t.idle t.mutex
  done;
  let failure = t.failure in
  t.failure <- None;
  Mutex.unlock t.mutex;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure

(* Workers leave only once the queue is empty, so joining them drains
   it; the closing [barrier] then re-raises a failure not yet seen. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  barrier t

type stats = { tasks : int; queued : int }

let stats t =
  Mutex.lock t.mutex;
  let queued = Queue.length t.queue in
  Mutex.unlock t.mutex;
  { tasks = Trace.Counter.value t.c_tasks; queued }
