(** The parallel dispatch tier: a pool of OCaml 5 domains fed by one
    bounded FIFO queue that any idle worker pops from.

    [submit] blocks while the queue is full; [barrier] waits for every
    submitted task to complete — the engine calls it at each tick
    barrier so handler side effects are visible before virtual time
    advances.

    The counter [pool.tasks] is created at {!create}; engines that
    never spawn a pool emit no pool metrics. *)

type t

val create : workers:int -> t
(** Spawn [workers] (at least one) domains serving the queue. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task, blocking while the queue holds 1024 tasks.
    A task that raises still counts as completed; the first such
    exception is re-raised by the next {!barrier}.
    @raise Invalid_argument after {!shutdown}. *)

val barrier : t -> unit
(** Block until every task submitted so far has completed, then
    re-raise (with its backtrace) the first exception a task raised
    since the previous barrier, if any. *)

val shutdown : t -> unit
(** Run what is queued, stop and join all workers, then {!barrier}.
    The pool is dead afterwards. *)

val on_worker : unit -> bool
(** [true] iff the calling domain is a pool worker — used by the
    engine to route publishes made by handler code through the
    hand-off queue instead of touching engine state off the engine
    thread. *)

type stats = {
  tasks : int;  (** tasks submitted (the [pool.tasks] counter) *)
  queued : int;  (** tasks currently waiting *)
}

val stats : t -> stats
