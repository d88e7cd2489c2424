(** Handler thread semantics (§3.3.5).

    Delivering an obvent executes the subscription's handler; the
    thread used is blocked until the handler completes. The paper
    distinguishes multi-threaded handlers (any number of obvents
    processed concurrently — the default) from single-threaded ones
    (one at a time), controlled through the subscription handle.

    The simulator models a handler execution as occupying its
    subscription for [service_time] virtual ticks; a dispatcher
    enforces the concurrency policy and records the observed overlap,
    which experiment E9 reports. Handler {e effects} run at start
    time, in delivery order.

    Cost. Waiting obvents sit in a ring buffer, so under [Single] and
    [Multi] a {!submit} and each handler start or finish is O(1)
    amortized, allocation-free apart from the completion event it
    schedules, whatever the backlog. Under [Class_serial] a drain scans
    the backlog for the first obvent of an idle class: O(k) where k is
    the number of waiting obvents ahead of it, all of busy classes;
    only that policy keeps per-class counts (a hash table). *)

type policy =
  | Single  (** never more than one obvent at a time *)
  | Multi of int  (** at most [n] concurrently; [max_int] = unbounded *)
  | Class_serial
      (** the extension §3.3.5 suggests: at most one obvent {e of each
          class} at a time; different classes overlap freely *)

type t

val create :
  Tpbs_sim.Engine.t ->
  ?service_time:int ->
  policy ->
  (Tpbs_obvent.Obvent.t -> unit) ->
  t
(** [service_time] defaults to 0 (instantaneous handlers). *)

val submit : t -> Tpbs_obvent.Obvent.t -> unit
(** Deliver one obvent: execute now if the policy allows, otherwise
    queue it (FIFO). *)

val set_policy : t -> policy -> unit
(** Takes effect for subsequent deliveries; queued work drains under
    the new policy. *)

val policy : t -> policy

val set_executor : t -> ((unit -> unit) -> unit) -> unit
(** Route [Multi] handler bodies through [run] (e.g. a {!Pool.submit}
    closure) instead of executing inline on the engine thread.
    [Single] and [Class_serial] handlers always stay inline — they
    require serialisation, which the engine thread provides.
    Admission, overlap accounting and [service_time] scheduling are
    unchanged; only the handler body moves. *)

type stats = {
  executed : int;  (** handler executions started *)
  max_overlap : int;  (** peak concurrent handlers *)
  peak_queue : int;  (** peak backlog under Single / bounded Multi *)
}

val stats : t -> stats
val in_flight : t -> int
