(** Discrete-event simulation core: a virtual clock and an ordered
    queue of pending actions. Single-threaded and deterministic — two
    runs with the same seed execute the same actions in the same
    order. Time is in abstract microsecond ticks. *)

type t

type time = int
(** Virtual microseconds since simulation start. *)

val create : ?seed:int -> unit -> t
(** Fresh simulation at time 0. [seed] (default 42) roots all
    randomness. *)

val now : t -> time
val rng : t -> Rng.t

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** Run the action [delay] ticks from now. Negative delays are
    clamped to 0. Actions at equal times run in scheduling order. *)

val schedule_at : t -> time -> (unit -> unit) -> unit
(** Absolute-time variant. Times in the past run "now". *)

val every : t -> period:int -> ?jitter:int -> (unit -> bool) -> unit
(** Periodic action; it keeps rescheduling itself while it returns
    [true]. With [jitter], each period is perturbed uniformly in
    [±jitter]. *)

val step : t -> bool
(** Execute the next pending action; [false] when the queue is
    empty. *)

val run : ?until:time -> t -> unit
(** Drain the queue (or stop once the clock passes [until]; actions
    scheduled later remain queued). *)

val add_tick_barrier : t -> (unit -> unit) -> unit
(** Register a hook that [run] fires once whenever virtual time is
    about to advance, and once more when the heap drains — always
    before the next action executes. The pooled engine joins its
    domain pool and flushes group-committed storage here, so all
    parallel work of one tick is visible before the next tick. A
    barrier may schedule new actions (message hand-off); [run] picks
    them up. With no barriers registered the loop is exactly the seed
    engine's. *)

val pending : t -> int
(** Number of queued actions. *)
