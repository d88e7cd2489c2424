(** Client connector: joins a running [tpbsd] broker over TCP and
    plugs into an unmodified {!Tpbs_core.Pubsub.Domain} through the
    {!Tpbs_core.Pubsub.Remote} seam, so [publish] / [subscribe] on the
    domain transparently route through the remote broker.

    Owns the client half of the transport guarantees: contiguous
    publish sequencing with retransmission of unacknowledged events
    after a reconnect, per-origin monotone deduplication of
    deliveries, credit-based flow control in both directions, and
    (re-)advertisement of the type lattice and subscriptions on every
    fresh connection.

    Single-threaded and non-blocking: nothing happens outside
    {!connect}, {!reconnect}, {!poll} and the publish/subscribe
    upcalls.

    Metrics (ambient {!Tpbs_trace.Trace} registry):
    [transport.client_pubs], [transport.client_acked],
    [transport.delivered], [transport.dup_drops],
    [transport.retransmits], [transport.reconnects],
    [transport.backoff_waits] counters; [transport.sendq],
    [transport.unacked], [transport.window] gauges. *)

type t

(** Exponential backoff with jitter for reconnect loops. *)
module Backoff : sig
  type policy = {
    base_ms : int;  (** delay before the first retry *)
    factor : float;  (** growth per attempt *)
    max_delay_ms : int;  (** exponential growth is capped here *)
    jitter : float;  (** +/- fraction of the capped delay *)
    max_retries : int;  (** attempts before giving up *)
  }

  val default : policy
  (** 100 ms base, doubling, 10 s cap, ±20% jitter, 8 attempts. *)

  val delay_ms : policy -> attempt:int -> u:float -> int
  (** The wait before (0-based) retry [attempt], given a uniform draw
      [u] in [0, 1): [min (base * factor^attempt) max_delay], spread
      over ±[jitter] of itself. Pure — unit-testable without
      sleeping. *)
end

val connect :
  ?window:int ->
  ?max_frame:int ->
  ?timeout_ms:int ->
  ?reconnect:[ `Backoff of Backoff.policy | `Manual ] ->
  host:string ->
  port:int ->
  id:string ->
  unit ->
  t option
(** Dial and handshake. [id] must be unique among the broker's clients
    and stable across reconnects (it keys publish deduplication).
    [window] (default 64) is the delivery credit granted to the
    broker. [None] if the broker is unreachable or the handshake times
    out.

    [reconnect] (default [`Backoff Backoff.default]) makes {!poll}
    itself re-dial a dropped connection on the jittered exponential
    schedule — the first attempt immediate, each failure booking the
    next one later, until the retry budget runs out (after which only
    an explicit {!reconnect} re-arms it; {!close} disarms it).
    [`Manual] restores the caller-driven behaviour. *)

val attach : t -> Tpbs_core.Pubsub.Domain.t -> Tpbs_core.Pubsub.Process.t -> unit
(** Wire a domain through this connection
    ({!Tpbs_core.Pubsub.Remote.connect}): call once, before any
    channel is opened. *)

val poll : t -> timeout_ms:int -> bool
(** One I/O turn: wait up to [timeout_ms] for socket readiness, read
    and dispatch deliveries/acks/credits, push queued publishes.
    [false] when the connection is down — publishes queue locally
    until a reconnect succeeds. Under the default [`Backoff] policy a
    down connection is re-dialed from inside poll itself (waits are
    bounded by [timeout_ms] per call and counted by
    [transport.backoff_waits]); with [`Manual], call {!reconnect}. *)

val connected : t -> bool

val reconnect : ?timeout_ms:int -> t -> bool
(** One reconnection attempt. On success, re-advertises, re-subscribes
    every live subscription, and retransmits all unacknowledged
    publishes ahead of newer queued ones. *)

val reconnect_with_backoff :
  ?policy:Backoff.policy ->
  ?sleep:(int -> unit) ->
  ?rand:(unit -> float) ->
  ?timeout_ms:int ->
  t ->
  bool
(** {!reconnect} in a loop under the backoff schedule: up to
    [max_retries] attempts, waiting [Backoff.delay_ms] between
    consecutive failures (each wait counted by
    [transport.backoff_waits]). [sleep] (default [Unix.sleepf]) and
    [rand] (default a self-seeded PRNG) are injectable for tests.
    [false] once the retry budget is exhausted. *)

val publish :
  t ->
  cls:string ->
  publish_time:int ->
  eid:int * int ->
  Tpbs_serial.Value.t ->
  unit
(** Low-level publish (bypassing a domain): assign the next pseq and
    queue the [Pub] frame of one obvent value of class [cls], built
    now ({!Proto.pub_frame}) — the frame the socket gets, and the one
    a reconnect retransmits. Normally reached via {!attach}. *)

val unacked_count : t -> int
(** Publishes sent but not yet covered by a cumulative ack. *)

val queued_count : t -> int
(** Everything still owed to the broker: queued + unacked. *)

val close : t -> unit
(** Send [Bye] and drop the connection. Queued state survives, so a
    later {!reconnect} resumes cleanly. *)
