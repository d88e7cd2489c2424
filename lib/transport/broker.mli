(** The [tpbsd] broker engine: the TCP shell over
    {!Tpbs_core.Broker_core}, the filtering-host core that the
    simulated host ({!Tpbs_core.Pubsub.add_broker}) runs too. Client
    sessions are the core's destinations; each [Sub] gets a
    broker-wide id in arrival order. Routing, factored filtering
    through lazy cursor projections, and covering suppression are the
    core's, so both hosts make the same decisions for the same
    subscriptions.

    A library rather than a daemon so unit tests can run broker and
    clients in one process over real sockets (single-threaded,
    non-blocking, driven by {!poll}), and the soak harness can fork
    broker children without an exec path; [bin/tpbsd] is a thin CLI
    shell around it.

    What only a networked broker needs lives here:
    - the type lattice grows from client [Advertise] messages, and a
      [Sub] to an unknown type declares it bare;
    - fan-out encodes each accepted [Pub]'s [Deliver] once
      ({!Proto.encode_deliver}) and queues the same immutable bytes on
      every target session, so per-event encode cost is independent of
      subscriber count;
    - flow control: per-session bounded delivery queues drained by
      client-granted credits; publish credits are replenished only
      while every queue sits below the low watermark, so queue depth is
      bounded by the sum of outstanding publish windows and
      backpressure propagates from the slowest subscriber to every
      publisher. A session whose owed credits exceed the high watermark
      (a publisher ignoring backpressure) simply stops being read;
    - a pipelined turn: every quarter publish window routed, the
      broker pumps (the sessions with queued deliveries flush them,
      then the publishers they completed get their cumulative
      [Pub_ack] and [Credit]) and goes on routing what it already
      read. Pumps visit a work list of the sessions that have
      deliveries queued, an ack or credit owed or bytes pending, not
      every session;
    - certified delivery across broker crashes: a [Pub] is acknowledged
      only after its [Deliver] frames have been fully handed to the
      kernel for every matching subscriber session; an unacknowledged
      event survives in the publisher, which retransmits after
      reconnecting, and subscribers deduplicate by per-origin sequence.
      Within one broker life a per-client publish frontier re-acks
      retransmitted duplicates without re-delivering them.

    Metrics (ambient {!Tpbs_trace.Trace} registry): counters
    [tpbsd.accepts], [tpbsd.pubs], [tpbsd.dup_pubs],
    [tpbsd.forwarded], [tpbsd.acked], [tpbsd.bad_frames],
    [tpbsd.bad_adverts], [tpbsd.disconnects], [tpbsd.session_pumps]
    (sessions visited by pumps), plus the core's
    [broker.subs_covered] and [broker.subs_restored]; gauges
    [tpbsd.sessions], [tpbsd.qdepth] (worst queue, kept on every push
    and pop, so its peak is exact), [tpbsd.credit_outstanding]. *)

type t

type config = {
  pub_window : int;  (** publish credits granted per client *)
  low_watermark : int;
      (** all queues below this ⇒ owed publish credits are returned *)
  high_watermark : int;
      (** owed credits at this ⇒ the session stops being read *)
  max_frame : int;
  covering : bool;
      (** suppress [Sub]s covered by an installed subscription of the
          same session (on in {!default_config}); delivery is
          observationally identical either way *)
  warmup_ms : int;
      (** a freshly started broker grants zero publish credits for
          this long (full windows follow as [Credit]), so after a
          crash every surviving subscriber gets a chance to
          re-subscribe before publishers may retransmit — an early
          retransmit would route to whoever reconnected first, get
          acknowledged, and be lost to the late re-subscribers *)
}

val default_config : config

val listen_socket : host:string -> port:int -> Unix.file_descr
(** Bind + listen (with [SO_REUSEADDR]); useful for pre-creating the
    socket in a parent that forks broker incarnations, so restarts
    reuse the very same listening fd. *)

val create :
  ?config:config ->
  ?host:string ->
  ?listen_fd:Unix.file_descr ->
  port:int ->
  unit ->
  t
(** Create a broker listening on [host:port] (default 127.0.0.1), or
    adopt a pre-bound [listen_fd]. [port:0] picks an ephemeral port —
    read it back with {!port}. *)

val port : t -> int

val poll : t -> ?extra_fds:Unix.file_descr list -> timeout_ms:int -> unit -> bool
(** One engine turn: wait up to [timeout_ms] for readiness (in
    poll(2), so descriptors past select's 1024 are served), accept new
    clients, read and process frames, route publishes, pump delivery
    queues and acknowledgements — every [pub_window / 4] routed
    publishes and at the end of the turn. [extra_fds] are watched for
    readability alongside the sockets (e.g. a control pipe); the
    return value is [true] iff one of them is readable. *)

val stop : ?keep_listener:bool -> t -> unit
(** Drop every session and close the listening socket.
    [keep_listener] leaves the listening fd open — an in-process crash
    simulation: a successor incarnation created with [~listen_fd]
    adopts it, exactly like a forked broker child restarting on a
    parent-owned socket. *)

val session_count : t -> int
