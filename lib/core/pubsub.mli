(** The type-based publish/subscribe engine — the paper's primary
    contribution, as a library with the same semantics the [publish] /
    [subscribe] primitives compile down to (§3, §4).

    One {!Domain} spans a simulated deployment: it owns the type
    registry and maps every obvent class to a dissemination channel (a
    DACE {e multicast class}, §4.2). The channel's protocol is not a
    fixed pick: {!Tpbs_group.Stack.assemble} composes a layer stack
    from the class's resolved QoS profile — bottom transport
    (best-effort datagrams, gossip, broker routing, or the certified
    durable log), a shared reliability layer, and an independent
    ordering layer — so every lattice point of Fig. 3/4, including
    composites like [Certified ∧ TotalOrder], gets the semantics its
    markers promise.

    Transmission semantics ride on top: [Prioritary] and [Timely]
    obvents pass through a rate-limited egress queue where higher
    priorities overtake and stale obvents expire.

    A {!Process} is one address space. [subscribe] registers a typed
    subscription — filter plus handler closure — and returns the
    {!Subscription} handle of Fig. 3 ([activate] / [deactivate] /
    thread policies). Subscribing to a type receives instances of all
    its subtypes (Fig. 1), each subscription getting its own
    deserialized clone of every published obvent (§2.1.2).

    When a {e broker} is designated, plain-unreliable channels route
    through it: subscriptions whose filters are mobile
    ({!Tpbs_filter.Mobility}) and liftable ({!Tpbs_filter.Rfilter})
    travel to the broker, are factored into a compound filter
    ({!Tpbs_filter.Factored}), and events are forwarded only to nodes
    with a matching subscription — the remote filtering of §3.3.3.
    Non-conforming filters fall back to always-forward + local
    evaluation, exactly like the paper's [LocalFilter]. *)

module Domain : sig
  type t

  val create :
    ?tx_interval:int ->
    ?domains:int ->
    Tpbs_types.Registry.t ->
    Tpbs_sim.Net.t ->
    t
  (** [tx_interval] is the egress-queue drain period for
      priority/timely traffic (default 200 ticks).

      [domains] > 1 spawns the parallel dispatch tier: a pool of that
      many OCaml 5 domains ({!Pool}) that runs the handler bodies of
      Multi-policy subscriptions. Handlers that publish from a worker
      go through a hand-off queue, applied on the engine thread at the
      tick barrier, where the pool is also joined — so all handler
      side effects of a tick are visible before virtual time advances,
      and an exception raised by a pooled handler escapes
      {!Tpbs_sim.Engine.run} as it would inline. The default (1) runs
      every handler on the engine thread. Call {!shutdown} when done
      to join the workers. *)

  val registry : t -> Tpbs_types.Registry.t
  val net : t -> Tpbs_sim.Net.t
  val engine : t -> Tpbs_sim.Engine.t

  val nodes : t -> Tpbs_sim.Net.node_id list
  (** Nodes of all attached processes, in creation order. *)

  val enable_meta : t -> unit
  (** Turn on DACE's reflexive control channel (§4.2): every
      subscription activation/deactivation is itself published as an
      obvent of class [SubscriptionActivated] /
      [SubscriptionDeactivated] (see {!Tpbs_types.Registry.create}'s
      builtin [MetaObvent] hierarchy), so processes can learn about
      subscriptions — and "possibly new multicast classes" — by
      subscribing. Meta traffic about meta subscriptions is
      suppressed. *)

  val enable_targeted_dissemination : t -> unit
  (** Subscription-aware dissemination (implies {!enable_meta}):
      best-effort channels address only nodes believed to hold a
      matching subscription, a view each process learns eventually
      from the meta channel — the control-traffic-driven dissemination
      of DACE. Events published before interest has propagated can be
      missed, exactly as with real subscription propagation delay;
      reliable/ordered/certified channels keep their full groups. *)

  val use_gossip : t -> cls:string -> ?config:Tpbs_group.Gossip.config -> unit -> unit
  (** Route this (unreliable) obvent class over gossip instead of
      plain best-effort — DACE's scalable end of the spectrum. Must be
      called before the first publish/subscribe touching the class. *)

  val retain_history : t -> cls:string -> unit
  (** Keep this certified class's fully-acknowledged log entries
      instead of trimming them, so {!Subscription.activate_replay}
      can serve the past back. Must be called before the first
      publish/subscribe touching the class; a no-op for non-certified
      profiles. *)

  type stats = {
    published : int;
    deliveries : int;  (** handler submissions across all subscriptions *)
    filtered_out : int;
    expired : int;
        (** timely obvents dropped as stale — counted once per stale
            event at a receiving process (not once per matching
            subscription), plus once per entry expiring in the egress
            queue *)
    decode_errors : int;
        (** undecodable envelopes/obvents, and deliveries that raced
            channel registration (dropped, not fatal) *)
    broker_forwards : int;  (** node-level forwards made by the broker *)
    broker_events : int;  (** events that transited the broker *)
    control_messages : int;  (** subscription (un)registrations sent *)
    qos_conflicts : int;
        (** semantics dropped by Fig. 4 precedence when a class's
            profile was resolved at channel creation (each also emits
            a [core.qos_conflict] trace event) *)
    filters_pruned : int;
        (** subscriptions whose lifted filter was proven unsatisfiable
            at subscribe time ({!Tpbs_filter.Subsume.unsat}): they are
            kept out of the routing index and never registered with
            filtering hosts, so the delivery path never evaluates them
            (each also emits a [core.filter_pruned] trace event) *)
    replayed : int;
        (** retained-history obvents delivered to replay
            subscriptions — counted apart from [deliveries] and kept
            out of the latency histogram (each also emits a
            [core.replay_deliver] trace event) *)
    channel_misses : int;
        (** egress-queue entries whose channel was gone by drain time
            (publish and transmission are decoupled for
            priority/timely traffic, so teardown can win the race);
            skipped, not fatal — also counted by [core.channel_misses]
            and traced as [channel_miss] events *)
  }

  val stats : t -> stats
  (** A snapshot of the engine's tallies. *)

  val pool_stats : t -> Pool.stats option
  (** Dispatch-tier counters when the domain was created with
      [~domains] > 1 and has not been shut down. *)

  val shutdown : t -> unit
  (** Drain and join the dispatch-tier workers (a no-op without a
      pool). The domain remains usable for single-threaded work:
      Multi-policy handler bodies then run inline on the engine
      thread. Re-raises a pooled handler's exception not yet seen by a
      tick barrier. *)

  val latency : t -> Tpbs_trace.Histogram.t
  (** Publish-to-handler latency samples, virtual ticks. Empty for a
      domain under {!Remote.connect}: a remote publish time is another
      process's clock. *)

  val reset_stats : t -> unit
  (** Zero the tallies behind {!stats}. *)
end

module Subscription : sig
  type t

  val activate : t -> unit
  (** @raise Errors.Cannot_subscribe if already activated. *)

  val activate_durable : t -> id:int -> unit
  (** Certified subscriptions outlive their process (§3.4.1): the
      durable id names the subscription across incarnations; the
      actual catch-up happens in {!Process.resume}.
      @raise Errors.Cannot_subscribe if already activated, if the
      process has no stable storage, or if the id is already bound to
      a different subscribed type. *)

  val activate_replay : t -> from:int -> unit
  (** Activate and replay the retained certified past: every matching
      channel with a certified bottom is asked for its log from
      sequence [from] on (see {!Domain.retain_history}). History
      arrives on this subscription only — filtered as usual, counted
      as [replayed] — and anything past the live frontier splices
      into ordinary delivery (catch-up-then-live).
      @raise Errors.Cannot_subscribe if already activated or [from]
      is negative. *)

  val deactivate : t -> unit
  (** @raise Errors.Cannot_unsubscribe if not activated. *)

  val is_active : t -> bool

  val is_pruned : t -> bool
  (** The lifted filter was proven unsatisfiable at subscribe time;
      the subscription behaves normally but can never match, and the
      engine skips it on the delivery path. *)

  val id : t -> int
  val subscribed_type : t -> string
  val durable_id : t -> int option

  val set_single_threading : t -> unit
  val set_multi_threading : t -> max:int -> unit

  (** The extension the paper suggests in §3.3.5: at most one obvent
      of each concrete class processed at a time. *)
  val set_class_serial_threading : t -> unit
  val dispatch_stats : t -> Dispatch.stats
  val delivered : t -> int
  (** Obvents that reached this subscription's handler. *)
end

module Process : sig
  type t

  val create :
    Domain.t ->
    ?storage:Tpbs_sim.Stable.t ->
    ?rmi:Tpbs_rmi.Rmi.runtime ->
    Tpbs_sim.Net.node_id ->
    t
  (** Attach a pub/sub process to a node. At most one process per
      node.
      @raise Invalid_argument otherwise. *)

  val node : t -> Tpbs_sim.Net.node_id
  val domain : t -> Domain.t

  val subscribe :
    t ->
    param:string ->
    ?filter:Fspec.t ->
    ?service_time:int ->
    (Tpbs_obvent.Obvent.t -> unit) ->
    Subscription.t
  (** Create (but do not activate) a subscription to obvent type
      [param]. [Tree] filters are typechecked against [param] here —
      the compile-time check of LP1.
      @raise Errors.Cannot_subscribe if [param] is not an obvent type
      or the filter is ill-typed. *)

  val publish : t -> Tpbs_obvent.Obvent.t -> unit
  (** The [publish] primitive (§3.2): asynchronously disseminate to
      every concerned notifiable, per the obvent class's QoS.
      @raise Errors.Cannot_publish if the hosting node is crashed. *)

  val resume : t -> unit
  (** After the hosting node recovers from a crash: run every channel
      stack's resume hooks bottom-up (certified retransmissions +
      catch-up sync, ordering-layer retry timers) and re-register the
      process's active subscriptions with the broker. *)

  val subscriptions : t -> Subscription.t list

  val routing_stats : t -> Routing.stats
  (** This process's per-class routing-index counters (see
      {!Routing.stats}): cached classes, cumulative lookups, entry
      builds. Deliveries cost one lookup each; builds only happen on
      first sight of a class, after an activation touching it, or
      after a late type declaration. *)
end

(** Joining an out-of-process broker (e.g. [tpbsd] over TCP).

    The endpoint is a record of plain functions, so lib/core never
    depends on sockets: a transport connector
    ({!Tpbs_transport.Client}) provides publish/subscribe/unsubscribe
    upcalls and owns framing, write batching, credit-based
    backpressure, reconnection and certified
    retransmission/deduplication. Once connected, {e every} channel of
    the domain bottoms out in the remote transport (events go to the
    broker, which routes them to matching subscribers elsewhere), and
    subscription (de)activations register with the broker instead of
    an in-simulation filtering host. QoS across the wire is provided
    by the transport itself — reliable, per-origin FIFO, exactly-once
    under broker restarts — rather than recomposed from stack layers,
    which assume the simulated net. *)
module Remote : sig
  val encode_envelope :
    publish_time:int -> eid:int * int -> Tpbs_obvent.Obvent.t -> string
  (** The event envelope the engine ships on every channel, with the
      obvent encoded straight into it (one exact-size buffer):
      byte-identical to the {!Tpbs_serial.Codec.encode} of
      [List [Int publish_time; Int origin; Int eseq;
      Str (Obvent.serialize obvent)]]. Written by {!write_envelope}
      into a flat writer. *)

  val envelope_length : publish_time:int -> eid:int * int -> int -> int
  (** [envelope_length ~publish_time ~eid olen]: the bytes of the
      envelope around an obvent whose encoding is [olen] bytes long
      ({!Tpbs_serial.Codec.gathered_size} of its value). *)

  val write_envelope :
    Tpbs_serial.Codec.gather ->
    Tpbs_serial.Wire.Writer.t ->
    publish_time:int ->
    eid:int * int ->
    Tpbs_serial.Value.t ->
    olen:int ->
    unit
  (** The one envelope walk: write the envelope of the obvent value
      (encoded [olen] bytes long) through the gathering, so a
      connector can build a frame around it in one pass and leave the
      obvent's long strings where they lie
      ({!Tpbs_serial.Codec.encode_gathered}). *)

  val decode_envelope : string -> (int * (int * int) * string) option
  (** [decode_envelope bytes] opens the event envelope the engine
      ships on every channel: [(publish_time, (origin_node, eseq),
      obvent_bytes)]. The out-of-process broker uses it to reach the
      serialized obvent for cursor-projection filtering without
      re-encoding anything. *)

  val decode_envelope_sub :
    string -> off:int -> len:int ->
    (int * (int * int) * (int * int)) option
  (** Slice twin of {!decode_envelope}: opens an envelope living at
      [bytes.[off .. off+len-1]] of a larger buffer — a transport
      frame still sitting in its decoder — without copying it, and
      hands the serialized obvent back as an absolute [(off, len)]
      into [bytes]. The broker points a
      {!Tpbs_serial.Cursor.of_substring} at that slice for its
      filter decisions, so a dropped event never costs an envelope
      copy. *)

  type t = {
    r_publish :
      cls:string ->
      publish_time:int ->
      eid:int * int ->
      Tpbs_serial.Value.t ->
      unit;
        (** ship one event of class [cls]: the parts of its envelope,
            the obvent as a value (its field spine at publish, which a
            later {!Tpbs_obvent.Obvent.set} does not change). The
            connector encodes the envelope into its own frame
            ({!write_envelope}), so a publish never builds the
            envelope as a string of its own. *)
    r_subscribe :
      sid:int -> param:string -> filter:Tpbs_serial.Value.t -> unit;
        (** register subscription [sid] to type [param]; [filter] is a
            lifted {!Tpbs_filter.Rfilter} as a value, or [Null] for
            always-forward *)
    r_unsubscribe : sid:int -> unit;
  }

  val connect :
    Domain.t ->
    Process.t ->
    t ->
    cls:string ->
    string ->
    off:int ->
    len:int ->
    unit
  (** Wire the domain to a remote broker through [endpoint] and return
      the delivery injection: the connector calls it for every event
      frame received from the broker, with the envelope at
      [bytes.[off .. off+len-1]] — a view into its receive buffer,
      read in place and never retained past the call — and it runs
      the ordinary local delivery path (routing index, staleness,
      filters, COW clones) on [p]. Call before any channel is
      opened.
      @raise Invalid_argument if already connected, if the process
      belongs to another domain, or if channels already exist. *)
end

val add_broker : Domain.t -> Process.t -> unit
(** Designate a filtering host. Plain-unreliable traffic then routes
    publisher → broker(s) → matching subscribers. With several hosts,
    subscriptions are gathered per host (by subscriber node, §2.3.2
    "gathering filters of several subscribers on a given host") and a
    publisher sends one copy per host. Each host runs a {!Broker_core}
    (routing, factored filters, covering among one subscriber node's
    subscriptions), the same core as the TCP broker. Call before
    activity starts.
    @raise Invalid_argument if the node is already a filtering host. *)

val broker_filter_stats : Domain.t -> Tpbs_filter.Factored.stats option
(** The first broker's compound-filter statistics (None when no
    broker). *)

val per_broker_filter_stats : Domain.t -> Tpbs_filter.Factored.stats list
(** Compound-filter statistics of every filtering host, in designation
    order. *)

val per_broker_routing_stats : Domain.t -> Routing.stats list
(** Routing-index statistics of every filtering host, in designation
    order. *)
