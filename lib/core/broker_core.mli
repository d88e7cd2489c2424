(** The filtering-host core (§2.3.2, §3.3.3: "filters of several
    subscribers gathered on a given host"): one subscription table, one
    routing and filtering decision, shared by the simulated filtering
    host ({!Pubsub.add_broker}) and the TCP broker
    ([Tpbs_transport.Broker]). It owns no socket, no clock and no
    message format — each shell translates its own wire messages into
    {!subscribe}/{!unsubscribe}/{!drop}/{!route} calls and ships
    whatever {!route} returns.

    The core is polymorphic in the {e destination} a subscription
    delivers to (a subscriber node in the simulation, a client session
    over TCP); destinations are told apart with the [equal] given to
    {!create}. Subscriptions are named by an id the caller allocates;
    ids order everything observable — routed destinations, orphan
    promotion — so a shell that allocates them in arrival order gets
    arrival-ordered behaviour.

    Routing: a {!Routing} index memoizes, per concrete class, the
    installed subscriptions whose parameter is a supertype; a
    {!Tpbs_filter.Factored} compound filter decides every filtered one
    at once through lazy {!Tpbs_serial.Cursor} projections of the
    serialized obvent, which is never materialized.

    Covering ({!Tpbs_filter.Subsume.covers}, when enabled): a
    subscription covered by an installed subscription of the {e same
    destination} — subtype of its parameter, filter entailed by its
    filter — is recorded but never indexed. A destination receives an
    event once however many of its subscriptions match, so suppression
    cannot change what any destination receives. When a coverer is
    unsubscribed, the subscriptions it covered either find another
    coverer or are promoted into the index, in id order.

    Metrics (ambient {!Tpbs_trace.Trace} registry, registered by
    {!create}): counters [broker.subs_covered], [broker.subs_restored];
    trace events [sub_covered]/[sub_restored] on layer ["broker"] when
    a sink is installed. *)

type 'd t

val create :
  covering:bool -> equal:('d -> 'd -> bool) -> Tpbs_types.Registry.t -> 'd t
(** A core routing over the type lattice of the registry (which may
    keep growing: the routing index rebuilds when it does). *)

val subscribe :
  'd t -> id:int -> dest:'d -> param:string -> Tpbs_serial.Value.t -> unit
(** Register subscription [id] of [dest] to type [param] with a filter
    in its wire form: a lifted {!Tpbs_filter.Rfilter} value, or [Null]
    — which, like any value that does not parse as a remote filter,
    forwards every conforming event. A known [id] is ignored. *)

val unsubscribe : 'd t -> int -> unit
(** Remove a subscription, promoting what it covered. Unknown ids are
    ignored. *)

val drop : 'd t -> 'd -> unit
(** Remove every subscription of a destination (a closing session),
    covered ones included, with nothing promoted: the only destination
    they were shielding is the one leaving. *)

val route : 'd t -> cls:string -> string -> off:int -> len:int -> 'd list
(** [route t ~cls bytes ~off ~len] — the destinations an event of
    concrete class [cls], serialized at [bytes.[off .. off+len-1]],
    must be forwarded to: each at most once, in ascending id order of
    its first matching subscription. A payload the cursor cannot
    navigate matches no filtered subscription. One routing lookup, and
    one compound-filter pass only when the class routes somewhere;
    after it, only the class's always-forward subscriptions and the
    matched ones are visited, so the cost grows with the matches, not
    with the number of filtered subscriptions. *)

type stats = {
  installed : int;  (** subscriptions in the routing index *)
  covered : int;  (** subscriptions suppressed by a coverer *)
  cover_checks : int;  (** cumulative {!Tpbs_filter.Subsume.covers} calls *)
}

val stats : 'd t -> stats
val filter_stats : 'd t -> Tpbs_filter.Factored.stats
val routing_stats : 'd t -> Routing.stats
