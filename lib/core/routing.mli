(** Per-class delivery routing index — the fast path of type-based
    routing (Fig. 1, §2.1.3).

    A subscription to type [T] receives instances of every subtype of
    [T], so naive dispatch scans all subscriptions per event and asks
    the registry one subtype question each. This index memoizes the
    answer per {e concrete obvent class}: the first event of a class
    computes the targets whose subscribed type is a supertype (one
    subtype-closure walk), every later event is a single hash lookup —
    the "multicast class" routing DACE performs (§4.2).

    The index is generic in the target type so the same mechanism
    serves a process (targets = local subscriptions) and a filtering
    host (targets = broker subscription entries).

    Correctness under mutation:
    - the index records the {!Tpbs_types.Registry.generation} it was
      built against and resets itself when the lattice grows, so a
      class declared after traffic started still routes correctly;
    - activations call {!add} (the new target is spliced into every
      affected cached entry in place, at its canonical position) and
      deactivations call {!remove} (cheap in-place deletion);
    - {!invalidate} remains the big-hammer fallback: it drops affected
      entries so they rebuild lazily on the next event. *)

type 'a t

val create : Tpbs_types.Registry.t -> 'a t

val find : 'a t -> string -> build:('b -> string -> 'a list) -> 'b -> 'a list
(** [find t cls ~build x] — the cached targets for concrete class
    [cls], calling [build x cls] on first sight of the class (or after
    an invalidation) and memoizing the result. With [x] passed apart, a
    caller's [build] can be a top-level function: a cache hit allocates
    nothing. *)

val invalidate : 'a t -> param:string -> unit
(** Drop every cached entry whose class is a subtype of [param]; those
    classes rebuild on their next event. The coarse alternative to
    {!add} when incremental maintenance is not possible (e.g. the
    caller cannot name the target being introduced). *)

val add : 'a t -> param:string -> compare:('a -> 'a -> int) -> 'a -> unit
(** [add t ~param ~compare x] splices target [x] into every cached
    entry whose class is a subtype of [param], at the position
    [compare] dictates (entries are kept in the holder's canonical
    order, so the result must equal what a full rebuild would
    produce). O(affected entries × entry length), no rebuild — the
    routing index stays warm across subscription churn. Call when a
    subscription to [param] becomes active. *)

val remove : 'a t -> param:string -> ('a -> bool) -> unit
(** Remove targets satisfying the predicate from every cached entry
    whose class is a subtype of [param]. Call when a subscription to
    [param] deactivates. *)

val clear : 'a t -> unit

type stats = {
  classes : int;  (** cached concrete classes *)
  lookups : int;  (** cumulative {!find} calls *)
  builds : int;  (** entry (re)computations — misses *)
}

val stats : 'a t -> stats
