(** Compound filters: factoring out redundancies between the filters
    of many subscribers gathered on one filtering host (§2.3.2,
    §3.3.3; after Aguilera et al., PODC'99, with the equality
    clustering of Fabret et al., SIGMOD 2001).

    The compound filter indexes all registered remote filters so that
    matching one event costs one resolution per {e unique} getter path
    plus work proportional to the conditions that hold and the filters
    that match, instead of one full filter evaluation per subscriber:

    - each unique invocation path is resolved once per event;
    - a pure conjunction containing an equality ([getCompany() ==
      "..."]) is {e clustered} under one of its equalities, its
      access predicate: equality constants are hashed per path, and
      the conjunction's other conditions are checked against the
      already-resolved path values only when its access predicate
      holds — a thousand [sym == S && lo <= price < hi] filters cost
      one lookup and the few clusters under the event's symbol;
    - equality-free pure conjunctions are matched with the counting
      algorithm; numeric thresholds ([<], [<=], [>], [>=]) they use
      are kept in sorted arrays per path and resolved by binary
      search, so only satisfied conditions are touched;
    - other formulas are evaluated over the memoized condition
      results;
    - a threshold, [!=], string-order, [contains] or [startsWith]
      condition is indexed per path only while a counting conjunction
      or a formula needs its truth value.

    A pass that matches nothing allocates nothing beyond what the
    resolver allocates; one that matches allocates its sorted result
    list. Per-event state is generation stamps, never cleared; the
    threshold arrays are re-sorted on the first pass after a change.

    {!remove} releases everything the filter held: conditions are
    reference-counted, and one no live filter uses any more leaves its
    equality bucket, threshold array or evaluation list, and the
    interning tables; a path with no condition left is no longer
    resolved. Churn therefore leaves matching cost and {!stats} where
    the live filters put them. *)

type t

val create : unit -> t

val add : t -> id:int -> Rfilter.t -> unit
(** Register a subscriber's filter under [id].
    @raise Invalid_argument if [id] is already present. *)

val remove : t -> id:int -> unit
(** Unregister. Unknown ids are ignored (deactivation races are the
    caller's business). *)

val is_registered : t -> id:int -> bool

val matches_resolve :
  t -> (string list -> Tpbs_serial.Value.t option) -> int list
(** Ids of all registered filters satisfied by the event, ascending.
    Agrees with {!Rfilter.eval} filter by filter. The event is touched
    {e only} through [resolve], once per unique path, which maps an
    {e attribute} chain (each getter name already translated by
    {!Tpbs_obvent.Obvent.attr_of_getter}, outermost first) to the
    value it reaches, [None] when the chain leaves the structure. A
    path with a step that is not getter-shaped never resolves and is
    never passed. A broker can thus hand in {!Tpbs_serial.Cursor}
    projections and never materialize the obvent. Exceptions from
    [resolve] propagate; index bookkeeping stays consistent and the
    next pass is unaffected. *)

val matches : t -> Tpbs_serial.Value.t -> int list
(** {!matches_resolve} against an obvent value, resolving each path by
    following its attributes through nested objects, ascending. *)

val matches_obvent : t -> Tpbs_obvent.Obvent.t -> int list

type stats = {
  subscriptions : int;  (** live registered filters *)
  unique_paths : int;  (** distinct getter paths across all filters *)
  unique_atoms : int;  (** distinct elementary conditions held by live filters *)
  total_atoms : int;  (** sum of per-filter condition counts *)
  path_evals : int;  (** cumulative path evaluations over all events *)
  atom_evals : int;
      (** cumulative individually-evaluated conditions: [!=] and
          miscellaneous ones, and cluster conditions checked after
          their access predicate held (equality bucket hits and
          threshold binary searches not included — that is the
          saving) *)
  events_matched : int;  (** cumulative matching passes *)
}

val stats : t -> stats

val redundancy : t -> float
(** [1 - unique_atoms/total_atoms] — the fraction of condition work
    factoring eliminates; 0 when every filter is unique. *)
