(** Assembly of composable protocol stacks from resolved QoS lattice
    points (Fig. 3/4, §3.1.2).

    The paper's delivery semantics compose by multiple subtyping —
    [Certified ∧ FIFOOrder], [TotalOrder ∧ Certified],
    [CausalOrder ∧ TotalOrder] are all legal lattice points — so the
    engine must not pick one monolithic protocol per channel.
    [assemble] maps {e any} resolved {!Tpbs_types.Qos.profile} to an
    Ensemble-style stack of {!Layer}s:

    {v
    [ordering layer?]      order:fifo | order:causal | order:total
                           | order:causal+total
    [reliability layer?]   rel            (flood + shared dedup)
    [bottom transport]     transport:best | transport:gossip
                           | certified    | custom (e.g. broker)
    v}

    Assembly rules, top to bottom:
    - [certified] profiles put the durable {!Certified} log at the
      bottom: it is itself a reliable, per-publisher-FIFO transport
      (and needs unicast acks/sync, so it displaces a gossip
      override).
    - [reliable] adds the shared flood layer ({!Rbcast}) — but only
      over the plain best-effort transport: certified is already
      reliable, gossip substitutes epidemic redundancy (probabilistic
      reliability), and a custom transport owns its delivery path.
    - An [order] profile stacks the matching sequencing layer on top.
      [Fifo] over a certified bottom is subsumed: the durable frontier
      already releases per-publisher contiguous runs, so
      "Certified + FIFOOrder" is exactly the certified layer.

    All per-origin frontier/holdback/dedup bookkeeping inside the
    layers is the one shared {!Seqspace} implementation. *)

type transport =
  | Best  (** one datagram per member ({!Best_effort}) *)
  | Gossip_net of Gossip.config * Tpbs_sim.Net.node_id list
      (** lpbcast epidemic with the given config and seed view *)
  | Custom of Layer.t
      (** caller-supplied bottom (e.g. the engine's broker routing) *)

type t

val assemble :
  Tpbs_types.Qos.profile ->
  ?transport:transport ->
  ?storage:Tpbs_sim.Stable.t ->
  ?retain_acked:bool ->
  group:Membership.t ->
  me:Tpbs_sim.Net.node_id ->
  name:string ->
  deliver:(origin:Tpbs_sim.Net.node_id -> string -> unit) ->
  unit ->
  t
(** Build this member's endpoint of the stack for channel [name].
    [transport] (default {!Best}) picks the bottom for non-certified
    profiles. [storage] backs the certified log/frontier;
    [retain_acked] keeps acknowledged certified history for replay
    subscriptions instead of trimming it.
    @raise Invalid_argument if the profile is certified and no
    [storage] is given. *)

val bcast : t -> string -> unit
(** Publish through the top of the stack. *)

val targeted : t -> (dst:Tpbs_sim.Net.node_id -> string -> unit) option
(** Unicast to a chosen member, bypassing dissemination — [Some] only
    when the stack is exactly the best-effort transport (any layer
    above would be cut out of the path), which is when
    subscription-aware targeted dissemination is sound. *)

val certified : t -> Certified.t option
(** The certified bottom, when the profile has one — the handle for
    {!Certified.replay} (replay subscriptions) and log accounting. *)

val resume : t -> unit
(** Crash-recovery: run every layer's resume hook bottom-up
    (certified re-activation, then ordering-layer retry timers). *)

val shape : t -> string list
(** Layer names, top first — e.g.
    [["order:total"; "rel"; "transport:best"]]. Asserted by the
    composition-matrix tests. *)

val stats : t -> (string * int) list
(** Concatenated gauge exposure of every layer, top first. *)
