(** Obvents — event objects (§2.1.1): application-defined, first-class
    unbound objects used to notify events.

    An obvent is an instance of a registered obvent {e class}
    (a class whose type widens to [Obvent]). Its attributes are
    private; the observable surface is its getters, which is what the
    paper's filters invoke (LP2: encapsulation preservation).

    Each in-memory obvent carries a unique id. Serialization never
    transports the id: deserializing always mints a fresh one, which
    realizes the paper's uniqueness rules (§2.1.2) — every subscriber,
    even two notifiables in the same address space, receives a
    distinct clone of the published obvent. *)

type t

exception Invalid_obvent of string

val make :
  Tpbs_types.Registry.t ->
  string ->
  (string * Tpbs_serial.Value.t) list ->
  t
(** [make reg cls fields] instantiates obvent class [cls]. Every
    attribute declared by [cls] (including inherited ones) must be
    given exactly once with a conforming value, and no extra field is
    allowed.
    @raise Invalid_obvent if [cls] is unknown, abstract (an
    interface), not an obvent type, or the fields don't conform. *)

val uid : t -> int
(** Process-unique identity, fresh per clone. *)

val cls : t -> string
(** The dynamic type (concrete class) of the obvent. *)

val fields : t -> (string * Tpbs_serial.Value.t) list

val get : t -> string -> Tpbs_serial.Value.t
(** Attribute access by name.
    @raise Invalid_obvent if absent. *)

val placeholder : t
(** An obvent of no class with no fields, never made, decoded or
    delivered: a filler for the free slots of a container of obvents,
    so that they keep nothing the application made reachable. *)

val view : t -> t
(** A copy-on-write clone: fresh identity (§2.1.2), field structure
    physically shared with the source. O(1). The share is unobservable
    through the API: a {!set} on either side rebinds that side's
    private spine, never the other's. This is what the delivery path
    hands each co-located subscriber instead of a full
    serialize+deserialize round trip. *)

val is_view : t -> bool
(** True while the obvent still shares its field spine (no write has
    materialized a private copy). Accounting introspection only. *)

val set : Tpbs_types.Registry.t -> t -> string -> Tpbs_serial.Value.t -> unit
(** [set reg o attr v] mutates attribute [attr]. Runs the
    copy-on-write write barrier first: a shared (view) obvent
    materializes its private copy, so the write is never visible to
    the publisher or to any other subscriber's clone.
    @raise Invalid_obvent if [attr] is not declared by the obvent's
    class or [v] does not conform to its declared type. *)

val invoke_setter :
  Tpbs_types.Registry.t -> t -> string -> Tpbs_serial.Value.t -> unit
(** [invoke_setter reg o "setPrice" v] — the generated mutator path;
    resolves the attribute from the setter name and delegates to
    {!set}.
    @raise Invalid_obvent if the name is not setter-shaped or the
    attribute is unknown/mistyped. *)

val attr_of_setter : string -> string option
(** [attr_of_setter "setPrice"] is [Some "price"]; [None] when the
    name does not follow the setter convention. *)

type cow_stats = { views : int; materializations : int }

val cow_stats : unit -> cow_stats
(** Process-global copy-on-write accounting: views minted by {!view}
    and how many of them materialized a private copy on first write. *)

val invoke : Tpbs_types.Registry.t -> t -> string -> Tpbs_serial.Value.t
(** [invoke reg o "getPrice"] — call a getter. This is the only
    method-invocation form filters may use (§3.3.4).
    @raise Invalid_obvent if the method is not visible on the obvent's
    class. *)

val getter_of_attr : string -> string -> bool
(** [getter_of_attr m attr] is [attr_of_getter m = Some attr],
    decided without allocating (filter evaluation asks it once per
    field it walks past). *)

val attr_of_getter : string -> string option
(** [attr_of_getter "getPrice"] is [Some "price"]; [None] when the
    name does not follow the getter convention. *)

val to_value : t -> Tpbs_serial.Value.t
(** View as a serializable value (drops the uid). *)

val of_value : Tpbs_types.Registry.t -> Tpbs_serial.Value.t -> t
(** Validate and adopt a value as an obvent, minting a fresh uid.
    @raise Invalid_obvent if the value doesn't conform. *)

val serialize : t -> string

val deserialize : Tpbs_types.Registry.t -> string -> t
(** @raise Invalid_obvent on garbage or non-conforming payloads. *)

val deserialize_sub :
  Tpbs_types.Registry.t -> string -> off:int -> len:int -> t
(** {!deserialize} of the obvent serialized at [s.[off .. off+len-1]],
    read in place (the one copy is the decoded obvent itself).
    @raise Invalid_obvent on garbage or non-conforming payloads. *)

val clone : Tpbs_types.Registry.t -> t -> t
(** Round trip through the codec: structurally equal, fresh uid. *)

val equal_content : t -> t -> bool
(** Structural equality, ignoring uids. *)

val pp : Format.formatter -> t -> unit

val instance_of : Tpbs_types.Registry.t -> t -> string -> bool
(** [instance_of reg o t] — does the obvent's dynamic type widen to
    [t]? The basic type-based subscription test (§2.1.3). *)

val qos : Tpbs_types.Registry.t -> t -> Tpbs_types.Qos.profile
(** Resolved delivery/transmission semantics of the obvent's class. *)

val priority : Tpbs_types.Registry.t -> t -> int
(** [getPriority] if the obvent is [Prioritary], else [0]. *)

val time_to_live : Tpbs_types.Registry.t -> t -> int option
(** [getTimeToLive] if the obvent is [Timely] (and its semantics were
    not overridden by reliability), else [None]. *)

val birth : Tpbs_types.Registry.t -> t -> int option
(** [getBirth] if the obvent is [Timely]. *)
