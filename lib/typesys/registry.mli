(** Runtime type registry: a nominal type lattice with multiple
    subtyping, mirroring Java's separation of classes and interfaces
    (§2.2 of the paper).

    Obvent types are registered here; the registry answers the
    questions the publish/subscribe engine needs: is [A] a subtype of
    [B] (so that a subscription to [B] receives instances of [A],
    Fig. 1), which getter methods does a type expose (so that filters
    can be typechecked without breaking encapsulation, LP2), and does
    a runtime value conform to its declared class.

    Java's two declaration forms are both supported (§2.2):
    {e explicit} declaration of a type via an interface (multiple
    superinterfaces — LM2), and {e implicit} declaration via a class
    (single superclass, multiple implemented interfaces). Class
    attributes are private; each attribute [x : t] implicitly yields a
    public getter [getX : t], which is how filters observe obvents. *)

type kind = Interface | Class

type meth = { mname : string; ret : Vtype.t }
(** A zero-argument method (getter) signature. The paper's filter
    restrictions (§3.3.4) confine filters to nested invocations on the
    filtered obvent, so getters are the entire observable surface. *)

type decl = {
  name : string;
  kind : kind;
  supers : string list;  (** direct supertypes *)
  attrs : (string * Vtype.t) list;  (** own attributes (classes only) *)
  methods : meth list;  (** own declared methods, incl. derived getters *)
}

type t
(** A registry. Declarations only ever add types. *)

type desc = private {
  decl : decl;
  ancestors : string array;
      (** every supertype including the type itself, sorted *)
  fields : (string * Vtype.t) list;
      (** = {!attrs_of}: all attributes of a class, inherited first;
          [[]] for interfaces. This is the canonical order in which an
          obvent's fields are stored and serialized. *)
  shadows : bool;
      (** [fields] names some attribute twice: the class, or one of
          its superclasses, re-declares an inherited attribute *)
  visible : meth list;  (** = {!methods_of} *)
  obvent : bool;  (** = {!is_obvent_type} *)
}
(** A type's descriptor, computed once when the type is declared and
    immutable after that: since supertypes must exist before their
    subtypes and nothing is ever redeclared, a later declaration can
    add subtypes but never change what a descriptor says. Descriptors
    (and every query below, which reads only descriptors) are therefore
    safe to read from the engine's pool workers while no declaration is
    in progress. *)

exception Type_error of string

val create : unit -> t
(** A registry preloaded with the [java.pubsub] lattice of Fig. 3:
    [Obvent], [Reliable], [Certified], [TotalOrder], [FIFOOrder],
    [CausalOrder], [Timely], [Prioritary]. *)

val declare_interface :
  t ->
  name:string ->
  ?extends:string list ->
  ?methods:(string * Vtype.t) list ->
  unit ->
  unit
(** Explicit type declaration. [extends] defaults to [[]]; an
    interface with no superinterface is still a valid (non-obvent)
    type.
    @raise Type_error on duplicate name, unknown supertype, a
    supertype that is a class, or a method signature conflicting with
    an inherited one. *)

val declare_class :
  t ->
  name:string ->
  ?extends:string ->
  ?implements:string list ->
  ?attrs:(string * Vtype.t) list ->
  unit ->
  unit
(** Implicit type declaration through a class. Each attribute [x]
    yields a getter [getX]. The class must (transitively) provide
    every method of every implemented interface through its derived
    getters.
    @raise Type_error on duplicate name, unknown supertype, [extends]
    naming an interface, [implements] naming a class, attribute
    shadowing with a different type, or an unimplemented interface
    method. *)

val exists : t -> string -> bool
val is_class : t -> string -> bool
val is_interface : t -> string -> bool

val find : t -> string -> decl
(** @raise Type_error if unknown. *)

val descriptor : t -> string -> desc
(** @raise Type_error if unknown. O(log n) in the number of types. *)

val descriptor_sub : t -> string -> off:int -> len:int -> desc
(** The descriptor of the type named [s.[off .. off+len-1]], found
    without copying the name (a decoder reading a class name off the
    wire).
    @raise Not_found if no such type is declared.
    @raise Invalid_argument on an out-of-bounds slice. *)

val subtype : t -> string -> string -> bool
(** [subtype reg a b] — reflexive transitive conformance [a <: b]. *)

val supertypes : t -> string -> string list
(** All supertypes including the type itself, in no particular
    order. *)

val iter_supertypes : t -> string -> (string -> unit) -> unit
(** Iterate the subtype closure of a type — every supertype including
    the type itself — without allocating an intermediate list. This is
    the hot-path form used by the delivery routing index to fan a
    concrete obvent class out to the subscribed types it conforms
    to. *)

val generation : t -> int
(** Monotonic counter bumped by every successful declaration. Caches
    derived from the lattice (e.g. per-class routing indexes) record
    the generation they were built against and invalidate themselves
    when it moves, so late type declarations stay correct. *)

val subtypes : t -> string -> string list
(** All currently declared subtypes including the type itself. *)

val is_obvent_type : t -> string -> bool
(** Does the type widen to [Obvent]? Only such types may be published
    or subscribed to (§3.2). *)

val methods_of : t -> string -> meth list
(** All methods visible on the type, including inherited ones. *)

val method_ret : t -> string -> string -> Vtype.t option
(** [method_ret reg tname m] — return type of method [m] on [tname],
    if any. *)

val attrs_of : t -> string -> (string * Vtype.t) list
(** All attributes of a class, inherited first. Empty for
    interfaces. *)

val getter_name : string -> string
(** [getter_name "price"] is ["getPrice"] — the JavaBean-ish derived
    getter convention used throughout the paper's examples. *)

val conforms : t -> Tpbs_serial.Value.t -> string -> bool
(** Deep runtime conformance of a value to a named type: an object
    value conforms if its class is a registered subtype and every
    declared attribute is present with a conforming value
    (recursively). [Null] conforms to every object type. *)

val conforms_vtype : t -> Tpbs_serial.Value.t -> Vtype.t -> bool
(** Deep runtime conformance of a value to a value type, delegating to
    {!conforms} for nominal object types. *)

val instantiable : t -> string -> bool
(** Classes can be instantiated; interfaces cannot. *)

val all_types : t -> string list
(** Every registered type name, sorted. *)

val obvent_classes : t -> string list
(** Every registered {e class} that widens to [Obvent] — the set of
    multicast classes DACE maps to dissemination channels (§4.2). *)
