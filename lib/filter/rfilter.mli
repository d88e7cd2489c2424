(** Remote filters: the intermediate representation the psc
    precompiler generates for conforming filters (§4.4.3).

    A remote filter is the pair of tree-like structures the paper
    describes: the {e invocation tree} — the set of nested getter
    paths applied to the filtered obvent — and the {e evaluation tree}
    — a logical formula over elementary conditions on those paths'
    values. In this form a filter is plain data: it can be
    typechecked, serialized to a filtering host, compared with other
    filters, and factored into a compound filter ({!Factored}).

    Not every well-typed filter body has this shape (arithmetic
    between two paths, for instance, does not); {!of_expr} returns
    [None] for those, and the engine then ships the expression tree
    itself (still mobile) or falls back to local evaluation for opaque
    closures. *)

(** Elementary comparison between a path's value and a constant. *)
type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge | Ccontains | Cprefix

type atom = {
  path : string list;  (** nested getter chain on the obvent *)
  cmp : cmp;
  const : Tpbs_serial.Value.t;
}

type formula =
  | True
  | False
  | Atom of atom
  | Not of formula
  | And of formula list
  | Or of formula list

type t = {
  param : string;  (** the subscribed obvent type *)
  paths : string list array;  (** invocation tree leaves, deduplicated *)
  formula : formula;  (** evaluation tree *)
}

val of_expr : env:Expr.env -> param:string -> Expr.t -> t option
(** Normalize a filter body. Captured variables are replaced by their
    subscription-time bindings (the paper's [final] variables are
    constants from the filter's point of view). [None] when the body
    is not a boolean combination of path-vs-constant conditions. *)

val to_expr : t -> Expr.t
(** Rebuild an equivalent expression (used for round-trip tests and
    for local evaluation of a received remote filter). *)

val eval_path :
  Tpbs_serial.Value.t -> string list -> Tpbs_serial.Value.t option
(** Follow a getter path through an object value. [None] on a null or
    non-object intermediate, or a missing attribute. *)

val eval_atom_value : Tpbs_serial.Value.t -> atom -> bool
(** Compare an already-extracted path value against the atom's
    constant (numeric promotion included). Used by {!Factored};
    allocates nothing. *)

val value_eq : Tpbs_serial.Value.t -> Tpbs_serial.Value.t -> bool
(** The equality of [Ceq]: {!Tpbs_serial.Value.equal}, except that an
    [Int] and a [Float] are compared after promoting the int. *)

val eval_atom : Tpbs_serial.Value.t -> atom -> bool
(** Three-valued collapse: an atom over a missing/null/mistyped path
    is simply [false] (the Siena-style convention; the engine treats
    an erroring filter as non-matching, so this agrees with direct
    evaluation whenever that one terminates normally). *)

val eval : t -> Tpbs_serial.Value.t -> bool
(** Evaluate the formula against an obvent value. Never raises. *)

val eval_resolve :
  t -> (string list -> Tpbs_serial.Value.t option) -> bool
(** {!eval} with path values supplied by [resolve] (for instance lazy
    cursor projections of a serialized obvent) instead of read off a
    value: [eval t v = eval_resolve t (eval_path v)]. Raises only
    what [resolve] raises. *)

val matches_obvent : t -> Tpbs_obvent.Obvent.t -> bool

val to_value : t -> Tpbs_serial.Value.t
(** Wire representation, so subscriptions can carry their filters to
    brokers (§3.3.3: migration of filtering code). *)

val of_value : Tpbs_serial.Value.t -> t option
(** Decode; [None] on malformed input. *)

val pp : Format.formatter -> t -> unit
val pp_formula : Format.formatter -> formula -> unit
val pp_atom : Format.formatter -> atom -> unit

val atoms : t -> atom list
(** All atoms, in formula order (duplicates preserved). *)

val conjunction_atoms : t -> atom list option
(** [Some atoms] when the formula is a pure conjunction of positive
    atoms — the shape eligible for the counting algorithm of
    factoring ([ASS+99]). *)

val always_true : t -> bool
(** Recognizes the paper's "subscribe to all instances of T" idiom:
    [subscribe (T t) { return true; } {...}]. *)
