(** Numeric summaries: Welford online mean/variance plus nearest-rank
    percentiles over the retained samples. This is the histogram type of
    the observability layer. *)

type t

val create : unit -> t
val record : t -> float -> unit
val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t 0.99] — nearest-rank percentile; 0 when empty. *)

val stddev : t -> float
(** Population standard deviation via Welford's online algorithm —
    stable even when samples share a large common offset (e.g. absolute
    simulation timestamps). *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
