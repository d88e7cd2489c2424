(** Unified observability: named monotonic counters, sampled gauges,
    histograms, and structured trace events.

    A registry is wired to a deterministic clock (normally
    [Engine.now]), so every emitted event carries simulation time and a
    fixed-seed run produces byte-identical trace output. Counters and
    gauges are atomic ints — always on, a handful of nanoseconds per
    update, and safe to bump from the engine's domain workers
    concurrently with the engine thread. Histograms are owned by the
    engine (tick) thread. Trace {e events} are only serialized when a
    sink buffer is installed; with the default no-op sink [emit] is a
    single field test.

    Instrumented modules obtain their registry via the {e ambient}
    registry at construction time ([Trace.ambient ()]); harnesses
    install a fresh registry (with the engine clock) before building a
    world so runs stay isolated and reproducible. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  (** Record the current level; tracks the peak across all samples. *)

  val value : t -> int
  val peak : t -> int
  val name : t -> string
end

type t

val create : ?clock:(unit -> int) -> unit -> t
(** [clock] stamps events and defaults to [fun () -> 0]; pass
    [fun () -> Engine.now e] for deterministic simulation time. *)

val set_clock : t -> (unit -> int) -> unit

val ambient : unit -> t
(** The process-wide current registry; instrumented modules capture it
    when constructed. *)

val set_ambient : t -> unit

val ambient_cached : (t -> 'a) -> unit -> 'a
(** [ambient_cached resolve] is a getter for what [resolve] finds in
    the ambient registry (typically a few counters). It resolves once
    per registry and again whenever {!set_ambient} has swapped it
    since (benches and tests do this between runs). *)

val counter : t -> string -> Counter.t
(** Find-or-create by name. *)

val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t

val register_histogram : t -> string -> Histogram.t -> unit
(** Adopt an externally created histogram under [name] so it appears in
    exports (used to surface [Pubsub.Domain.latency]). *)

(** {1 Trace events} *)

val set_sink : t -> Buffer.t option -> unit
(** [Some buf] appends one JSONL line per event; [None] (the default)
    makes [emit] a no-op. *)

val emitting : t -> bool

val set_detailed : t -> bool -> unit
(** Enables expensive per-port accounting in [Net]; off by default. *)

val detailed : t -> bool

type field = I of int | S of string | F of float

val emit :
  t ->
  layer:string ->
  kind:string ->
  ?node:int ->
  ?id:int * int ->
  ?data:(string * field) list ->
  unit ->
  unit
(** Append an event line
    [{"t":..,"layer":..,"kind":..,"node":..,"id":"origin:seq",..data}].
    [id] is the event id threading causality across nodes. No-op
    without a sink. *)

(** {1 Export} *)

val metrics_to_jsonl : t -> Buffer.t -> unit
(** Append one JSONL line per counter/gauge/histogram, sorted by name
    (deterministic). *)

val write_file : t -> string -> unit
(** [write_file t path] writes the sink's buffered events (if a sink is
    installed), then {!metrics_to_jsonl}, to [path], replacing it. The
    one way a bench or [tpbsd] writes its metrics file. *)

val reset : t -> unit
(** Zero every registered counter/gauge/histogram in place (handles
    held by instrumented modules stay valid). *)
