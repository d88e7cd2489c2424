(** Validation and summarization of exported JSONL traces — the logic
    behind [bin/tpbs_report], kept in the library so it is testable. *)

val check : string list -> (int, int * string) result
(** Validate each line as a well-formed trace/metric record.
    [Ok n] = n valid lines; [Error (lineno, msg)] on the first bad line
    (1-based). Every line must be a JSON object carrying either
    ["metric"] (with ["name"]) or an event shape (["t"], ["layer"],
    ["kind"]). *)

val summarize : string list -> string
(** Human-readable summary: event counts per (layer, kind), counters,
    gauges, histograms, and the covered time range. Assumes lines that
    passed [check]; silently skips malformed ones. *)

val metric_value : string list -> string -> string -> float option
(** [metric_value lines name field] — final exported numeric [field]
    of metric [name], whatever its kind: [("value")] for counters,
    [("level")]/[("peak")] for gauges, [("count")]/[("mean")]/
    [("p50")]/[("p99")]/[("max")]/[("stddev")] for histograms. The
    last record for [name] wins. *)

(** {1 Requirements}

    The one gate syntax of [tpbs_report --require] and CI:
    [NAME:FIELD OP BOUND] with [OP] one of [<=], [>=] or [==], spaces
    around each part allowed. A counter that must have moved is
    [NAME:value>=1]. *)

type op = Le | Ge | Eq
type requirement = { name : string; field : string; op : op; bound : float }

val parse_requirement : string -> requirement option
(** [None] unless the spec has a non-empty [NAME] before the first
    colon, a non-empty [FIELD], one of the three operators and a
    numeric [BOUND]. *)

val unmet : string list -> requirement list -> string list
(** One message per requirement that [lines] fail, in order: the
    metric's field is never exported, or its {!metric_value} does not
    satisfy [OP BOUND]. [[]] when every requirement holds. *)
