(** Minimal JSON reader and string escaper — just enough to validate
    and summarize the trace exporter's JSONL output, and to write it,
    without an external dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result
(** Parse one complete JSON value; trailing garbage is an error. *)

val member : string -> json -> json option
(** Field lookup on objects; [None] otherwise. *)

val to_string : json -> string option
val to_num : json -> float option

val escape_into : Buffer.t -> string -> unit
(** Append [s] escaped as the body of a JSON string, without the
    quotes: double quote, backslash, newline, carriage return and tab
    get their two-character escapes, other control characters
    [\u00xx], and every other byte is copied. The one escaper of the
    JSON writers: trace export, lint reports and bench tables. *)

val escape : string -> string
(** [escape s] is {!escape_into} into a fresh string. *)
