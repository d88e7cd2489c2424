(** Binary codec for {!Value.t}: the "default serialization mechanism"
    (LM1) that turns obvents and their nested unbound objects into
    wire bytes and back.

    A round trip always allocates fresh structure, which is exactly
    how the paper obtains obvent uniqueness: each subscriber
    deserializes its own clone of the published obvent (§2.1.2). *)

exception Decode_error of string

val encode : Value.t -> string
(** Serialize a value to a self-delimiting byte string. *)

val decode : string -> Value.t
(** Inverse of {!encode}.
    @raise Decode_error on malformed or truncated input. *)

val decode_sub : string -> off:int -> len:int -> Value.t
(** [decode_sub s ~off ~len] decodes the value encoded at
    [s.[off .. off+len-1]] in place, with no slice copy — a payload
    still sitting in a transport frame.
    @raise Decode_error on malformed or truncated input, or bytes left
    over in the slice. *)

val decode_prefix : Wire.Reader.t -> Value.t
(** Decode one value from the current position of a reader, leaving
    the reader positioned after it (for framed transports). *)

val encode_into : Wire.Writer.t -> Value.t -> unit
(** [encode_into w v] writes {!encode}[ v] at the end of [w]. *)

(** {1 Gathered encoding}

    The same walk, with long strings left where they lie: a string
    value of at least [ref_min] bytes gets its tag and length written,
    and is recorded, with the offset its bytes belong at, instead of
    being copied. The writer's bytes with each recorded string put
    back at its offset are exactly {!encode}'s bytes; a [writev] over
    the pieces sends them without joining them. *)

type gather

val gather : ref_min:int -> gather
(** A fresh gathering for one encoding (sizing walk, then writing
    walk). *)

val flat : gather
(** Leaves nothing out: [encode_gathered flat] is {!encode_into}. *)

val gathered_size : gather -> Value.t -> int
(** {!encoded_size}, adding the length of every string the gathering
    leaves out to {!ref_bytes}. *)

val ref_bytes : gather -> int
(** Content bytes of the left-out strings met by {!gathered_size}. *)

val encode_gathered : gather -> Wire.Writer.t -> Value.t -> unit
(** {!encode_into}, leaving out and recording the long strings. *)

val refs : gather -> (int * string) list
(** The strings {!encode_gathered} left out, in order, each with the
    writer offset its bytes belong at. *)

val skip_prefix : Wire.Reader.t -> unit
(** Advance the reader past one encoded value without materializing
    it. Allocation-free; the substrate of {!Cursor} projections.
    @raise Decode_error on malformed or truncated input. *)

val obj_tag : Wire.Reader.t -> bool
(** Consume one tag byte and say whether it starts an object, whose
    class name (a string) and field count follow — the entry point of
    a schema-directed decoder that reads the rest with {!Wire.Reader}
    and {!decode_prefix}. *)

val obj_header : Wire.Reader.t -> (string * int) option
(** If the value at the reader's position is an object, consume its
    tag, class id and field count and return them, leaving the reader
    at the first field name. [None] (with the tag consumed) for any
    other constructor.
    @raise Wire.Truncated on short input. *)

(** {1 Piecewise encode/decode}

    Assemble or take apart one known value shape around a large byte
    slice without copying it, while the tag bytes stay private to this
    module. This is how the transport encodes a [Deliver] once around
    a shared envelope and parses [Pub]/[Deliver] payloads in place. *)

val encode_list_header : Wire.Writer.t -> int -> unit
(** Write the list tag and arity; follow with that many
    {!encode_into} (or slice) element writes for a byte-identical
    twin of encoding the built-up list. *)

val encode_str_sub : Wire.Writer.t -> string -> pos:int -> len:int -> unit
(** Encode [Str (String.sub s pos len)] without taking the sub. *)

val encode_str_header : Wire.Writer.t -> int -> unit
(** Write the tag and length of a [Str] of this many bytes, leaving
    its content to the caller: either written next (encoding a value
    straight into a string field) or kept in a buffer of its own
    (a payload written to the socket by reference). *)

val encode_int : Wire.Writer.t -> int -> unit
(** Encode [Int i] without boxing it first. *)

val int_size : int -> int
(** Bytes {!encode_int} writes for this int. *)

val list_header_size : int -> int
(** Bytes {!encode_list_header} writes for this arity. *)

val str_size : int -> int
(** Bytes {!encode_str_sub} writes for a slice of this length. *)

(** {2 Piecewise reads in place}

    For callers that take a known shape apart where it lies (a frame
    still in its decoder): each reads at an absolute offset [pos] of
    [s], with [limit] the exclusive end of the slice (at most
    [String.length s]), and allocates nothing. A value of another kind
    than the one asked for raises [Exit]; input that runs into [limit]
    raises {!Wire.Truncated}, an overflowing varint {!Wire.Malformed}. *)

val list_arity_at : string -> int -> limit:int -> int
(** The arity of the list whose header starts at [pos]. *)

val int_at : string -> int -> limit:int -> int
(** The integer at [pos]. *)

val str_len_at : string -> int -> limit:int -> int
(** The length of the string at [pos]. Its bytes end at
    {!next_at}[ s pos], so they start that many bytes earlier. *)

val next_at : string -> int -> limit:int -> int
(** The offset just past the integer or string at [pos], or past the
    header of the list at [pos] (where its first element starts). *)

val clone : Value.t -> Value.t
(** Deep copy through the codec: structurally equal, physically
    fresh. *)

val encoded_size : Value.t -> int
(** Number of bytes {!encode} (or {!encode_into}) produces, computed
    by a walk over the value that writes nothing. {!encode} sizes its
    buffer with it, so encoding allocates the result once. *)

val frame : string -> string
(** Wrap a payload into a checksummed length-prefixed frame, as used
    by the simulated transport. *)

val unframe : string -> string
(** Inverse of {!frame}.
    @raise Decode_error if the length or checksum is wrong. *)
