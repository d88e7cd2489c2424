(** Length-prefixed, CRC-checked stream framing for the TCP transport.

    Frames are [len u32 LE | crc32(payload) u32 LE | payload] — the
    same shape as {!Tpbs_store.Record} gives durable log records — so
    a byte stream becomes self-framing and every frame is
    independently checkable. Unlike the on-disk scan there is no
    resynchronization: within a TCP connection bytes never reorder, so
    a bad length or CRC means the stream itself is damaged and the
    connection must be torn down. *)

val header_bytes : int
val default_max_frame : int

val count_copy : int -> unit
(** Add to [transport.copy_bytes]: bytes of already-encoded payload
    copied again in userland (decoder compaction and growth, a Deliver
    encoded around an envelope, a payload view materialized). *)

type preframed
(** A frame built once and shared by reference across any number of
    connections: the fan-out currency of the encode-once delivery
    path. Abstract so only bytes that really carry a valid header +
    CRC can bypass per-connection encoding. *)

val build : len:int -> (Tpbs_serial.Wire.Writer.t -> unit) -> preframed
(** [build ~len fill] is one frame built in one buffer: the header is
    reserved, [fill] encodes the payload right after it, and the
    length and CRC of what [fill] wrote are patched in place. When
    [len] is exactly the payload size, the frame is allocated once and
    never copied; a wrong [len] costs a regrowth, not correctness. *)

val frame : string -> string
(** Wrap a payload in a frame header:
    [preframed_bytes (build ~len (fun w -> Writer.raw w payload))]. *)

type gathered = private {
  head : string;
      (** header, CRC and every payload byte but the left-out strings' *)
  refs : (int * string) list;
      (** the left-out strings, in order, each with the offset in
          [head] its bytes belong at *)
}
(** A frame in pieces: [head] with each of [refs] put back at its
    offset. Length and CRC cover the whole payload, so the pieces
    written back to back ({!Conn} queues them as [writev] entries,
    by reference) are the frame; the long strings are never copied
    or joined. *)

val gathered :
  Tpbs_serial.Codec.gather ->
  len:int ->
  (Tpbs_serial.Wire.Writer.t -> unit) ->
  gathered
(** [gathered g ~len fill] is {!build} for a [fill] that writes
    through the gathering [g] ({!Tpbs_serial.Codec.encode_gathered}):
    [len] is the whole payload's size, left-out strings included, as
    {!Tpbs_serial.Codec.gathered_size} found it, so the head is
    allocated once at its exact size. The CRC runs over the head and
    carries on over each left-out string where it lies
    ([transport.crc_bytes] counts the payload once). *)

val preframed_bytes : preframed -> string
(** The raw framed bytes (header included), ready for the socket. *)

val preframed_length : preframed -> int
(** Payload length (header excluded). *)

(** Incremental, fd-free frame parser. Feed it whatever the socket
    returned — a byte at a time if need be — and pop complete frames.
    Corruption is sticky: once a frame is condemned, every later [pop]
    reports the same verdict and fed bytes are discarded. *)
module Decoder : sig
  type t
  type result = Frame of string | Await | Corrupt of string

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] (default {!default_max_frame}) bounds the accepted
      payload size; larger (or negative) length prefixes condemn the
      stream. *)

  val feed : t -> string -> int -> int -> unit
  (** [feed t s off len] appends [s.[off .. off+len-1]].
      @raise Invalid_argument on an out-of-bounds slice. *)

  val feed_string : t -> string -> unit

  (** {2 Filling in place}

      [feed] copies its argument in. A reader that owns a syscall
      can instead let the kernel write straight into the decoder:
      [let off = reserve t n in] read up to
      [Bytes.length (buffer t) - off] bytes into [buffer t] at [off],
      then [commit t k] with the count [k] actually read. Like
      {!feed}, {!reserve} invalidates earlier views. *)

  val reserve : t -> int -> int
  (** [reserve t n] makes room for at least [n] bytes after those
      buffered and returns the offset in {!buffer} where they go; the
      room runs to the end of {!buffer}. *)

  val buffer : t -> Bytes.t
  (** The decoder's buffer, as of the last {!reserve}. *)

  val commit : t -> int -> unit
  (** [commit t k]: [k] bytes were written at the reserved offset.
      On a dead decoder they are discarded, as {!feed} would.
      @raise Invalid_argument if [k] overruns {!buffer}. *)

  val pop : t -> result
  (** Extract the next complete frame: [Await] means feed more bytes,
      [Corrupt] is fatal for the connection. Copies the payload out;
      {!pop_view} is the allocation-free form. *)

  type view_result =
    | V_frame of string * int * int
        (** [(buf, off, len)]: payload view into the decoder's own
            buffer. *)
    | V_await
    | V_corrupt of string

  val pop_view : t -> view_result
  (** Like {!pop} but zero-copy: the payload is a slice of the
      decoder's internal buffer and the CRC is checked in place. The
      view is only valid until the next {!feed} (which may compact or
      reallocate the buffer) — finish with it, or copy, before feeding
      again. *)

  val buffered : t -> int
  (** Unconsumed bytes currently held. *)

  val frames : t -> int
  (** Frames successfully decoded so far. *)

  val is_dead : t -> bool
end
