(** Low-level wire format: growable write buffers and bounds-checked
    readers, with variable-length integer encodings.

    This is the byte-level substrate of the default serialization
    mechanism (LM1 in the paper): obvents are turned into conveyable
    low-level messages through this module. *)

(** {1 Errors} *)

exception Truncated of string
(** Raised by readers when the input ends before a complete datum. *)

exception Malformed of string
(** Raised by readers on structurally invalid input (e.g. an
    overlong varint or a bad tag). *)

(** {1 Checksums} *)

val crc32 : string -> int32
(** CRC-32 (IEEE, polynomial [0xEDB88320]) checksum, guarding message
    frames and store records. In C: carry-less-multiply folding on
    x86-64 CPUs with PCLMULQDQ and SSE4.1, slicing-by-8 tables
    elsewhere and for buffers under 64 bytes; the kernel is picked
    once, when this module is initialized. *)

val crc32_sub : string -> pos:int -> len:int -> int32
(** {!crc32} over [s.[pos .. pos+len-1]] without extracting the slice
    — lets a stream decoder check a frame in place.
    @raise Invalid_argument on an out-of-bounds slice. *)

val crc32_continue : int32 -> string -> int32
(** [crc32_continue (crc32 a) b = crc32 (a ^ b)]: carries a checksum
    over bytes that live in another buffer, so a frame whose payload
    is a short head plus large strings held by reference is checked
    without joining them. [crc32_continue 0l b = crc32 b]. *)

val crc32_continue_sub : int32 -> string -> pos:int -> len:int -> int32
(** {!crc32_continue} over [s.[pos .. pos+len-1]], in place.
    @raise Invalid_argument on an out-of-bounds slice. *)

(** {1 Writers} *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Fresh empty buffer. [capacity] is an initial size hint. *)

  val length : t -> int
  (** Number of bytes written so far. *)

  val byte : t -> int -> unit
  (** Append one byte; the argument is masked to 8 bits. *)

  val varint : t -> int -> unit
  (** LEB128 encoding of a non-negative integer. Negative arguments
      are rejected with [Invalid_argument]. *)

  val uvarint : t -> int -> unit
  (** LEB128 of an int whose 63-bit pattern is interpreted as
      unsigned; terminates for "negative" patterns (top bit set). *)

  val zigzag : t -> int -> unit
  (** Signed integer via zigzag + LEB128. *)

  val f64 : t -> float -> unit
  (** IEEE 754 double, little endian. *)

  val bool : t -> bool -> unit

  val string : t -> string -> unit
  (** Length-prefixed byte string. *)

  val raw : t -> string -> unit
  (** Append bytes with no length prefix. *)

  val raw_sub : t -> string -> pos:int -> len:int -> unit
  (** [raw_sub w s ~pos ~len] appends [s.[pos .. pos+len-1]] with no
      length prefix and no intermediate slice allocation.
      @raise Invalid_argument on an out-of-bounds slice. *)

  val reserve : t -> int -> unit
  (** [reserve w n] appends [n] bytes of unspecified content, to be
      filled in later with {!set_int32_le} (a frame header written
      after its payload). *)

  val set_int32_le : t -> int -> int32 -> unit
  (** [set_int32_le w pos x] overwrites the 4 already-written bytes at
      [pos] with [x], little endian.
      @raise Invalid_argument if [pos .. pos+3] is not written yet. *)

  val crc32_continue_sub : t -> int32 -> pos:int -> len:int -> int32
  (** {!Wire.crc32_continue_sub} over already-written bytes, in place.
      @raise Invalid_argument if the range is not written yet. *)

  val contents : t -> string
  (** Snapshot of everything written so far. A writer whose buffer is
      exactly full hands the buffer itself over instead of copying
      it; writing on afterwards moves to a fresh buffer, so the
      returned string never changes. *)

  val uvarint_size : int -> int
  (** Bytes {!uvarint} (and so {!varint}, for a non-negative
      argument) writes for this integer. *)

  val zigzag_size : int -> int
  (** Bytes {!zigzag} writes for this integer. *)
end

(** {1 Readers} *)

module Reader : sig
  type t

  val of_string : string -> t
  (** Reader positioned at the start of [s]. *)

  val of_substring : string -> off:int -> len:int -> t
  (** Reader bounded to [s.[off .. off+len-1]] without extracting the
      slice. {!pos} stays absolute into [s], so offsets read off this
      reader index the original buffer — the substrate of zero-copy
      payload views over a framing buffer.
      @raise Invalid_argument on an out-of-bounds slice. *)

  val pos : t -> int
  val remaining : t -> int
  val at_end : t -> bool

  val byte : t -> int

  val varint : t -> int
  (** Non-negative LEB128.
      @raise Malformed ["varint overflow"] when the encoding carries
      bits past bit 61 (which would flip the sign of a 63-bit int) or
      continues into a 10th byte — hostile input, not a round trip of
      {!Writer.varint}. *)

  val uvarint : t -> int
  (** Unsigned LEB128 over the full 63-bit pattern (inverse of
      {!Writer.uvarint}); only a 10th continuation byte is rejected.
      @raise Malformed ["varint overflow"] on a 10-byte encoding. *)

  val zigzag : t -> int
  val f64 : t -> float
  val bool : t -> bool
  val string : t -> string
  val raw : t -> int -> string
  (** [raw r n] reads exactly [n] bytes. *)

  val skip : t -> int -> unit
  (** [skip r n] advances past [n] bytes without materializing them. *)

  val skip_string : t -> unit
  (** Advance past one length-prefixed byte string, allocation-free. *)
end

(** {1 Positional reads}

    The reader's varints at an absolute offset [pos] of [s], for
    parsers that keep their offset in a local variable instead of a
    {!Reader.t}: nothing is allocated. [limit] is the exclusive end of
    the readable slice and must not exceed [String.length s]. Each
    raises {!Truncated} when the varint runs into [limit]. *)

val varint_at : string -> int -> limit:int -> int
(** {!Reader.varint} at [pos]. @raise Malformed as it does. *)

val zigzag_at : string -> int -> limit:int -> int
(** {!Reader.zigzag} at [pos]. @raise Malformed as it does. *)

val varint_end : string -> int -> limit:int -> int
(** The offset just past the varint that starts at [pos]. *)
