(** The [tpbsd] broker protocol: one message per {!Frame}, encoded as
    an ordinary {!Tpbs_serial.Value} so protocol traffic speaks the
    same wire dialect as obvents themselves.

    Sessions open with [Hello] (client id + delivery credits granted
    to the broker) answered by [Welcome] (publish credits granted to
    the client); both windows are replenished with [Credit]. [Pub]
    acknowledgements are cumulative; exactly-once across broker
    restarts pairs publisher retransmission of unacknowledged [Pub]s
    with subscriber-side per-origin monotone sequence filtering. *)

type msg =
  | Hello of { client : string; window : int }
      (** client → broker: identify; [window] delivery credits granted *)
  | Welcome of { window : int }
      (** broker → client: [window] publish credits granted *)
  | Advertise of { cls : string; supers : string list }
      (** declare an obvent class and its supertypes (topological
          order: supers must already be known to the broker) *)
  | Sub of { sid : int; param : string; filter : Tpbs_serial.Value.t }
      (** register subscription [sid] to type [param]; [filter] is a
          lifted {!Tpbs_filter.Rfilter} value or [Null] *)
  | Unsub of { sid : int }
  | Pub of { pseq : int; cls : string; envelope : string }
      (** publish; [pseq] is the client's contiguous sequence *)
  | Pub_ack of { pseq : int }  (** cumulative: acknowledges all ≤ pseq *)
  | Deliver of { origin : string; pseq : int; cls : string; envelope : string }
      (** broker → client: [origin] and [pseq] identify the event for
          deduplication *)
  | Credit of { n : int }  (** replenish the peer's send window *)
  | Bye

val encode : msg -> string
(** Encoding a [Deliver] bumps the ambient [transport.deliver_encodes]
    counter — {!encode_deliver} bumps it once for the whole fan-out,
    which is what makes "one encode per publish" checkable. *)

val frame : msg -> Frame.preframed
(** [Frame.frame (encode m)] built in one exactly-sized buffer: the
    message is encoded straight behind the reserved header. Counts a
    Deliver encode like {!encode}. *)

val ref_min : int
(** String values of at least this many bytes (4096) go to the socket
    by reference: {!pub_frame} leaves them out of its head. *)

val pub_frame :
  pseq:int ->
  cls:string ->
  publish_time:int ->
  eid:int * int ->
  Tpbs_serial.Value.t ->
  Frame.gathered
(** The [Pub] frame of an obvent value, written in one walk straight
    from the value: its pieces, joined, are
    [frame (Pub {pseq; cls; envelope})] with
    [envelope = Pubsub.Remote.encode_envelope ~publish_time ~eid o],
    but that envelope is never built. String values of {!ref_min}
    bytes or more are left out of the head, by reference. The frame
    copies no payload byte that already exists ([transport.copy_bytes]
    stays put). *)

val decode : string -> msg option
(** [None] on undecodable bytes or an unknown message shape. *)

(** {1 Zero-copy payload views}

    [Pub] and [Deliver] are the only messages that carry an envelope,
    and the envelope dominates their size. These entry points keep it
    a [(buf, off, len)] view end to end: {!decode_view} parses a
    frame payload in place, and {!encode_deliver} encodes + frames +
    CRCs a [Deliver] around the slice exactly once for any number of
    subscribers. *)

type slice = { sl_buf : string; sl_off : int; sl_len : int }
(** A byte view [sl_buf.[sl_off .. sl_off+sl_len-1]]. Views produced
    by {!decode_view} over a decoder buffer are only valid until the
    next feed — copy ({!slice_to_string}) anything that outlives the
    read loop iteration. *)

val slice_of_string : string -> slice
val slice_to_string : slice -> string
(** Materialize the slice. A proper sub-slice costs one copy and bumps
    the ambient [transport.payload_copies] counter (and
    [transport.copy_bytes] by its length); a whole-buffer slice is
    returned as-is for free. *)

val encode_deliver :
  origin:string -> pseq:int -> cls:string -> slice -> Frame.preframed
(** One encode + one CRC, byte-identical to
    [Frame.frame (encode (Deliver ...))] with the slice contents as
    envelope. The Deliver wire shape carries no per-session field, so
    the result serves every subscriber of the publish. The envelope is
    copied once, into the frame ([transport.copy_bytes]). *)


type view =
  | V_pub of { pseq : int; cls : string; envelope : slice }
  | V_deliver of { origin : string; pseq : int; cls : string; envelope : slice }
  | V_msg of msg  (** any other (small) message, fully decoded *)
  | V_none  (** undecodable bytes or an unknown shape *)

val decode_view : string -> off:int -> len:int -> view
(** Parse one frame payload in place: [Pub]/[Deliver] envelopes come
    back as views into the argument buffer, everything else decodes
    fully. Agrees with {!decode} on every input (with [V_none] playing
    [None]). *)

val to_value : msg -> Tpbs_serial.Value.t
val of_value : Tpbs_serial.Value.t -> msg option

val tag : msg -> string
(** Short wire tag, for trace events. *)
