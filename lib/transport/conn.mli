(** A non-blocking framed connection: {!Proto} messages over
    {!Frame}s over a TCP socket.

    Writes batch: {!send} only buffers; {!flush} coalesces everything
    queued since the last flush into as few [write] syscalls as the
    kernel allows, so a pump that sends a burst of small envelopes
    pays one syscall for the lot (watch [transport.frames_sent] /
    [transport.write_syscalls]). Reads tolerate arbitrarily short and
    partial delivery — the incremental {!Frame.Decoder} does the
    reassembly. *)

type t

type verdict = [ `Ok | `Blocked | `Closed of string ]

val create : ?max_frame:int -> Unix.file_descr -> t
(** Take ownership of [fd]: set non-blocking (and [TCP_NODELAY] when
    applicable). *)

val fd : t -> Unix.file_descr

val send : t -> Proto.msg -> unit
(** Queue a message. No I/O happens until {!flush}. The message is
    encoded into its own frame buffer ({!Proto.frame}); like a shared
    frame, a frame over the coalescing threshold is then held by
    reference and written with no further copy, a smaller one is
    coalesced into the accumulator. *)

val send_preframed : t -> Frame.preframed -> unit
(** Queue an already-framed string without re-encoding or re-CRCing.
    The same {!Frame.preframed} may be queued on any number of
    connections simultaneously — fan-out costs one encode for the lot
    (each enqueue bumps [transport.fanout_shared]). Frames larger than
    the coalescing threshold are held by reference and written to the
    socket with no userland copy; smaller ones are coalesced into the
    accumulator (one counted copy) to preserve syscall batching. *)

val flush : t -> verdict
(** Write queued bytes until drained ([`Ok]), the kernel blocks
    ([`Blocked] — retry when the fd polls writable), or the peer is
    gone ([`Closed]). *)

val pending_bytes : t -> int

val recv : t -> verdict
(** One [read] syscall, feeding the frame decoder. [`Ok] means bytes
    arrived — call {!pop} until [Nothing]. [`Closed "eof"] is orderly
    shutdown. *)

type popped =
  | Msg of Proto.msg
  | Nothing  (** need more bytes *)
  | Bad of string
      (** corrupt frame or undecodable message: fatal, close the
          connection (also counted by [transport.corrupt_frames]) *)

val pop : t -> popped
(** Materializing form of {!pop_view}: [Pub]/[Deliver] envelopes are
    copied out of the decoder buffer (counted by
    [transport.payload_copies]), so the message is stable across
    later {!recv}s. *)

type popped_view =
  | View of Proto.view
  | View_nothing  (** need more bytes *)
  | View_bad of string
      (** corrupt frame or undecodable message: fatal, close the
          connection (also counted by [transport.corrupt_frames]) *)

val pop_view : t -> popped_view
(** Zero-copy pop: the frame payload is decoded in place over the
    decoder's buffer, so [Pub]/[Deliver] envelopes come back as
    {!Proto.slice} views. A view is only valid until the next {!recv}
    on this connection — finish with it, or {!Proto.slice_to_string}
    it, first. *)

val close : t -> unit
(** Idempotent. *)

type stats = {
  frames_sent : int;
  frames_received : int;
  bytes_sent : int;
  bytes_received : int;
  write_syscalls : int;
  read_syscalls : int;
}

val stats : t -> stats
