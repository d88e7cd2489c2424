(** A non-blocking framed connection: {!Proto} messages over
    {!Frame}s over a TCP socket.

    Writes batch: {!send} only queues; {!flush} hands everything
    queued since the last flush to the kernel in one [writev] (more
    only when the kernel's buffer or [IOV_MAX] forces it), so a pump
    that sends a burst of frames pays one syscall for the lot (watch
    [transport.frames_sent] / [transport.write_syscalls]). There is
    one write path: every frame — a string, or the pieces of a
    {!Frame.gathered} — is queued by reference as [writev] entries,
    never copied into an accumulator. Reads go
    straight into the {!Frame.Decoder}'s buffer and tolerate
    arbitrarily short and partial delivery — the decoder does the
    reassembly.

    Both directions use two C stubs ([writev] over the queued strings,
    [read] into the decoder's bytes) that keep the OCaml runtime lock
    during the syscall, so the GC cannot move or free those buffers
    meanwhile. That is sound only because the fd is non-blocking
    (see {!create}): the syscall never waits, so holding the lock
    never stalls another domain. Do not make the fd blocking. *)

type t

type verdict = [ `Ok | `Blocked | `Closed of string ]

val create : ?max_frame:int -> Unix.file_descr -> t
(** Take ownership of [fd]: set non-blocking (and [TCP_NODELAY] when
    applicable). The fd must stay non-blocking for as long as the
    connection lives: the I/O stubs hold the runtime lock during
    their syscalls. *)

val fd : t -> Unix.file_descr

val send : t -> Proto.msg -> unit
(** Queue a message, encoded into its own exactly-sized frame
    ({!Proto.frame}) and held by reference. No I/O happens until
    {!flush}. *)

val send_gathered : t -> Frame.gathered -> unit
(** Queue a frame in pieces ({!Proto.pub_frame}): its head and each
    left-out string, by reference, in order. Nothing is copied; the
    frame must stay unchanged until flushed, which its immutable
    strings guarantee. *)

val send_preframed : t -> Frame.preframed -> unit
(** Queue an already-framed string without re-encoding or re-CRCing.
    The same {!Frame.preframed} may be queued on any number of
    connections simultaneously — fan-out costs one encode for the lot
    (each enqueue bumps [transport.fanout_shared]) and no copy. *)

val flush : t -> verdict
(** Write queued bytes until drained ([`Ok]), the kernel blocks
    ([`Blocked] — retry when the fd polls writable), or the peer is
    gone ([`Closed]). *)

val pending_bytes : t -> int

val poll_fds : Unix.file_descr array -> int array -> int -> int -> int
(** [poll_fds fds events n timeout_ms] waits in poll(2) (any
    descriptor number, unlike select's 1024) up to [timeout_ms]
    (forever when negative) until some [fds.(i)], [i < n], is ready
    for what [events.(i)] asks ({!readable} and/or {!writable}); on
    return [events.(i)] holds what it is ready for, a hung-up or
    failed descriptor reading as readable. The arrays may be longer
    than [n] (a caller keeps them across waits). Returns the number of
    ready descriptors; a signal that interrupts the wait reports
    nothing ready.
    @raise Invalid_argument if an array is shorter than [n]. *)

val readable : int
val writable : int

val wait : t -> timeout_ms:int -> bool
(** Wait up to [timeout_ms] until the connection is readable, or
    writable while bytes are pending; [true] iff it is readable. *)

val recv : t -> verdict
(** One [read] syscall, straight into the frame decoder's buffer
    ({!Frame.Decoder.reserve}): no userland copy before the CRC check.
    [`Ok] means bytes arrived — call {!pop} until [Nothing].
    [`Closed "eof"] is orderly shutdown. *)

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
