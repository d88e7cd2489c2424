module Trace = Tpbs_trace.Trace

(* One framed, non-blocking connection.

   The write side batches: [send] only appends the encoded frame to an
   in-memory buffer, and [flush] pushes as much as the kernel will
   take in one [write]. A pump that sends a burst of small envelopes
   and then flushes once coalesces them all into a single syscall (and
   a single TCP segment, usually) — the batching factor shows up as
   [transport.frames_sent] / [transport.write_syscalls].

   Pending bytes live in a chunk queue rather than one flat buffer:
   small frames coalesce into a shared accumulator chunk, but a large
   frame is enqueued by reference — a {!Frame.preframed} fan-out
   frame is the same immutable string queued on every subscriber
   session, and a large message of our own is encoded once into its
   frame; either way it reaches the socket with zero copies in
   userland.

   The read side is symmetric: [recv] does one [read] into a scratch
   buffer and feeds the incremental {!Frame.Decoder}; [pop_view] then
   yields zero or more complete messages, decoded in place over the
   decoder's buffer. Short and partial reads are the decoder's normal
   diet. *)

type verdict = [ `Ok | `Blocked | `Closed of string ]

(* A queued run of bytes: [data.[off ..]] remains to be written. Small
   frames share an accumulator chunk; each large frame is its own
   chunk, holding the (possibly shared) string by reference. *)
type chunk = { data : string; mutable off : int }

(* Frames at or below this size are coalesced (copied) into the
   accumulator; larger ones are enqueued by reference. The threshold
   trades one small memcpy for syscall batching: a burst of control
   frames still leaves in one [write], while a big envelope — where
   the copy would cost more than a syscall — goes out directly. *)
let coalesce_limit = 4096

type t = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  wbuf : Buffer.t;  (* small frames accumulating for the next write *)
  chunks : chunk Queue.t;  (* sealed runs, in send order *)
  mutable chunk_bytes : int;  (* unwritten bytes across [chunks] *)
  scratch : Bytes.t;
  mutable closed : bool;
  mutable frames_sent : int;
  mutable frames_recv : int;
  mutable bytes_sent : int;
  mutable bytes_recv : int;
  mutable write_syscalls : int;
  mutable read_syscalls : int;
}

(* Shared ambient-registry counters: every connection in the process
   feeds the same transport.* totals, re-resolved when tests swap the
   ambient registry. *)
type ctrs = {
  c_frames_sent : Trace.Counter.t;
  c_frames_recv : Trace.Counter.t;
  c_bytes_sent : Trace.Counter.t;
  c_bytes_recv : Trace.Counter.t;
  c_write_sys : Trace.Counter.t;
  c_read_sys : Trace.Counter.t;
  c_corrupt : Trace.Counter.t;
  c_fanout_shared : Trace.Counter.t;
  c_payload_copies : Trace.Counter.t;
}

let cached = ref None

let counters () =
  let tr = Trace.ambient () in
  match !cached with
  | Some (tr', c) when tr' == tr -> c
  | _ ->
      let c =
        {
          c_frames_sent = Trace.counter tr "transport.frames_sent";
          c_frames_recv = Trace.counter tr "transport.frames_received";
          c_bytes_sent = Trace.counter tr "transport.bytes_sent";
          c_bytes_recv = Trace.counter tr "transport.bytes_received";
          c_write_sys = Trace.counter tr "transport.write_syscalls";
          c_read_sys = Trace.counter tr "transport.read_syscalls";
          c_corrupt = Trace.counter tr "transport.corrupt_frames";
          c_fanout_shared = Trace.counter tr "transport.fanout_shared";
          c_payload_copies = Trace.counter tr "transport.payload_copies";
        }
      in
      cached := Some (tr, c);
      c

let create ?max_frame fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  {
    fd;
    dec = Frame.Decoder.create ?max_frame ();
    wbuf = Buffer.create 4096;
    chunks = Queue.create ();
    chunk_bytes = 0;
    scratch = Bytes.create 65536;
    closed = false;
    frames_sent = 0;
    frames_recv = 0;
    bytes_sent = 0;
    bytes_recv = 0;
    write_syscalls = 0;
    read_syscalls = 0;
  }

let fd t = t.fd
let pending_bytes t = t.chunk_bytes + Buffer.length t.wbuf

(* Move the accumulator's contents to the back of the chunk queue, so
   later chunks (and later accumulated frames) stay in send order. *)
let seal t =
  let n = Buffer.length t.wbuf in
  if n > 0 then begin
    Queue.push { data = Buffer.contents t.wbuf; off = 0 } t.chunks;
    t.chunk_bytes <- t.chunk_bytes + n;
    Buffer.clear t.wbuf
  end

let count_sent t =
  t.frames_sent <- t.frames_sent + 1;
  Trace.Counter.incr (counters ()).c_frames_sent

(* Small frames are copied into the accumulator; a large one is held
   by reference as its own chunk. [true] when the frame was copied. *)
let enqueue t s =
  if String.length s <= coalesce_limit then begin
    Buffer.add_string t.wbuf s;
    true
  end
  else begin
    seal t;
    Queue.push { data = s; off = 0 } t.chunks;
    t.chunk_bytes <- t.chunk_bytes + String.length s;
    false
  end

(* The message is encoded straight into its own exactly-sized frame
   ({!Proto.frame}), so a large Pub leaves for the socket without a
   single userland copy. *)
let send t msg =
  ignore (enqueue t (Frame.preframed_bytes (Proto.frame msg)));
  count_sent t

(* Enqueue an already-framed string. The string itself is immutable
   and may be simultaneously queued on any number of connections —
   that sharing is the whole point: the frame was encoded and CRC'd
   once for the lot. Small frames still coalesce (one counted copy
   into the accumulator) so fan-out of tiny envelopes keeps the
   syscall batching; large frames ride by reference, copy-free. *)
let send_preframed t pf =
  let c = counters () in
  Trace.Counter.incr c.c_fanout_shared;
  if enqueue t (Frame.preframed_bytes pf) then
    Trace.Counter.incr c.c_payload_copies;
  count_sent t

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Push pending chunks at the kernel until it blocks or we drain. *)
let flush t : verdict =
  if t.closed then `Closed "closed"
  else begin
    seal t;
    let rec drain () =
      match Queue.peek_opt t.chunks with
      | None -> `Ok
      | Some chunk -> (
          let len = String.length chunk.data - chunk.off in
          match Unix.write_substring t.fd chunk.data chunk.off len with
          | 0 -> `Blocked
          | n ->
              t.write_syscalls <- t.write_syscalls + 1;
              t.bytes_sent <- t.bytes_sent + n;
              t.chunk_bytes <- t.chunk_bytes - n;
              let c = counters () in
              Trace.Counter.incr c.c_write_sys;
              Trace.Counter.add c.c_bytes_sent n;
              if n = len then begin
                ignore (Queue.pop t.chunks);
                drain ()
              end
              else begin
                chunk.off <- chunk.off + n;
                `Blocked
              end
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
            ->
              `Blocked
          | exception Unix.Unix_error (e, _, _) ->
              `Closed (Unix.error_message e))
    in
    drain ()
  end

(* One read syscall; feed whatever arrived to the decoder. *)
let recv t : verdict =
  if t.closed then `Closed "closed"
  else
    match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
    | 0 -> `Closed "eof"
    | n ->
        t.read_syscalls <- t.read_syscalls + 1;
        t.bytes_recv <- t.bytes_recv + n;
        let c = counters () in
        Trace.Counter.incr c.c_read_sys;
        Trace.Counter.add c.c_bytes_recv n;
        Frame.Decoder.feed t.dec (Bytes.unsafe_to_string t.scratch) 0 n;
        `Ok
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        `Blocked
    | exception Unix.Unix_error (e, _, _) ->
        `Closed (Unix.error_message e)

type popped = Msg of Proto.msg | Nothing | Bad of string

type popped_view =
  | View of Proto.view
  | View_nothing
  | View_bad of string

let pop_view t =
  match Frame.Decoder.pop_view t.dec with
  | Frame.Decoder.V_await -> View_nothing
  | Frame.Decoder.V_corrupt msg ->
      Trace.Counter.incr (counters ()).c_corrupt;
      View_bad msg
  | Frame.Decoder.V_frame (buf, off, len) -> (
      match Proto.decode_view buf ~off ~len with
      | Proto.V_none ->
          Trace.Counter.incr (counters ()).c_corrupt;
          View_bad "undecodable message"
      | v ->
          t.frames_recv <- t.frames_recv + 1;
          Trace.Counter.incr (counters ()).c_frames_recv;
          View v)

let pop t =
  match pop_view t with
  | View_nothing -> Nothing
  | View_bad msg -> Bad msg
  | View v -> (
      match v with
      | Proto.V_msg m -> Msg m
      | Proto.V_pub { pseq; cls; envelope } ->
          Msg (Proto.Pub { pseq; cls; envelope = Proto.slice_to_string envelope })
      | Proto.V_deliver { origin; pseq; cls; envelope } ->
          Msg
            (Proto.Deliver
               { origin; pseq; cls; envelope = Proto.slice_to_string envelope })
      | Proto.V_none -> Bad "undecodable message")

type stats = {
  frames_sent : int;
  frames_received : int;
  bytes_sent : int;
  bytes_received : int;
  write_syscalls : int;
  read_syscalls : int;
}

let stats (t : t) =
  {
    frames_sent = t.frames_sent;
    frames_received = t.frames_recv;
    bytes_sent = t.bytes_sent;
    bytes_received = t.bytes_recv;
    write_syscalls = t.write_syscalls;
    read_syscalls = t.read_syscalls;
  }
