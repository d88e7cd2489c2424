module Trace = Tpbs_trace.Trace

(* One framed, non-blocking connection.

   The write side batches: [send] only queues the encoded frame, and
   [flush] hands everything queued to the kernel in one [writev]. A
   pump that sends a burst of envelopes and then flushes once pays a
   single syscall (and usually a single TCP segment) for the lot — the
   batching factor shows up as [transport.frames_sent] /
   [transport.write_syscalls].

   Pending bytes live in a chunk queue rather than one flat buffer:
   small frames coalesce into a shared accumulator chunk, but a large
   frame is queued by reference — a {!Frame.preframed} fan-out frame
   is the same immutable string queued on every subscriber session,
   and a large [Pub] is queued as a short head (frame header and
   message prefix) followed by the caller's envelope string itself.
   The [writev] stub (conn_stubs.c) reads those strings in place, so
   from queue to kernel a large payload is never copied in userland.

   The read side is symmetric: [recv] has the kernel [read] straight
   into the free tail of the incremental {!Frame.Decoder}, and
   [pop_view] then yields zero or more complete messages, CRC-checked
   and decoded in place over the decoder's buffer. Short and partial
   reads are the decoder's normal diet.

   Both stubs keep the runtime lock during their syscall, which is
   what pins the strings they touch; [create] makes the fd
   non-blocking, so that syscall never waits. *)

type verdict = [ `Ok | `Blocked | `Closed of string ]

external writev :
  Unix.file_descr -> string array -> int array -> int -> int -> int
  = "tpbs_conn_writev"

external read_into : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "tpbs_conn_read"

(* Frames at or below this size are coalesced (copied) into the
   accumulator; larger ones are queued by reference. [writev] gathers
   any number of chunks per syscall either way, so the threshold only
   bounds the iovec count: a burst of control frames rides in one
   chunk instead of one each, which is worth a small memcpy, while a
   large payload would pay a copy per byte for nothing. *)
let coalesce_limit = 4096

(* Each read offers the kernel at least this much room at the
   decoder's tail. *)
let read_room = 65536

type t = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  wbuf : Buffer.t;  (* small frames accumulating for the next write *)
  (* The sealed chunks, in send order, are [bufs.(i).[offs.(i) ..]]
     for [head <= i < tail]: the queue is laid out as [writev]'s
     iovec, so a flush builds nothing. *)
  mutable bufs : string array;
  mutable offs : int array;
  mutable head : int;
  mutable tail : int;
  mutable chunk_bytes : int;  (* unwritten bytes across the chunks *)
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

let counters =
  Trace.ambient_cached (fun tr ->
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
      })

let create ?max_frame fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  {
    fd;
    dec = Frame.Decoder.create ?max_frame ();
    wbuf = Buffer.create 4096;
    bufs = Array.make 16 "";
    offs = Array.make 16 0;
    head = 0;
    tail = 0;
    chunk_bytes = 0;
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

(* Append a chunk. A full array is compacted when at most half of it
   is live, doubled otherwise, so each push is amortized O(1). *)
let push t s =
  let cap = Array.length t.bufs in
  if t.tail = cap then begin
    let live = t.tail - t.head in
    let bufs, offs =
      if 2 * live > cap then (Array.make (2 * cap) "", Array.make (2 * cap) 0)
      else (t.bufs, t.offs)
    in
    Array.blit t.bufs t.head bufs 0 live;
    Array.blit t.offs t.head offs 0 live;
    (* compacted in place: drop the moved-from references *)
    if bufs == t.bufs then Array.fill bufs live (cap - live) "";
    t.bufs <- bufs;
    t.offs <- offs;
    t.head <- 0;
    t.tail <- live
  end;
  t.bufs.(t.tail) <- s;
  t.offs.(t.tail) <- 0;
  t.tail <- t.tail + 1;
  t.chunk_bytes <- t.chunk_bytes + String.length s

(* Move the accumulator's contents to the back of the chunk queue, so
   later chunks (and later accumulated frames) stay in send order. *)
let seal t =
  if Buffer.length t.wbuf > 0 then begin
    push t (Buffer.contents t.wbuf);
    Buffer.clear t.wbuf
  end

(* [n] bytes left: retire the chunks they finished and move the first
   unfinished one's offset. Finished slots let go of their strings. *)
let rec advance t n =
  if n > 0 then begin
    let rest = String.length t.bufs.(t.head) - t.offs.(t.head) in
    if n >= rest then begin
      t.bufs.(t.head) <- "";
      t.head <- t.head + 1;
      advance t (n - rest)
    end
    else t.offs.(t.head) <- t.offs.(t.head) + n
  end
  else if t.head = t.tail then begin
    t.head <- 0;
    t.tail <- 0
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
    push t s;
    false
  end

(* A large Pub is never joined into one frame: its head
   ({!Proto.pub_head}: header, CRC and message prefix) and the
   envelope string itself go out back to back, so the envelope the
   caller keeps for retransmission is also the one [writev] reads. Any
   other message is encoded straight into its own exactly-sized frame
   ({!Proto.frame}). *)
let send t msg =
  (match msg with
  | Proto.Pub { pseq; cls; envelope }
    when String.length envelope > coalesce_limit ->
      seal t;
      push t (Proto.pub_head ~pseq ~cls envelope);
      push t envelope
  | _ -> ignore (enqueue t (Frame.preframed_bytes (Proto.frame msg))));
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

(* Hand every pending chunk to the kernel, one [writev] at a time,
   until it blocks or we drain. A write that stops inside a chunk
   means the socket buffer is full; one that stops on a chunk
   boundary may only have hit the stub's IOV_MAX, so try again. *)
let flush t : verdict =
  if t.closed then `Closed "closed"
  else begin
    seal t;
    let rec drain () =
      if t.head = t.tail then `Ok
      else
        match writev t.fd t.bufs t.offs t.head (t.tail - t.head) with
        | -1 | 0 -> `Blocked
        | n ->
            t.write_syscalls <- t.write_syscalls + 1;
            t.bytes_sent <- t.bytes_sent + n;
            t.chunk_bytes <- t.chunk_bytes - n;
            let c = counters () in
            Trace.Counter.incr c.c_write_sys;
            Trace.Counter.add c.c_bytes_sent n;
            advance t n;
            if t.head < t.tail && t.offs.(t.head) > 0 then `Blocked
            else drain ()
        | exception Unix.Unix_error (e, _, _) -> `Closed (Unix.error_message e)
    in
    drain ()
  end

(* poll(2) (poll_stubs.c) in place of select, which cannot watch a
   descriptor past FD_SETSIZE (1024). [events.(i)] asks for readable
   (1) and/or writable (2) on [fds.(i)] and comes back holding what it
   is ready for. *)
external poll_fds : Unix.file_descr array -> int array -> int -> int
  = "tpbs_poll"

let readable = 1
let writable = 2

let wait t ~timeout_ms =
  let events =
    [| (if pending_bytes t > 0 then readable lor writable else readable) |]
  in
  ignore (poll_fds [| t.fd |] events timeout_ms);
  events.(0) land readable <> 0

(* One read syscall, straight into the decoder's tail. *)
let recv t : verdict =
  if t.closed then `Closed "closed"
  else
    let off = Frame.Decoder.reserve t.dec read_room in
    let buf = Frame.Decoder.buffer t.dec in
    match read_into t.fd buf off (Bytes.length buf - off) with
    | -1 -> `Blocked
    | 0 -> `Closed "eof"
    | n ->
        t.read_syscalls <- t.read_syscalls + 1;
        t.bytes_recv <- t.bytes_recv + n;
        let c = counters () in
        Trace.Counter.incr c.c_read_sys;
        Trace.Counter.add c.c_bytes_recv n;
        Frame.Decoder.commit t.dec n;
        `Ok
    | exception Unix.Unix_error (e, _, _) -> `Closed (Unix.error_message e)

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
