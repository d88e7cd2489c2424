module Trace = Tpbs_trace.Trace

(* One framed, non-blocking connection.

   The write side batches: [send] only queues the encoded frame, and
   [flush] hands everything queued to the kernel in one [writev]. A
   pump that sends a burst of frames and then flushes once pays a
   single syscall (and usually a single TCP segment) for the lot — the
   batching factor shows up as [transport.frames_sent] /
   [transport.write_syscalls].

   There is one write path and no accumulator: every frame is an
   immutable string, or a list of string pieces ({!Frame.gathered}),
   and it is queued by reference as [writev] entries — a control
   frame, a [Pub] whose head leaves the obvent's long strings where
   the application put them, and a {!Frame.preframed} fan-out
   [Deliver], the same string queued on every subscriber session. The
   [writev] stub (conn_stubs.c) reads those strings in place, so from
   queue to kernel no frame byte is copied in userland. A publisher's
   retransmit store keeps each frame until its ack anyway, so the
   frame itself is the write buffer.

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
  Unix.file_descr -> string array -> int array -> int array -> int -> int -> int
  = "tpbs_conn_writev_byte" "tpbs_conn_writev"

external read_into : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "tpbs_conn_read"

(* Each read offers the kernel at least this much room at the
   decoder's tail. *)
let read_room = 65536

type t = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  (* The queued pieces, in send order, are
     [bufs.(i).[offs.(i) .. ends.(i) - 1]] for [head <= i < tail]: the
     queue is laid out as [writev]'s iovec, so a flush builds
     nothing. *)
  mutable bufs : string array;
  mutable offs : int array;
  mutable ends : int array;
  mutable head : int;
  mutable tail : int;
  mutable queued : int;  (* unwritten bytes across the pieces *)
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
      })

let create ?max_frame fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  {
    fd;
    dec = Frame.Decoder.create ?max_frame ();
    bufs = Array.make 16 "";
    offs = Array.make 16 0;
    ends = Array.make 16 0;
    head = 0;
    tail = 0;
    queued = 0;
    closed = false;
    frames_sent = 0;
    frames_recv = 0;
    bytes_sent = 0;
    bytes_recv = 0;
    write_syscalls = 0;
    read_syscalls = 0;
  }

let fd t = t.fd
let pending_bytes t = t.queued

(* Append the piece [s.[off .. stop - 1]]. A full queue is compacted
   when at most half of it is live, doubled otherwise, so each push is
   amortized O(1). *)
let push t s off stop =
  let cap = Array.length t.bufs in
  if t.tail = cap then begin
    let live = t.tail - t.head in
    let fresh = 2 * live > cap in
    let bufs = if fresh then Array.make (2 * cap) "" else t.bufs in
    let offs = if fresh then Array.make (2 * cap) 0 else t.offs in
    let ends = if fresh then Array.make (2 * cap) 0 else t.ends in
    Array.blit t.bufs t.head bufs 0 live;
    Array.blit t.offs t.head offs 0 live;
    Array.blit t.ends t.head ends 0 live;
    (* compacted in place: drop the moved-from references *)
    if not fresh then Array.fill bufs live (cap - live) "";
    t.bufs <- bufs;
    t.offs <- offs;
    t.ends <- ends;
    t.head <- 0;
    t.tail <- live
  end;
  t.bufs.(t.tail) <- s;
  t.offs.(t.tail) <- off;
  t.ends.(t.tail) <- stop;
  t.tail <- t.tail + 1;
  t.queued <- t.queued + stop - off

let push_string t s = push t s 0 (String.length s)

(* [n] bytes left: retire the pieces they finished and move the first
   unfinished one's offset. Finished slots let go of their strings.
   [true] when the write stopped inside a piece. *)
let rec advance t n =
  if n > 0 then begin
    let rest = t.ends.(t.head) - t.offs.(t.head) in
    if n >= rest then begin
      t.bufs.(t.head) <- "";
      t.head <- t.head + 1;
      advance t (n - rest)
    end
    else begin
      t.offs.(t.head) <- t.offs.(t.head) + n;
      true
    end
  end
  else begin
    if t.head = t.tail then begin
      t.head <- 0;
      t.tail <- 0
    end;
    false
  end

let count_sent t =
  t.frames_sent <- t.frames_sent + 1;
  Trace.Counter.incr (counters ()).c_frames_sent

let send t msg =
  push_string t (Frame.preframed_bytes (Proto.frame msg));
  count_sent t

(* The head's bytes from [pos] on, with each left-out string queued in
   its place. *)
let rec push_pieces t head pos = function
  | [] -> if pos < String.length head then push t head pos (String.length head)
  | (at, s) :: refs ->
      push t head pos at;
      push_string t s;
      push_pieces t head at refs

let send_gathered t (f : Frame.gathered) =
  push_pieces t f.head 0 f.refs;
  count_sent t

(* The string is immutable and may be queued on any number of
   connections at once — that sharing is the point: the frame was
   encoded and CRC'd once for the lot. *)
let send_preframed t pf =
  Trace.Counter.incr (counters ()).c_fanout_shared;
  push_string t (Frame.preframed_bytes pf);
  count_sent t

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Hand every queued piece to the kernel, one [writev] at a time,
   until it blocks or we drain. A write that stops inside a piece
   means the socket buffer is full; one that stops on a piece boundary
   may only have hit the stub's IOV_MAX, so try again. *)
let flush t : verdict =
  if t.closed then `Closed "closed"
  else begin
    let rec drain () =
      if t.head = t.tail then `Ok
      else
        match writev t.fd t.bufs t.offs t.ends t.head (t.tail - t.head) with
        | -1 | 0 -> `Blocked
        | n ->
            t.write_syscalls <- t.write_syscalls + 1;
            t.bytes_sent <- t.bytes_sent + n;
            t.queued <- t.queued - n;
            let c = counters () in
            Trace.Counter.incr c.c_write_sys;
            Trace.Counter.add c.c_bytes_sent n;
            if advance t n then `Blocked else drain ()
        | exception Unix.Unix_error (e, _, _) -> `Closed (Unix.error_message e)
    in
    drain ()
  end

(* poll(2) (poll_stubs.c) in place of select, which cannot watch a
   descriptor past FD_SETSIZE (1024). For [i < n], [events.(i)] asks
   for readable (1) and/or writable (2) on [fds.(i)] and comes back
   holding what it is ready for. *)
external poll_fds : Unix.file_descr array -> int array -> int -> int -> int
  = "tpbs_poll"

let readable = 1
let writable = 2

let wait t ~timeout_ms =
  let events =
    [| (if pending_bytes t > 0 then readable lor writable else readable) |]
  in
  ignore (poll_fds [| t.fd |] events 1 timeout_ms);
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
