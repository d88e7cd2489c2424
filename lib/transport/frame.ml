module Wire = Tpbs_serial.Wire
module Codec = Tpbs_serial.Codec
module Trace = Tpbs_trace.Trace

(* Stream framing for the real transport:

     [ payload length : u32 LE | crc32(payload) : u32 LE | payload ]

   — the same shape lib/store/record gives durable log records, for
   the same reason: the length prefix makes a byte stream
   self-framing, and the CRC makes every frame independently
   checkable, so the receive side can tell "more bytes coming" (a
   short read mid-frame) from "the stream is damaged" (bit rot, a
   desynchronized peer, or an attacker). TCP never re-orders or drops
   within a connection, so unlike the on-disk scan there is no
   re-synchronization: a corrupt frame condemns the connection.

   The decoder is pure (no fds) and incremental: feed it whatever the
   socket returned — one byte at a time if that is what [read] gave
   you — and pop complete frames. That keeps it unit-testable under
   adversarial input without a socket in sight. *)

let header_bytes = 8
let default_max_frame = 1 lsl 24 (* 16 MiB: far above any envelope *)

(* [transport.crc_bytes]: the payload bytes of every frame checksummed
   here, built or verified, added once per frame. Resolved again when
   the ambient trace registry is swapped. *)
let crc_counter = Trace.ambient_cached (fun tr -> Trace.counter tr "transport.crc_bytes")

let count_crc n = Trace.Counter.add (crc_counter ()) n

(* [transport.copy_bytes]: bytes of already-encoded payload copied
   again in userland — a decoder's compaction and growth, a Deliver
   encoded around an envelope, a payload view materialized. Writing a
   frame is not a copy: its bytes are encoded once, into the frame. *)
let copy_counter = Trace.ambient_cached (fun tr -> Trace.counter tr "transport.copy_bytes")

let count_copy n = if n > 0 then Trace.Counter.add (copy_counter ()) n

(* A frame built once and shared by reference across any number of
   connections: header + CRC are computed at construction, so fanning
   an event out to N subscribers costs one encode and one CRC no
   matter what N is. The type is abstract so only bytes that really
   went through [build] can be enqueued as-is on a socket. *)
type preframed = string

(* The header is reserved, [fill] encodes the payload straight after
   it, and length and CRC are patched over the reservation: the frame
   is never assembled from a separately encoded payload. With [len]
   exact, the buffer is allocated once and handed over whole. *)
let start ~len =
  let w = Wire.Writer.create ~capacity:(header_bytes + len) () in
  Wire.Writer.reserve w header_bytes;
  w

let finish w ~len crc =
  count_crc len;
  Wire.Writer.set_int32_le w 0 (Int32.of_int len);
  Wire.Writer.set_int32_le w 4 crc;
  Wire.Writer.contents w

let build ~len fill =
  let w = start ~len in
  fill w;
  let len = Wire.Writer.length w - header_bytes in
  finish w ~len (Wire.Writer.crc32_continue_sub w 0l ~pos:header_bytes ~len)

type gathered = { head : string; refs : (int * string) list }

(* The CRC of the head's bytes from [pos] on, with each left-out
   string in its place. *)
let rec crc_gathered w crc pos = function
  | [] -> Wire.Writer.crc32_continue_sub w crc ~pos ~len:(Wire.Writer.length w - pos)
  | (at, s) :: refs ->
      let crc = Wire.Writer.crc32_continue_sub w crc ~pos ~len:(at - pos) in
      crc_gathered w (Wire.crc32_continue crc s) at refs

let gathered g ~len fill =
  let w = start ~len:(len - Codec.ref_bytes g) in
  fill w;
  let refs = Codec.refs g in
  let len = Wire.Writer.length w - header_bytes + Codec.ref_bytes g in
  let head = finish w ~len (crc_gathered w 0l header_bytes refs) in
  { head; refs }

let frame payload =
  build ~len:(String.length payload) (fun w -> Wire.Writer.raw w payload)

let preframed_bytes (p : preframed) : string = p
let preframed_length (p : preframed) = String.length p - header_bytes

module Decoder = struct
  type t = {
    max_frame : int;
    mutable buf : Bytes.t;
    mutable start : int;  (* first unconsumed byte *)
    mutable len : int;  (* unconsumed bytes from [start] *)
    mutable dead : string option;  (* sticky corruption verdict *)
    mutable frames : int;
  }

  type result = Frame of string | Await | Corrupt of string

  let create ?(max_frame = default_max_frame) () =
    {
      max_frame;
      buf = Bytes.create 4096;
      start = 0;
      len = 0;
      dead = None;
      frames = 0;
    }

  let buffered t = t.len
  let frames t = t.frames
  let is_dead t = t.dead <> None

  let ensure t extra =
    let cap = Bytes.length t.buf in
    if t.start + t.len + extra > cap then
      if t.len + extra <= cap then begin
        (* compacting the consumed prefix is enough *)
        count_copy t.len;
        Bytes.blit t.buf t.start t.buf 0 t.len;
        t.start <- 0
      end
      else begin
        let cap' = ref (max 4096 (2 * cap)) in
        while !cap' < t.len + extra do
          cap' := 2 * !cap'
        done;
        let fresh = Bytes.create !cap' in
        count_copy t.len;
        Bytes.blit t.buf t.start fresh 0 t.len;
        t.buf <- fresh;
        t.start <- 0
      end

  let feed t s off len =
    if off < 0 || len < 0 || off + len > String.length s then
      invalid_arg "Frame.Decoder.feed";
    if t.dead = None && len > 0 then begin
      ensure t len;
      Bytes.blit_string s off t.buf (t.start + t.len) len;
      t.len <- t.len + len
    end

  let feed_string t s = feed t s 0 (String.length s)

  (* The zero-copy twin of [feed]: the caller (a [read] syscall) writes
     straight into the free tail of [buf], then commits what it wrote.
     A dead decoder still lends its tail but commits nothing. *)
  let reserve t n =
    if n < 0 then invalid_arg "Frame.Decoder.reserve";
    ensure t n;
    t.start + t.len

  let buffer t = t.buf

  let commit t n =
    if n < 0 || t.start + t.len + n > Bytes.length t.buf then
      invalid_arg "Frame.Decoder.commit";
    if t.dead = None then t.len <- t.len + n

  type view_result =
    | V_frame of string * int * int
    | V_await
    | V_corrupt of string

  let condemn t msg =
    t.dead <- Some msg;
    (* the buffered tail is garbage now — drop it *)
    t.len <- 0

  (* Zero-copy pop: the payload is handed out as an (buf, off, len)
     view into the decoder's own buffer. The CRC is checked in place
     ([Wire.crc32_sub]), so a valid frame costs no allocation at all.
     The view aliases mutable storage — it is invalidated by the next
     [feed] (which may compact or reallocate the buffer), so callers
     must finish with it, or copy, before feeding again. *)
  let pop_view t =
    match t.dead with
    | Some msg -> V_corrupt msg
    | None ->
        if t.len < header_bytes then V_await
        else
          let n = Int32.to_int (Bytes.get_int32_le t.buf t.start) in
          if n < 0 || n > t.max_frame then begin
            let msg = Printf.sprintf "frame length %d out of bounds" n in
            condemn t msg;
            V_corrupt msg
          end
          else if t.len < header_bytes + n then V_await
          else
            let crc = Bytes.get_int32_le t.buf (t.start + 4) in
            let src = Bytes.unsafe_to_string t.buf in
            let off = t.start + header_bytes in
            count_crc n;
            if Wire.crc32_sub src ~pos:off ~len:n <> crc then begin
              condemn t "frame crc mismatch";
              V_corrupt "frame crc mismatch"
            end
            else begin
              t.start <- t.start + header_bytes + n;
              t.len <- t.len - header_bytes - n;
              if t.len = 0 then t.start <- 0;
              t.frames <- t.frames + 1;
              V_frame (src, off, n)
            end

  let pop t =
    match pop_view t with
    | V_await -> Await
    | V_corrupt msg -> Corrupt msg
    | V_frame (src, off, len) -> Frame (String.sub src off len)
end
