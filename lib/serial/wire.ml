exception Truncated of string
exception Malformed of string

(* CRC-32 (IEEE, reflected polynomial 0xEDB88320) is computed in C
   (crc32_stubs.c). [crc32_update crc s pos len] continues the
   finished CRC [crc] (0 to start afresh) over [s.[pos .. pos+len-1]];
   CRCs travel as native ints holding the 32-bit pattern, so the call
   neither allocates nor boxes. Its tables are filled and its kernel
   picked here, at module initialization, never inside the hot call. *)
external crc32_init : unit -> unit = "tpbs_crc32_init"

external crc32_update :
  (int[@untagged]) ->
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "tpbs_crc32_update_byte" "tpbs_crc32_update"
[@@noalloc]

let () = crc32_init ()

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Wire.crc32_sub";
  Int32.of_int (crc32_update 0 s pos len)

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

let crc32_continue_sub crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Wire.crc32_continue_sub";
  Int32.of_int (crc32_update (Int32.to_int crc land 0xFFFFFFFF) s pos len)

let crc32_continue crc s = crc32_continue_sub crc s ~pos:0 ~len:(String.length s)

module Writer = struct
  (* [cap] is how much of [buf] this writer may still write into: the
     buffer's length while the writer owns it, 0 once {!contents} has
     handed it over as an immutable string. A handed-off buffer is
     still read (to carry its bytes into a fresh one on the next
     write) but never written again. *)
  type t = { mutable buf : Bytes.t; mutable len : int; mutable cap : int }

  let create ?(capacity = 64) () =
    let capacity = max 0 capacity in
    { buf = Bytes.create capacity; len = 0; cap = capacity }

  let length w = w.len

  let grow w needed =
    let cap = max needed (2 * Bytes.length w.buf) in
    let fresh = Bytes.create cap in
    Bytes.blit w.buf 0 fresh 0 w.len;
    w.buf <- fresh;
    w.cap <- cap

  let ensure w n =
    let needed = w.len + n in
    if needed > w.cap then grow w needed

  let byte w b =
    ensure w 1;
    Bytes.unsafe_set w.buf w.len (Char.chr (b land 0xff));
    w.len <- w.len + 1

  (* LEB128 of an int whose bit pattern is interpreted as unsigned:
     uses logical shifts so that "negative" patterns (top bit set)
     terminate. The loops are top-level functions rather than local
     closures over [w], so a call allocates nothing. *)
  let rec uvarint w n =
    if n >= 0 && n < 0x80 then byte w n
    else begin
      byte w (n land 0x7f lor 0x80);
      uvarint w (n lsr 7)
    end

  let varint w n =
    if n < 0 then invalid_arg "Wire.Writer.varint: negative";
    uvarint w n

  let zigzag w n =
    (* Map signed to unsigned: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... *)
    uvarint w ((n lsl 1) lxor (n asr 62))

  let f64 w x =
    ensure w 8;
    let bits = Int64.bits_of_float x in
    for i = 0 to 7 do
      let shift = 8 * i in
      let b = Int64.to_int (Int64.shift_right_logical bits shift) land 0xff in
      Bytes.unsafe_set w.buf (w.len + i) (Char.chr b)
    done;
    w.len <- w.len + 8

  let bool w b = byte w (if b then 1 else 0)

  let raw w s =
    let n = String.length s in
    ensure w n;
    Bytes.blit_string s 0 w.buf w.len n;
    w.len <- w.len + n

  let raw_sub w s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Wire.Writer.raw_sub";
    ensure w len;
    Bytes.blit_string s pos w.buf w.len len;
    w.len <- w.len + len

  let string w s =
    varint w (String.length s);
    raw w s

  let reserve w n =
    if n < 0 then invalid_arg "Wire.Writer.reserve";
    ensure w n;
    w.len <- w.len + n

  let set_int32_le w pos x =
    if pos < 0 || pos + 4 > w.len then invalid_arg "Wire.Writer.set_int32_le";
    if w.cap = 0 then grow w w.len;
    Bytes.set_int32_le w.buf pos x

  (* A buffer filled to the last byte changes hands instead of being
     copied: with exact-size writers (see [Codec.encode]) that is the
     common case. *)
  let contents w =
    if w.len = Bytes.length w.buf then begin
      w.cap <- 0;
      Bytes.unsafe_to_string w.buf
    end
    else Bytes.sub_string w.buf 0 w.len

  let crc32_continue_sub w crc ~pos ~len =
    if pos < 0 || len < 0 || pos + len > w.len then
      invalid_arg "Wire.Writer.crc32_continue_sub";
    crc32_continue_sub crc (Bytes.unsafe_to_string w.buf) ~pos ~len

  let rec uvarint_size_from n k =
    if n >= 0 && n < 0x80 then k else uvarint_size_from (n lsr 7) (k + 1)

  let uvarint_size n = uvarint_size_from n 1
  let zigzag_size n = uvarint_size ((n lsl 1) lxor (n asr 62))
end

module Reader = struct
  type t = { src : string; mutable off : int; limit : int }

  let of_string s = { src = s; off = 0; limit = String.length s }

  (* A bounded view over [s.[off .. off+len-1]] without extracting the
     slice: [pos] stays absolute into [s], so offsets recorded by a
     slicing decoder index the original buffer directly. *)
  let of_substring s ~off ~len =
    if off < 0 || len < 0 || off + len > String.length s then
      invalid_arg "Wire.Reader.of_substring";
    { src = s; off; limit = off + len }

  let pos r = r.off
  let remaining r = r.limit - r.off
  let at_end r = remaining r = 0

  let need r n what =
    if remaining r < n then raise (Truncated what)

  let byte r =
    need r 1 "byte";
    let b = Char.code (String.unsafe_get r.src r.off) in
    r.off <- r.off + 1;
    b

  (* The 9th byte sits at shift 56. A non-negative int has 62 usable
     bits (bit 62 is the sign), so bits 0x40/0x80 there would either
     flip the sign or continue into a 10th byte — both used to be
     absorbed by [(b land 0x7f) lsl shift] dropping the overflowing
     bits, which silently mis-decodes hostile input. Raise instead:
     socket bytes are untrusted. *)
  (* [overflow] is the mask of 9th-byte bits that make the value
     overflow: 0xc0 for {!varint}, 0x80 for {!uvarint}. A top-level
     loop, so a call allocates nothing. *)
  let rec varint_from r ~overflow acc shift =
    let b = byte r in
    if shift = 56 && b land overflow <> 0 then
      raise (Malformed "varint overflow");
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_from r ~overflow acc (shift + 7)

  let varint r = varint_from r ~overflow:0xc0 0 0

  (* Unsigned companion of {!Writer.uvarint}: the full 63-bit pattern
     is legal (bit 62 set decodes to a "negative" int, which is what
     zigzag wants back), but a 10th byte never is. *)
  let uvarint r = varint_from r ~overflow:0x80 0 0

  let zigzag r =
    let u = uvarint r in
    (u lsr 1) lxor (- (u land 1))

  let f64 r =
    need r 8 "f64";
    let bits = ref 0L in
    for i = 7 downto 0 do
      let b = Char.code (String.unsafe_get r.src (r.off + i)) in
      bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int b)
    done;
    r.off <- r.off + 8;
    Int64.float_of_bits !bits

  let bool r =
    match byte r with
    | 0 -> false
    | 1 -> true
    | b -> raise (Malformed (Printf.sprintf "bool tag %d" b))

  let raw r n =
    if n < 0 then raise (Malformed "negative length");
    need r n "raw";
    let s = String.sub r.src r.off n in
    r.off <- r.off + n;
    s

  let string r =
    let n = varint r in
    raw r n

  let skip r n =
    if n < 0 then raise (Malformed "negative length");
    need r n "skip";
    r.off <- r.off + n

  let skip_string r =
    let n = varint r in
    skip r n
end

(* Positional twins of the reader's varints, for parsers that keep
   their offset in a local variable instead of a [Reader.t] and so take
   a known shape apart without allocating anything. [limit] is the
   exclusive end of the readable slice; the caller has checked it
   against the string. *)
let rec varint_at_from s i limit ~overflow acc shift =
  if i >= limit then raise (Truncated "byte");
  let b = Char.code (String.unsafe_get s i) in
  if shift = 56 && b land overflow <> 0 then raise (Malformed "varint overflow");
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc
  else varint_at_from s (i + 1) limit ~overflow acc (shift + 7)

let varint_at s pos ~limit = varint_at_from s pos limit ~overflow:0xc0 0 0

let zigzag_at s pos ~limit =
  let u = varint_at_from s pos limit ~overflow:0x80 0 0 in
  (u lsr 1) lxor (- (u land 1))

let rec varint_end s i ~limit =
  if i >= limit then raise (Truncated "byte")
  else if Char.code (String.unsafe_get s i) land 0x80 = 0 then i + 1
  else varint_end s (i + 1) ~limit
