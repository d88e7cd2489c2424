exception Decode_error of string

(* One tag byte per constructor. Kept stable: this is the wire format. *)
let tag_null = 0
let tag_false = 1
let tag_true = 2
let tag_int = 3
let tag_float = 4
let tag_str = 5
let tag_list = 6
let tag_obj = 7
let tag_remote = 8

(* A string value of at least [ref_min] bytes can be left out of the
   buffer an encoding is written into: the walk writes its tag and
   length, then records the string with the offset its bytes belong
   at, for a writer ([writev]) that takes them from where they already
   lie. [flat] leaves nothing out: it is the plain encoding, and the
   one walk below serves both. *)
type gather = {
  ref_min : int;
  mutable ref_bytes : int;  (* content bytes of the strings sized as left out *)
  mutable refs : (int * string) list;  (* written so far, newest first *)
}

let gather ~ref_min = { ref_min; ref_bytes = 0; refs = [] }

(* Never written: no string reaches [max_int] bytes. *)
let flat = { ref_min = max_int; ref_bytes = 0; refs = [] }

let ref_bytes g = g.ref_bytes
let refs g = List.rev g.refs

let rec encode_gathered g w (v : Value.t) =
  let open Wire.Writer in
  match v with
  | Null -> byte w tag_null
  | Bool false -> byte w tag_false
  | Bool true -> byte w tag_true
  | Int i ->
      byte w tag_int;
      zigzag w i
  | Float f ->
      byte w tag_float;
      f64 w f
  | Str s ->
      byte w tag_str;
      if String.length s >= g.ref_min then begin
        varint w (String.length s);
        g.refs <- (length w, s) :: g.refs
      end
      else string w s
  | List vs ->
      byte w tag_list;
      varint w (List.length vs);
      encode_items g w vs
  | Obj o ->
      byte w tag_obj;
      string w o.cls;
      varint w (List.length o.fields);
      encode_fields g w o.fields
  | Remote r ->
      byte w tag_remote;
      string w r.iface;
      varint w r.node_id;
      varint w r.object_id

and encode_items g w = function
  | [] -> ()
  | v :: vs ->
      encode_gathered g w v;
      encode_items g w vs

and encode_fields g w = function
  | [] -> ()
  | (name, v) :: fields ->
      Wire.Writer.string w name;
      encode_gathered g w v;
      encode_fields g w fields

let encode_into w v = encode_gathered flat w v

(* Exactly the bytes [encode_into] writes, without writing them: one
   walk over the value, O(1) per string however long. The strings
   [g] leaves out are added up on the way. *)
let str_size len = 1 + Wire.Writer.uvarint_size len + len
let list_header_size n = 1 + Wire.Writer.uvarint_size n
let name_size s = Wire.Writer.uvarint_size (String.length s) + String.length s

let rec gathered_size g (v : Value.t) =
  match v with
  | Null | Bool _ -> 1
  | Int i -> 1 + Wire.Writer.zigzag_size i
  | Float _ -> 9
  | Str s ->
      let n = String.length s in
      if n >= g.ref_min then g.ref_bytes <- g.ref_bytes + n;
      str_size n
  | List vs -> items_size g (list_header_size (List.length vs)) vs
  | Obj o ->
      fields_size g
        (1 + name_size o.cls + Wire.Writer.uvarint_size (List.length o.fields))
        o.fields
  | Remote r ->
      1 + name_size r.iface
      + Wire.Writer.uvarint_size r.node_id
      + Wire.Writer.uvarint_size r.object_id

and items_size g acc = function
  | [] -> acc
  | v :: vs -> items_size g (acc + gathered_size g v) vs

and fields_size g acc = function
  | [] -> acc
  | (name, v) :: fields -> fields_size g (acc + name_size name + gathered_size g v) fields

let encoded_size v = gathered_size flat v

(* Sized up front, the writer fills its buffer to the last byte and
   hands it over: no doubling, no trailing copy. *)
let encode v =
  let w = Wire.Writer.create ~capacity:(encoded_size v) () in
  encode_into w v;
  Wire.Writer.contents w

let rec decode_prefix r : Value.t =
  let open Wire.Reader in
  let tag = byte r in
  if tag = tag_null then Null
  else if tag = tag_false then Bool false
  else if tag = tag_true then Bool true
  else if tag = tag_int then Int (zigzag r)
  else if tag = tag_float then Float (f64 r)
  else if tag = tag_str then Str (string r)
  else if tag = tag_list then begin
    let n = varint r in
    let rec loop k acc =
      if k = 0 then List.rev acc else loop (k - 1) (decode_prefix r :: acc)
    in
    List (loop n [])
  end
  else if tag = tag_obj then begin
    let cls = string r in
    let n = varint r in
    let rec loop k acc =
      if k = 0 then List.rev acc
      else
        let name = string r in
        let v = decode_prefix r in
        loop (k - 1) ((name, v) :: acc)
    in
    Obj { cls; fields = loop n [] }
  end
  else if tag = tag_remote then begin
    let iface = string r in
    let node_id = varint r in
    let object_id = varint r in
    Remote { iface; node_id; object_id }
  end
  else raise (Decode_error (Printf.sprintf "unknown tag %d" tag))

let decode_sub s ~off ~len =
  let r = Wire.Reader.of_substring s ~off ~len in
  match decode_prefix r with
  | v ->
      if not (Wire.Reader.at_end r) then
        raise (Decode_error "trailing bytes after value");
      v
  | exception Wire.Truncated what ->
      raise (Decode_error ("truncated: " ^ what))
  | exception Wire.Malformed what ->
      raise (Decode_error ("malformed: " ^ what))

let decode s = decode_sub s ~off:0 ~len:(String.length s)

let decode_prefix r =
  try decode_prefix r with
  | Wire.Truncated what -> raise (Decode_error ("truncated: " ^ what))
  | Wire.Malformed what -> raise (Decode_error ("malformed: " ^ what))

(* --- lazy navigation (see Cursor) ----------------------------------- *)

(* Advance past one encoded value without materializing it: no
   allocation beyond reader bookkeeping, the substrate of lazy
   field-projection decode. *)
let rec skip_prefix r =
  let open Wire.Reader in
  let tag = byte r in
  if tag = tag_null || tag = tag_false || tag = tag_true then ()
  (* Ints are zigzag-encoded: skip with the full-width 63-bit reader —
     the non-negative [varint] would refuse a large zigzag pattern. *)
  else if tag = tag_int then ignore (uvarint r)
  else if tag = tag_float then skip r 8
  else if tag = tag_str then skip_string r
  else if tag = tag_list then begin
    let n = varint r in
    for _ = 1 to n do
      skip_prefix r
    done
  end
  else if tag = tag_obj then begin
    skip_string r;
    let n = varint r in
    for _ = 1 to n do
      skip_string r;
      skip_prefix r
    done
  end
  else if tag = tag_remote then begin
    skip_string r;
    ignore (varint r);
    ignore (varint r)
  end
  else raise (Decode_error (Printf.sprintf "unknown tag %d" tag))

let skip_prefix r =
  try skip_prefix r with
  | Wire.Truncated what -> raise (Decode_error ("truncated: " ^ what))
  | Wire.Malformed what -> raise (Decode_error ("malformed: " ^ what))

(* Consume one tag byte; is it an object's? The class name (a string)
   and the field count follow. *)
let obj_tag r = Wire.Reader.byte r = tag_obj

(* If the value at the reader is an object, consume its tag, class id
   and field count, leaving the reader at the first field name. *)
let obj_header r =
  let tag = Wire.Reader.byte r in
  if tag = tag_obj then begin
    let cls = Wire.Reader.string r in
    let n = Wire.Reader.varint r in
    Some (cls, n)
  end
  else None

(* --- piecewise encode/decode (see Proto's slice paths) --------------- *)

(* These keep the tag bytes private to this module while letting a
   caller assemble or take apart one known value shape around a large
   byte slice it must not copy. *)

let encode_list_header w n =
  Wire.Writer.byte w tag_list;
  Wire.Writer.varint w n

let encode_str_header w len =
  Wire.Writer.byte w tag_str;
  Wire.Writer.varint w len

let encode_int w i =
  Wire.Writer.byte w tag_int;
  Wire.Writer.zigzag w i

let int_size i = 1 + Wire.Writer.zigzag_size i

let encode_str_sub w s ~pos ~len =
  encode_str_header w len;
  Wire.Writer.raw_sub w s ~pos ~len

(* Each checks the tag at [pos] before reading the varint after it. *)
let tagged s pos ~limit tag =
  if pos >= limit then raise (Wire.Truncated "byte");
  if Char.code (String.unsafe_get s pos) <> tag then raise Exit

let list_arity_at s pos ~limit =
  tagged s pos ~limit tag_list;
  Wire.varint_at s (pos + 1) ~limit

let int_at s pos ~limit =
  tagged s pos ~limit tag_int;
  Wire.zigzag_at s (pos + 1) ~limit

let str_len_at s pos ~limit =
  tagged s pos ~limit tag_str;
  Wire.varint_at s (pos + 1) ~limit

let next_at s pos ~limit =
  if pos >= limit then raise (Wire.Truncated "byte");
  let tag = Char.code (String.unsafe_get s pos) in
  let after = Wire.varint_end s (pos + 1) ~limit in
  if tag = tag_int || tag = tag_list then after
  else if tag = tag_str then begin
    (* Compared as [n > limit - after], not [after + n > limit]: a
       varint length may be as large as max_int, and the sum would
       wrap negative and pass. *)
    let n = Wire.varint_at s (pos + 1) ~limit in
    if n > limit - after then raise (Wire.Truncated "skip");
    after + n
  end
  else raise Exit

let clone v = decode (encode v)

let frame payload =
  let w = Wire.Writer.create ~capacity:(String.length payload + 10) () in
  Wire.Writer.varint w (String.length payload);
  Wire.Writer.raw w payload;
  let crc = Wire.crc32 payload in
  Wire.Writer.varint w (Int32.to_int (Int32.logand crc 0xFFFFFFFFl) land 0xFFFFFFFF);
  Wire.Writer.contents w

let unframe s =
  let r = Wire.Reader.of_string s in
  try
    let n = Wire.Reader.varint r in
    let payload = Wire.Reader.raw r n in
    let crc = Wire.Reader.varint r in
    let expect = Int32.to_int (Int32.logand (Wire.crc32 payload) 0xFFFFFFFFl) land 0xFFFFFFFF in
    if crc <> expect then raise (Decode_error "frame checksum mismatch");
    if not (Wire.Reader.at_end r) then raise (Decode_error "frame trailing bytes");
    payload
  with
  | Wire.Truncated what -> raise (Decode_error ("frame truncated: " ^ what))
  | Wire.Malformed what -> raise (Decode_error ("frame malformed: " ^ what))
