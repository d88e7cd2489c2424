module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Wire = Tpbs_serial.Wire
module Trace = Tpbs_trace.Trace
module Pubsub = Tpbs_core.Pubsub

(* The broker protocol. One message per frame, encoded as an ordinary
   [Value] through [Codec] — the transport speaks the same wire
   dialect as everything else in the system, so a protocol trace can
   be decoded with the stock tools.

   Flow control is credit-based in both directions and counted in
   messages, not bytes (envelopes are small and near-uniform):

   - the broker grants the client [window] publish credits in
     [Welcome] and replenishes with [Credit] as it drains its delivery
     queues; a client with no credit queues locally, so broker-side
     queue depth is bounded by the sum of granted windows;
   - the client grants the broker delivery credits in [Hello] and
     replenishes with [Credit] as its application consumes.

   Exactly-once across broker restarts is the classic pairing:
   publishers retransmit every unacknowledged [Pub] after reconnecting
   (acks are cumulative), and subscribers drop any [Deliver] whose
   per-origin sequence is not strictly increasing. *)

type msg =
  | Hello of { client : string; window : int }
  | Welcome of { window : int }
  | Advertise of { cls : string; supers : string list }
  | Sub of { sid : int; param : string; filter : Value.t }
  | Unsub of { sid : int }
  | Pub of { pseq : int; cls : string; envelope : string }
  | Pub_ack of { pseq : int }
  | Deliver of { origin : string; pseq : int; cls : string; envelope : string }
  | Credit of { n : int }
  | Bye

let to_value = function
  | Hello { client; window } ->
      Value.(List [ Str "hello"; Str client; Int window ])
  | Welcome { window } -> Value.(List [ Str "welcome"; Int window ])
  | Advertise { cls; supers } ->
      Value.(
        List [ Str "adv"; Str cls; List (List.map (fun s -> Str s) supers) ])
  | Sub { sid; param; filter } ->
      Value.(List [ Str "sub"; Int sid; Str param; filter ])
  | Unsub { sid } -> Value.(List [ Str "unsub"; Int sid ])
  | Pub { pseq; cls; envelope } ->
      Value.(List [ Str "pub"; Int pseq; Str cls; Str envelope ])
  | Pub_ack { pseq } -> Value.(List [ Str "ack"; Int pseq ])
  | Deliver { origin; pseq; cls; envelope } ->
      Value.(
        List [ Str "dlv"; Str origin; Int pseq; Str cls; Str envelope ])
  | Credit { n } -> Value.(List [ Str "credit"; Int n ])
  | Bye -> Value.(List [ Str "bye" ])

let of_value v =
  match v with
  | Value.List (Value.Str tag :: rest) -> (
      match (tag, rest) with
      | "hello", [ Value.Str client; Value.Int window ] ->
          Some (Hello { client; window })
      | "welcome", [ Value.Int window ] -> Some (Welcome { window })
      | "adv", [ Value.Str cls; Value.List supers ] ->
          let ok, supers =
            List.fold_right
              (fun s (ok, acc) ->
                match s with
                | Value.Str s -> (ok, s :: acc)
                | _ -> (false, acc))
              supers (true, [])
          in
          if ok then Some (Advertise { cls; supers }) else None
      | "sub", [ Value.Int sid; Value.Str param; filter ] ->
          Some (Sub { sid; param; filter })
      | "unsub", [ Value.Int sid ] -> Some (Unsub { sid })
      | "pub", [ Value.Int pseq; Value.Str cls; Value.Str envelope ] ->
          Some (Pub { pseq; cls; envelope })
      | "ack", [ Value.Int pseq ] -> Some (Pub_ack { pseq })
      | ( "dlv",
          [ Value.Str origin; Value.Int pseq; Value.Str cls;
            Value.Str envelope ] ) ->
          Some (Deliver { origin; pseq; cls; envelope })
      | "credit", [ Value.Int n ] -> Some (Credit { n })
      | "bye", [] -> Some Bye
      | _ -> None)
  | _ -> None

(* Ambient-registry counters, re-resolved when the ambient trace
   registry is swapped (benches and tests do this between runs).
   [transport.deliver_encodes] counts every full Deliver encode — the
   quantity the encode-once fan-out makes independent of subscriber
   count — and [transport.payload_copies] counts each time a payload
   slice is materialized into a fresh string. *)
let counters =
  Trace.ambient_cached (fun tr ->
      ( Trace.counter tr "transport.deliver_encodes",
        Trace.counter tr "transport.payload_copies" ))

let count_deliver_encode () = Trace.Counter.incr (fst (counters ()))
let count_payload_copy () = Trace.Counter.incr (snd (counters ()))

let count_encode = function Deliver _ -> count_deliver_encode () | _ -> ()

let encode m =
  count_encode m;
  Codec.encode (to_value m)

(* Everything of [Pub {pseq; cls; envelope}]'s encoding but the
   envelope's [el] content bytes, written without building the message
   as a [Value] first. *)
let pub_tag = Value.Str "pub"

let pub_head_size ~pseq ~cls el =
  Codec.list_header_size 4 + Codec.encoded_size pub_tag + Codec.int_size pseq
  + Codec.str_size (String.length cls)
  + Codec.str_size el - el

let encode_pub_head w ~pseq ~cls el =
  Codec.encode_list_header w 4;
  Codec.encode_into w pub_tag;
  Codec.encode_int w pseq;
  Codec.encode_str_sub w cls ~pos:0 ~len:(String.length cls);
  Codec.encode_str_header w el

(* A string value at least this long is written to the socket by
   reference, where it lies, instead of being copied into a frame: the
   cut-off above which a copy costs more than the [writev] entry that
   saves it. *)
let ref_min = 4096

(* A Pub straight from the obvent: the envelope is written into the
   frame by the one envelope walk ([Pubsub.Remote.write_envelope]),
   after one sizing walk over the obvent, and never exists as a string
   of its own; the obvent's strings of [ref_min] bytes or more are left
   where they lie. Byte for byte [frame (Pub {pseq; cls; envelope})]
   with the envelope [Pubsub.Remote.encode_envelope] makes. *)
let pub_frame ~pseq ~cls ~publish_time ~eid obvent =
  let g = Codec.gather ~ref_min in
  let olen = Codec.gathered_size g obvent in
  let el = Pubsub.Remote.envelope_length ~publish_time ~eid olen in
  Frame.gathered g ~len:(pub_head_size ~pseq ~cls el + el) (fun w ->
      encode_pub_head w ~pseq ~cls el;
      Pubsub.Remote.write_envelope g w ~publish_time ~eid obvent ~olen)

let frame m =
  count_encode m;
  match m with
  | Pub { pseq; cls; envelope } ->
      let el = String.length envelope in
      Frame.build ~len:(pub_head_size ~pseq ~cls el + el) (fun w ->
          encode_pub_head w ~pseq ~cls el;
          Wire.Writer.raw w envelope)
  | _ ->
      let v = to_value m in
      Frame.build ~len:(Codec.encoded_size v) (fun w -> Codec.encode_into w v)

let decode s =
  match Codec.decode s with
  | v -> of_value v
  | exception Codec.Decode_error _ -> None

(* --- zero-copy payload views ----------------------------------------- *)

type slice = { sl_buf : string; sl_off : int; sl_len : int }

let slice_of_string s = { sl_buf = s; sl_off = 0; sl_len = String.length s }

let slice_to_string sl =
  if sl.sl_off = 0 && sl.sl_len = String.length sl.sl_buf then sl.sl_buf
  else begin
    count_payload_copy ();
    Frame.count_copy sl.sl_len;
    String.sub sl.sl_buf sl.sl_off sl.sl_len
  end

(* Encode + frame + CRC a Deliver exactly once, around the envelope
   slice, producing bytes identical to
   [Frame.frame (encode (Deliver {origin; pseq; cls; envelope}))] —
   the Deliver wire shape carries no per-session field, so one
   preframed string serves every subscriber. The frame is sized
   exactly, so the envelope is copied once, into its final place. *)
let encode_deliver ~origin ~pseq ~cls (envelope : slice) =
  count_deliver_encode ();
  let head = Value.[ Str "dlv"; Str origin; Int pseq; Str cls ] in
  let len =
    List.fold_left
      (fun acc v -> acc + Codec.encoded_size v)
      (Codec.list_header_size 5 + Codec.str_size envelope.sl_len)
      head
  in
  Frame.count_copy envelope.sl_len;
  Frame.build ~len (fun w ->
      Codec.encode_list_header w 5;
      List.iter (Codec.encode_into w) head;
      Codec.encode_str_sub w envelope.sl_buf ~pos:envelope.sl_off
        ~len:envelope.sl_len)

type view =
  | V_pub of { pseq : int; cls : string; envelope : slice }
  | V_deliver of { origin : string; pseq : int; cls : string; envelope : slice }
  | V_msg of msg
  | V_none

(* Peer and class names arrive again and again, on every Deliver and
   Pub. They are read through a small direct-mapped cache of short
   strings, checked byte for byte, so a repeated name is one shared
   string and costs no allocation. Entries are immutable strings: a
   racing reader on another domain sees an old or a new entry and
   checks it either way. *)
let intern_slots = Array.make 64 ""
let intern_max = 64

let rec fnv s pos len i h =
  if i = len then h
  else
    fnv s pos len (i + 1)
      ((h lxor Char.code (String.unsafe_get s (pos + i))) * 0x01000193 land 0x3FFFFFFF)

let rec same_from s pos c i =
  i = String.length c || (s.[pos + i] = c.[i] && same_from s pos c (i + 1))

let intern buf pos len =
  if len > intern_max then String.sub buf pos len
  else
    let k = fnv buf pos len 0 0x811c9dc5 land (Array.length intern_slots - 1) in
    let c = intern_slots.(k) in
    if String.length c = len && same_from buf pos c 0 then c
    else begin
      let fresh = String.sub buf pos len in
      intern_slots.(k) <- fresh;
      fresh
    end

(* Parse one payload slice in place. The hot shapes — Pub and Deliver,
   the only messages that carry an envelope — are taken apart
   piecewise, with the offset in a local, so the envelope stays a view
   into [buf] and peer and class names come from the intern cache;
   everything else goes through the ordinary full decode (control
   messages are tiny). Any structural surprise falls back to the full
   decode, whose answer is authoritative. *)
let decode_view buf ~off ~len =
  let fallback () =
    let r = Wire.Reader.of_substring buf ~off ~len in
    match Codec.decode_prefix r with
    | v -> (
        if not (Wire.Reader.at_end r) then V_none
        else match of_value v with Some m -> V_msg m | None -> V_none)
    | exception Codec.Decode_error _ -> V_none
  in
  if off < 0 || len < 0 || off + len > String.length buf then
    invalid_arg "Proto.decode_view";
  let limit = off + len in
  (* [p] steps from field to field; a string's bytes end where the
     next field starts. *)
  match
    let arity = Codec.list_arity_at buf off ~limit in
    let p = Codec.next_at buf off ~limit in
    let tl = Codec.str_len_at buf p ~limit in
    let p = Codec.next_at buf p ~limit in
    if arity = 4 && tl = 3 && same_from buf (p - 3) "pub" 0 then begin
      let pseq = Codec.int_at buf p ~limit in
      let p = Codec.next_at buf p ~limit in
      let cl = Codec.str_len_at buf p ~limit in
      let p = Codec.next_at buf p ~limit in
      let cls = intern buf (p - cl) cl in
      let el = Codec.str_len_at buf p ~limit in
      if Codec.next_at buf p ~limit <> limit then raise Exit;
      V_pub { pseq; cls; envelope = { sl_buf = buf; sl_off = limit - el; sl_len = el } }
    end
    else if arity = 5 && tl = 3 && same_from buf (p - 3) "dlv" 0 then begin
      let ol = Codec.str_len_at buf p ~limit in
      let p = Codec.next_at buf p ~limit in
      let origin = intern buf (p - ol) ol in
      let pseq = Codec.int_at buf p ~limit in
      let p = Codec.next_at buf p ~limit in
      let cl = Codec.str_len_at buf p ~limit in
      let p = Codec.next_at buf p ~limit in
      let cls = intern buf (p - cl) cl in
      let el = Codec.str_len_at buf p ~limit in
      if Codec.next_at buf p ~limit <> limit then raise Exit;
      V_deliver
        { origin; pseq; cls; envelope = { sl_buf = buf; sl_off = limit - el; sl_len = el } }
    end
    else raise Exit
  with
  | v -> v
  | exception (Exit | Wire.Truncated _ | Wire.Malformed _) -> fallback ()

let tag = function
  | Hello _ -> "hello"
  | Welcome _ -> "welcome"
  | Advertise _ -> "adv"
  | Sub _ -> "sub"
  | Unsub _ -> "unsub"
  | Pub _ -> "pub"
  | Pub_ack _ -> "ack"
  | Deliver _ -> "dlv"
  | Credit _ -> "credit"
  | Bye -> "bye"
