module Trace = Tpbs_trace.Trace

type t = { bytes : string; off : int; len : int }

(* Ambient-registry counters, re-resolved when the ambient trace
   registry is swapped (benches and tests do this between runs). *)
let counters =
  Trace.ambient_cached (fun tr ->
      ( Trace.counter tr "serial.lazy_decodes",
        Trace.counter tr "serial.cursor_full_decodes" ))

let lazy_decodes () = Trace.Counter.value (fst (counters ()))
let full_decodes () = Trace.Counter.value (snd (counters ()))

let of_string bytes = { bytes; off = 0; len = String.length bytes }

let of_substring bytes ~off ~len =
  if off < 0 || len < 0 || off + len > String.length bytes then
    invalid_arg "Cursor.of_substring";
  { bytes; off; len }

let bytes t =
  if t.off = 0 && t.len = String.length t.bytes then t.bytes
  else String.sub t.bytes t.off t.len

let reader t = Wire.Reader.of_substring t.bytes ~off:t.off ~len:t.len

let wrap f =
  try f () with
  | Wire.Truncated what -> raise (Codec.Decode_error ("truncated: " ^ what))
  | Wire.Malformed what -> raise (Codec.Decode_error ("malformed: " ^ what))

let class_id t =
  wrap (fun () ->
      let r = reader t in
      match Codec.obj_header r with
      | Some (cls, _) -> Some cls
      | None -> None)

(* Walk one attribute chain, decoding only the terminal value: at each
   object along the path, field names are compared in place and the
   values of non-matching fields are skipped, never built. *)
let rec seek r attrs =
  match attrs with
  | [] -> Some (Codec.decode_prefix r)
  | attr :: rest -> (
      match Codec.obj_header r with
      | None -> None
      | Some (_, n) ->
          let rec fields k =
            if k = 0 then None
            else begin
              let name = Wire.Reader.string r in
              if String.equal name attr then seek r rest
              else begin
                Codec.skip_prefix r;
                fields (k - 1)
              end
            end
          in
          fields n)

let project t attrs =
  Trace.Counter.incr (fst (counters ()));
  wrap (fun () -> seek (reader t) attrs)

let to_value t =
  Trace.Counter.incr (snd (counters ()));
  wrap (fun () ->
      let r = reader t in
      let v = Codec.decode_prefix r in
      if not (Wire.Reader.at_end r) then
        raise (Codec.Decode_error "trailing bytes after value");
      v)
