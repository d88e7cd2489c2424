open Helpers
module Wire = Tpbs_serial.Wire
module Codec = Tpbs_serial.Codec

let test_varint_examples () =
  List.iter
    (fun n ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint w n;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Alcotest.(check int) (Printf.sprintf "varint %d" n) n (Wire.Reader.varint r))
    [ 0; 1; 127; 128; 300; 16384; 1 lsl 30; max_int ]

let test_varint_negative_rejected () =
  let w = Wire.Writer.create () in
  Alcotest.check_raises "negative varint"
    (Invalid_argument "Wire.Writer.varint: negative") (fun () ->
      Wire.Writer.varint w (-1))

let test_zigzag_examples () =
  List.iter
    (fun n ->
      let w = Wire.Writer.create () in
      Wire.Writer.zigzag w n;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Alcotest.(check int) (Printf.sprintf "zigzag %d" n) n (Wire.Reader.zigzag r))
    [ 0; -1; 1; -64; 64; min_int / 2; max_int / 2 ]

let test_mixed_stream () =
  let w = Wire.Writer.create () in
  Wire.Writer.bool w true;
  Wire.Writer.string w "hello";
  Wire.Writer.f64 w 3.25;
  Wire.Writer.zigzag w (-42);
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Alcotest.(check bool) "bool" true (Wire.Reader.bool r);
  Alcotest.(check string) "string" "hello" (Wire.Reader.string r);
  Alcotest.(check (float 0.)) "f64" 3.25 (Wire.Reader.f64 r);
  Alcotest.(check int) "zigzag" (-42) (Wire.Reader.zigzag r);
  Alcotest.(check bool) "at_end" true (Wire.Reader.at_end r)

let test_truncated_read () =
  let r = Wire.Reader.of_string "\x05ab" in
  Alcotest.check_raises "truncated string" (Wire.Truncated "raw") (fun () ->
      ignore (Wire.Reader.string r))

let test_varint_overlong_rejected () =
  (* Ten continuation bytes exceed a 63-bit integer. *)
  let r = Wire.Reader.of_string "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" in
  match Wire.Reader.varint r with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "overlong varint accepted"

(* Regression: the reader used to accumulate bytes past the 63-bit
   space with plain [lsl], silently dropping any bits above 62 — an
   encoding of 2^62 would quietly decode as 0. Every encoding that
   sets bits outside [0, 2^62) must now raise. *)
let test_varint_overflow_rejected () =
  List.iter
    (fun (what, s) ->
      let r = Wire.Reader.of_string s in
      match Wire.Reader.varint r with
      | exception Wire.Malformed "varint overflow" -> ()
      | v -> Alcotest.failf "%s accepted as %d" what v)
    [ ("2^62 (bit 62 set)", "\x80\x80\x80\x80\x80\x80\x80\x80\x40");
      ("9th byte with high bits", "\xff\xff\xff\xff\xff\xff\xff\xff\x7f");
      ("10-byte continuation", "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01") ]

let test_varint_62bit_edge () =
  (* max_int = 2^62 - 1 is the largest legal varint: exactly 9 bytes,
     last byte 0x3f, and it round-trips. *)
  let w = Wire.Writer.create () in
  Wire.Writer.varint w max_int;
  let s = Wire.Writer.contents w in
  Alcotest.(check int) "9 bytes" 9 (String.length s);
  Alcotest.(check char) "last byte" '\x3f' s.[8];
  let r = Wire.Reader.of_string s in
  Alcotest.(check int) "roundtrip" max_int (Wire.Reader.varint r)

let test_uvarint_full_width () =
  (* uvarint carries all 63 bits of the tagged-int pattern (zigzag of
     negatives lands here), so -1 and min_int must survive where the
     non-negative varint would refuse. *)
  List.iter
    (fun n ->
      let w = Wire.Writer.create () in
      Wire.Writer.uvarint w n;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Alcotest.(check int)
        (Printf.sprintf "uvarint %d" n)
        n (Wire.Reader.uvarint r))
    [ 0; 1; -1; min_int; max_int; min_int + 1 ]

let test_crc32_known () =
  (* Standard check value for "123456789". *)
  Alcotest.(check int32) "crc32" 0xCBF43926l (Wire.crc32 "123456789");
  Alcotest.(check int32) "crc32 empty" 0l (Wire.crc32 "")

(* The bytewise table CRC that slicing-by-8 replaced, kept as the
   oracle: one [int32] table lookup per byte. *)
let crc32_bytewise s ~pos ~len =
  let table =
    Array.init 256 (fun i ->
        let c = ref (Int32.of_int i) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand
           (Int32.logxor !c (Int32.of_int (Char.code s.[i])))
           0xffl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

(* The slicing-by-8 table kernel, whatever the CPU: on a host with
   carry-less multiply the kernel behind [Wire.crc32_sub] is the
   folding one, and this keeps the fallback under test there too. *)
external crc32_tables :
  (int[@untagged]) ->
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "tpbs_crc32_update_tables_byte" "tpbs_crc32_update_tables"
[@@noalloc]

(* Lengths 0-9000 at every start offset 0-15, half of them under 300:
   covers the 64-byte folding loop, the 16-byte steps after it, every
   tail length and the under-64-byte path, at every alignment. *)
let crc_slice =
  QCheck.Gen.(
    int_range 0 15 >>= fun pos ->
    oneof [ int_range 0 300; int_range 0 9000 ] >>= fun len ->
    int_range 0 15 >>= fun slack ->
    map (fun s -> (s, pos, len)) (string_size (return (pos + len + slack))))

let print_slice (s, pos, len) =
  Printf.sprintf "%d-byte string pos=%d len=%d crc=%08lx" (String.length s)
    pos len (crc32_bytewise s ~pos ~len)

let prop_crc32_slicing =
  QCheck.Test.make ~name:"crc32_sub = bytewise table CRC" ~count:1000
    (QCheck.make ~print:print_slice crc_slice)
    (fun (s, pos, len) ->
      Wire.crc32_sub s ~pos ~len = crc32_bytewise s ~pos ~len)

let prop_crc32_tables =
  QCheck.Test.make ~name:"crc32 table kernel = bytewise table CRC" ~count:500
    (QCheck.make ~print:print_slice crc_slice)
    (fun (s, pos, len) ->
      Int32.of_int (crc32_tables 0 s pos len) = crc32_bytewise s ~pos ~len)

(* Continuing a CRC over a second buffer is the CRC of the
   concatenation, either side possibly empty: the second pass starts
   from a non-zero CRC, at any split of a buffer up to 9000 bytes. *)
let prop_crc32_continue =
  let str = QCheck.Gen.(string_size (oneof [ int_range 0 300; int_range 0 9000 ])) in
  QCheck.Test.make ~name:"crc32_continue (crc32 a) b = crc32 (a ^ b)"
    ~count:1000
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%d + %d bytes" (String.length a) (String.length b))
       (QCheck.Gen.pair str str))
    (fun (a, b) ->
      let ab = a ^ b in
      Wire.crc32_continue (Wire.crc32 a) b = Wire.crc32 ab
      && crc32_tables (crc32_tables 0 a 0 (String.length a)) b 0
           (String.length b)
         = Int32.to_int (Wire.crc32 ab) land 0xFFFFFFFF)

(* [contents] of a full writer hands its buffer over: what it returned
   must never change when writing goes on, and a writer created (or
   left) with no room must still grow. *)
let test_writer_after_contents () =
  let w = Wire.Writer.create ~capacity:3 () in
  Wire.Writer.raw w "abc";
  let first = Wire.Writer.contents w in
  Wire.Writer.raw w "de";
  Wire.Writer.set_int32_le w 0 0x34333231l;
  Alcotest.(check string) "handed-off contents unchanged" "abc" first;
  Alcotest.(check string) "writer carried on" "1234e" (Wire.Writer.contents w);
  let empty = Wire.Writer.create ~capacity:0 () in
  Alcotest.(check string) "empty" "" (Wire.Writer.contents empty);
  Wire.Writer.varint empty 300;
  Wire.Writer.raw empty (String.make 100 'x');
  Alcotest.(check int) "grew from zero" 102 (Wire.Writer.length empty);
  let exact = Codec.encode (Value.Str "exact") in
  Alcotest.(check string) "encode" "\x05\x05exact" exact

let test_roundtrip_examples () =
  let samples : Tpbs_serial.Value.t list =
    [ Null; Bool true; Bool false; Int 0; Int (-1); Int max_int;
      Float 3.1415; Float nan; Float infinity; Str ""; Str "héllo\nworld";
      List []; List [ Int 1; Str "a"; Null ];
      Value.obj "StockQuote"
        [ "company", Str "Telco"; "price", Float 80.; "amount", Int 10 ];
      Remote { iface = "StockMarket"; node_id = 3; object_id = 17 };
      List [ Value.obj "A" [ "x", List [ Value.obj "B" [] ] ] ] ]
  in
  List.iter
    (fun v ->
      Alcotest.check value_testable (Value.to_string v) v
        (Codec.decode (Codec.encode v)))
    samples

let test_decode_garbage () =
  Alcotest.check_raises "unknown tag" (Codec.Decode_error "unknown tag 200")
    (fun () -> ignore (Codec.decode "\xc8"));
  (match Codec.decode "" with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "empty input should fail");
  match Codec.decode (Codec.encode (Int 5) ^ "x") with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "trailing bytes should fail"

let test_clone_fresh () =
  let v =
    Value.obj "StockQuote" [ "company", Value.Str "Telco"; "xs", List [ Int 1 ] ]
  in
  let c = Codec.clone v in
  Alcotest.check value_testable "clone equal" v c;
  (match v, c with
  | Obj a, Obj b -> Alcotest.(check bool) "physically fresh" false (a == b)
  | _ -> Alcotest.fail "expected objects")

let test_frame_roundtrip () =
  let payload = Codec.encode (Value.obj "X" [ "a", Int 1 ]) in
  Alcotest.(check string) "unframe . frame" payload
    (Codec.unframe (Codec.frame payload))

let test_frame_corruption () =
  let f = Bytes.of_string (Codec.frame "hello world") in
  Bytes.set f 3 'X';
  match Codec.unframe (Bytes.to_string f) with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "corrupted frame accepted"

let test_deep_nesting () =
  let rec nest n v =
    if n = 0 then v else nest (n - 1) (Value.List [ v ])
  in
  let deep = nest 200 (Value.Int 7) in
  Alcotest.check value_testable "deep roundtrip" deep
    (Codec.decode (Codec.encode deep));
  Alcotest.(check int) "depth" 201 (Value.depth deep);
  Alcotest.(check int) "weight" 201 (Value.weight deep)

let test_value_weight_and_field () =
  let v =
    Value.obj "Q"
      [ "a", Value.Int 1; "b", Value.List [ Value.Int 2; Value.Int 3 ] ]
  in
  Alcotest.(check int) "weight counts nodes" 5 (Value.weight v);
  Alcotest.(check (option value_testable)) "field access" (Some (Value.Int 1))
    (Value.field v "a");
  Alcotest.(check (option value_testable)) "missing field" None
    (Value.field v "z");
  Alcotest.(check (option value_testable)) "field on non-object" None
    (Value.field (Value.Int 3) "a")

let test_unframe_length_lies () =
  (* A frame whose length prefix exceeds the available bytes. *)
  let w = Wire.Writer.create () in
  Wire.Writer.varint w 1000;
  Wire.Writer.raw w "short";
  match Codec.unframe (Wire.Writer.contents w) with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "lying length accepted"

(* --- lazy field projection (Cursor) ----------------------------------- *)

module Cursor = Tpbs_serial.Cursor

let test_cursor_class_id () =
  let v =
    Value.obj "StockQuote"
      [ "company", Value.Str "Telco"; "price", Value.Float 80. ]
  in
  Alcotest.(check (option string)) "object class" (Some "StockQuote")
    (Cursor.class_id (Cursor.of_string (Codec.encode v)));
  Alcotest.(check (option string)) "non-object" None
    (Cursor.class_id (Cursor.of_string (Codec.encode (Value.Int 3))))

let test_cursor_projection_examples () =
  let v =
    Value.obj "Order"
      [ "qty", Value.Int 4;
        "item",
        Value.obj "Item" [ "name", Value.Str "bolt"; "price", Value.Float 2. ] ]
  in
  let c = Cursor.of_string (Codec.encode v) in
  Alcotest.(check (option value_testable)) "top-level field"
    (Some (Value.Int 4))
    (Cursor.project c [ "qty" ]);
  Alcotest.(check (option value_testable)) "nested path"
    (Some (Value.Float 2.))
    (Cursor.project c [ "item"; "price" ]);
  Alcotest.(check (option value_testable)) "whole subobject"
    (Value.field v "item")
    (Cursor.project c [ "item" ]);
  Alcotest.(check (option value_testable)) "missing field" None
    (Cursor.project c [ "nope" ]);
  Alcotest.(check (option value_testable)) "path through a leaf" None
    (Cursor.project c [ "qty"; "deeper" ])

let test_cursor_malformed_raises () =
  let check_raises what bytes =
    match Cursor.project (Cursor.of_string bytes) [ "f" ] with
    | exception Codec.Decode_error _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Decode_error")
  in
  (* An unknown tag is "not an object": a projection misses without
     raising, like eval_path on a non-object value. *)
  Alcotest.(check (option value_testable)) "unknown tag projects to None"
    None
    (Cursor.project (Cursor.of_string "\xc8") [ "f" ]);
  check_raises "empty input" "";
  (* A valid prefix cut short inside a field value. *)
  let whole = Codec.encode (Value.obj "C" [ "g", Value.Str "hello" ]) in
  check_raises "truncated" (String.sub whole 0 (String.length whole - 2))

let test_cursor_of_substring () =
  (* A cursor over a slice of a larger buffer (the zero-copy transport
     path: an envelope parked inside a frame) behaves exactly like one
     over the extracted string. *)
  let v = Value.obj "Order" [ "qty", Value.Int 4; "tag", Value.Str "x" ] in
  let enc = Codec.encode v in
  let padded = "junk-before" ^ enc ^ "junk-after" in
  let c = Cursor.of_substring padded ~off:11 ~len:(String.length enc) in
  Alcotest.(check string) "bytes materializes the slice" enc (Cursor.bytes c);
  Alcotest.(check (option string)) "class id through the slice"
    (Some "Order") (Cursor.class_id c);
  Alcotest.(check (option value_testable)) "projection through the slice"
    (Some (Value.Int 4))
    (Cursor.project c [ "qty" ]);
  Alcotest.(check value_testable) "full decode through the slice" v
    (Cursor.to_value c);
  (* The slice length is authoritative: bytes beyond it are trailing
     garbage, not silently ignored. *)
  (match
     Cursor.to_value
       (Cursor.of_substring padded ~off:11 ~len:(String.length enc + 3))
   with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "trailing bytes inside the slice must be rejected");
  List.iter
    (fun (off, len) ->
      match Cursor.of_substring padded ~off ~len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "bounds (%d, %d) must be rejected" off len)
    [ (-1, 4); (0, -1); (0, String.length padded + 1); (String.length padded, 1) ]

let test_cursor_counters () =
  let v = Value.obj "C" [ "f", Value.Int 1 ] in
  let c = Cursor.of_string (Codec.encode v) in
  let l0 = Cursor.lazy_decodes () and f0 = Cursor.full_decodes () in
  ignore (Cursor.project c [ "f" ]);
  ignore (Cursor.to_value c);
  Alcotest.(check int) "projection counted lazy" 1
    (Cursor.lazy_decodes () - l0);
  Alcotest.(check int) "to_value counted full" 1
    (Cursor.full_decodes () - f0)

(* Oracle navigation over the in-memory value, mirroring what the
   cursor does over the encoded bytes. *)
let rec model_path (v : Value.t) = function
  | [] -> Some v
  | a :: rest -> (
      match v with
      | Value.Obj o -> (
          match List.assoc_opt a o.fields with
          | Some v' -> model_path v' rest
          | None -> None)
      | _ -> None)

(* Every attribute path reachable in the value, plus a miss at each
   object. Generated values are depth-bounded, so this is small. *)
let rec all_paths (v : Value.t) =
  [] ::
  (match v with
  | Value.Obj o ->
      [ "missing#" ]
      :: List.concat_map
           (fun (n, v') -> List.map (fun p -> n :: p) (all_paths v'))
           o.fields
  | _ -> [ [ "missing#" ] ])

let prop_cursor_agrees_with_decode =
  QCheck.Test.make
    ~name:"cursor projection = full-decode navigation, on every path"
    ~count:300 arb_value
    (fun v ->
      let c = Cursor.of_string (Codec.encode v) in
      Value.equal (Cursor.to_value c) v
      && Cursor.class_id c
         = (match v with Value.Obj o -> Some o.cls | _ -> None)
      && List.for_all
           (fun path ->
             match Cursor.project c path, model_path v path with
             | Some a, Some b -> Value.equal a b
             | None, None -> true
             | Some _, None | None, Some _ -> false)
           (all_paths v))

let prop_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip" ~count:500 arb_value (fun v ->
      Value.equal v (Codec.decode (Codec.encode v)))

(* [encoded_size] is computed, not measured, so feed it the seams of
   every length field: ints at the ends of their range, strings and
   arities around 7-bit group boundaries, and nesting far deeper than
   [arb_value] reaches. *)
let gen_sized_value =
  let open QCheck.Gen in
  let edge_int =
    oneofl [ 0; -1; 63; 64; -65; min_int; max_int; min_int + 1; max_int - 1 ]
  in
  let edge_len = oneofl [ 0; 1; 127; 128; 16383; 16384 ] in
  let leaf =
    oneof
      [ map (fun i -> Value.Int i) edge_int;
        map (fun n -> Value.Str (String.make n 's')) edge_len;
        map
          (fun (a, b) -> Value.Remote { iface = "I"; node_id = a; object_id = b })
          (pair (oneofl [ 0; 127; 128; max_int ]) (oneofl [ 1; max_int ]));
        gen_value ]
  in
  let rec nest depth v =
    if depth = 0 then return v
    else
      bool >>= fun as_obj ->
      edge_int >>= fun i ->
      nest (depth - 1)
        (if as_obj then
           Value.Obj { cls = "Deep"; fields = [ ("v", v); ("i", Value.Int i) ] }
         else Value.List [ v; Value.Int i ])
  in
  oneof
    [ gen_value;
      (int_range 0 300 >>= fun depth -> leaf >>= nest depth);
      map (fun vs -> Value.List vs) (list_size (oneofl [ 127; 128 ]) leaf) ]

let prop_encoded_size =
  QCheck.Test.make ~name:"encoded_size = length of encode" ~count:200
    (QCheck.make ~print:Value.to_string gen_sized_value)
    (fun v ->
      let s = Codec.encode v in
      Codec.encoded_size v = String.length s && Value.equal v (Codec.decode s))

let prop_frame =
  QCheck.Test.make ~name:"frame roundtrip" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s -> String.equal s (Codec.unframe (Codec.frame s)))

(* Boundary-biased generators: random draws almost never hit the
   encoding's interesting seams (7-bit group boundaries, the sign
   pivot of zigzag, min_int whose negation overflows), so mix explicit
   boundary values into the distribution. *)
let varint_boundary_gen =
  QCheck.Gen.(
    let boundaries =
      oneofl
        (List.filter
           (fun n -> n >= 0)  (* 1 lsl 62 wraps to min_int on 64-bit *)
           ([ 0; 1; 127; 128; 255; 256; max_int; max_int - 1 ]
           @ List.concat_map
               (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
               [ 7; 14; 21; 28; 31; 32; 35; 42; 49; 56; 61; 62 ]))
    in
    oneof [ boundaries; map abs (int_range 0 max_int) ])

let zigzag_boundary_gen =
  QCheck.Gen.(
    let boundaries =
      oneofl
        ([ 0; 1; -1; 63; 64; -64; -65; min_int; min_int + 1; max_int;
           max_int - 1 ]
        @ List.concat_map
            (fun k ->
              [ (1 lsl k) - 1; 1 lsl k; - (1 lsl k); - (1 lsl k) - 1 ])
            [ 6; 13; 20; 27; 31; 34; 41; 48; 55; 61; 62 ])
    in
    oneof [ boundaries; int ])

let prop_varint_boundary_roundtrip =
  QCheck.Test.make ~name:"varint boundary roundtrip" ~count:500
    (QCheck.make ~print:string_of_int varint_boundary_gen)
    (fun n ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint w n;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Wire.Reader.varint r = n && Wire.Reader.remaining r = 0)

let prop_zigzag_boundary_roundtrip =
  QCheck.Test.make ~name:"zigzag boundary roundtrip (incl. min_int)" ~count:500
    (QCheck.make ~print:string_of_int zigzag_boundary_gen)
    (fun n ->
      let w = Wire.Writer.create () in
      Wire.Writer.zigzag w n;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Wire.Reader.zigzag r = n && Wire.Reader.remaining r = 0)

let prop_compare_reflexive =
  QCheck.Test.make ~name:"Value.compare reflexive & consistent with equal"
    ~count:300
    QCheck.(pair arb_value arb_value)
    (fun (a, b) ->
      Value.compare a a = 0
      && Value.equal a b = (Value.compare a b = 0))

let prop_varint_overflow_always_rejected =
  QCheck.Test.make ~count:200 ~name:"varint overflow encodings rejected"
    QCheck.(pair (int_bound 0x3f) (int_bound 0x7f))
    (fun (hi, extra) ->
      (* Two families of bad encodings: eight continuation bytes then a
         ninth carrying bit 62 or above, and ten-byte encodings (nine
         continuations then a terminator). Both must raise. *)
      let nine = String.make 8 '\x80' ^ String.make 1 (Char.chr (0x40 lor hi)) in
      let ten =
        String.make 9 (Char.chr (0x80 lor extra)) ^ String.make 1 (Char.chr extra)
      in
      List.for_all
        (fun enc ->
          let r = Wire.Reader.of_string enc in
          match Wire.Reader.varint r with
          | _ -> false
          | exception Wire.Malformed _ -> true)
        [ nine; ten ])

(* Reading or writing a varint allocates nothing. *)
let test_varint_no_alloc () =
  let values = [| 0; 1; 127; 128; 300; 16384; 1 lsl 30; max_int; -1; min_int |] in
  let n = 1000 in
  let w = Wire.Writer.create ~capacity:(n * 40) () in
  let words f =
    let a = Gc.minor_words () in
    f ();
    Gc.minor_words () -. a
  in
  let probe = words ignore in
  let wrote =
    words (fun () ->
        for i = 0 to n - 1 do
          let v = values.(i mod Array.length values) in
          if v >= 0 then Wire.Writer.varint w v;
          Wire.Writer.uvarint w v
        done)
  in
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  let sum = ref 0 in
  let read =
    words (fun () ->
        for i = 0 to n - 1 do
          let v = values.(i mod Array.length values) in
          if v >= 0 then sum := !sum + Wire.Reader.varint r;
          sum := !sum + Wire.Reader.uvarint r
        done)
  in
  Alcotest.(check bool) "read back to the end" true (Wire.Reader.at_end r);
  Alcotest.(check (float 0.)) "writers allocate nothing" 0. (wrote -. probe);
  Alcotest.(check (float 0.)) "readers allocate nothing" 0. (read -. probe)

let suite =
  ( "serial",
    [ Alcotest.test_case "varint examples" `Quick test_varint_examples;
      Alcotest.test_case "varint reads and writes allocate nothing" `Quick
        test_varint_no_alloc;
      Alcotest.test_case "varint rejects negatives" `Quick
        test_varint_negative_rejected;
      Alcotest.test_case "zigzag examples" `Quick test_zigzag_examples;
      Alcotest.test_case "mixed wire stream" `Quick test_mixed_stream;
      Alcotest.test_case "truncated read raises" `Quick test_truncated_read;
      Alcotest.test_case "crc32 known vector" `Quick test_crc32_known;
      Alcotest.test_case "writer: writes after contents" `Quick
        test_writer_after_contents;
      Alcotest.test_case "overlong varint rejected" `Quick
        test_varint_overlong_rejected;
      Alcotest.test_case "varint overflow rejected" `Quick
        test_varint_overflow_rejected;
      Alcotest.test_case "varint 62-bit edge" `Quick test_varint_62bit_edge;
      Alcotest.test_case "uvarint full width" `Quick test_uvarint_full_width;
      Alcotest.test_case "codec roundtrip examples" `Quick
        test_roundtrip_examples;
      Alcotest.test_case "decode rejects garbage" `Quick test_decode_garbage;
      Alcotest.test_case "clone is fresh" `Quick test_clone_fresh;
      Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
      Alcotest.test_case "frame detects corruption" `Quick
        test_frame_corruption;
      Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
      Alcotest.test_case "value weight/field" `Quick
        test_value_weight_and_field;
      Alcotest.test_case "unframe rejects lying length" `Quick
        test_unframe_length_lies;
      Alcotest.test_case "cursor class-id peek" `Quick test_cursor_class_id;
      Alcotest.test_case "cursor projection examples" `Quick
        test_cursor_projection_examples;
      Alcotest.test_case "cursor rejects malformed input" `Quick
        test_cursor_malformed_raises;
      Alcotest.test_case "cursor decode counters" `Quick test_cursor_counters;
      Alcotest.test_case "cursor over a substring slice" `Quick
        test_cursor_of_substring ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_cursor_agrees_with_decode; prop_roundtrip; prop_encoded_size;
          prop_crc32_slicing; prop_crc32_tables; prop_crc32_continue;
          prop_frame;
          prop_varint_boundary_roundtrip; prop_zigzag_boundary_roundtrip;
          prop_varint_overflow_always_rejected;
          prop_compare_reflexive ]
  )
