open Helpers
module Codec = Tpbs_serial.Codec

let check_raises_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_obvent")
  | exception Obvent.Invalid_obvent _ -> ()

let test_make_and_getters () =
  let reg = stock_registry () in
  let q = quote reg () in
  Alcotest.(check string) "class" "StockQuote" (Obvent.cls q);
  Alcotest.check value_testable "company" (Value.Str "Telco Mobiles")
    (Obvent.get q "company");
  Alcotest.check value_testable "getPrice()" (Value.Float 80.)
    (Obvent.invoke reg q "getPrice");
  Alcotest.check value_testable "getAmount()" (Value.Int 10)
    (Obvent.invoke reg q "getAmount")

let test_field_order_normalized () =
  let reg = stock_registry () in
  let a =
    Obvent.make reg "StockQuote"
      [ "amount", Value.Int 1; "price", Value.Float 2.; "company", Value.Str "X" ]
  and b =
    Obvent.make reg "StockQuote"
      [ "company", Value.Str "X"; "price", Value.Float 2.; "amount", Value.Int 1 ]
  in
  Alcotest.(check bool) "same content regardless of field order" true
    (Obvent.equal_content a b)

let test_validation_errors () =
  let reg = stock_registry () in
  check_raises_invalid "unknown class" (fun () ->
      Obvent.make reg "Nope" []);
  check_raises_invalid "interface not instantiable" (fun () ->
      Obvent.make reg "Obvent" []);
  check_raises_invalid "missing attribute" (fun () ->
      Obvent.make reg "StockQuote" [ "company", Value.Str "X" ]);
  check_raises_invalid "mistyped attribute" (fun () ->
      Obvent.make reg "StockQuote"
        [ "company", Value.Str "X"; "price", Value.Str "80";
          "amount", Value.Int 1 ]);
  check_raises_invalid "extra field" (fun () ->
      Obvent.make reg "StockQuote"
        [ "company", Value.Str "X"; "price", Value.Float 1.;
          "amount", Value.Int 1; "extra", Value.Int 0 ]);
  let reg2 = Registry.create () in
  Registry.declare_class reg2 ~name:"Plain" ~attrs:[] ();
  check_raises_invalid "not an obvent type" (fun () ->
      ignore (Obvent.make reg2 "Plain" []))

let test_serialization_roundtrip () =
  let reg = stock_registry () in
  let q = quote reg ~company:"Acme" ~price:12.5 ~amount:3 () in
  let q' = Obvent.deserialize reg (Obvent.serialize q) in
  Alcotest.(check bool) "content preserved" true (Obvent.equal_content q q');
  Alcotest.(check bool) "fresh uid" true (Obvent.uid q <> Obvent.uid q')

let test_clone_uniqueness () =
  (* Obvent Local Uniqueness (§2.1.2): each notifiable gets its own copy. *)
  let reg = stock_registry () in
  let original = quote reg () in
  let copy1 = Obvent.clone reg original in
  let copy2 = Obvent.clone reg original in
  Alcotest.(check bool) "distinct uids" true
    (Obvent.uid copy1 <> Obvent.uid copy2
    && Obvent.uid copy1 <> Obvent.uid original);
  Alcotest.(check bool) "equal content" true (Obvent.equal_content copy1 copy2)

let test_instance_of () =
  let reg = stock_registry () in
  let spot =
    Obvent.make reg "SpotPrice"
      [ "company", Value.Str "T"; "price", Value.Float 1.; "amount", Value.Int 1 ]
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) ("instance of " ^ t) true
        (Obvent.instance_of reg spot t))
    [ "SpotPrice"; "StockRequest"; "StockObvent"; "Obvent" ];
  Alcotest.(check bool) "not a quote" false
    (Obvent.instance_of reg spot "StockQuote")

let test_invoke_rejects_unknown () =
  let reg = stock_registry () in
  let q = quote reg () in
  check_raises_invalid "unknown method" (fun () ->
      Obvent.invoke reg q "getNope")

let test_deserialize_rejects_garbage () =
  let reg = stock_registry () in
  check_raises_invalid "garbage bytes" (fun () ->
      Obvent.deserialize reg "\xff\xff");
  (* A well-formed value that is not a conforming obvent. *)
  check_raises_invalid "non-obvent value" (fun () ->
      Obvent.deserialize reg (Tpbs_serial.Codec.encode (Value.Int 3)));
  check_raises_invalid "unknown class payload" (fun () ->
      Obvent.deserialize reg
        (Tpbs_serial.Codec.encode (Value.obj "Mystery" [])))

let test_qos_helpers () =
  let reg = stock_registry () in
  Registry.declare_class reg ~name:"UrgentQuote" ~extends:"StockQuote"
    ~implements:[ "Prioritary"; "Timely" ]
    ~attrs:
      [ "priority", Vtype.Tint; "timeToLive", Vtype.Tint; "birth", Vtype.Tint ]
    ();
  let u =
    Obvent.make reg "UrgentQuote"
      [ "company", Value.Str "T"; "price", Value.Float 1.;
        "amount", Value.Int 1; "priority", Value.Int 7;
        "timeToLive", Value.Int 500; "birth", Value.Int 42 ]
  in
  Alcotest.(check int) "priority" 7 (Obvent.priority reg u);
  Alcotest.(check (option int)) "ttl" (Some 500) (Obvent.time_to_live reg u);
  Alcotest.(check (option int)) "birth" (Some 42) (Obvent.birth reg u);
  let q = quote reg () in
  Alcotest.(check int) "default priority" 0 (Obvent.priority reg q);
  Alcotest.(check (option int)) "no ttl" None (Obvent.time_to_live reg q)

(* --- copy-on-write views (§2.1.2 without the decode) ----------------- *)

let test_cow_view_identity () =
  let reg = stock_registry () in
  let src = quote reg () in
  let v1 = Obvent.view src in
  let v2 = Obvent.view src in
  Alcotest.(check bool) "source is not a view" false (Obvent.is_view src);
  Alcotest.(check bool) "views are views" true
    (Obvent.is_view v1 && Obvent.is_view v2);
  Alcotest.(check bool) "all uids distinct" true
    (List.length
       (List.sort_uniq Int.compare
          (List.map Obvent.uid [ src; v1; v2 ]))
    = 3);
  Alcotest.(check bool) "content shared" true
    (Obvent.equal_content src v1 && Obvent.equal_content v1 v2)

let test_cow_mutation_isolation () =
  let reg = stock_registry () in
  let src = quote reg ~price:80. () in
  let v1 = Obvent.view src in
  let v2 = Obvent.view src in
  Obvent.set reg v1 "price" (Value.Float 1.);
  Alcotest.check value_testable "written view sees the write"
    (Value.Float 1.) (Obvent.get v1 "price");
  Alcotest.check value_testable "source untouched" (Value.Float 80.)
    (Obvent.get src "price");
  Alcotest.check value_testable "sibling view untouched" (Value.Float 80.)
    (Obvent.get v2 "price");
  Alcotest.(check bool) "write materialized the view" false
    (Obvent.is_view v1);
  Alcotest.(check bool) "sibling still shares" true (Obvent.is_view v2);
  (* The other direction: a write through the source must not leak
     into a still-shared view. *)
  Obvent.set reg src "amount" (Value.Int 999);
  Alcotest.check value_testable "view isolated from source write"
    (Value.Int 10) (Obvent.get v2 "amount")

let test_cow_setter_path () =
  let reg = stock_registry () in
  let v = Obvent.view (quote reg ()) in
  Obvent.invoke_setter reg v "setPrice" (Value.Float 2.5);
  Alcotest.check value_testable "setter wrote through" (Value.Float 2.5)
    (Obvent.get v "price");
  Alcotest.(check (option string)) "attr_of_setter" (Some "price")
    (Obvent.attr_of_setter "setPrice");
  Alcotest.(check (option string)) "not a setter" None
    (Obvent.attr_of_setter "getPrice");
  check_raises_invalid "unknown attribute" (fun () ->
      Obvent.set reg v "nope" (Value.Int 1));
  check_raises_invalid "mistyped write" (fun () ->
      Obvent.set reg v "price" (Value.Str "cheap"));
  check_raises_invalid "non-setter method" (fun () ->
      Obvent.invoke_setter reg v "getPrice" (Value.Int 1))

let test_cow_stats_accounting () =
  let reg = stock_registry () in
  let before = Obvent.cow_stats () in
  let src = quote reg () in
  let v1 = Obvent.view src in
  let _v2 = Obvent.view src in
  Obvent.set reg v1 "price" (Value.Float 3.);
  Obvent.set reg v1 "price" (Value.Float 4.);  (* second write: no-op *)
  let after = Obvent.cow_stats () in
  Alcotest.(check int) "two views minted" 2 (after.views - before.views);
  Alcotest.(check int) "one materialization" 1
    (after.materializations - before.materializations)

let prop_view_equiv_clone =
  QCheck.Test.make
    ~name:"cow view == round-trip clone (fresh identity, isolation)"
    ~count:300
    (QCheck.pair
       (QCheck.make (gen_quote (stock_registry ())))
       QCheck.(float_range 0. 500.))
    (fun (q, new_price) ->
      let reg = stock_registry () in
      let v = Obvent.view q in
      let c = Obvent.clone reg q in
      (* Identical observable state, pairwise-distinct identity. *)
      Obvent.equal_content v c
      && Obvent.cls v = Obvent.cls c
      && Obvent.uid v <> Obvent.uid q
      && Obvent.uid v <> Obvent.uid c
      &&
      (* A write through the view behaves exactly like a write through
         the round-trip clone: visible there, invisible everywhere
         else. *)
      let before = Obvent.get q "price" in
      Obvent.set reg v "price" (Value.Float new_price);
      Value.equal (Obvent.get v "price") (Value.Float new_price)
      && Value.equal (Obvent.get q "price") before
      && Value.equal (Obvent.get c "price") before)

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"obvent serialize/deserialize preserves content"
    ~count:300
    (QCheck.make (gen_quote (stock_registry ())))
    (fun q ->
      let reg = stock_registry () in
      let q' = Obvent.deserialize reg (Obvent.serialize q) in
      Obvent.equal_content q q' && Obvent.uid q <> Obvent.uid q')

let prop_conforms_iff_deserializable =
  QCheck.Test.make
    ~name:"registry conformance <=> obvent adoption succeeds" ~count:200
    Helpers.arb_value
    (fun v ->
      let reg = stock_registry () in
      let conforming =
        match v with
        | Value.Obj o ->
            Registry.exists reg o.cls && Registry.conforms reg v o.cls
            && Registry.is_obvent_type reg o.cls
        | _ -> false
      in
      let adopted =
        match Obvent.of_value reg v with
        | _ -> true
        | exception Obvent.Invalid_obvent _ -> false
      in
      conforming = adopted)

(* --- schema-directed decode vs. the general route ------------------- *)

let nest_registry () =
  let reg = stock_registry () in
  Registry.declare_class reg ~name:"Nest" ~implements:[ "Obvent" ]
    ~attrs:
      [ ("quote", Vtype.Tobject "StockQuote"); ("tags", Vtype.Tlist Vtype.Tstring);
        ("ok", Vtype.Tbool); ("weight", Vtype.Tfloat); ("note", Vtype.Tstring) ]
    ();
  Registry.declare_class reg ~name:"Plain" ~attrs:[ ("x", Vtype.Tint) ] ();
  (* re-declares an inherited attribute: its layout repeats "price" *)
  Registry.declare_class reg ~name:"Reprice" ~extends:"StockQuote"
    ~attrs:[ ("price", Vtype.Tfloat); ("venue", Vtype.Tstring) ]
    ();
  reg

(* Canonical fields of [cls], drawn from [st]. *)
let canonical_fields reg st cls =
  let rec value (ty : Vtype.t) : Value.t =
    match ty with
    | Tint -> Int (Random.State.int st 1000 - 500)
    | Tfloat -> Float (float_of_int (Random.State.int st 100) /. 4.)
    | Tbool -> Bool (Random.State.bool st)
    | Tstring -> if Random.State.int st 5 = 0 then Null else Str (String.make (Random.State.int st 6) 'x')
    | Tlist t -> List (List.init (Random.State.int st 3) (fun _ -> value t))
    | Tobject c ->
        if Random.State.bool st then Null
        else Obj { cls = c; fields = List.map (fun (a, t) -> (a, value t)) (Registry.attrs_of reg c) }
    | Tremote _ -> Null
  in
  List.map (fun (a, t) -> (a, value t)) (Registry.attrs_of reg cls)

(* A perturbed obvent value: [kind] picks the deviation (0 = none). *)
let perturbed reg st kind =
  let cls = [| "StockQuote"; "SpotPrice"; "Nest"; "Reprice" |].(Random.State.int st 4) in
  let fields = canonical_fields reg st cls in
  let n = List.length fields in
  let fields, cls =
    match kind with
    | 1 -> (List.rev fields, cls)
    | 2 -> (List.filteri (fun i _ -> i <> Random.State.int st n) fields, cls)
    | 3 -> (fields @ [ ("extra", Value.Int 1) ], cls)
    | 4 -> (fields @ [ List.hd fields ], cls)
    | 5 ->
        let k = Random.State.int st n in
        (List.mapi (fun i (a, v) -> (a, if i = k then Value.List [ Value.Int 0 ] else v)) fields, cls)
    | 6 -> (fields, [| "Reliable"; "Plain"; "Nope"; "Obvent" |].(Random.State.int st 4))
    | 7 -> (List.map (fun (a, v) -> (a, if a = "quote" then Value.Obj { cls = "StockQuote"; fields = [] } else v)) fields, cls)
    | _ -> (fields, cls)
  in
  Value.Obj { cls; fields }

let outcome f =
  match f () with
  | o -> Ok (Obvent.cls o, Obvent.fields o)
  | exception e -> Error (Printexc.to_string e)

let prop_deserialize_sub_oracle =
  QCheck.Test.make ~name:"deserialize_sub = Codec.decode_sub + of_value" ~count:1000
    QCheck.(triple (int_range 0 8) (int_range 0 4) int)
    (fun (kind, damage, seed) ->
      let reg = nest_registry () in
      let st = Random.State.make [| seed |] in
      let s = Codec.encode (perturbed reg st kind) in
      let s =
        match damage with
        | 1 -> String.sub s 0 (Random.State.int st (String.length s))
        | 2 -> s ^ "\000"
        | 3 ->
            let b = Bytes.of_string s in
            let k = Random.State.int st (Bytes.length b) in
            Bytes.set b k (Char.chr (Random.State.int st 256));
            Bytes.to_string b
        | _ -> s
      in
      let pre = String.make (Random.State.int st 4) '\007' in
      let buf = pre ^ s ^ "\255\255" in
      let off = String.length pre and len = String.length s in
      let general () =
        match Codec.decode_sub buf ~off ~len with
        | v -> Obvent.of_value reg v
        | exception Codec.Decode_error m -> raise (Obvent.Invalid_obvent ("deserialize: " ^ m))
      in
      let fast = outcome (fun () -> Obvent.deserialize_sub reg buf ~off ~len) in
      let slow = outcome general in
      if compare fast slow <> 0 then
        QCheck.Test.fail_reportf "kind %d damage %d: %s" kind damage
          (match fast, slow with
          | Error a, Error b -> a ^ " vs " ^ b
          | Ok _, Error b -> "fast succeeded, general: " ^ b
          | Error a, Ok _ -> "general succeeded, fast: " ^ a
          | Ok _, Ok _ -> "different content");
      true)

(* [make] adopts fields given in declaration order as they are and
   normalizes any other accepted order: either way the obvent holds the
   declaration order (the first of duplicated fields wins), and it
   rejects exactly what validation rejects. *)
let prop_make_oracle =
  QCheck.Test.make ~name:"make = validate-then-normalize" ~count:500
    QCheck.(pair (int_range 0 8) int)
    (fun (kind, seed) ->
      let reg = nest_registry () in
      let st = Random.State.make [| seed |] in
      match perturbed reg st kind with
      | Value.Obj { cls; fields } ->
          let declared = Registry.attrs_of reg cls in
          let expected =
            if
              Registry.is_class reg cls && Registry.is_obvent_type reg cls
              && List.for_all (fun (a, _) -> List.mem_assoc a declared) fields
              && List.for_all
                   (fun (a, ty) ->
                     match List.assoc_opt a fields with
                     | Some v -> Registry.conforms_vtype reg v ty
                     | None -> false)
                   declared
            then Ok (cls, List.map (fun (a, _) -> (a, List.assoc a fields)) declared)
            else Error ()
          in
          let got =
            match Obvent.make reg cls fields with
            | o -> Ok (Obvent.cls o, Obvent.fields o)
            | exception Obvent.Invalid_obvent _ -> Error ()
          in
          compare got expected = 0
      | _ -> false)

(* The allocation-free getter test filter evaluation uses agrees with
   the getter-name convention. *)
let test_getter_of_attr () =
  List.iter
    (fun (m, attr) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s reads %s" m attr)
        (Obvent.attr_of_getter m = Some attr)
        (Obvent.getter_of_attr m attr))
    [ ("getPrice", "price"); ("getPrice", "Price"); ("getprice", "price");
      ("getURL", "uRL"); ("getURL", "url"); ("get", ""); ("getX", "x");
      ("getX", "xy"); ("setPrice", "price"); ("gotPrice", "price");
      ("getPrices", "price"); ("price", "price"); ("", "") ]

let suite =
  ( "obvent",
    [ Alcotest.test_case "make and getters" `Quick test_make_and_getters;
      Alcotest.test_case "field order normalized" `Quick
        test_field_order_normalized;
      Alcotest.test_case "validation errors" `Quick test_validation_errors;
      Alcotest.test_case "serialization roundtrip" `Quick
        test_serialization_roundtrip;
      Alcotest.test_case "clone uniqueness (§2.1.2)" `Quick
        test_clone_uniqueness;
      Alcotest.test_case "instance_of over hierarchy" `Quick test_instance_of;
      Alcotest.test_case "invoke rejects unknown methods" `Quick
        test_invoke_rejects_unknown;
      Alcotest.test_case "deserialize rejects garbage" `Quick
        test_deserialize_rejects_garbage;
      Alcotest.test_case "qos helper getters" `Quick test_qos_helpers;
      Alcotest.test_case "cow view identity" `Quick test_cow_view_identity;
      Alcotest.test_case "cow mutation isolation (§2.1.2)" `Quick
        test_cow_mutation_isolation;
      Alcotest.test_case "cow setter path + validation" `Quick
        test_cow_setter_path;
      Alcotest.test_case "cow stats accounting" `Quick
        test_cow_stats_accounting;
      Alcotest.test_case "getter_of_attr = attr_of_getter" `Quick
        test_getter_of_attr ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_view_equiv_clone; prop_serialize_roundtrip;
          prop_conforms_iff_deserializable; prop_deserialize_sub_oracle;
          prop_make_oracle ] )
