open Helpers
module Qos = Tpbs_types.Qos

let check_raises_type_error name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Type_error")
  | exception Registry.Type_error _ -> ()

let test_builtin_lattice () =
  let reg = Registry.create () in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (a ^ " <: " ^ b) true (Registry.subtype reg a b))
    [ "Obvent", "Obvent"; "Reliable", "Obvent"; "Certified", "Reliable";
      "Certified", "Obvent"; "TotalOrder", "Reliable"; "FIFOOrder", "Reliable";
      "CausalOrder", "FIFOOrder"; "CausalOrder", "Obvent"; "Timely", "Obvent";
      "Prioritary", "Obvent" ];
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (a ^ " not <: " ^ b) false (Registry.subtype reg a b))
    [ "Obvent", "Reliable"; "TotalOrder", "FIFOOrder"; "Timely", "Reliable";
      "Reliable", "Certified" ]

let test_stock_hierarchy () =
  let reg = stock_registry () in
  Alcotest.(check bool) "SpotPrice <: StockObvent" true
    (Registry.subtype reg "SpotPrice" "StockObvent");
  Alcotest.(check bool) "SpotPrice <: Obvent" true
    (Registry.subtype reg "SpotPrice" "Obvent");
  Alcotest.(check bool) "StockQuote not <: StockRequest" false
    (Registry.subtype reg "StockQuote" "StockRequest");
  let subs = Registry.subtypes reg "StockObvent" in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " among subtypes") true (List.mem t subs))
    [ "StockObvent"; "StockQuote"; "StockRequest"; "SpotPrice"; "MarketPrice" ];
  Alcotest.(check int) "exactly five subtypes" 5 (List.length subs)

let test_inherited_attributes_and_getters () =
  let reg = stock_registry () in
  let attrs = Registry.attrs_of reg "SpotPrice" in
  Alcotest.(check int) "inherits three attributes" 3 (List.length attrs);
  Alcotest.(check bool) "getPrice visible" true
    (Registry.method_ret reg "SpotPrice" "getPrice" = Some Vtype.Tfloat);
  Alcotest.(check bool) "getCompany returns string" true
    (Registry.method_ret reg "StockQuote" "getCompany" = Some Vtype.Tstring);
  Alcotest.(check bool) "no such method" true
    (Registry.method_ret reg "StockQuote" "getFoo" = None)

let test_interface_methods_visible () =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"Alarm" ~implements:[ "Prioritary" ]
    ~attrs:[ "priority", Vtype.Tint; "source", Vtype.Tstring ]
    ();
  Alcotest.(check bool) "getPriority on Alarm" true
    (Registry.method_ret reg "Alarm" "getPriority" = Some Vtype.Tint);
  Alcotest.(check bool) "getPriority on Prioritary itself" true
    (Registry.method_ret reg "Prioritary" "getPriority" = Some Vtype.Tint)

let test_unimplemented_interface_method_rejected () =
  let reg = Registry.create () in
  check_raises_type_error "missing getPriority" (fun () ->
      Registry.declare_class reg ~name:"BadAlarm" ~implements:[ "Prioritary" ]
        ~attrs:[ "source", Vtype.Tstring ]
        ())

let test_wrong_getter_type_rejected () =
  let reg = Registry.create () in
  check_raises_type_error "getPriority : string" (fun () ->
      Registry.declare_class reg ~name:"BadAlarm" ~implements:[ "Prioritary" ]
        ~attrs:[ "priority", Vtype.Tstring ]
        ())

let test_duplicate_rejected () =
  let reg = stock_registry () in
  check_raises_type_error "duplicate class" (fun () ->
      Registry.declare_class reg ~name:"StockQuote" ());
  check_raises_type_error "duplicate interface" (fun () ->
      Registry.declare_interface reg ~name:"Obvent" ())

let test_unknown_super_rejected () =
  let reg = Registry.create () in
  check_raises_type_error "unknown superclass" (fun () ->
      Registry.declare_class reg ~name:"X" ~extends:"Nope" ());
  check_raises_type_error "unknown interface" (fun () ->
      Registry.declare_class reg ~name:"X" ~implements:[ "Nope" ] ());
  check_raises_type_error "interface extending class" (fun () ->
      Registry.declare_class reg ~name:"C" ();
      Registry.declare_interface reg ~name:"I" ~extends:[ "C" ] ())

let test_extends_interface_rejected () =
  let reg = Registry.create () in
  check_raises_type_error "class extends interface" (fun () ->
      Registry.declare_class reg ~name:"X" ~extends:"Obvent" ())

let test_attr_shadowing_rejected () =
  let reg = stock_registry () in
  check_raises_type_error "shadow price with different type" (fun () ->
      Registry.declare_class reg ~name:"WeirdQuote" ~extends:"StockQuote"
        ~attrs:[ "price", Vtype.Tstring ]
        ())

let test_method_conflict_rejected () =
  let reg = Registry.create () in
  Registry.declare_interface reg ~name:"A" ~extends:[ "Obvent" ]
    ~methods:[ "getX", Vtype.Tint ]
    ();
  Registry.declare_interface reg ~name:"B" ~extends:[ "Obvent" ]
    ~methods:[ "getX", Vtype.Tstring ]
    ();
  check_raises_type_error "diamond with conflicting getX" (fun () ->
      Registry.declare_interface reg ~name:"AB" ~extends:[ "A"; "B" ] ())

let test_multiple_subtyping_diamond () =
  let reg = Registry.create () in
  (* Certified + TotalOrder: the paper's example of composing QoS. *)
  Registry.declare_interface reg ~name:"CertifiedTotal"
    ~extends:[ "Certified"; "TotalOrder" ]
    ();
  Alcotest.(check bool) "CT <: Certified" true
    (Registry.subtype reg "CertifiedTotal" "Certified");
  Alcotest.(check bool) "CT <: TotalOrder" true
    (Registry.subtype reg "CertifiedTotal" "TotalOrder");
  Alcotest.(check bool) "CT <: Reliable once-removed" true
    (Registry.subtype reg "CertifiedTotal" "Reliable")

let test_obvent_classes () =
  let reg = stock_registry () in
  Registry.declare_class reg ~name:"NotAnObvent" ~attrs:[ "x", Vtype.Tint ] ();
  let classes = Registry.obvent_classes reg in
  Alcotest.(check bool) "StockQuote is an obvent class" true
    (List.mem "StockQuote" classes);
  Alcotest.(check bool) "NotAnObvent excluded" false
    (List.mem "NotAnObvent" classes);
  Alcotest.(check bool) "interfaces excluded" false (List.mem "Obvent" classes)

let test_conforms () =
  let reg = stock_registry () in
  let good =
    Value.obj "StockQuote"
      [ "company", Value.Str "Telco"; "price", Value.Float 80.;
        "amount", Value.Int 10 ]
  in
  Alcotest.(check bool) "conforms to own class" true
    (Registry.conforms reg good "StockQuote");
  Alcotest.(check bool) "conforms to supertype" true
    (Registry.conforms reg good "StockObvent");
  Alcotest.(check bool) "conforms to Obvent" true
    (Registry.conforms reg good "Obvent");
  Alcotest.(check bool) "not a StockRequest" false
    (Registry.conforms reg good "StockRequest");
  let missing = Value.obj "StockQuote" [ "company", Value.Str "T" ] in
  Alcotest.(check bool) "missing attrs rejected" false
    (Registry.conforms reg missing "StockQuote");
  let bad_type =
    Value.obj "StockQuote"
      [ "company", Value.Int 3; "price", Value.Float 1.; "amount", Value.Int 1 ]
  in
  Alcotest.(check bool) "mistyped attr rejected" false
    (Registry.conforms reg bad_type "StockQuote");
  Alcotest.(check bool) "null conforms" true
    (Registry.conforms reg Value.Null "StockQuote")

(* --- QoS profiles (Fig. 3/4) --------------------------------------- *)

let profile reg name = fst (Qos.of_type reg name)
let conflicts reg name = snd (Qos.of_type reg name)

let test_qos_defaults () =
  let reg = stock_registry () in
  Alcotest.(check bool) "plain obvent is unreliable" true
    (Qos.equal (profile reg "StockQuote") Qos.unreliable)

let test_qos_markers () =
  let reg = Registry.create () in
  Registry.declare_interface reg ~name:"RObv" ~extends:[ "Reliable" ] ();
  Registry.declare_interface reg ~name:"CObv" ~extends:[ "Certified" ] ();
  Registry.declare_interface reg ~name:"TObv" ~extends:[ "TotalOrder" ] ();
  Registry.declare_interface reg ~name:"KObv" ~extends:[ "CausalOrder" ] ();
  let p = profile reg "RObv" in
  Alcotest.(check bool) "reliable" true p.Qos.reliable;
  Alcotest.(check bool) "not certified" false p.Qos.certified;
  let p = profile reg "CObv" in
  Alcotest.(check bool) "certified implies reliable" true
    (p.Qos.certified && p.Qos.reliable);
  let p = profile reg "TObv" in
  Alcotest.(check bool) "total order" true (p.Qos.order = Qos.Total);
  Alcotest.(check bool) "order implies reliable" true p.Qos.reliable;
  let p = profile reg "KObv" in
  Alcotest.(check bool) "causal order" true (p.Qos.order = Qos.Causal)

let test_qos_causal_total_combination () =
  let reg = Registry.create () in
  Registry.declare_interface reg ~name:"CT"
    ~extends:[ "CausalOrder"; "TotalOrder" ]
    ();
  Alcotest.(check bool) "causal+total" true
    ((profile reg "CT").Qos.order = Qos.Causal_total)

let test_qos_precedence_reliable_beats_timely () =
  let reg = Registry.create () in
  Registry.declare_interface reg ~name:"RT" ~extends:[ "Reliable"; "Timely" ] ();
  let p = profile reg "RT" in
  Alcotest.(check bool) "timely dropped" false p.Qos.timely;
  Alcotest.(check bool) "conflict reported" true
    (List.mem Qos.Timely_dropped (conflicts reg "RT"))

let test_qos_precedence_order_beats_priority () =
  let reg = Registry.create () in
  Registry.declare_interface reg ~name:"FP"
    ~extends:[ "FIFOOrder"; "Prioritary" ]
    ();
  let p = profile reg "FP" in
  Alcotest.(check bool) "priority dropped" false p.Qos.prioritary;
  Alcotest.(check bool) "conflict reported" true
    (List.mem Qos.Priority_dropped (conflicts reg "FP"))

let test_qos_compatible_combination_kept () =
  let reg = Registry.create () in
  (* Certified + Prioritary: no order, so priority survives. *)
  Registry.declare_interface reg ~name:"CP"
    ~extends:[ "Certified"; "Prioritary" ]
    ();
  let p = profile reg "CP" in
  Alcotest.(check bool) "priority kept" true p.Qos.prioritary;
  Alcotest.(check bool) "certified kept" true p.Qos.certified;
  Alcotest.(check (list (Alcotest.of_pp Fmt.nop))) "no conflicts" []
    (conflicts reg "CP")

let test_qos_unreliable_timely_kept () =
  let reg = Registry.create () in
  Registry.declare_interface reg ~name:"JustTimely" ~extends:[ "Timely" ] ();
  let p = profile reg "JustTimely" in
  Alcotest.(check bool) "timely kept" true p.Qos.timely;
  Alcotest.(check bool) "unreliable" false p.Qos.reliable

(* Random hierarchy generator: builds a registry with [n] interfaces
   and [n] classes, each extending earlier ones, and returns the
   registry plus names — declaration order guarantees acyclicity. *)
let random_hierarchy rng_seed n =
  let rng = Tpbs_sim.Rng.create rng_seed in
  let reg = Registry.create () in
  let interfaces = ref [ "Obvent" ] in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "I%d" i in
    let pool = Array.of_list !interfaces in
    let k = 1 + Tpbs_sim.Rng.int rng 2 in
    let extends =
      List.sort_uniq String.compare
        (List.init k (fun _ -> Tpbs_sim.Rng.pick rng pool))
    in
    Registry.declare_interface reg ~name ~extends ();
    interfaces := name :: !interfaces
  done;
  let classes = ref [] in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "C%d" i in
    let extends =
      match !classes with
      | [] -> None
      | cs ->
          if Tpbs_sim.Rng.bool rng 0.6 then
            Some (Tpbs_sim.Rng.pick rng (Array.of_list cs))
          else None
    in
    let implements =
      [ Tpbs_sim.Rng.pick rng (Array.of_list !interfaces) ]
    in
    Registry.declare_class reg ~name ?extends ~implements
      ~attrs:[ Printf.sprintf "a%d" i, Vtype.Tint ]
      ();
    classes := name :: !classes
  done;
  reg, !interfaces @ !classes

let prop_random_hierarchy_laws =
  QCheck.Test.make ~name:"random hierarchies: subtype laws + attrs monotone"
    ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 2 12))
    (fun (seed, n) ->
      let reg, names = random_hierarchy seed n in
      let arr = Array.of_list names in
      let rng = Tpbs_sim.Rng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 50 do
        let a = Tpbs_sim.Rng.pick rng arr
        and b = Tpbs_sim.Rng.pick rng arr
        and c = Tpbs_sim.Rng.pick rng arr in
        (* reflexivity *)
        if not (Registry.subtype reg a a) then ok := false;
        (* transitivity *)
        if
          Registry.subtype reg a b && Registry.subtype reg b c
          && not (Registry.subtype reg a c)
        then ok := false;
        (* subtypes/supertypes are converses *)
        if Registry.subtype reg a b && not (List.mem a (Registry.subtypes reg b))
        then ok := false;
        (* a class has at least as many attrs as its superclass *)
        if
          Registry.is_class reg a && Registry.is_class reg b
          && Registry.subtype reg a b
          && List.length (Registry.attrs_of reg a)
             < List.length (Registry.attrs_of reg b)
        then ok := false
      done;
      !ok)

(* --- registry vs. a from-scratch model ------------------------------- *)

(* The registry answers from descriptors built once per declaration; the
   model recomputes every answer from the raw declarations each time it
   is asked. *)
module Model = struct
  type t = (string, Registry.decl) Hashtbl.t

  let of_registry reg : t =
    let m = Hashtbl.create 32 in
    List.iter (fun n -> Hashtbl.replace m n (Registry.find reg n)) (Registry.all_types reg);
    m

  let find (m : t) n =
    match Hashtbl.find_opt m n with
    | Some d -> d
    | None -> raise (Registry.Type_error ("unknown type " ^ n))

  let rec ancestors m n =
    let d = find m n in
    List.sort_uniq String.compare (n :: List.concat_map (ancestors m) d.Registry.supers)

  let subtype m a b = List.mem b (ancestors m a)
  let is_class m n = match Hashtbl.find_opt m n with Some d -> d.Registry.kind = Registry.Class | None -> false
  let is_interface m n = match Hashtbl.find_opt m n with Some d -> d.Registry.kind = Registry.Interface | None -> false
  let is_obvent_type m n = Hashtbl.mem m n && subtype m n "Obvent"

  let rec attrs_of m n =
    if not (is_class m n) then []
    else
      let d = find m n in
      match List.find_opt (is_class m) d.Registry.supers with
      | Some parent -> attrs_of m parent @ d.Registry.attrs
      | None -> d.Registry.attrs

  let methods_of m n =
    let seen = Hashtbl.create 8 in
    List.concat_map
      (fun s ->
        List.filter
          (fun (me : Registry.meth) ->
            (not (Hashtbl.mem seen me.mname)) && (Hashtbl.add seen me.mname (); true))
          (find m s).Registry.methods)
      (ancestors m n)

  let rec conforms m (v : Value.t) t =
    match v with
    | Null -> is_class m t || is_interface m t
    | Obj o ->
        is_class m o.cls && subtype m o.cls t
        && List.for_all
             (fun (a, ty) ->
               match List.assoc_opt a o.fields with
               | None -> false
               | Some fv -> conforms_vtype m fv ty)
             (attrs_of m o.cls)
    | _ -> false

  and conforms_vtype m (v : Value.t) (ty : Vtype.t) =
    match ty, v with
    | Tobject c, (Obj _ | Null) -> conforms m v c
    | Tremote _, (Remote _ | Null) -> true
    | Tlist e, List vs -> List.for_all (fun x -> conforms_vtype m x e) vs
    | Tlist _, Null -> true
    | (Tbool | Tint | Tfloat | Tstring), _ -> Vtype.accepts ty v
    | _ -> false
end

type reg_op =
  | Decl_iface of int list
  | Decl_class of int option * int list * (int * int) list
  | Query of int * int * int

let gen_reg_op =
  QCheck.Gen.(
    frequency
      [ (2, map (fun l -> Decl_iface l) (list_size (int_range 0 2) nat));
        ( 3,
          map3
            (fun e i a -> Decl_class (e, i, a))
            (opt nat) (list_size (int_range 0 2) nat)
            (list_size (int_range 0 3) (pair (int_range 0 4) (int_range 0 6))) );
        (4, map3 (fun a b c -> Query (a, b, c)) nat nat nat) ])

let attr_pool = [| "a"; "b"; "c"; "d"; "timeToLive" |]

(* Either an answer or the exception it raised, compared as strings. *)
let outcome f = match f () with v -> Ok v | exception Registry.Type_error e -> Error e

let prop_registry_model =
  QCheck.Test.make ~name:"registry queries = from-scratch recomputation" ~count:200
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_reg_op))
    (fun ops ->
      let reg = Registry.create () in
      let model = Model.of_registry reg in
      let names = ref (Registry.all_types reg) and fresh = ref 0 in
      let pick k l = List.nth l (k mod List.length l) in
      let picks ks l = if l = [] then [] else List.sort_uniq compare (List.map (fun k -> pick k l) ks) in
      let ifaces () = List.filter (Model.is_interface model) !names in
      let classes () = List.filter (Model.is_class model) !names in
      let declare name f =
        match f () with
        | () ->
            Hashtbl.replace model name (Registry.find reg name);
            names := !names @ [ name ]
        | exception Registry.Type_error _ -> ()
      in
      let ty_of k =
        match k with
        | 0 -> Vtype.Tint | 1 -> Vtype.Tstring | 2 -> Vtype.Tbool | 3 -> Vtype.Tfloat
        | 4 -> Vtype.Tlist Vtype.Tint
        | _ -> (match classes () with [] -> Vtype.Tint | cs -> Vtype.Tobject (pick k cs))
      in
      (* A value for class [c] built from the model's layout, then
         perturbed by [seed]. *)
      let rec value_of c seed depth =
        let field (a, ty) =
          let v : Value.t =
            match (ty : Vtype.t) with
            | Tint -> Int seed | Tstring -> if seed land 1 = 0 then Str "s" else Null
            | Tbool -> Bool true | Tfloat -> Float 1.5
            | Tlist _ -> List [ Int 1; Int 2 ]
            | Tobject c' -> if depth > 1 || seed land 2 = 0 then Null else value_of c' (seed / 3) (depth + 1)
            | Tremote _ -> Null
          in
          (a, v)
        in
        let fields = List.map field (Model.attrs_of model c) in
        let fields =
          match seed mod 7 with
          | 0 -> (match fields with _ :: rest -> rest | [] -> fields)
          | 1 -> List.map (fun (a, _) -> (a, Value.Bool false)) fields
          | 2 -> fields @ [ ("zzz", Value.Int 0) ]
          | _ -> List.rev fields
        in
        Value.Obj { cls = (if seed mod 11 = 0 then "Nope" else c); fields }
      in
      List.for_all
        (function
          | Decl_iface supers ->
              incr fresh;
              let name = Printf.sprintf "I%d" !fresh in
              declare name (fun () ->
                  Registry.declare_interface reg ~name ~extends:(picks supers (ifaces ())) ());
              true
          | Decl_class (extends, impls, attrs) ->
              incr fresh;
              let name = Printf.sprintf "C%d" !fresh in
              let extends = Option.bind extends (fun k -> match classes () with [] -> None | cs -> Some (pick k cs)) in
              let attrs =
                List.sort_uniq (fun (a, _) (b, _) -> compare a b)
                  (List.map (fun (a, t) -> (attr_pool.(a), ty_of t)) attrs)
              in
              declare name (fun () ->
                  Registry.declare_class reg ~name ?extends
                    ~implements:(picks impls (ifaces ())) ~attrs ());
              true
          | Query (i, j, seed) ->
              let all = "Nope" :: !names in
              let a = pick i all and b = pick j all in
              outcome (fun () -> Registry.subtype reg a b) = outcome (fun () -> Model.subtype model a b)
              && Registry.attrs_of reg a = Model.attrs_of model a
              && Registry.is_obvent_type reg a = Model.is_obvent_type model a
              && outcome (fun () -> Registry.methods_of reg a) = outcome (fun () -> Model.methods_of model a)
              && outcome (fun () -> Registry.supertypes reg a) = outcome (fun () -> Model.ancestors model a)
              && (a = "Nope" || not (Model.is_class model a)
                 ||
                 let v = value_of a seed 0 in
                 Registry.conforms reg v b = Model.conforms model v b
                 && Registry.conforms reg v a = Model.conforms model v a))
        ops)

let prop_qos_resolution_invariants =
  QCheck.Test.make ~name:"qos profiles are always contradiction-free"
    ~count:40
    QCheck.(int_range 0 1000)
    (fun seed ->
      let reg, names = random_hierarchy seed 8 in
      List.for_all
        (fun name ->
          if Registry.is_obvent_type reg name then begin
            let p, _ = Qos.of_type reg name in
            (* Fig. 4 invariants after resolution. *)
            (not (p.Qos.timely && p.Qos.reliable))
            && (not (p.Qos.prioritary && p.Qos.order <> Qos.No_order))
            && ((not p.Qos.certified) || p.Qos.reliable)
            && ((not (Qos.order_requires_reliability p.Qos.order))
               || p.Qos.reliable)
          end
          else true)
        names)

let prop_subtype_reflexive_transitive =
  QCheck.Test.make ~name:"subtype reflexive and transitive on stock lattice"
    ~count:100
    QCheck.(
      triple
        (oneofl [ "StockObvent"; "StockQuote"; "SpotPrice"; "MarketPrice";
                  "StockRequest"; "Obvent"; "Reliable" ])
        (oneofl [ "StockObvent"; "StockQuote"; "SpotPrice"; "MarketPrice";
                  "StockRequest"; "Obvent"; "Reliable" ])
        (oneofl [ "StockObvent"; "StockQuote"; "SpotPrice"; "MarketPrice";
                  "StockRequest"; "Obvent"; "Reliable" ]))
    (fun (a, b, c) ->
      let reg = stock_registry () in
      Registry.subtype reg a a
      && ((not (Registry.subtype reg a b && Registry.subtype reg b c))
         || Registry.subtype reg a c))

let suite =
  ( "typesys",
    [ Alcotest.test_case "builtin lattice" `Quick test_builtin_lattice;
      Alcotest.test_case "stock hierarchy" `Quick test_stock_hierarchy;
      Alcotest.test_case "inherited attributes/getters" `Quick
        test_inherited_attributes_and_getters;
      Alcotest.test_case "interface methods visible" `Quick
        test_interface_methods_visible;
      Alcotest.test_case "unimplemented interface method rejected" `Quick
        test_unimplemented_interface_method_rejected;
      Alcotest.test_case "wrong getter type rejected" `Quick
        test_wrong_getter_type_rejected;
      Alcotest.test_case "duplicates rejected" `Quick test_duplicate_rejected;
      Alcotest.test_case "unknown supertypes rejected" `Quick
        test_unknown_super_rejected;
      Alcotest.test_case "class extending interface rejected" `Quick
        test_extends_interface_rejected;
      Alcotest.test_case "attribute shadowing rejected" `Quick
        test_attr_shadowing_rejected;
      Alcotest.test_case "method conflicts rejected" `Quick
        test_method_conflict_rejected;
      Alcotest.test_case "multiple subtyping diamond" `Quick
        test_multiple_subtyping_diamond;
      Alcotest.test_case "obvent classes enumeration" `Quick
        test_obvent_classes;
      Alcotest.test_case "runtime conformance" `Quick test_conforms;
      Alcotest.test_case "qos: default unreliable" `Quick test_qos_defaults;
      Alcotest.test_case "qos: markers" `Quick test_qos_markers;
      Alcotest.test_case "qos: causal+total" `Quick
        test_qos_causal_total_combination;
      Alcotest.test_case "qos: reliable beats timely" `Quick
        test_qos_precedence_reliable_beats_timely;
      Alcotest.test_case "qos: order beats priority" `Quick
        test_qos_precedence_order_beats_priority;
      Alcotest.test_case "qos: compatible combination kept" `Quick
        test_qos_compatible_combination_kept;
      Alcotest.test_case "qos: unreliable timely kept" `Quick
        test_qos_unreliable_timely_kept ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_subtype_reflexive_transitive; prop_random_hierarchy_laws;
          prop_qos_resolution_invariants; prop_registry_model ]
  )
