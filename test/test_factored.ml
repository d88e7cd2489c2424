(* The compound filter against its specification: per-filter
   [Rfilter.eval].

   - a model-based property: random add/remove interleavings over
     filter shapes that exercise every index (clustered conjunctions,
     counting conjunctions, formulas, shared atoms, numeric promotion,
     missing paths), with resolvers that fail partway through a pass;
   - churn: adding and removing many distinct filters leaves the
     index where the live filters put it;
   - the matcher's own allocation on an event that matches nothing. *)

module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Rfilter = Tpbs_filter.Rfilter
module Factored = Tpbs_filter.Factored

(* --- filters and events ------------------------------------------------- *)

let atom getters cmp const = Rfilter.Atom { path = getters; cmp; const }
let vstr s = Value.Str s
let vint k = Value.Int k
let sym = [ "getSym" ]
let price = [ "getPrice" ]
let note = [ "getNote" ]
let leg_x = [ "getLeg"; "getX" ]

(* A step that is not getter-shaped never resolves. *)
let unresolvable = [ "size" ]

let rfilter formula : Rfilter.t =
  (* Through the wire form, so [paths] is what [of_value] computes. *)
  Option.get (Rfilter.of_value (Rfilter.to_value { param = "T"; paths = [||]; formula }))

let syms = [| "A"; "B"; "C"; "D" |]

let gen_num =
  let open QCheck.Gen in
  oneof
    [ map vint (int_range 0 20);
      map (fun k -> Value.Float (float_of_int k)) (int_range 0 20);
      map (fun k -> Value.Float (float_of_int k +. 0.5)) (int_range 0 20) ]

let gen_band =
  QCheck.Gen.(
    map2
      (fun lo hi -> [ atom price Cge lo; atom price Clt hi ])
      gen_num gen_num)

let gen_eq_sym = QCheck.Gen.(map (fun s -> atom sym Ceq (vstr s)) (oneofa syms))

let gen_leaf =
  let open QCheck.Gen in
  frequency
    [ (3, gen_eq_sym);
      ( 3,
        map2
          (fun cmp k -> atom price cmp k)
          (oneofl Rfilter.[ Ceq; Cne; Clt; Cle; Cgt; Cge ])
          gen_num );
      (1, map (fun s -> atom sym Cne (vstr s)) (oneofa syms));
      (1, map (fun s -> atom note Ccontains (vstr s)) (oneofl [ "ab"; "b"; ""; "zz" ]));
      (1, map (fun s -> atom note Cprefix (vstr s)) (oneofl [ "ab"; "x"; "" ]));
      (1, map (fun s -> atom note Clt (vstr s)) (oneofl [ "b"; "m" ]));
      (1, map (fun k -> atom leg_x Ceq (vint k)) (int_range 0 3));
      (1, map (fun k -> atom unresolvable Cne (vint k)) (int_range 0 3));
      (1, map (fun b -> atom [ "getFlag" ] Ceq (Value.Bool b)) bool) ]

let gen_formula =
  let open QCheck.Gen in
  frequency
    [ (* clustered: equality plus a price band on shared paths *)
      (5, map2 (fun eq band -> Rfilter.And (eq :: band)) gen_eq_sym gen_band);
      (* two equalities on one path *)
      (2, map2 (fun a b -> Rfilter.And [ a; b ]) gen_eq_sym gen_eq_sym);
      (* equality-free conjunction sharing the band atoms *)
      (3, map (fun band -> Rfilter.And band) gen_band);
      (2, map (fun l -> Rfilter.And l) (list_size (int_range 1 4) gen_leaf));
      (2, gen_leaf);
      ( 2,
        map2
          (fun a b -> Rfilter.Or [ a; Rfilter.Not b ])
          (map (fun l -> Rfilter.And l) (list_size (int_range 1 3) gen_leaf))
          gen_leaf );
      (1, map (fun a -> Rfilter.Not a) gen_leaf);
      (1, oneofl Rfilter.[ True; False ]) ]

let gen_event =
  let open QCheck.Gen in
  let field name gen = map (fun v -> Option.map (fun v -> (name, v)) v) gen in
  let maybe gen = frequency [ (1, return None); (6, map Option.some gen) ] in
  map
    (fun fields -> Value.Obj { cls = "T"; fields = List.filter_map Fun.id fields })
    (flatten_l
       [ field "sym"
           (maybe
              (frequency
                 [ (6, map vstr (oneofa syms)); (1, return (vint 1)) ]));
         field "price" (maybe gen_num);
         field "note"
           (maybe (map vstr (oneofl [ "abc"; "xab"; "b"; ""; "zz" ])));
         field "leg"
           (maybe
              (oneof
                 [ return Value.Null;
                   map (fun k -> Value.obj "Leg" [ ("x", vint k) ]) (int_range 0 3) ]));
         field "flag" (maybe (map (fun b -> Value.Bool b) bool)) ])

(* --- model-based interleavings ------------------------------------------ *)

type op =
  | Add of Rfilter.formula
  | Remove of int  (* picks among the live ids *)
  | Match of Value.t
  | Faulty of Value.t * int  (* a pass whose resolver raises at call k *)

let gen_op =
  QCheck.Gen.(
    frequency
      [ (6, map (fun f -> Add f) gen_formula);
        (3, map (fun k -> Remove k) (int_range 0 1000));
        (4, map (fun e -> Match e) gen_event);
        (1, map2 (fun e k -> Faulty (e, k)) gen_event (int_range 0 4)) ])

let print_op = function
  | Add f -> Fmt.str "add %a" Rfilter.pp_formula f
  | Remove k -> Printf.sprintf "remove#%d" k
  | Match e -> "match " ^ Value.to_string e
  | Faulty (e, k) -> Printf.sprintf "faulty@%d %s" k (Value.to_string e)

(* The resolver over a value: an attribute chain through nested
   objects. *)
let rec value_at (v : Value.t) = function
  | [] -> Some v
  | attr :: rest -> (
      match v with
      | Obj o -> Option.bind (List.assoc_opt attr o.fields) (fun v -> value_at v rest)
      | _ -> None)

let oracle live event =
  List.filter_map (fun (id, rf) -> if Rfilter.eval rf event then Some id else None) live
  |> List.sort Int.compare

let run_script ops =
  let f = Factored.create () in
  let live = ref [] and next = ref 0 in
  List.for_all
    (fun op ->
      match op with
      | Add formula ->
          let rf = rfilter formula in
          Factored.add f ~id:!next rf;
          live := (!next, rf) :: !live;
          incr next;
          true
      | Remove k -> (
          match !live with
          | [] -> true
          | l ->
              let id, _ = List.nth l (k mod List.length l) in
              Factored.remove f ~id;
              live := List.remove_assoc id l;
              true)
      | Match event -> Factored.matches f event = oracle !live event
      | Faulty (event, k) -> (
          let calls = ref 0 in
          let resolve attrs =
            if !calls = k then raise (Codec.Decode_error "truncated");
            incr calls;
            value_at event attrs
          in
          match Factored.matches_resolve f resolve with
          | ids -> ids = oracle !live event
          | exception Codec.Decode_error _ -> true))
    ops
  && (Factored.stats f).subscriptions = List.length !live

let prop_model =
  QCheck.Test.make ~name:"factored add/remove/match = per-filter eval" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    run_script

(* A failed pass leaves nothing behind: the very next event matches. *)
let test_faulty_then_clean () =
  let f = Factored.create () in
  let filters =
    [ Rfilter.And [ atom sym Ceq (vstr "A"); atom price Cge (vint 5) ];
      Rfilter.And [ atom price Cge (vint 5); atom price Clt (vint 10) ];
      Rfilter.Or
        [ atom note Ccontains (vstr "b"); Rfilter.Not (atom sym Ceq (vstr "A")) ] ]
  in
  let live = List.mapi (fun id formula -> (id, rfilter formula)) filters in
  List.iter (fun (id, rf) -> Factored.add f ~id rf) live;
  let hit =
    Value.obj "T" [ ("sym", vstr "A"); ("price", vint 7); ("note", vstr "abc") ]
  in
  let miss = Value.obj "T" [ ("sym", vstr "A"); ("price", vint 1); ("note", vstr "x") ] in
  for k = 0 to 2 do
    let calls = ref 0 in
    (match
       Factored.matches_resolve f (fun attrs ->
           if !calls = k then raise (Codec.Decode_error "cut");
           incr calls;
           value_at hit attrs)
     with
    | _ -> Alcotest.fail "resolver failure swallowed"
    | exception Codec.Decode_error _ -> ());
    Alcotest.(check (list int)) "next event: nothing" (oracle live miss)
      (Factored.matches f miss);
    Alcotest.(check (list int)) "then all three" [ 0; 1; 2 ] (Factored.matches f hit)
  done

(* --- churn -------------------------------------------------------------- *)

let band_filter k =
  rfilter
    (Rfilter.And
       [ atom sym Ceq (vstr (Printf.sprintf "S%d" (k mod 97)));
         atom price Cge (vint k);
         atom price Clt (vint (k + 3)) ])

let mixed_filter k =
  match k mod 3 with
  | 0 -> band_filter k
  | 1 ->
      rfilter
        (Rfilter.And [ atom price Cgt (vint k); atom note Cne (vstr (string_of_int k)) ])
  | _ ->
      rfilter
        (Rfilter.Or
           [ atom note Cprefix (vstr (string_of_int k));
             Rfilter.Not (atom leg_x Ceq (vint k)) ])

let test_churn_releases () =
  let f = Factored.create () in
  let live = List.init 100 (fun k -> (k, mixed_filter k)) in
  List.iter (fun (id, rf) -> Factored.add f ~id rf) live;
  let base = Factored.stats f in
  for k = 100 to 20_099 do
    Factored.add f ~id:k (mixed_filter k);
    Factored.remove f ~id:k
  done;
  let after = Factored.stats f in
  Alcotest.(check int) "subscriptions back" base.subscriptions after.subscriptions;
  Alcotest.(check int) "unique atoms back" base.unique_atoms after.unique_atoms;
  Alcotest.(check int) "unique paths back" base.unique_paths after.unique_paths;
  Alcotest.(check int) "total atoms back" base.total_atoms after.total_atoms;
  List.iter
    (fun (s, p) ->
      let ev =
        Value.obj "T"
          [ ("sym", vstr (Printf.sprintf "S%d" s)); ("price", vint p);
            ("note", vstr (string_of_int p)) ]
      in
      Alcotest.(check (list int)) "matches = oracle" (oracle live ev)
        (Factored.matches f ev))
    [ (0, 0); (3, 4); (5, 50); (50, 51); (96, 99); (7, 1000) ]

(* --- allocation --------------------------------------------------------- *)

(* Preallocated path values: the resolver itself allocates nothing.
   The event reaches every stage — a cluster whose access predicate
   holds, counted thresholds, string scans — and matches nothing. *)
let some_sym = Some (vstr "B")
let some_price = Some (vint 123_456)
let some_note = Some (vstr "qqqqabqq")

let quiet_resolve = function
  | [ "sym" ] -> some_sym
  | [ "price" ] -> some_price
  | [ "note" ] -> some_note
  | _ -> None

let test_no_match_allocates_nothing () =
  let f = Factored.create () in
  List.iteri
    (fun id formula -> Factored.add f ~id (rfilter formula))
    [ Rfilter.And
        [ atom sym Ceq (vstr "A"); atom price Cge (vint 5); atom price Clt (vint 9) ];
      Rfilter.And [ atom sym Ceq (vstr "B"); atom note Ccontains (vstr "zz") ];
      Rfilter.And [ atom price Cge (vint 5); atom price Clt (Value.Float 9.5) ];
      Rfilter.And [ atom price Cle (vint 7); atom note Cne (vstr "q") ];
      Rfilter.And [ atom price Cgt (Value.Float 1e9); atom sym Cne (vstr "A") ];
      Rfilter.Or [ atom note Cprefix (vstr "ab"); Rfilter.Not (atom sym Cne (vstr "A")) ];
      Rfilter.Or [ atom note Ccontains (vstr "zz"); atom price Clt (vint 0) ];
      Rfilter.Or [ atom leg_x Ceq (vint 1); atom sym Ceq (vstr "C") ] ];
  (* The first pass sorts the threshold arrays. *)
  Alcotest.(check (list int)) "matches nothing" []
    (Factored.matches_resolve f quiet_resolve);
  let words body =
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      body ()
    done;
    Gc.minor_words () -. w0
  in
  let baseline = words (fun () -> ()) in
  let pass = words (fun () -> ignore (Factored.matches_resolve f quiet_resolve)) in
  Alcotest.(check (float 0.)) "minor words per 1000 passes" 0. (pass -. baseline)

let suite =
  ( "factored",
    [ Alcotest.test_case "failed pass leaves no trace" `Quick test_faulty_then_clean;
      Alcotest.test_case "churn releases atoms and paths" `Quick test_churn_releases;
      Alcotest.test_case "no-match pass allocates nothing" `Quick
        test_no_match_allocates_nothing ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_model ] )
