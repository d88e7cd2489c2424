(* Covering analysis (Subsume.covers / witness search) soundness, and
   the broker-side covering index built on the same core.

   [covers a b] claims every obvent matching [a] matches [b]. The
   qcheck properties hold the claim against the ground truth — actual
   [Rfilter] evaluation on random conforming obvents — and check that
   counterexample witnesses really are counterexamples. *)

open Helpers
module Rfilter = Tpbs_filter.Rfilter
module Subsume = Tpbs_filter.Subsume
module Frame = Tpbs_transport.Frame
module Proto = Tpbs_transport.Proto
module Broker = Tpbs_transport.Broker
module Trace = Tpbs_trace.Trace

let reg = stock_registry ()

let param = "StockQuote"

(* Random remote filters: the atom-normal subset of the stock
   expression generator (retry on the occasional unliftable draw). *)
let rec gen_rfilter st =
  match
    Rfilter.of_expr ~env:[] ~param (gen_stock_expr st)
  with
  | Some rf -> rf
  | None -> gen_rfilter st

(* Single-conjunction filters, where the covering procedure decides
   most pairs — used for the transitivity property. *)
let rec gen_conj_rfilter st =
  let rf = gen_rfilter st in
  match Rfilter.conjunction_atoms rf with
  | Some _ -> rf
  | None -> gen_conj_rfilter st

let print_rf rf = Fmt.str "%a" Rfilter.pp rf

let arb_rf_pair_quotes =
  QCheck.make
    ~print:(fun ((a, b), _) -> print_rf a ^ "  vs  " ^ print_rf b)
    QCheck.Gen.(
      pair (pair gen_rfilter gen_rfilter)
        (list_size (return 60) (gen_quote reg)))

let covers = Subsume.covers ~registry:reg ~param

(* covers ⇒ the evaluation oracle agrees on every sampled obvent. *)
let prop_covers_sound =
  QCheck.Test.make ~name:"covers is sound against Rfilter.eval" ~count:300
    arb_rf_pair_quotes (fun ((a, b), quotes) ->
      (not (covers a b))
      || List.for_all
           (fun q ->
             (not (Rfilter.matches_obvent a q)) || Rfilter.matches_obvent b q)
           quotes)

let prop_covers_reflexive =
  QCheck.Test.make ~name:"covers is reflexive" ~count:200
    (QCheck.make ~print:print_rf gen_rfilter)
    (fun a -> covers a a)

let prop_covers_transitive =
  QCheck.Test.make ~name:"covers is transitive on conjunctions" ~count:300
    (QCheck.make
       ~print:(fun (a, (b, c)) ->
         String.concat "  /  " (List.map print_rf [ a; b; c ]))
       QCheck.Gen.(pair gen_conj_rfilter (pair gen_conj_rfilter gen_conj_rfilter)))
    (fun (a, (b, c)) ->
      (not (covers a b && covers b c)) || covers a c)

(* A Not_covered verdict must come with a machine-checkable witness:
   conforming, matching [a], escaping [b]. *)
let prop_witness_valid =
  QCheck.Test.make ~name:"witnesses evaluate as claimed" ~count:300
    arb_rf_pair_quotes (fun ((a, b), quotes) ->
      match Subsume.covers_witness ~registry:reg ~cls:param ~param a b with
      | Subsume.Not_covered w ->
          Registry.conforms reg w param
          && Rfilter.eval a w
          && not (Rfilter.eval b w)
      | Subsume.Covered ->
          List.for_all
            (fun q ->
              (not (Rfilter.matches_obvent a q)) || Rfilter.matches_obvent b q)
            quotes
      | Subsume.Unknown -> true)

(* --- directed covering facts ------------------------------------------- *)

let rf expr =
  match Rfilter.of_expr ~env:[] ~param expr with
  | Some rf -> rf
  | None -> Alcotest.fail "expression did not lift to a remote filter"

let test_covering_facts () =
  let open Expr in
  let price = getter [ "getPrice" ] in
  let company = getter [ "getCompany" ] in
  let lt50 = rf (Binop (Lt, price, float 50.)) in
  let lt100 = rf (Binop (Lt, price, float 100.)) in
  let narrow =
    rf
      (Binop
         ( And,
           Binop (Lt, price, float 50.),
           Binop (Eq, company, str "Acme Corp") ))
  in
  Alcotest.(check bool) "price<50 covered by price<100" true (covers lt50 lt100);
  Alcotest.(check bool) "conjunction covered by its bound" true
    (covers narrow lt100);
  Alcotest.(check bool) "price<100 not covered by price<50" false
    (covers lt100 lt50);
  (* the union of {<100, <50∧Acme, ≥150} leaves [100,150) open: the
     procedure must find (and check) a witness in the gap *)
  let union =
    {
      Rfilter.param;
      paths = [||];
      formula =
        Or
          [ lt100.Rfilter.formula;
            narrow.Rfilter.formula;
            (rf (Binop (Ge, price, float 150.))).Rfilter.formula ];
    }
  in
  let all = { Rfilter.param; paths = [||]; formula = True } in
  (match Subsume.covers_witness ~registry:reg ~cls:param ~param all union with
  | Subsume.Not_covered w -> (
      Alcotest.(check bool) "witness conforms" true
        (Registry.conforms reg w param);
      Alcotest.(check bool) "witness escapes the union" false
        (Rfilter.eval union w);
      match Value.field w "price" with
      | Some (Value.Float p) ->
          Alcotest.(check bool) "witness price sits in the gap" true
            (p >= 100. && p < 150.)
      | _ -> Alcotest.fail "witness has no float price")
  | Subsume.Covered -> Alcotest.fail "gap not detected"
  | Subsume.Unknown -> Alcotest.fail "no witness found for the gap");
  (* closing the gap closes the verdict *)
  let closed =
    { union with Rfilter.formula = Or [ union.formula; (rf (Binop (Ge, price, float 100.))).Rfilter.formula ] }
  in
  Alcotest.(check bool) "no gap once closed" true (covers all closed)

(* --- broker covering index (in-process, raw protocol) ------------------- *)

(* Drive a broker without forking: a raw TCP peer speaks the frame
   protocol directly, the test polls the broker in between, and the
   ambient trace registry exposes the suppression counters. *)
let send fd m =
  let s = Frame.frame (Proto.encode m) in
  ignore (Unix.write_substring fd s 0 (String.length s))

let counter tr name = Trace.Counter.value (Trace.counter tr name)

let test_broker_covering_counters () =
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let b = Broker.create ~config:{ Broker.default_config with warmup_ms = 0 }
      ~port:0 ()
  in
  Fun.protect ~finally:(fun () -> Broker.stop b)
  @@ fun () ->
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Broker.port b));
  (* Poll the broker until [name] reaches [expected], or for at most
     2 s, then let the caller assert the exact value: how many polls
     the frames need to cross the loopback socket depends on the
     host's load. *)
  let pump_until name expected =
    let deadline = Unix.gettimeofday () +. 2.0 in
    while counter tr name < expected && Unix.gettimeofday () < deadline do
      ignore (Broker.poll b ~timeout_ms:5 ())
    done
  in
  send fd (Proto.Hello { client = "raw"; window = 64 });
  send fd (Proto.Advertise { cls = "TQuote"; supers = [] });
  (* sid 0: subscribe-to-all; sids 1 and 2 are narrower — the broker
     must record them without indexing them *)
  send fd (Proto.Sub { sid = 0; param = "TQuote"; filter = Value.Null });
  let seq_ge k =
    Rfilter.to_value
      (rf (Expr.Binop (Ge, Expr.getter [ "getSeq" ], Expr.int k)))
  in
  send fd (Proto.Sub { sid = 1; param = "TQuote"; filter = seq_ge 0 });
  send fd (Proto.Sub { sid = 2; param = "TQuote"; filter = seq_ge 10 });
  pump_until "broker.subs_covered" 2;
  Alcotest.(check int) "both narrower subs suppressed" 2
    (counter tr "broker.subs_covered");
  Alcotest.(check int) "none restored yet" 0
    (counter tr "broker.subs_restored");
  (* dropping the coverer promotes the survivors: sid 1 (seq≥0) is
     installed, and re-covers sid 2 (seq≥10) in the same sweep *)
  send fd (Proto.Unsub { sid = 0 });
  pump_until "broker.subs_restored" 1;
  Alcotest.(check int) "one promoted into the index" 1
    (counter tr "broker.subs_restored");
  (* dropping the promoted coverer promotes the last one *)
  send fd (Proto.Unsub { sid = 1 });
  pump_until "broker.subs_restored" 2;
  Alcotest.(check int) "last one promoted too" 2
    (counter tr "broker.subs_restored")

let suite =
  ( "cover",
    [ Alcotest.test_case "covering facts + gap witness" `Quick
        test_covering_facts;
      Alcotest.test_case "broker covering counters" `Quick
        test_broker_covering_counters ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_covers_sound;
          prop_covers_reflexive;
          prop_covers_transitive;
          prop_witness_valid ] )
