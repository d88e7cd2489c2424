open Helpers
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Qos = Tpbs_types.Qos
module Pubsub = Tpbs_core.Pubsub
module Fspec = Tpbs_core.Fspec
module Dispatch = Tpbs_core.Dispatch
module Errors = Tpbs_core.Errors
module Domain = Pubsub.Domain
module Process = Pubsub.Process
module Subscription = Pubsub.Subscription
module Rmi = Tpbs_rmi.Rmi

(* Registry with the stock hierarchy plus QoS'd classes used below. *)
let rich_registry () =
  let reg = stock_registry () in
  Registry.declare_class reg ~name:"TotalQuote" ~extends:"StockQuote"
    ~implements:[ "TotalOrder" ] ();
  Registry.declare_class reg ~name:"CausalQuote" ~extends:"StockQuote"
    ~implements:[ "CausalOrder" ] ();
  Registry.declare_class reg ~name:"FifoQuote" ~extends:"StockQuote"
    ~implements:[ "FIFOOrder" ] ();
  Registry.declare_class reg ~name:"CertifiedQuote" ~extends:"StockQuote"
    ~implements:[ "Certified" ] ();
  Registry.declare_class reg ~name:"ReliableQuote" ~extends:"StockQuote"
    ~implements:[ "Reliable" ] ();
  Registry.declare_class reg ~name:"Alarm" ~implements:[ "Prioritary" ]
    ~attrs:[ "source", Vtype.Tstring; "priority", Vtype.Tint ]
    ();
  Registry.declare_class reg ~name:"Tick" ~implements:[ "Timely" ]
    ~attrs:
      [ "symbol", Vtype.Tstring; "birth", Vtype.Tint;
        "timeToLive", Vtype.Tint ]
    ();
  reg

let setup ?(n = 4) ?(config = Net.default_config) ?(seed = 42) ?tx_interval ()
    =
  let reg = rich_registry () in
  let engine = Engine.create ~seed () in
  let net = Net.create ~config engine in
  let domain = Domain.create ?tx_interval reg net in
  let procs =
    Array.init n (fun _ -> Process.create domain (Net.add_node net))
  in
  reg, engine, net, domain, procs

let collect_handler log = fun obvent -> log := obvent :: !log
let names log = List.rev_map Obvent.cls !log

let quote_of reg cls ?(company = "Telco Mobiles") ?(price = 80.)
    ?(amount = 10) () =
  Obvent.make reg cls
    [ "company", Value.Str company; "price", Value.Float price;
      "amount", Value.Int amount ]

(* --- type-based routing (Fig. 1) ------------------------------------ *)

let test_subscribe_supertype_receives_subtypes () =
  let reg, engine, _net, _domain, procs = setup () in
  let all = ref [] and quotes_only = ref [] in
  let s_all =
    Process.subscribe procs.(1) ~param:"StockObvent" (collect_handler all)
  in
  let s_quotes =
    Process.subscribe procs.(2) ~param:"StockQuote" (collect_handler quotes_only)
  in
  Subscription.activate s_all;
  Subscription.activate s_quotes;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Process.publish procs.(0)
    (Obvent.make reg "SpotPrice"
       [ "company", Value.Str "Acme"; "price", Value.Float 10.;
         "amount", Value.Int 5 ]);
  Engine.run engine;
  (* Unreliable channels do not promise an order: compare as sets. *)
  Alcotest.(check (list string)) "supertype subscriber sees both"
    [ "SpotPrice"; "StockQuote" ]
    (List.sort String.compare (names all));
  Alcotest.(check (list string)) "subtype subscriber sees only quotes"
    [ "StockQuote" ] (names quotes_only)

let test_filtering () =
  let reg, engine, _net, domain, procs = setup () in
  let got = ref [] in
  let filter =
    Fspec.of_source ~param:"q"
      "q.getPrice() < 100 && q.getCompany().indexOf(\"Telco\") != -1"
  in
  let s =
    Process.subscribe procs.(1) ~param:"StockQuote" ~filter
      (collect_handler got)
  in
  Subscription.activate s;
  Process.publish procs.(0) (quote_of reg "StockQuote" ~price:80. ());
  Process.publish procs.(0) (quote_of reg "StockQuote" ~price:120. ());
  Process.publish procs.(0)
    (quote_of reg "StockQuote" ~company:"Acme" ~price:80. ());
  Engine.run engine;
  Alcotest.(check int) "one delivery" 1 (List.length !got);
  Alcotest.(check int) "two filtered out" 2 (Domain.stats domain).Domain.filtered_out

let test_clone_per_subscriber () =
  (* Obvent Global & Local Uniqueness (§2.1.2): two notifiables in the
     same address space get distinct clones, and nobody gets the
     publisher's object. *)
  let reg, engine, _net, _domain, procs = setup () in
  let a = ref [] and b = ref [] in
  let s1 = Process.subscribe procs.(1) ~param:"StockQuote" (collect_handler a) in
  let s2 = Process.subscribe procs.(1) ~param:"StockQuote" (collect_handler b) in
  Subscription.activate s1;
  Subscription.activate s2;
  let original = quote_of reg "StockQuote" () in
  Process.publish procs.(0) original;
  Engine.run engine;
  match !a, !b with
  | [ oa ], [ ob ] ->
      Alcotest.(check bool) "distinct from each other" true
        (Obvent.uid oa <> Obvent.uid ob);
      Alcotest.(check bool) "distinct from original" true
        (Obvent.uid oa <> Obvent.uid original
        && Obvent.uid ob <> Obvent.uid original);
      Alcotest.(check bool) "same content" true
        (Obvent.equal_content oa ob && Obvent.equal_content oa original)
  | _ -> Alcotest.fail "expected exactly one delivery each"

let test_publisher_also_subscribes () =
  let reg, engine, _net, _domain, procs = setup () in
  let got = ref [] in
  let s = Process.subscribe procs.(0) ~param:"StockQuote" (collect_handler got) in
  Subscription.activate s;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "self delivery" 1 (List.length !got)

(* --- subscription lifecycle (§3.4) ----------------------------------- *)

let test_activation_lifecycle () =
  let reg, engine, _net, _domain, procs = setup () in
  let got = ref [] in
  let s = Process.subscribe procs.(1) ~param:"StockQuote" (collect_handler got) in
  (* Not yet active: no deliveries. *)
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "inactive subscription silent" 0 (List.length !got);
  Subscription.activate s;
  (match Subscription.activate s with
  | exception Errors.Cannot_subscribe _ -> ()
  | () -> Alcotest.fail "double activation accepted");
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "active delivers" 1 (List.length !got);
  Subscription.deactivate s;
  (match Subscription.deactivate s with
  | exception Errors.Cannot_unsubscribe _ -> ()
  | () -> Alcotest.fail "double deactivation accepted");
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "deactivated is silent" 1 (List.length !got);
  (* Re-activation an unlimited number of times (§3.4.2). *)
  Subscription.activate s;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "re-activated delivers again" 2 (List.length !got)

let test_subscribe_validation () =
  let _reg, _engine, _net, _domain, procs = setup () in
  (match Process.subscribe procs.(0) ~param:"Nope" (fun _ -> ()) with
  | exception Errors.Cannot_subscribe _ -> ()
  | _ -> Alcotest.fail "unknown type accepted");
  (match
     Process.subscribe procs.(0) ~param:"StockQuote"
       ~filter:(Fspec.tree Expr.(getter [ "getNope" ] =. int 1))
       (fun _ -> ())
   with
  | exception Errors.Cannot_subscribe _ -> ()
  | _ -> Alcotest.fail "ill-typed filter accepted");
  let reg2 = Registry.create () in
  Registry.declare_class reg2 ~name:"Plain" ();
  match Process.subscribe procs.(0) ~param:"Timely" (fun _ -> ()) with
  | _ -> () (* interfaces that are obvent types are fine *)
  | exception Errors.Cannot_subscribe _ ->
      Alcotest.fail "obvent interface rejected"

let test_publish_from_crashed_raises () =
  let reg, _engine, net, _domain, procs = setup () in
  Net.crash net (Process.node procs.(0));
  match Process.publish procs.(0) (quote_of reg "StockQuote" ()) with
  | exception Errors.Cannot_publish _ -> ()
  | () -> Alcotest.fail "publish from crashed process accepted"

(* --- ordered channels -------------------------------------------------- *)

let test_total_order_channel () =
  let reg, engine, _net, _domain, procs = setup ~n:5 () in
  let logs = Array.init 5 (fun _ -> ref []) in
  Array.iteri
    (fun i p ->
      let s =
        Process.subscribe p ~param:"TotalQuote" (collect_handler logs.(i))
      in
      Subscription.activate s)
    procs;
  for i = 1 to 8 do
    Process.publish procs.(i mod 5)
      (quote_of reg "TotalQuote" ~price:(float_of_int i) ())
  done;
  Engine.run engine;
  let prices l = List.rev_map (fun o -> Obvent.get o "price") !l in
  let reference = prices logs.(0) in
  Alcotest.(check int) "all delivered" 8 (List.length reference);
  Array.iteri
    (fun i l ->
      Alcotest.(check (list value_testable))
        (Printf.sprintf "node %d same order" i)
        reference (prices l))
    logs

let test_causal_channel () =
  let reg, engine, _net, _domain, procs = setup ~n:4 () in
  let logs = Array.init 4 (fun _ -> ref []) in
  let subs = Array.make 4 None in
  Array.iteri
    (fun i p ->
      let handler o =
        logs.(i) := o :: !(logs.(i));
        (* Node 1 reacts to the first cause with an effect. *)
        if i = 1 && Value.equal (Obvent.get o "company") (Value.Str "CAUSE")
        then
          Process.publish procs.(1)
            (quote_of reg "CausalQuote" ~company:"EFFECT" ())
      in
      subs.(i) <- Some (Process.subscribe p ~param:"CausalQuote" handler))
    procs;
  Array.iter (fun s -> Subscription.activate (Option.get s)) subs;
  Process.publish procs.(0) (quote_of reg "CausalQuote" ~company:"CAUSE" ());
  Engine.run engine;
  Array.iteri
    (fun i l ->
      let companies = List.rev_map (fun o -> Obvent.get o "company") !l in
      Alcotest.(check (list value_testable))
        (Printf.sprintf "node %d causal order" i)
        [ Value.Str "CAUSE"; Value.Str "EFFECT" ]
        companies)
    logs

let test_fifo_channel () =
  let reg, engine, _net, _domain, procs =
    setup ~n:3 ~config:{ Net.default_config with jitter = 900 } ()
  in
  let got = ref [] in
  let s = Process.subscribe procs.(1) ~param:"FifoQuote" (collect_handler got) in
  Subscription.activate s;
  for i = 1 to 12 do
    Process.publish procs.(0)
      (quote_of reg "FifoQuote" ~amount:i ())
  done;
  Engine.run engine;
  let amounts = List.rev_map (fun o -> Obvent.get o "amount") !got in
  Alcotest.(check (list value_testable)) "publisher order preserved"
    (List.init 12 (fun i -> Value.Int (i + 1)))
    amounts

(* --- certified + durable subscriptions -------------------------------- *)

let test_certified_crash_recovery () =
  let reg, engine, net, _domain, procs = setup ~n:3 () in
  let got = ref [] in
  let s =
    Process.subscribe procs.(2) ~param:"CertifiedQuote" (collect_handler got)
  in
  Subscription.activate_durable s ~id:77;
  Alcotest.(check (option int)) "durable id recorded" (Some 77)
    (Subscription.durable_id s);
  Process.publish procs.(0) (quote_of reg "CertifiedQuote" ~amount:1 ());
  Engine.run engine;
  Net.crash net (Process.node procs.(2));
  Process.publish procs.(0) (quote_of reg "CertifiedQuote" ~amount:2 ());
  Process.publish procs.(0) (quote_of reg "CertifiedQuote" ~amount:3 ());
  Engine.run ~until:(Engine.now engine + 30_000) engine;
  Alcotest.(check int) "only first before crash" 1 (List.length !got);
  Net.recover net (Process.node procs.(2));
  Process.resume procs.(2);
  Engine.run ~until:(Engine.now engine + 500_000) engine;
  let amounts = List.rev_map (fun o -> Obvent.get o "amount") !got in
  Alcotest.(check (list value_testable)) "caught up after recovery"
    [ Value.Int 1; Value.Int 2; Value.Int 3 ]
    amounts;
  Engine.run engine

let test_replay_subscription () =
  (* Retained certified history + a late replay subscriber: it first
     receives the past (replay), then splices into live delivery. *)
  let reg, engine, _net, domain, procs = setup ~n:3 () in
  Domain.retain_history domain ~cls:"CertifiedQuote";
  let live = ref [] in
  let s1 =
    Process.subscribe procs.(1) ~param:"CertifiedQuote" (collect_handler live)
  in
  Subscription.activate s1;
  for i = 1 to 3 do
    Process.publish procs.(0) (quote_of reg "CertifiedQuote" ~amount:i ())
  done;
  Engine.run engine;
  Alcotest.(check int) "live subscriber saw the stream" 3 (List.length !live);
  (* the late subscriber replays from the beginning *)
  let late = ref [] in
  let s2 =
    Process.subscribe procs.(2) ~param:"CertifiedQuote" (collect_handler late)
  in
  Subscription.activate_replay s2 ~from:0;
  Engine.run engine;
  let amounts l = List.rev_map (fun o -> Obvent.get o "amount") !l in
  Alcotest.(check (list value_testable)) "history replayed in order"
    [ Value.Int 1; Value.Int 2; Value.Int 3 ]
    (amounts late);
  (* then live delivery continues for both *)
  Process.publish procs.(0) (quote_of reg "CertifiedQuote" ~amount:4 ());
  Engine.run engine;
  Alcotest.(check (list value_testable)) "catch-up-then-live"
    [ Value.Int 1; Value.Int 2; Value.Int 3; Value.Int 4 ]
    (amounts late);
  Alcotest.(check int) "replayed counted apart from deliveries" 3
    (Domain.stats domain).Domain.replayed

let test_replay_respects_filter () =
  let reg, engine, _net, domain, procs = setup ~n:2 () in
  Domain.retain_history domain ~cls:"CertifiedQuote";
  let s0 = Process.subscribe procs.(0) ~param:"CertifiedQuote" (fun _ -> ()) in
  Subscription.activate s0;
  for i = 1 to 4 do
    Process.publish procs.(0) (quote_of reg "CertifiedQuote" ~amount:i ())
  done;
  Engine.run engine;
  let got = ref [] in
  let s =
    Process.subscribe procs.(1) ~param:"CertifiedQuote"
      ~filter:
        (Fspec.closure (fun o ->
             match Obvent.get o "amount" with
             | Value.Int a -> a > 2
             | _ -> false))
      (collect_handler got)
  in
  Subscription.activate_replay s ~from:0;
  Engine.run engine;
  Alcotest.(check (list value_testable)) "replayed history is filtered"
    [ Value.Int 3; Value.Int 4 ]
    (List.rev_map (fun o -> Obvent.get o "amount") !got)

let test_durable_id_type_mismatch () =
  let _reg, _engine, _net, _domain, procs = setup ~n:2 () in
  let s1 = Process.subscribe procs.(0) ~param:"CertifiedQuote" (fun _ -> ()) in
  Subscription.activate_durable s1 ~id:5;
  Subscription.deactivate s1;
  let s2 = Process.subscribe procs.(0) ~param:"StockQuote" (fun _ -> ()) in
  match Subscription.activate_durable s2 ~id:5 with
  | exception Errors.Cannot_subscribe _ -> ()
  | () -> Alcotest.fail "durable id rebound to different type"

(* --- transmission semantics -------------------------------------------- *)

let test_priority_overtaking () =
  let reg, engine, _net, _domain, procs =
    setup ~n:2
      ~config:{ Net.default_config with jitter = 0 }
      ~tx_interval:1000 ()
  in
  let got = ref [] in
  let s = Process.subscribe procs.(1) ~param:"Alarm" (collect_handler got) in
  Subscription.activate s;
  (* Published back-to-back: the queue drains one per interval, so the
     high-priority alarm overtakes the earlier low-priority ones. *)
  List.iter
    (fun (src, prio) ->
      Process.publish procs.(0)
        (Obvent.make reg "Alarm"
           [ "source", Value.Str src; "priority", Value.Int prio ]))
    [ "low1", 1; "low2", 1; "urgent", 9 ];
  Engine.run engine;
  let sources = List.rev_map (fun o -> Obvent.get o "source") !got in
  Alcotest.(check (list value_testable)) "urgent first"
    [ Value.Str "urgent"; Value.Str "low1"; Value.Str "low2" ]
    sources

let test_teardown_during_egress_drain () =
  (* Regression: the egress-queue drain looked channels up with a bare
     [Hashtbl.find] — a teardown winning the race between enqueue and
     drain raised [Not_found] inside an engine callback and killed the
     whole tick. Queue prioritary traffic (one message per drain
     slot), deactivate the subscription while messages are still
     queued, and let the drain finish: it must survive, and the
     tolerated misses are counted, never thrown. *)
  let reg, engine, _net, domain, procs =
    setup ~n:2
      ~config:{ Net.default_config with jitter = 0 }
      ~tx_interval:1000 ()
  in
  let got = ref [] in
  let s = Process.subscribe procs.(1) ~param:"Alarm" (collect_handler got) in
  Subscription.activate s;
  for i = 1 to 4 do
    Process.publish procs.(0)
      (Obvent.make reg "Alarm"
         [ "source", Value.Str (Printf.sprintf "a%d" i);
           "priority", Value.Int 1 ])
  done;
  (* After the first drain slot, three alarms are still queued. *)
  Engine.schedule engine ~delay:1500 (fun () -> Subscription.deactivate s);
  (* The regression fires inside an engine callback: [Engine.run]
     finishing at all is the assertion that the drain survived. *)
  Engine.run engine;
  Alcotest.(check int) "all four drained to the wire" 4
    (Domain.stats domain).Domain.published;
  (* The channel itself outlives the subscription here, so the miss
     branch stays untaken — what matters is that the drain completed
     and the books stay consistent (misses are counted, never
     thrown). *)
  let st = Domain.stats domain in
  Alcotest.(check int) "no phantom misses" 0 st.Domain.channel_misses

let test_timely_expiry_in_queue () =
  let reg, engine, _net, domain, procs =
    setup ~n:2 ~tx_interval:5000 ()
  in
  let got = ref [] in
  let s = Process.subscribe procs.(1) ~param:"Tick" (collect_handler got) in
  Subscription.activate s;
  let now = Engine.now engine in
  (* Three ticks with a TTL shorter than one drain interval: only the
     one drained first can survive. *)
  for i = 1 to 3 do
    Process.publish procs.(0)
      (Obvent.make reg "Tick"
         [ "symbol", Value.Str (Printf.sprintf "s%d" i);
           "birth", Value.Int now; "timeToLive", Value.Int 6000 ])
  done;
  Engine.run engine;
  Alcotest.(check int) "one survived" 1 (List.length !got);
  Alcotest.(check int) "two expired" 2 (Domain.stats domain).Domain.expired

let test_timely_newest_preferred () =
  let reg, engine, _net, _domain, procs =
    setup ~n:2 ~config:{ Net.default_config with jitter = 0 }
      ~tx_interval:1000 ()
  in
  let got = ref [] in
  let s = Process.subscribe procs.(1) ~param:"Tick" (collect_handler got) in
  Subscription.activate s;
  let now = Engine.now engine in
  (* Same priority; births 10 apart. The newest goes out first. *)
  List.iteri
    (fun i sym ->
      Process.publish procs.(0)
        (Obvent.make reg "Tick"
           [ "symbol", Value.Str sym; "birth", Value.Int (now + (i * 10));
             "timeToLive", Value.Int 1_000_000 ]))
    [ "old"; "mid"; "new" ];
  Engine.run engine;
  let syms = List.rev_map (fun o -> Obvent.get o "symbol") !got in
  Alcotest.(check (list value_testable)) "most recent first"
    [ Value.Str "new"; Value.Str "mid"; Value.Str "old" ]
    syms

let test_qos_precedence_in_engine () =
  (* Reliable + Timely: reliability wins, the obvent must NOT expire
     even with a tiny TTL (Fig. 4 precedence). *)
  let reg = rich_registry () in
  Registry.declare_class reg ~name:"ReliableTick" ~extends:"Tick"
    ~implements:[ "Reliable" ] ();
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let domain = Domain.create reg net in
  let procs = Array.init 2 (fun _ -> Process.create domain (Net.add_node net)) in
  let got = ref [] in
  let s = Process.subscribe procs.(1) ~param:"ReliableTick" (collect_handler got) in
  Subscription.activate s;
  Process.publish procs.(0)
    (Obvent.make reg "ReliableTick"
       [ "symbol", Value.Str "x"; "birth", Value.Int 0;
         "timeToLive", Value.Int 1 ]);
  Engine.run engine;
  Alcotest.(check int) "delivered despite stale TTL" 1 (List.length !got);
  Alcotest.(check int) "nothing expired" 0 (Domain.stats domain).Domain.expired

(* --- thread policies (§3.3.5) --------------------------------------------- *)

let test_thread_policies () =
  let reg, engine, _net, _domain, procs = setup ~n:2 () in
  let multi = ref [] and single = ref [] in
  let s_multi =
    Process.subscribe procs.(1) ~param:"StockQuote" ~service_time:10_000
      (collect_handler multi)
  in
  let s_single =
    Process.subscribe procs.(1) ~param:"StockQuote" ~service_time:10_000
      (collect_handler single)
  in
  Subscription.set_single_threading s_single;
  Subscription.activate s_multi;
  Subscription.activate s_single;
  for _ = 1 to 5 do
    Process.publish procs.(0) (quote_of reg "StockQuote" ())
  done;
  Engine.run engine;
  let st_multi = Subscription.dispatch_stats s_multi in
  let st_single = Subscription.dispatch_stats s_single in
  Alcotest.(check bool) "multi overlaps" true
    (st_multi.Dispatch.max_overlap > 1);
  Alcotest.(check int) "single never overlaps" 1
    st_single.Dispatch.max_overlap;
  Alcotest.(check bool) "single queued work" true
    (st_single.Dispatch.peak_queue > 0);
  Alcotest.(check int) "both executed everything" 5 st_single.Dispatch.executed

let test_ordered_defaults_single_threaded () =
  let _reg, _engine, _net, _domain, procs = setup ~n:2 () in
  let s_total = Process.subscribe procs.(1) ~param:"TotalQuote" (fun _ -> ()) in
  let s_plain = Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> ()) in
  Alcotest.(check bool) "ordered default single" true
    (Subscription.dispatch_stats s_total |> fun _ ->
     true);
  ignore s_plain;
  ignore s_total

(* --- broker / remote filtering (§3.3.3) ------------------------------------ *)

let test_broker_remote_filtering () =
  let reg, engine, _net, domain, procs = setup ~n:5 () in
  let broker = procs.(4) in
  Pubsub.add_broker domain broker;
  let cheap = ref [] and telco = ref [] and opaque = ref [] in
  let s1 =
    Process.subscribe procs.(1) ~param:"StockQuote"
      ~filter:(Fspec.of_source ~param:"q" "q.getPrice() < 50")
      (collect_handler cheap)
  in
  let s2 =
    Process.subscribe procs.(2) ~param:"StockQuote"
      ~filter:(Fspec.of_source ~param:"q" "q.getCompany().startsWith(\"Telco\")")
      (collect_handler telco)
  in
  (* An opaque closure filter: always forwarded, filtered locally. *)
  let s3 =
    Process.subscribe procs.(3) ~param:"StockQuote"
      ~filter:
        (Fspec.closure (fun o ->
             match Obvent.get o "amount" with
             | Value.Int n -> n > 100
             | _ -> false))
      (collect_handler opaque)
  in
  Subscription.activate s1;
  Subscription.activate s2;
  Subscription.activate s3;
  Engine.run engine;
  (* Two mobile filters reached the broker's compound filter. *)
  (match Pubsub.broker_filter_stats domain with
  | Some st -> Alcotest.(check int) "two factored" 2 st.Tpbs_filter.Factored.subscriptions
  | None -> Alcotest.fail "no broker stats");
  Process.publish procs.(0)
    (quote_of reg "StockQuote" ~company:"Acme" ~price:40. ~amount:10 ());
  Process.publish procs.(0)
    (quote_of reg "StockQuote" ~company:"Telco Mobiles" ~price:90. ~amount:10 ());
  Engine.run engine;
  Alcotest.(check int) "cheap got one" 1 (List.length !cheap);
  Alcotest.(check int) "telco got one" 1 (List.length !telco);
  Alcotest.(check int) "opaque got none (filtered locally)" 0
    (List.length !opaque);
  let st = Domain.stats domain in
  Alcotest.(check int) "events transited broker" 2 st.Domain.broker_events;
  (* Each event was forwarded to: one matching filtered node + the
     always-forward node = 2 forwards per event. *)
  Alcotest.(check int) "selective forwarding" 4 st.Domain.broker_forwards;
  Alcotest.(check bool) "control messages flowed" true
    (st.Domain.control_messages >= 3)

let test_broker_unsubscribe_stops_forwarding () =
  let reg, engine, _net, domain, procs = setup ~n:3 () in
  Pubsub.add_broker domain procs.(2);
  let got = ref [] in
  let s =
    Process.subscribe procs.(1) ~param:"StockQuote"
      ~filter:(Fspec.of_source ~param:"q" "q.getPrice() < 500")
      (collect_handler got)
  in
  Subscription.activate s;
  Engine.run engine;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "delivered while active" 1 (List.length !got);
  Subscription.deactivate s;
  Engine.run engine;
  Domain.reset_stats domain;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "no forwards after unsubscribe" 0
    (Domain.stats domain).Domain.broker_forwards

let test_broker_drop_zero_decodes () =
  (* The zero-copy regression guard: a filtering host evaluating a
     selective remote filter against a NON-matching event must decide
     the drop purely by lazy projection — at least one cursor
     projection, zero full decodes, zero clones anywhere. *)
  let reg, engine, _net, domain, procs = setup ~n:3 () in
  Pubsub.add_broker domain procs.(2);
  let got = ref [] in
  let s =
    Process.subscribe procs.(1) ~param:"StockQuote"
      ~filter:(Fspec.of_source ~param:"q" "q.getPrice() < 50")
      (collect_handler got)
  in
  Subscription.activate s;
  Engine.run engine;
  let module Cursor = Tpbs_serial.Cursor in
  let module Trace = Tpbs_trace.Trace in
  let cloned = Trace.counter (Trace.ambient ()) "core.cloned" in
  let lazy0 = Cursor.lazy_decodes () in
  let full0 = Cursor.full_decodes () in
  let cloned0 = Trace.Counter.value cloned in
  Domain.reset_stats domain;
  Process.publish procs.(0) (quote_of reg "StockQuote" ~price:90. ());
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length !got);
  Alcotest.(check int) "nothing forwarded" 0
    (Domain.stats domain).Domain.broker_forwards;
  Alcotest.(check bool) "the drop was decided lazily" true
    (Cursor.lazy_decodes () - lazy0 > 0);
  Alcotest.(check int) "zero full decodes on the broker" 0
    (Cursor.full_decodes () - full0);
  Alcotest.(check int) "zero clones anywhere" 0
    (Trace.Counter.value cloned - cloned0)

let test_delivery_cow_isolation () =
  (* Subscribers that mutate their delivered clone must never see each
     other's writes, even though the delivery path hands out O(1)
     copy-on-write views of one shared decode. *)
  let reg, engine, _net, _domain, procs = setup ~n:2 () in
  let got = ref [] in
  for i = 1 to 3 do
    Subscription.activate
      (Process.subscribe procs.(1) ~param:"StockQuote" (fun o ->
           Obvent.set reg o "price" (Value.Float (float_of_int i));
           got := (i, o) :: !got))
  done;
  Process.publish procs.(0) (quote_of reg "StockQuote" ~price:80. ());
  Engine.run engine;
  Alcotest.(check int) "three deliveries" 3 (List.length !got);
  List.iter
    (fun (i, o) ->
      Alcotest.check value_testable
        (Printf.sprintf "subscriber %d kept its own write" i)
        (Value.Float (float_of_int i))
        (Obvent.get o "price"))
    !got

let test_eager_clone_opt_out () =
  (* A class implementing the EagerClone marker skips copy-on-write:
     every subscriber gets its own full deserialization (of the same
     envelope bytes). *)
  let reg, engine, _net, _domain, procs = setup ~n:2 () in
  Registry.declare_class reg ~name:"SnapQuote" ~extends:"StockQuote"
    ~implements:[ "EagerClone" ] ();
  let views_before = (Obvent.cow_stats ()).Obvent.views in
  let got = ref [] in
  for _ = 1 to 3 do
    Subscription.activate
      (Process.subscribe procs.(1) ~param:"SnapQuote" (collect_handler got))
  done;
  Process.publish procs.(0) (quote_of reg "SnapQuote" ());
  Engine.run engine;
  Alcotest.(check int) "three deliveries" 3 (List.length !got);
  Alcotest.(check bool) "every clone is private" true
    (List.for_all (fun o -> not (Obvent.is_view o)) !got);
  Alcotest.(check int) "no views minted" 0
    ((Obvent.cow_stats ()).Obvent.views - views_before)

(* --- gossip channel ---------------------------------------------------------- *)

let test_gossip_channel () =
  let reg = rich_registry () in
  let engine = Engine.create ~seed:5 () in
  let net = Net.create engine in
  let domain = Domain.create reg net in
  Domain.use_gossip domain ~cls:"StockQuote" ();
  let n = 30 in
  let procs = Array.init n (fun _ -> Process.create domain (Net.add_node net)) in
  let count = ref 0 in
  Array.iter
    (fun p ->
      let s = Process.subscribe p ~param:"StockQuote" (fun _ -> incr count) in
      Subscription.activate s)
    procs;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run ~until:100_000 engine;
  Alcotest.(check bool)
    (Printf.sprintf "most nodes reached (%d/%d)" !count n)
    true
    (!count >= 9 * n / 10)

(* --- RMI hand-in-hand (§5.4) -------------------------------------------------- *)

let test_rmi_proxies_adopted_and_pinned () =
  let reg = rich_registry () in
  Registry.declare_class reg ~name:"LinkedQuote" ~extends:"StockQuote"
    ~attrs:[ "market", Vtype.Tremote "StockMarket" ]
    ();
  let engine = Engine.create ~seed:2 () in
  let net = Net.create engine in
  let domain = Domain.create reg net in
  let nodes = Array.init 3 (fun _ -> Net.add_node net) in
  let rmis = Array.map (fun me -> Rmi.attach net ~me) nodes in
  let procs =
    Array.mapi (fun i node -> Process.create domain ~rmi:rmis.(i) node) nodes
  in
  let market =
    Rmi.export rmis.(0) ~iface:"StockMarket" (fun ~meth ~args:_ ->
        match meth with
        | "buy" -> Value.Bool true
        | _ -> raise (Rmi.App_error "no such method"))
  in
  let bought = ref None in
  Array.iteri
    (fun i p ->
      if i > 0 then begin
        let handler o =
          (* The paper's Fig. 8: buy back through the carried remote
             reference. *)
          if i = 1 && !bought = None then
            Rmi.invoke rmis.(i) (Obvent.get o "market") ~meth:"buy" ~args:[]
              ~k:(fun r -> bought := Some r)
        in
        Subscription.activate (Process.subscribe p ~param:"LinkedQuote" handler)
      end)
    procs;
  Process.publish procs.(0)
    (Obvent.make reg "LinkedQuote"
       [ "company", Value.Str "Telco"; "price", Value.Float 80.;
         "amount", Value.Int 10; "market", market ]);
  Engine.run engine;
  (match !bought with
  | Some (Ok (Value.Bool true)) -> ()
  | _ -> Alcotest.fail "buy-back through carried reference failed");
  (* Both subscribers' address spaces now hold proxies: pinned. *)
  Alcotest.(check int) "market pinned by subscribers" 1 (Rmi.pinned rmis.(0));
  (* One subscriber crashes; strict DGC keeps the object pinned forever
     (§5.4.2). *)
  Net.crash net nodes.(2);
  Rmi.release_proxy rmis.(1) market;
  Engine.run engine;
  Alcotest.(check int) "still pinned by the crashed subscriber" 1
    (Rmi.pinned rmis.(0))

(* --- stats ---------------------------------------------------------------------- *)

let test_latency_metric () =
  let reg, engine, _net, domain, procs = setup ~n:2 () in
  let s = Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> ()) in
  Subscription.activate s;
  for _ = 1 to 10 do
    Process.publish procs.(0) (quote_of reg "StockQuote" ())
  done;
  Engine.run engine;
  let m = Domain.latency domain in
  Alcotest.(check bool) "latency samples recorded" true
    (Tpbs_trace.Histogram.count m >= 10);
  Alcotest.(check bool) "latency near configured link latency" true
    (Tpbs_trace.Histogram.mean m > 500. && Tpbs_trace.Histogram.mean m < 2000.)

(* Under [Remote.connect] an envelope's publish time is another
   process's virtual clock, so deliveries record no latency sample. *)
let test_latency_skipped_under_remote () =
  let reg, engine, _net, domain, procs = setup ~n:1 () in
  let inject =
    Pubsub.Remote.connect domain procs.(0)
      { Pubsub.Remote.r_publish = (fun ~cls:_ ~publish_time:_ ~eid:_ _ -> ());
        r_subscribe = (fun ~sid:_ ~param:_ ~filter:_ -> ());
        r_unsubscribe = (fun ~sid:_ -> ()) }
  in
  let s = Process.subscribe procs.(0) ~param:"StockQuote" (fun _ -> ()) in
  Subscription.activate s;
  for seq = 1 to 10 do
    let env =
      Pubsub.Remote.encode_envelope ~publish_time:(1000 * seq) ~eid:(1, seq)
        (quote_of reg "StockQuote" ())
    in
    inject ~cls:"StockQuote" env ~off:0 ~len:(String.length env)
  done;
  Engine.run engine;
  Alcotest.(check int) "delivered" 10 (Subscription.delivered s);
  Alcotest.(check int) "no latency samples" 0
    (Tpbs_trace.Histogram.count (Domain.latency domain))

(* A Prioritary publish of a remote domain waits in the egress queue
   as its obvent's field spine at publish: a write through the obvent
   before the queue drains rebinds the obvent's spine, and what the
   connector gets is the obvent as it was published. *)
let test_remote_txq_snapshots_obvent () =
  let reg, engine, _net, domain, procs = setup ~n:1 () in
  let sent = ref [] in
  let _inject =
    Pubsub.Remote.connect domain procs.(0)
      { Pubsub.Remote.r_publish =
          (fun ~cls ~publish_time:_ ~eid:_ v -> sent := (cls, v) :: !sent);
        r_subscribe = (fun ~sid:_ ~param:_ ~filter:_ -> ());
        r_unsubscribe = (fun ~sid:_ -> ()) }
  in
  let alarm =
    Obvent.make reg "Alarm" [ ("source", Value.Str "pump-1"); ("priority", Value.Int 3) ]
  in
  let published = Obvent.to_value alarm in
  Process.publish procs.(0) alarm;
  Obvent.set reg alarm "source" (Value.Str "rewritten");
  Alcotest.(check int) "queued, not yet sent" 0 (List.length !sent);
  Engine.run engine;
  match !sent with
  | [ (cls, v) ] ->
      Alcotest.(check string) "class" "Alarm" cls;
      Alcotest.(check bool) "the obvent as published" true (Value.equal published v);
      Alcotest.(check bool) "the write is not sent" false
        (Value.equal (Obvent.to_value alarm) v)
  | l -> Alcotest.failf "%d publishes reached the connector" (List.length l)

let test_certified_prioritary_combination () =
  (* "obvents can be certified and have some notion of priority"
     (§3.1.2): the egress queue reorders, the certified channel
     guarantees delivery. *)
  let reg = rich_registry () in
  Registry.declare_class reg ~name:"CertAlarm" ~extends:"Alarm"
    ~implements:[ "Certified" ] ();
  let engine = Engine.create ~seed:9 () in
  let net = Net.create ~config:{ Net.default_config with jitter = 0 } engine in
  let domain = Domain.create ~tx_interval:1000 reg net in
  let procs = Array.init 2 (fun _ -> Process.create domain (Net.add_node net)) in
  let got = ref [] in
  let s = Process.subscribe procs.(1) ~param:"CertAlarm" (collect_handler got) in
  Subscription.activate s;
  List.iter
    (fun (src, prio) ->
      Process.publish procs.(0)
        (Obvent.make reg "CertAlarm"
           [ "source", Value.Str src; "priority", Value.Int prio ]))
    [ "low", 1; "high", 8 ];
  Engine.run engine;
  let sources = List.rev_map (fun o -> Obvent.get o "source") !got in
  Alcotest.(check (list value_testable)) "high first, both delivered"
    [ Value.Str "high"; Value.Str "low" ]
    sources

let test_filter_runtime_error_is_no_match () =
  (* A null attribute makes the ordering filter raise at runtime: the
     engine treats it as non-matching rather than crashing. *)
  let reg, engine, _net, domain, procs = setup () in
  Registry.declare_class reg ~name:"SparseQuote" ~implements:[ "Obvent" ]
    ~attrs:[ "note", Vtype.Tstring ]
    ();
  let got = ref [] in
  let s =
    Process.subscribe procs.(1) ~param:"SparseQuote"
      ~filter:(Fspec.of_source ~param:"q" "q.getNote().length() > 2")
      (collect_handler got)
  in
  Subscription.activate s;
  Process.publish procs.(0)
    (Obvent.make reg "SparseQuote" [ "note", Value.Null ]);
  Process.publish procs.(0)
    (Obvent.make reg "SparseQuote" [ "note", Value.Str "hello" ]);
  Engine.run engine;
  Alcotest.(check int) "null note filtered, good note delivered" 1
    (List.length !got);
  Alcotest.(check int) "counted as filtered out" 1
    (Domain.stats domain).Domain.filtered_out

let test_closure_exception_is_no_match () =
  let reg, engine, _net, _domain, procs = setup () in
  let got = ref [] in
  let s =
    Process.subscribe procs.(1) ~param:"StockQuote"
      ~filter:(Fspec.closure (fun _ -> failwith "boom"))
      (collect_handler got)
  in
  Subscription.activate s;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "raising closure never matches" 0 (List.length !got)

let test_subscription_delivered_counter () =
  let reg, engine, _net, _domain, procs = setup () in
  let s = Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> ()) in
  Subscription.activate s;
  for _ = 1 to 7 do
    Process.publish procs.(0) (quote_of reg "StockQuote" ())
  done;
  Engine.run engine;
  Alcotest.(check int) "delivered counter" 7 (Subscription.delivered s)

let test_many_subscriptions_one_node () =
  (* Per-subscription clones: 50 subscriptions on one node all receive
     distinct obvents. *)
  let reg, engine, _net, domain, procs = setup () in
  let uids = ref [] in
  let subs =
    List.init 50 (fun _ ->
        Process.subscribe procs.(1) ~param:"StockObvent" (fun o ->
            uids := Obvent.uid o :: !uids))
  in
  List.iter Subscription.activate subs;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "50 deliveries" 50 (List.length !uids);
  Alcotest.(check int) "all clones distinct" 50
    (List.length (List.sort_uniq Int.compare !uids));
  Alcotest.(check int) "stats agree" 50 (Domain.stats domain).Domain.deliveries

let test_interleaved_activation_cycles () =
  (* §3.4.2: "(de)activation ... an unlimited number of times". *)
  let reg, engine, _net, _domain, procs = setup () in
  let got = ref 0 in
  let s = Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> incr got) in
  for _ = 1 to 5 do
    Subscription.activate s;
    Process.publish procs.(0) (quote_of reg "StockQuote" ());
    Engine.run engine;
    Subscription.deactivate s;
    Process.publish procs.(0) (quote_of reg "StockQuote" ());
    Engine.run engine
  done;
  Alcotest.(check int) "only active-phase publishes delivered" 5 !got

let test_multiple_brokers () =
  (* Several filtering hosts: subscriptions are gathered per host,
     publishers send one copy per host, deliveries are unchanged. *)
  let reg, engine, _net, domain, procs = setup ~n:8 () in
  Pubsub.add_broker domain procs.(6);
  Pubsub.add_broker domain procs.(7);
  let counts = Array.make 4 0 in
  for i = 0 to 3 do
    let s =
      Process.subscribe procs.(i + 1) ~param:"StockQuote"
        ~filter:
          (Fspec.of_source ~param:"q"
             (Printf.sprintf "q.getPrice() < %d" (50 * (i + 1))))
        (fun _ -> counts.(i) <- counts.(i) + 1)
    in
    Subscription.activate s
  done;
  Engine.run engine;
  (* Both hosts ended up owning some subscriptions. *)
  let per_broker = Pubsub.per_broker_filter_stats domain in
  Alcotest.(check int) "two filtering hosts" 2 (List.length per_broker);
  let owned =
    List.map (fun st -> st.Tpbs_filter.Factored.subscriptions) per_broker
  in
  Alcotest.(check int) "subscriptions partitioned" 4
    (List.fold_left ( + ) 0 owned);
  Alcotest.(check bool) "both hosts used" true (List.for_all (fun n -> n > 0) owned);
  (* Publish prices 40, 90, 140, 190: subscriber i has threshold
     50*(i+1), so subscriber i should match exactly (4 - i) of them? No:
     price 40 < 50,100,150,200 -> all; 90 -> i>=1; 140 -> i>=2; 190 -> i=3. *)
  List.iter
    (fun price ->
      Process.publish procs.(0)
        (quote_of reg "StockQuote" ~price ()))
    [ 40.; 90.; 140.; 190. ];
  Engine.run engine;
  Alcotest.(check (list int)) "per-subscriber deliveries" [ 1; 2; 3; 4 ]
    (Array.to_list counts)

let test_class_serial_threading () =
  (* §3.3.5's suggested extension: one obvent per class at a time;
     different classes overlap. *)
  let reg, engine, _net, _domain, procs =
    setup ~n:2 ~config:{ Net.default_config with jitter = 0 } ()
  in
  let s =
    Process.subscribe procs.(1) ~param:"StockObvent" ~service_time:50_000
      (fun _ -> ())
  in
  Pubsub.Subscription.set_class_serial_threading s;
  Subscription.activate s;
  (* Two obvents of each of two classes, published back to back. *)
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Process.publish procs.(0)
    (Obvent.make reg "SpotPrice"
       [ "company", Value.Str "A"; "price", Value.Float 1.;
         "amount", Value.Int 1 ]);
  Process.publish procs.(0)
    (Obvent.make reg "SpotPrice"
       [ "company", Value.Str "A"; "price", Value.Float 1.;
         "amount", Value.Int 1 ]);
  Engine.run engine;
  let st = Subscription.dispatch_stats s in
  Alcotest.(check int) "all executed" 4 st.Dispatch.executed;
  (* Different classes overlapped, same class serialized: overlap is
     exactly the number of distinct classes. *)
  Alcotest.(check int) "overlap = distinct classes" 2 st.Dispatch.max_overlap;
  Alcotest.(check bool) "same-class work queued" true
    (st.Dispatch.peak_queue >= 1)

let test_targeted_dissemination () =
  (* DACE-style subscription-aware routing: publishers stop
     broadcasting to uninterested nodes once the control traffic has
     propagated. *)
  let reg, engine, net, domain, procs = setup ~n:10 () in
  Domain.enable_targeted_dissemination domain;
  let got = ref 0 in
  (* Two interested nodes out of ten; one subscribes to the supertype. *)
  Subscription.activate
    (Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> incr got));
  Subscription.activate
    (Process.subscribe procs.(2) ~param:"StockObvent" (fun _ -> incr got));
  (* Let the meta obvents reach every process. *)
  Engine.run engine;
  Net.reset_stats net;
  for _ = 1 to 10 do
    Process.publish procs.(0) (quote_of reg "StockQuote" ())
  done;
  Engine.run engine;
  Alcotest.(check int) "both subscribers got everything" 20 !got;
  (* 2 unicasts per event instead of a 10-node broadcast. *)
  Alcotest.(check int) "only interested nodes addressed" 20
    (Net.stats net).Net.sent;
  (* Unsubscription also propagates. *)
  let s3 = Process.subscribe procs.(3) ~param:"StockQuote" (fun _ -> ()) in
  Subscription.activate s3;
  Engine.run engine;
  Subscription.deactivate s3;
  Engine.run engine;
  Net.reset_stats net;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "deactivated node no longer addressed" 2
    (Net.stats net).Net.sent

let test_targeted_interest_window () =
  (* Before the control traffic arrives, a publisher does not know the
     subscriber: events published immediately can be missed — the
     propagation-delay semantics of real subscription dissemination. *)
  let reg, engine, _net, domain, procs = setup ~n:3 () in
  Domain.enable_targeted_dissemination domain;
  let got = ref 0 in
  Subscription.activate
    (Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> incr got));
  (* Published in the same instant as the activation: the publisher's
     interest view is still empty. *)
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "pre-propagation event missed" 0 !got;
  Process.publish procs.(0) (quote_of reg "StockQuote" ());
  Engine.run engine;
  Alcotest.(check int) "post-propagation events delivered" 1 !got

let prop_dispatch_invariants =
  (* Random policies and random burst shapes: overlap never exceeds
     the policy bound, everything submitted eventually executes, and
     under Class_serial no class ever overlaps itself. *)
  QCheck.Test.make ~name:"dispatcher invariants under random bursts" ~count:60
    QCheck.(
      triple (int_range 0 2) (int_range 1 30)
        (list_of_size (QCheck.Gen.int_range 1 25) (int_range 0 2)))
    (fun (policy_idx, max_multi, classes) ->
      let reg = rich_registry () in
      let engine = Engine.create ~seed:77 () in
      let policy =
        match policy_idx with
        | 0 -> Dispatch.Single
        | 1 -> Dispatch.Multi max_multi
        | _ -> Dispatch.Class_serial
      in
      let class_names = [| "StockQuote"; "SpotPrice"; "MarketPrice" |] in
      let active_by_class = Hashtbl.create 4 in
      let violations = ref false in
      let active = ref 0 in
      let dispatcher = ref None in
      let handler o =
        incr active;
        let cls = Obvent.cls o in
        Hashtbl.replace active_by_class cls
          (1 + Option.value ~default:0 (Hashtbl.find_opt active_by_class cls));
        (match policy with
        | Dispatch.Single -> if !active > 1 then violations := true
        | Dispatch.Multi n -> if !active > max 1 n then violations := true
        | Dispatch.Class_serial ->
            if Hashtbl.find active_by_class cls > 1 then violations := true);
        (* Completion bookkeeping must mirror the dispatcher's. *)
        Engine.schedule engine ~delay:100 (fun () ->
            decr active;
            Hashtbl.replace active_by_class cls
              (Hashtbl.find active_by_class cls - 1));
        ignore !dispatcher
      in
      let d = Dispatch.create engine ~service_time:100 policy handler in
      dispatcher := Some d;
      List.iter
        (fun k ->
          Dispatch.submit d (quote_of reg class_names.(k) ()))
        classes;
      Engine.run engine;
      (not !violations)
      && (Dispatch.stats d).Dispatch.executed = List.length classes
      && Dispatch.in_flight d = 0)

let test_engine_fuzz () =
  (* Failure-injection fuzz: a random schedule of publishes,
     (de)activations, crashes and recoveries, then whole-system
     invariants:
     - a handler only ever receives instances of its subscribed type;
     - every delivered obvent is a distinct clone;
     - domain delivery count = sum of per-subscription counts. *)
  List.iter
    (fun seed ->
      let reg, engine, net, domain, procs = setup ~n:6 ~seed ()
      in
      let rng = Tpbs_sim.Rng.create (seed * 13) in
      let classes = [| "StockQuote"; "SpotPrice"; "MarketPrice" |] in
      let params = [| "StockObvent"; "StockQuote"; "StockRequest"; "Obvent" |] in
      let violations = ref [] in
      let seen_uids = Hashtbl.create 256 in
      let subs = ref [] in
      (* A pool of subscriptions over random types on random nodes. *)
      for _ = 1 to 8 do
        let p = procs.(Tpbs_sim.Rng.int rng 6) in
        let param = Tpbs_sim.Rng.pick rng params in
        let s = ref None in
        let handler o =
          if not (Obvent.instance_of reg o param) then
            violations := Printf.sprintf "%s not <: %s" (Obvent.cls o) param :: !violations;
          if Hashtbl.mem seen_uids (Obvent.uid o) then
            violations := "shared clone" :: !violations;
          Hashtbl.add seen_uids (Obvent.uid o) ()
        in
        s := Some (Process.subscribe p ~param handler);
        subs := Option.get !s :: !subs
      done;
      (* Random schedule. *)
      for step = 0 to 120 do
        let at = step * 700 in
        match Tpbs_sim.Rng.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 ->
            let p = procs.(Tpbs_sim.Rng.int rng 6) in
            let cls = Tpbs_sim.Rng.pick rng classes in
            Engine.schedule engine ~delay:at (fun () ->
                match Process.publish p (quote_of reg cls ()) with
                | () -> ()
                | exception Errors.Cannot_publish _ -> ())
        | 5 | 6 ->
            let s = List.nth !subs (Tpbs_sim.Rng.int rng (List.length !subs)) in
            Engine.schedule engine ~delay:at (fun () ->
                match Subscription.activate s with
                | () -> ()
                | exception Errors.Cannot_subscribe _ -> ())
        | 7 ->
            let s = List.nth !subs (Tpbs_sim.Rng.int rng (List.length !subs)) in
            Engine.schedule engine ~delay:at (fun () ->
                match Subscription.deactivate s with
                | () -> ()
                | exception Errors.Cannot_unsubscribe _ -> ())
        | 8 ->
            let node = Process.node procs.(Tpbs_sim.Rng.int rng 6) in
            Engine.schedule engine ~delay:at (fun () -> Net.crash net node)
        | _ ->
            let i = Tpbs_sim.Rng.int rng 6 in
            Engine.schedule engine ~delay:at (fun () ->
                Net.recover net (Process.node procs.(i));
                Process.resume procs.(i))
      done;
      Engine.run engine;
      (match !violations with
      | [] -> ()
      | v :: _ -> Alcotest.failf "seed %d: invariant violated: %s" seed v);
      let per_sub =
        List.fold_left (fun acc s -> acc + Subscription.delivered s) 0 !subs
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: delivery accounting" seed)
        (Domain.stats domain).Domain.deliveries per_sub)
    [ 101; 202; 303; 404 ]

let test_meta_channel () =
  (* §4.2: subscription requests are obvents on a reflexive channel. *)
  let _reg, engine, _net, domain, procs = setup () in
  Domain.enable_meta domain;
  let meta_log = ref [] in
  let watcher =
    Process.subscribe procs.(3) ~param:"MetaObvent" (fun o ->
        meta_log :=
          (Obvent.cls o, Obvent.get o "subscribedType") :: !meta_log)
  in
  Subscription.activate watcher;
  Engine.run engine;
  let s = Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> ()) in
  Subscription.activate s;
  Engine.run engine;
  Subscription.deactivate s;
  Engine.run engine;
  let observed = List.rev !meta_log in
  Alcotest.(check bool) "activation observed" true
    (List.mem ("SubscriptionActivated", Value.Str "StockQuote") observed);
  Alcotest.(check bool) "deactivation observed" true
    (List.mem ("SubscriptionDeactivated", Value.Str "StockQuote") observed);
  (* No meta traffic about the watcher's own (meta) subscription. *)
  Alcotest.(check bool) "reflexive tower is finite" true
    (not
       (List.exists
          (fun (_, t) -> t = Value.Str "MetaObvent")
          observed))

let test_meta_disabled_by_default () =
  let _reg, engine, _net, _domain, procs = setup () in
  let meta_count = ref 0 in
  let watcher =
    Process.subscribe procs.(2) ~param:"MetaObvent" (fun _ -> incr meta_count)
  in
  Subscription.activate watcher;
  let s = Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> ()) in
  Subscription.activate s;
  Engine.run engine;
  Alcotest.(check int) "silent when disabled" 0 !meta_count

(* The envelope with the obvent encoded straight into it must be the
   bytes the two-step encode gave: serialize, then wrap. Obvents carry
   extreme ints, long strings (multi-byte length varints) and nested
   lists and objects. *)
let prop_fused_envelope =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"Leaf"
    ~attrs:[ "v", Vtype.Tint; "tag", Vtype.Tstring ]
    ();
  Registry.declare_class reg ~name:"Deep" ~implements:[ "Obvent" ]
    ~attrs:
      [ "n", Vtype.Tint; "x", Vtype.Tfloat; "s", Vtype.Tstring;
        "xs", Vtype.Tlist (Vtype.Tlist Vtype.Tint);
        "kid", Vtype.Tobject "Leaf";
        "kids", Vtype.Tlist (Vtype.Tobject "Leaf") ]
    ();
  let open QCheck.Gen in
  let int = oneof [ return min_int; return max_int; return 0; int ] in
  let str =
    oneof [ string_size (int_range 0 300); string_size (int_range 4000 20000) ]
  in
  let leaf =
    map2
      (fun v tag ->
        Value.Obj { cls = "Leaf"; fields = [ "v", Value.Int v; "tag", Value.Str tag ] })
      int string_small
  in
  let ints = map (fun l -> Value.List (List.map (fun i -> Value.Int i) l)) (small_list int) in
  let gen =
    map
      (fun ((n, x, s), (xs, kid, kids), (t, origin, eseq)) ->
        ( Obvent.make reg "Deep"
            [ "n", Value.Int n; "x", Value.Float x; "s", Value.Str s;
              "xs", Value.List xs; "kid", kid; "kids", Value.List kids ],
          (t, origin, eseq) ))
      (triple (triple int float str)
         (triple (list_size (int_range 0 4) ints) leaf (list_size (int_range 0 4) leaf))
         (triple int int int))
  in
  QCheck.Test.make ~name:"fused envelope = encode_envelope of serialize"
    ~count:200
    (QCheck.make
       ~print:(fun (o, (t, origin, eseq)) ->
         Printf.sprintf "%s t=%d eid=(%d,%d)"
           (Value.to_string (Obvent.to_value o))
           t origin eseq)
       gen)
    (fun (o, (publish_time, origin, eseq)) ->
      Pubsub.Remote.encode_envelope ~publish_time ~eid:(origin, eseq) o
      = Tpbs_serial.Codec.encode
          (Value.List
             [ Value.Int publish_time; Value.Int origin; Value.Int eseq;
               Value.Str (Obvent.serialize o) ]))

(* --- the subscriber's lifted pre-filter --------------------------------- *)

(* Each process screens routed subscriptions through the compound index
   of their lifted filters before evaluating them locally. Every [Tree]
   subscription here has a twin whose [Closure] runs the same filter
   through [Fspec.matches] — never indexed, so always evaluated: the
   reference. [!(getLeg().getX() == 1)] raises locally on a null leg
   while its lifted form accepts, the one direction the index may
   disagree in. *)
let test_lifted_prefilter () =
  let module Trace = Tpbs_trace.Trace in
  let module Jsonl = Tpbs_trace.Jsonl in
  let reg = rich_registry () in
  Registry.declare_class reg ~name:"Leg" ~attrs:[ ("x", Vtype.Tint) ] ();
  Registry.declare_class reg ~name:"LegQuote" ~extends:"StockQuote"
    ~attrs:[ ("leg", Vtype.Tobject "Leg") ] ();
  let tr = Trace.create () in
  let sink = Buffer.create 65536 in
  Trace.set_sink tr (Some sink);
  Trace.set_ambient tr;
  let engine = Engine.create ~seed:5 () in
  let net = Net.create engine in
  let domain = Domain.create reg net in
  let publisher = Process.create domain (Net.add_node net) in
  let p = Process.create domain (Net.add_node net) in
  let trees =
    [ ("StockQuote", "q.getPrice() < 50");
      ( "StockQuote",
        "q.getCompany() == \"Acme\" && q.getPrice() >= 20 && q.getPrice() < 80" );
      ("LegQuote", "!(q.getLeg().getX() == 1)");
      ("StockQuote", "q.getAmount() > 5 || q.getCompany().indexOf(\"Tel\") != -1");
      ("StockObvent", "q.getPrice() >= 30 && q.getPrice() < 90") ]
  in
  let null_leg =
    Fspec.of_source ~param:"q" "!(q.getLeg().getX() == 1)"
  in
  (match null_leg with
  | Fspec.Tree (e, _) ->
      Alcotest.(check bool) "the raising filter is mobile" true
        (Tpbs_filter.Mobility.classify reg ~param:"LegQuote" ~vars:[] e
         = Tpbs_filter.Mobility.Mobile
        && Tpbs_filter.Rfilter.of_expr ~env:[] ~param:"LegQuote" e <> None)
  | _ -> ());
  let sub param filter = Process.subscribe p ~param ~filter (fun _ -> ()) in
  let pairs =
    List.map
      (fun (param, src) ->
        let tree = Fspec.of_source ~param:"q" src in
        let twin = Fspec.closure (fun o -> Fspec.matches reg tree o) in
        (sub param tree, sub param twin))
      trees
  in
  let all = sub "StockObvent" Fspec.accept_all in
  let cheap =
    sub "StockQuote" (Fspec.closure (fun o -> Obvent.get o "price" > Value.Float 60.))
  in
  let subs = all :: cheap :: List.concat_map (fun (a, b) -> [ a; b ]) pairs in
  List.iter Subscription.activate subs;
  Engine.run engine;
  let rng = Random.State.make [| 19 |] in
  let publish n =
    for _ = 1 to n do
      let company = [| "Acme"; "Telco Mobiles"; "Initech" |].(Random.State.int rng 3) in
      let price = Value.Float (float_of_int (Random.State.int rng 100)) in
      let amount = Value.Int (Random.State.int rng 10) in
      let base = [ ("company", Value.Str company); ("price", price); ("amount", amount) ] in
      let o =
        match Random.State.int rng 3 with
        | 0 -> Obvent.make reg "StockQuote" base
        | 1 -> Obvent.make reg "SpotPrice" base
        | _ ->
            let leg =
              if Random.State.bool rng then Value.Null
              else Value.obj "Leg" [ ("x", Value.Int (Random.State.int rng 3)) ]
            in
            Obvent.make reg "LegQuote" (base @ [ ("leg", leg) ])
      in
      Process.publish publisher o
    done;
    Engine.run engine
  in
  publish 150;
  let gone =
    List.concat_map (fun (tree, twin) -> [ tree; twin ]) [ List.nth pairs 1; List.nth pairs 2 ]
  in
  List.iter Subscription.deactivate gone;
  Engine.run engine;
  publish 150;
  List.iter Subscription.activate gone;
  Engine.run engine;
  publish 150;
  Trace.set_ambient (Trace.create ());
  (* Deliveries in the order they happened: (event id, sid). *)
  let delivered =
    String.split_on_char '\n' (Buffer.contents sink)
    |> List.filter_map (fun line ->
           match Jsonl.parse line with
           | Ok j when Jsonl.member "kind" j = Some (Jsonl.Str "deliver") -> (
               match
                 ( Option.bind (Jsonl.member "id" j) Jsonl.to_string,
                   Option.bind (Jsonl.member "sid" j) Jsonl.to_num )
               with
               | Some id, Some sid -> Some (id, int_of_float sid)
               | _ -> None)
           | _ -> None)
  in
  let seq_of s =
    List.filter_map
      (fun (id, sid) -> if sid = Subscription.id s then Some id else None)
      delivered
  in
  List.iteri
    (fun i (tree, twin) ->
      Alcotest.(check (list string))
        (Printf.sprintf "filter %d: indexed = evaluated" i)
        (seq_of twin) (seq_of tree))
    pairs;
  Alcotest.(check bool) "the raising filter delivered something" true
    (seq_of (fst (List.nth pairs 2)) <> []);
  (* Within one event, subscriptions are served in routed order. *)
  let rec ordered = function
    | (id, a) :: ((id', b) :: _ as rest) ->
        (id <> id' || a > b) && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "routed order within each event" true (ordered delivered);
  (* Every routed subscription not served was filtered out (nothing
     expires and nothing fails to decode here). *)
  let routed =
    String.split_on_char '\n' (Buffer.contents sink)
    |> List.fold_left
         (fun acc line ->
           match Jsonl.parse line with
           | Ok j when Jsonl.member "kind" j = Some (Jsonl.Str "route") -> (
               match Option.bind (Jsonl.member "targets" j) Jsonl.to_num with
               | Some n -> acc + int_of_float n
               | None -> acc)
           | _ -> acc)
         0
  in
  let st = Domain.stats domain in
  Alcotest.(check int) "deliveries" (List.length delivered) st.Domain.deliveries;
  Alcotest.(check int) "every event reached [all]" 450 (List.length (seq_of all));
  Alcotest.(check int) "filtered out = routed - delivered"
    (routed - List.length delivered) st.Domain.filtered_out

(* --- per-message allocation, independent of the read batch ---------- *)

(* A replay of perfbench's small_typed subscriber: three classes in a
   3-level lattice, eight subscriptions (four single-threaded, four
   filtered), envelopes injected through [Remote.connect] in batches of
   [batch], the engine drained after each batch. Returns minor words per
   event, measured after a warm-up pass. *)
let small_typed_words ~batch =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"Tick" ~implements:[ "Obvent" ]
    ~attrs:
      [ ("seq", Vtype.Tint); ("sym", Vtype.Tstring); ("price", Vtype.Tint);
        ("side", Vtype.Tstring) ]
    ();
  Registry.declare_class reg ~name:"Quote" ~extends:"Tick" ~attrs:[ ("vol", Vtype.Tint) ] ();
  Registry.declare_class reg ~name:"Book" ~extends:"Quote" ~attrs:[ ("venue", Vtype.Tstring) ] ();
  let events = 2048 in
  let envs =
    Array.init events (fun seq ->
        let cls = [| "Tick"; "Quote"; "Book" |].(seq mod 3) in
        let base =
          [ ("seq", Value.Int seq); ("sym", Value.Str (Printf.sprintf "SYM%03d" (seq mod 32)));
            ("price", Value.Int (seq * 7 mod 1000));
            ("side", Value.Str (if seq land 4 = 0 then "buy" else "sell")) ]
        in
        let fields =
          match cls with
          | "Tick" -> base
          | "Quote" -> base @ [ ("vol", Value.Int (seq mod 100)) ]
          | _ -> base @ [ ("vol", Value.Int (seq mod 100)); ("venue", Value.Str "XNAS") ]
        in
        ( cls,
          Pubsub.Remote.encode_envelope ~publish_time:0 ~eid:(1, seq)
            (Obvent.make reg cls fields) ))
  in
  let engine = Engine.create () in
  let net = Net.create engine in
  let d = Domain.create reg net in
  let p = Process.create d (Net.add_node net) in
  let inject =
    Pubsub.Remote.connect d p
      { Pubsub.Remote.r_publish = (fun ~cls:_ ~publish_time:_ ~eid:_ _ -> ());
        r_subscribe = (fun ~sid:_ ~param:_ ~filter:_ -> ());
        r_unsubscribe = (fun ~sid:_ -> ()) }
  in
  let delivered = ref 0 in
  let attr a = Expr.getter [ "get" ^ String.capitalize_ascii a ] in
  List.iter
    (fun (param, expr, single) ->
      let filter = Option.map (fun e -> Fspec.tree e) expr in
      let s = Process.subscribe p ~param ?filter (fun _ -> incr delivered) in
      if single then Subscription.set_single_threading s;
      Subscription.activate s)
    Expr.
      [ ("Tick", None, true); ("Tick", Some (attr "price" <. int 500), false);
        ("Quote", None, true); ("Quote", Some (attr "side" =. str "buy"), false);
        ("Book", None, true); ("Book", Some (attr "vol" >=. int 50), false);
        ("Quote", Some (attr "price" >=. int 250 &&& (attr "price" <. int 750)), true);
        ("Book", None, false) ];
  Engine.run engine;
  let run () =
    let i = ref 0 in
    while !i < events do
      for k = !i to min events (!i + batch) - 1 do
        let cls, env = envs.(k) in
        inject ~cls env ~off:0 ~len:(String.length env)
      done;
      Engine.run engine;
      i := !i + batch
    done
  in
  run ();
  let before = !delivered in
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "events delivered" true (!delivered - before > 3 * events);
  words /. float_of_int events

let test_words_per_event_flat () =
  let w8 = small_typed_words ~batch:8 and w256 = small_typed_words ~batch:256 in
  let msg = Printf.sprintf "%.1f words/event at batch 8, %.1f at batch 256" w8 w256 in
  Alcotest.(check bool) ("within 2%: " ^ msg) true (Float.abs (w256 -. w8) <= 0.02 *. w8);
  Alcotest.(check bool) ("at most 400: " ^ msg) true (w8 <= 400. && w256 <= 400.)

(* Opening an envelope in place allocates its result and nothing else:
   [Some (t, (origin, eseq), (off, len))] is 2 + 4 + 3 + 3 words. *)
let test_open_envelope_allocates_only_result () =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"Tick" ~implements:[ "Obvent" ]
    ~attrs:[ ("seq", Vtype.Tint) ] ();
  let env =
    "pad"
    ^ Pubsub.Remote.encode_envelope ~publish_time:5 ~eid:(1, 9)
        (Obvent.make reg "Tick" [ ("seq", Value.Int 9) ])
  in
  let off = 3 and len = String.length env - 3 in
  let opened () = Pubsub.Remote.decode_envelope_sub env ~off ~len in
  (match opened () with
  | Some (5, (1, 9), (ooff, olen)) ->
      Alcotest.(check int) "obvent runs to the end" (off + len) (ooff + olen)
  | _ -> Alcotest.fail "envelope did not open");
  let probe = let w = Gc.minor_words () in Gc.minor_words () -. w in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (opened ()))
  done;
  let words = (Gc.minor_words () -. w0 -. probe) /. 1000. in
  Alcotest.(check (float 0.)) "words per open" 12. words

let suite =
  ( "core",
    [ Alcotest.test_case "type routing: supertype sees subtypes (Fig. 1)"
        `Quick test_subscribe_supertype_receives_subtypes;
      Alcotest.test_case "content filtering" `Quick test_filtering;
      Alcotest.test_case "clone per subscriber (§2.1.2)" `Quick
        test_clone_per_subscriber;
      Alcotest.test_case "publisher is also a subscriber" `Quick
        test_publisher_also_subscribes;
      Alcotest.test_case "activation lifecycle (§3.4)" `Quick
        test_activation_lifecycle;
      Alcotest.test_case "subscription validation (LP1)" `Quick
        test_subscribe_validation;
      Alcotest.test_case "publish from crashed process" `Quick
        test_publish_from_crashed_raises;
      Alcotest.test_case "total-order channel" `Quick test_total_order_channel;
      Alcotest.test_case "causal channel" `Quick test_causal_channel;
      Alcotest.test_case "fifo channel" `Quick test_fifo_channel;
      Alcotest.test_case "certified: crash recovery + durable id" `Quick
        test_certified_crash_recovery;
      Alcotest.test_case "certified: replay subscription" `Quick
        test_replay_subscription;
      Alcotest.test_case "certified: replay respects filter" `Quick
        test_replay_respects_filter;
      Alcotest.test_case "certified: durable id type mismatch" `Quick
        test_durable_id_type_mismatch;
      Alcotest.test_case "priority overtaking" `Quick test_priority_overtaking;
      Alcotest.test_case "teardown during egress drain" `Quick
        test_teardown_during_egress_drain;
      Alcotest.test_case "timely: expiry in queue" `Quick
        test_timely_expiry_in_queue;
      Alcotest.test_case "timely: newest preferred" `Quick
        test_timely_newest_preferred;
      Alcotest.test_case "qos precedence: reliable beats timely" `Quick
        test_qos_precedence_in_engine;
      Alcotest.test_case "thread policies (§3.3.5)" `Quick test_thread_policies;
      Alcotest.test_case "ordered defaults" `Quick
        test_ordered_defaults_single_threaded;
      Alcotest.test_case "broker: remote filtering (§3.3.3)" `Quick
        test_broker_remote_filtering;
      Alcotest.test_case "broker: unsubscribe stops forwarding" `Quick
        test_broker_unsubscribe_stops_forwarding;
      Alcotest.test_case "broker: non-match drops with zero decodes" `Quick
        test_broker_drop_zero_decodes;
      Alcotest.test_case "cow delivery isolation under subscriber writes"
        `Quick test_delivery_cow_isolation;
      Alcotest.test_case "EagerClone opts out of cow views" `Quick
        test_eager_clone_opt_out;
      Alcotest.test_case "gossip channel" `Quick test_gossip_channel;
      Alcotest.test_case "RMI hand in hand (§5.4, Fig. 8)" `Quick
        test_rmi_proxies_adopted_and_pinned;
      Alcotest.test_case "latency accounting" `Quick test_latency_metric;
      Alcotest.test_case "certified + prioritary compose" `Quick
        test_certified_prioritary_combination;
      Alcotest.test_case "filter runtime error = no match" `Quick
        test_filter_runtime_error_is_no_match;
      Alcotest.test_case "closure exception = no match" `Quick
        test_closure_exception_is_no_match;
      Alcotest.test_case "delivered counter" `Quick
        test_subscription_delivered_counter;
      Alcotest.test_case "50 subscriptions, 50 clones" `Quick
        test_many_subscriptions_one_node;
      Alcotest.test_case "interleaved activation cycles (§3.4.2)" `Quick
        test_interleaved_activation_cycles;
      Alcotest.test_case "multiple filtering hosts" `Quick
        test_multiple_brokers;
      Alcotest.test_case "class-serial threading (§3.3.5 extension)" `Quick
        test_class_serial_threading;
      Alcotest.test_case "reflexive meta channel (§4.2)" `Quick
        test_meta_channel;
      Alcotest.test_case "meta channel off by default" `Quick
        test_meta_disabled_by_default;
      Alcotest.test_case "targeted dissemination (DACE routing)" `Quick
        test_targeted_dissemination;
      Alcotest.test_case "targeted: propagation window" `Quick
        test_targeted_interest_window;
      Alcotest.test_case "engine fuzz: random ops + crashes" `Quick
        test_engine_fuzz;
      Alcotest.test_case "lifted pre-filter = local evaluation" `Quick
        test_lifted_prefilter ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_dispatch_invariants; prop_fused_envelope ]
    @ [ Alcotest.test_case "words per delivered event do not grow with the read batch"
          `Quick test_words_per_event_flat;
        Alcotest.test_case "opening an envelope allocates only its result" `Quick
          test_open_envelope_allocates_only_result;
        Alcotest.test_case "no latency samples under Remote.connect" `Quick
          test_latency_skipped_under_remote;
        Alcotest.test_case "remote egress queue sends the obvent as published" `Quick
          test_remote_txq_snapshots_obvent ] )
