(* The filtering-host core and its two shells.

   - [Broker_core.route] against a linear oracle (subtype test plus
     direct [Rfilter.eval], deduplicated per destination), with
     covering on and off, across random subscribe/unsubscribe/drop
     scripts;
   - the simulated host and the TCP broker fed one scripted input must
     forward the same events to the same subscribers;
   - covering on the simulated host: suppressed, counted, restored,
     and invisible in deliveries. *)

open Helpers
module Rfilter = Tpbs_filter.Rfilter
module Broker_core = Tpbs_core.Broker_core
module Pubsub = Tpbs_core.Pubsub
module Fspec = Tpbs_core.Fspec
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Trace = Tpbs_trace.Trace
module Jsonl = Tpbs_trace.Jsonl
module Broker = Tpbs_transport.Broker
module Conn = Tpbs_transport.Conn
module Proto = Tpbs_transport.Proto
module Raw = Tpbs_harness.Raw

let reg = stock_registry ()
let params = [| "StockObvent"; "StockQuote"; "StockRequest"; "SpotPrice" |]
let classes = [| "StockQuote"; "SpotPrice"; "MarketPrice" |]

let gen_event =
  QCheck.Gen.(
    map3
      (fun cls company (price, amount) ->
        Obvent.make reg cls
          [ ("company", Value.Str company);
            ("price", Value.Float (float_of_int price /. 2.));
            ("amount", Value.Int amount) ])
      (oneofa classes) gen_company
      (pair (int_range 0 400) (int_range 1 1000)))

(* A filter in its wire form. Thresholds on one path make covering
   frequent; [Str "junk"] does not parse and must forward everything;
   an equality plus a price band is the shape the compound filter
   clusters under its equality. *)
let gen_filter param =
  let open QCheck.Gen in
  let price_below k =
    Expr.(Binop (Lt, getter [ "getPrice" ], float (float_of_int k)))
  in
  let lifted expr =
    match Rfilter.of_expr ~env:[] ~param expr with
    | Some rf -> Rfilter.to_value rf
    | None -> Value.Null
  in
  let company_band c lo width =
    Expr.(
      Binop (Eq, getter [ "getCompany" ], str c)
      &&& Binop (Ge, getter [ "getPrice" ], float (float_of_int lo))
      &&& Binop (Lt, getter [ "getPrice" ], float (float_of_int (lo + width))))
  in
  frequency
    [ (3, return Value.Null);
      (1, return (Value.Str "junk"));
      (5, map (fun k -> lifted (price_below (k * 25))) (int_range 1 8));
      (4, map3 (fun c lo w -> lifted (company_band c (lo * 20) w))
            gen_company (int_range 0 9) (int_range 10 60));
      (5, map lifted gen_stock_expr) ]

(* --- Broker_core against a linear oracle ------------------------------ *)

type op =
  | Sub of int * string * Value.t  (* destination, param, filter *)
  | Unsub of int  (* picks among the ids issued so far *)
  | Drop of int
  | Route of Obvent.t

let gen_op =
  QCheck.Gen.(
    frequency
      [ ( 5,
          int_range 0 3 >>= fun dest ->
          oneofa params >>= fun param ->
          map (fun f -> Sub (dest, param, f)) (gen_filter param) );
        (2, map (fun k -> Unsub k) (int_range 0 1000));
        (1, map (fun d -> Drop d) (int_range 0 3));
        (4, map (fun ev -> Route ev) gen_event) ])

let print_op = function
  | Sub (d, p, f) -> Printf.sprintf "sub(%d,%s,%s)" d p (Value.to_string f)
  | Unsub k -> Printf.sprintf "unsub#%d" k
  | Drop d -> Printf.sprintf "drop(%d)" d
  | Route ev -> Fmt.str "route %a" Obvent.pp ev

let arb_script =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

let oracle_route live ev =
  let v = Obvent.to_value ev in
  let cls = Obvent.cls ev in
  List.fold_left
    (fun acc (_, dest, param, filter) ->
      let matches =
        Registry.subtype reg cls param
        &&
        match filter with
        | Value.Null -> true
        | f -> (
            match Rfilter.of_value f with
            | Some rf -> Rfilter.eval rf v
            | None -> true)
      in
      if matches && not (List.mem dest acc) then dest :: acc else acc)
    [] live
  |> List.rev

(* Run one script through a core and the oracle model side by side;
   false at the first routing disagreement. *)
let agrees ~covering ops =
  let core = Broker_core.create ~covering ~equal:Int.equal reg in
  let live = ref [] (* (id, dest, param, filter), ascending id *) in
  let next = ref 0 in
  List.for_all
    (function
      | Sub (dest, param, filter) ->
          let id = !next in
          incr next;
          Broker_core.subscribe core ~id ~dest ~param filter;
          live := !live @ [ (id, dest, param, filter) ];
          true
      | Unsub k ->
          if !next > 0 then begin
            let id = k mod !next in
            Broker_core.unsubscribe core id;
            live := List.filter (fun (id', _, _, _) -> id' <> id) !live
          end;
          true
      | Drop d ->
          Broker_core.drop core d;
          live := List.filter (fun (_, d', _, _) -> d' <> d) !live;
          true
      | Route ev ->
          let bytes = Obvent.serialize ev in
          let st = Broker_core.stats core in
          Broker_core.route core ~cls:(Obvent.cls ev) bytes ~off:0
            ~len:(String.length bytes)
          = oracle_route !live ev
          && st.installed + st.covered = List.length !live
          && (covering || st.covered = 0))
    ops

let prop_route_oracle covering =
  QCheck.Test.make ~count:300
    ~name:
      (Printf.sprintf "Broker_core.route = linear oracle (covering %s)"
         (if covering then "on" else "off"))
    arb_script (agrees ~covering)

(* --- the two shells, one script ---------------------------------------- *)

type shell_script = {
  subscribers : (string * Expr.t option * bool) list list;
      (* per subscriber: (param, filter, unsubscribed after batch A) *)
  batch_a : Obvent.t list;
  batch_b : Obvent.t list;
}

let gen_shell_script =
  let open QCheck.Gen in
  let sub =
    oneofa params >>= fun param ->
    frequency [ (1, return None); (3, map Option.some gen_stock_expr) ]
    >>= fun filter -> map (fun gone -> (param, filter, gone)) bool
  in
  map3
    (fun subscribers batch_a batch_b -> { subscribers; batch_a; batch_b })
    (list_size (int_range 1 3) (list_size (int_range 1 3) sub))
    (list_size (int_range 1 12) gen_event)
    (list_size (int_range 1 12) gen_event)

(* What the simulated subscriber ships to its filtering host. *)
let wire_filter param = function
  | None -> Value.Null
  | Some e -> (
      match Rfilter.of_expr ~env:[] ~param (Expr.simplify e) with
      | Some rf -> Rfilter.to_value rf
      | None -> Value.Null)

(* Per subscriber, the sorted publish indices its host forwarded to it,
   read from the host's [forward] trace events. *)
let sim_forwards sc =
  let tr = Trace.create () in
  let sink = Buffer.create 4096 in
  Trace.set_sink tr (Some sink);
  Trace.set_ambient tr;
  let engine = Engine.create ~seed:7 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let publisher = Pubsub.Process.create domain (Net.add_node net) in
  let subs =
    List.map
      (fun subs -> (Pubsub.Process.create domain (Net.add_node net), subs))
      sc.subscribers
  in
  Pubsub.add_broker domain (Pubsub.Process.create domain (Net.add_node net));
  let handles =
    List.concat_map
      (fun (p, subs) ->
        List.map
          (fun (param, filter, gone) ->
            let filter = Option.map Fspec.tree filter in
            let s = Pubsub.Process.subscribe p ~param ?filter (fun _ -> ()) in
            Pubsub.Subscription.activate s;
            (s, gone))
          subs)
      subs
  in
  Engine.run engine;
  List.iter (Pubsub.Process.publish publisher) sc.batch_a;
  Engine.run engine;
  List.iter
    (fun (s, gone) -> if gone then Pubsub.Subscription.deactivate s)
    handles;
  Engine.run engine;
  List.iter (Pubsub.Process.publish publisher) sc.batch_b;
  Engine.run engine;
  Trace.set_ambient (Trace.create ());
  let nodes = List.map (fun (p, _) -> Pubsub.Process.node p) subs in
  let got = Hashtbl.create 8 in
  String.split_on_char '\n' (Buffer.contents sink)
  |> List.iter (fun line ->
         match Jsonl.parse line with
         | Ok j when Jsonl.member "kind" j = Some (Jsonl.Str "forward") -> (
             match
               ( Option.bind (Jsonl.member "dst" j) Jsonl.to_num,
                 Option.bind (Jsonl.member "id" j) Jsonl.to_string )
             with
             | Some dst, Some id ->
                 let seq = int_of_string (List.nth (String.split_on_char ':' id) 1) in
                 Hashtbl.add got (int_of_float dst) seq
             | _ -> ())
         | _ -> ());
  List.map (fun n -> List.sort Int.compare (Hashtbl.find_all got n)) nodes

(* The same script against an in-process TCP broker, every peer a raw
   connection speaking the frame protocol. *)
let tcp_forwards sc =
  Trace.set_ambient (Trace.create ());
  let broker = Raw.broker () in
  Fun.protect ~finally:(fun () ->
      Broker.stop broker;
      Trace.set_ambient (Trace.create ()))
  @@ fun () ->
  (* flush the peers and poll the broker four times, so what they sent
     takes effect before anything else is sent *)
  let settle peers =
    for _ = 1 to 4 do
      Raw.turn broker peers
    done
  in
  let pub = Raw.dial broker ~id:"pub" ~window:1_000_000 in
  List.iter
    (fun (cls, supers) -> Raw.advertise pub ~supers cls)
    [ ("StockObvent", []); ("StockQuote", [ "StockObvent" ]);
      ("StockRequest", [ "StockObvent" ]);
      ("SpotPrice", [ "StockRequest"; "StockObvent" ]);
      ("MarketPrice", [ "StockRequest"; "StockObvent" ]) ];
  (* the lattice before the subscriptions, as the simulated host has it *)
  settle [ pub ];
  let peers =
    List.mapi
      (fun k subs ->
        let got = ref [] in
        let c =
          Raw.dial broker ~id:(Printf.sprintf "sub%d" k) ~window:1_000_000 ~on_view:(function
            | Proto.V_deliver { pseq; _ } -> got := pseq :: !got
            | _ -> ())
        in
        List.iteri
          (fun sid (param, filter, _) ->
            Raw.subscribe c ~sid ~filter:(wire_filter param filter) param)
          subs;
        (c, subs, got))
      sc.subscribers
  in
  let conns = pub :: List.map (fun (c, _, _) -> c) peers in
  settle conns;
  (* publish a batch and wait for its cumulative ack: every delivery of
     the batch has then reached the subscribers' sockets *)
  let publish first evs =
    List.iteri
      (fun i ev ->
        let seq = first + i in
        Conn.send_gathered pub.conn
          (Proto.pub_frame ~pseq:seq ~cls:(Obvent.cls ev) ~publish_time:0 ~eid:(1, seq)
             (Obvent.to_value ev)))
      evs;
    let last = first + List.length evs - 1 in
    Raw.until broker conns ~what:"the batch's ack" (fun () -> pub.acked >= last);
    List.iter Raw.drain conns
  in
  publish 0 sc.batch_a;
  List.iter
    (fun (c, subs, _) ->
      List.iteri
        (fun sid (_, _, gone) ->
          if gone then Conn.send c.Raw.conn (Proto.Unsub { sid }))
        subs)
    peers;
  settle conns;
  publish (List.length sc.batch_a) sc.batch_b;
  List.iter Raw.close conns;
  List.map (fun (_, _, got) -> List.sort Int.compare !got) peers

let prop_shells_agree =
  QCheck.Test.make ~count:25
    ~name:"simulated host and tpbsd forward the same events to each subscriber"
    (QCheck.make gen_shell_script) (fun sc ->
      let sim = sim_forwards sc in
      let tcp = tcp_forwards sc in
      if sim <> tcp then
        QCheck.Test.fail_reportf "sim %s@.tcp %s"
          (String.concat " | "
             (List.map (fun l -> String.concat "," (List.map string_of_int l)) sim))
          (String.concat " | "
             (List.map (fun l -> String.concat "," (List.map string_of_int l)) tcp))
      else true)

(* --- covering on the simulated host ------------------------------------ *)

let test_sim_covering () =
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let counter name = Trace.Counter.value (Trace.counter tr name) in
  let engine = Engine.create ~seed:3 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let publisher = Pubsub.Process.create domain (Net.add_node net) in
  let sub = Pubsub.Process.create domain (Net.add_node net) in
  Pubsub.add_broker domain (Pubsub.Process.create domain (Net.add_node net));
  let subscribe_below k =
    let got = ref [] in
    let s =
      Pubsub.Process.subscribe sub ~param:"StockQuote"
        ~filter:(Fspec.of_source ~param:"q" (Printf.sprintf "q.getPrice() < %d" k))
        (fun q ->
          match Obvent.get q "price" with
          | Value.Float p -> got := p :: !got
          | _ -> ())
    in
    Pubsub.Subscription.activate s;
    Engine.run engine;
    (s, got)
  in
  let wide, got_wide = subscribe_below 100 in
  let _narrow, got_narrow = subscribe_below 50 in
  let owned () =
    match Pubsub.broker_filter_stats domain with
    | Some st -> st.Tpbs_filter.Factored.subscriptions
    | None -> Alcotest.fail "no broker"
  in
  Alcotest.(check int) "narrow sub suppressed" 1 (counter "broker.subs_covered");
  Alcotest.(check int) "only the coverer is factored" 1 (owned ());
  let publish prices =
    List.iter
      (fun price -> Pubsub.Process.publish publisher (quote reg ~price ()))
      prices;
    Engine.run engine
  in
  publish [ 40.; 80.; 120. ];
  Alcotest.(check (list (float 0.))) "wide deliveries" [ 40.; 80. ]
    (List.sort Float.compare !got_wide);
  Alcotest.(check (list (float 0.))) "narrow deliveries unchanged" [ 40. ]
    !got_narrow;
  Pubsub.Subscription.deactivate wide;
  Engine.run engine;
  Alcotest.(check int) "narrow sub restored" 1 (counter "broker.subs_restored");
  Alcotest.(check int) "the restored sub is factored" 1 (owned ());
  publish [ 30.; 70. ];
  Alcotest.(check (list (float 0.))) "restored sub still receives" [ 30.; 40. ]
    (List.sort Float.compare !got_narrow);
  Trace.set_ambient (Trace.create ())

(* Regression, shrunk from an oracle counterexample: once its own
   coverer leaves, subscription 1 (destination 0) is re-covered by the
   NEWER subscription 3, and used to be routed at 3's position —
   after destination 1 — breaking "ascending id of the first matching
   subscription". *)
let test_route_order_newer_coverer () =
  let core = Broker_core.create ~covering:true ~equal:Int.equal reg in
  let price_below k =
    Rfilter.to_value
      (Option.get
         (Rfilter.of_expr ~env:[] ~param:"StockObvent"
            Expr.(Binop (Lt, getter [ "getPrice" ], float k))))
  in
  Broker_core.subscribe core ~id:0 ~dest:0 ~param:"StockQuote" Value.Null;
  Broker_core.subscribe core ~id:1 ~dest:0 ~param:"StockQuote" (price_below 50.);
  Broker_core.subscribe core ~id:2 ~dest:1 ~param:"StockQuote" Value.Null;
  Broker_core.subscribe core ~id:3 ~dest:0 ~param:"StockObvent"
    (price_below 100.);
  Broker_core.unsubscribe core 0;
  Alcotest.(check int) "1 stays covered, now by 3" 1
    (Broker_core.stats core).covered;
  let route price =
    let ev =
      Obvent.make reg "StockQuote"
        [ ("company", Value.Str "Acme"); ("price", Value.Float price);
          ("amount", Value.Int 1) ]
    in
    let bytes = Obvent.serialize ev in
    Broker_core.route core ~cls:"StockQuote" bytes ~off:0
      ~len:(String.length bytes)
  in
  Alcotest.(check (list int)) "ordered by covered sub 1" [ 0; 1 ] (route 10.);
  Alcotest.(check (list int)) "ordered by coverer 3" [ 1; 0 ] (route 70.);
  Alcotest.(check (list int)) "only the unfiltered one" [ 1 ] (route 150.)

(* A payload the cursor cannot navigate matches no filtered
   subscription: exactly the always-forward destinations remain, in id
   order, each once. *)
let test_route_unnavigable () =
  let lifted e =
    Rfilter.to_value (Option.get (Rfilter.of_expr ~env:[] ~param:"StockQuote" e))
  in
  let cheap = lifted Expr.(Binop (Lt, getter [ "getPrice" ], float 1000.)) in
  let acme =
    lifted
      Expr.(
        Binop (Eq, getter [ "getCompany" ], str "Acme")
        &&& Binop (Ge, getter [ "getPrice" ], float 0.))
  in
  let event =
    Obvent.serialize
      (Obvent.make reg "StockQuote"
         [ ("company", Value.Str "Acme"); ("price", Value.Float 10.);
           ("amount", Value.Int 1) ])
  in
  List.iter
    (fun covering ->
      let core = Broker_core.create ~covering ~equal:Int.equal reg in
      List.iteri
        (fun id (dest, param, filter) -> Broker_core.subscribe core ~id ~dest ~param filter)
        [ (4, "StockQuote", cheap); (2, "StockObvent", acme);
          (3, "StockQuote", Value.Null); (1, "StockQuote", acme);
          (0, "StockObvent", Value.Null); (3, "StockObvent", Value.Null);
          (5, "StockQuote", Value.Str "junk"); (6, "SpotPrice", Value.Null) ];
      let route bytes =
        Broker_core.route core ~cls:"StockQuote" bytes ~off:0 ~len:(String.length bytes)
      in
      Alcotest.(check (list int)) "navigable: every match" [ 4; 2; 3; 1; 0; 5 ]
        (route event);
      List.iter
        (fun (what, bytes) ->
          Alcotest.(check (list int)) what [ 3; 0; 5 ] (route bytes))
        [ ("garbage", "\xff\xfe\x00garbage");
          ("truncated", String.sub event 0 (String.length event / 2)) ])
    [ false; true ]

let suite =
  ( "broker_core",
    Alcotest.test_case "sim host: covering suppresses, restores, delivers"
      `Quick test_sim_covering
    :: List.map QCheck_alcotest.to_alcotest
         [ prop_route_oracle true; prop_route_oracle false; prop_shells_agree ]
    @ [ Alcotest.test_case "route order: covered sub older than its coverer"
          `Quick test_route_order_newer_coverer;
        Alcotest.test_case "route: unnavigable payload = always-forward only" `Quick
          test_route_unnavigable ] )
