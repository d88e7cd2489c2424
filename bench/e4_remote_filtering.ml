(* E4 — Remote vs local filtering (§3.3.3–3.3.4).

   The motivation for capturing filters as deferred code is to apply
   them on foreign hosts and stop uninteresting events before they
   cross the network. We sweep filter selectivity and compare:

   - local:  best-effort broadcast to every subscriber node, filter
             evaluated at the subscriber;
   - remote: publisher → broker; the broker's compound filter decides
             which nodes receive the event.

   The shape: at low selectivity remote filtering slashes messages and
   bytes; as selectivity approaches 1 the broker only adds its
   indirection hop (the crossover the paper implies). *)

module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Pubsub = Tpbs_core.Pubsub
module Fspec = Tpbs_core.Fspec
module Rng = Tpbs_sim.Rng
module Value = Tpbs_serial.Value

let subscribers = 20
let events = 100

(* Filters of the form price < k: selectivity is k/200 for uniform
   prices in [0, 200). *)
let run_arm ~selectivity ~use_broker =
  let reg = Workload.registry () in
  let engine = Engine.create ~seed:31337 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let publisher = Pubsub.Process.create domain (Net.add_node net) in
  let subs =
    Array.init subscribers (fun _ ->
        Pubsub.Process.create domain (Net.add_node net))
  in
  let broker_proc =
    if use_broker then begin
      let p = Pubsub.Process.create domain (Net.add_node net) in
      Pubsub.add_broker domain p;
      Some p
    end
    else None
  in
  ignore broker_proc;
  let delivered = ref 0 in
  let threshold = selectivity *. 200. in
  Array.iter
    (fun p ->
      let s =
        Pubsub.Process.subscribe p ~param:"StockQuote"
          ~filter:
            (Fspec.tree
               Tpbs_filter.Expr.(getter [ "getPrice" ] <. float threshold))
          (fun _ -> incr delivered)
      in
      Pubsub.Subscription.activate s)
    subs;
  (* Let the subscription control messages reach the broker. *)
  Engine.run engine;
  Net.reset_stats net;
  let rng = Rng.create 5 in
  for i = 0 to events - 1 do
    Engine.schedule engine ~delay:(i * 300) (fun () ->
        Pubsub.Process.publish publisher
          (Workload.random_event reg rng ~cls:"StockQuote" ()))
  done;
  Engine.run engine;
  let s = Net.stats net in
  ( float_of_int s.Net.sent /. float_of_int events,
    float_of_int s.Net.bytes_sent /. float_of_int events,
    float_of_int !delivered /. float_of_int events )

(* Second table: several filtering hosts share the subscription load
   (the paper's "filters of several subscribers gathered on individual
   hosts", plural). *)
let run_broker_scaling ~brokers =
  let reg = Workload.registry () in
  let engine = Engine.create ~seed:4242 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let publisher = Pubsub.Process.create domain (Net.add_node net) in
  let subs =
    Array.init 40 (fun _ -> Pubsub.Process.create domain (Net.add_node net))
  in
  for _ = 1 to brokers do
    Pubsub.add_broker domain (Pubsub.Process.create domain (Net.add_node net))
  done;
  let rng = Rng.create 19 in
  let delivered = ref 0 in
  Array.iter
    (fun p ->
      let threshold = 10. +. Rng.float rng 50. in
      let s =
        Pubsub.Process.subscribe p ~param:"StockQuote"
          ~filter:
            (Fspec.tree
               Tpbs_filter.Expr.(getter [ "getPrice" ] <. float threshold))
          (fun _ -> incr delivered)
      in
      Pubsub.Subscription.activate s)
    subs;
  Engine.run engine;
  Net.reset_stats net;
  for i = 0 to 99 do
    Engine.schedule engine ~delay:(i * 300) (fun () ->
        Pubsub.Process.publish publisher
          (Workload.random_event reg rng ~cls:"StockQuote" ()))
  done;
  Engine.run engine;
  let per_broker = Pubsub.per_broker_filter_stats domain in
  let max_owned =
    List.fold_left
      (fun acc st -> max acc st.Tpbs_filter.Factored.subscriptions)
      0 per_broker
  in
  let max_events =
    List.fold_left
      (fun acc st -> max acc st.Tpbs_filter.Factored.events_matched)
      0 per_broker
  in
  let routes = Pubsub.per_broker_routing_stats domain in
  let route_lookups =
    List.fold_left (fun acc st -> acc + st.Tpbs_core.Routing.lookups) 0 routes
  in
  let route_builds =
    List.fold_left (fun acc st -> acc + st.Tpbs_core.Routing.builds) 0 routes
  in
  ( float_of_int (Net.stats net).Net.sent /. 100.,
    max_owned,
    max_events,
    !delivered,
    route_builds,
    route_lookups )

(* Third table: subscription-aware (targeted) dissemination vs plain
   broadcast, varying how many of the nodes are interested. *)
let run_targeted ~interested ~total ~targeted =
  let reg = Workload.registry () in
  let engine = Engine.create ~seed:77 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  if targeted then Pubsub.Domain.enable_targeted_dissemination domain;
  let publisher = Pubsub.Process.create domain (Net.add_node net) in
  let procs =
    Array.init total (fun _ -> Pubsub.Process.create domain (Net.add_node net))
  in
  let delivered = ref 0 in
  for i = 0 to interested - 1 do
    Pubsub.Subscription.activate
      (Pubsub.Process.subscribe procs.(i) ~param:"StockQuote" (fun _ ->
           incr delivered))
  done;
  Engine.run engine;
  Net.reset_stats net;
  let rng = Rng.create 31 in
  for _ = 1 to 50 do
    Pubsub.Process.publish publisher
      (Workload.random_event reg rng ~cls:"StockQuote" ())
  done;
  Engine.run engine;
  float_of_int (Net.stats net).Net.sent /. 50., !delivered

let run () =
  Workload.table_header
    (Printf.sprintf
       "E4  remote (broker) vs local filtering, %d subscribers" subscribers)
    [ "selectivity"; "msgs/evt local"; "msgs/evt remote"; "bytes local";
      "bytes remote"; "deliveries/evt" ];
  List.iter
    (fun selectivity ->
      let lm, lb, ld = run_arm ~selectivity ~use_broker:false in
      let rm, rb, rd = run_arm ~selectivity ~use_broker:true in
      if Float.abs (ld -. rd) > 0.5 then
        Fmt.pr "    (delivery mismatch: local %.1f vs remote %.1f)@." ld rd;
      Fmt.pr "%10.2f  %14.1f  %15.1f  %11.0f  %12.0f  %14.1f@." selectivity lm
        rm lb rb rd)
    [ 0.01; 0.05; 0.1; 0.25; 0.5; 0.75; 1.0 ];
  Workload.table_header
    "E4b  scaling the filtering hosts (40 subscribers, 100 events)"
    [ "brokers"; "msgs/evt"; "max subs/host"; "max match-work/host";
      "deliveries"; "route builds/lookups" ];
  List.iter
    (fun brokers ->
      let msgs, max_owned, max_events, delivered, builds, lookups =
        run_broker_scaling ~brokers
      in
      Fmt.pr "%7d  %8.1f  %13d  %19d  %10d  %11d/%d@." brokers msgs max_owned
        max_events delivered builds lookups)
    [ 1; 2; 4 ];
  Workload.table_header
    "E4c  subscription-aware (targeted) vs broadcast dissemination (50 nodes)"
    [ "interested"; "bcast msgs/evt"; "targeted msgs/evt"; "deliveries" ];
  List.iter
    (fun interested ->
      let b_msgs, b_del = run_targeted ~interested ~total:50 ~targeted:false in
      let t_msgs, t_del = run_targeted ~interested ~total:50 ~targeted:true in
      if b_del <> t_del then
        Fmt.pr "    (delivery mismatch: %d vs %d)@." b_del t_del;
      Fmt.pr "%10d  %14.1f  %17.1f  %10d@." interested b_msgs t_msgs t_del)
    [ 1; 5; 15; 50 ]
