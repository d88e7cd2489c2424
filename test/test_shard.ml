(* The multicore tier: the engine tick barrier, the domain pool, the
   pooled-vs-inline delivery equivalence (the qcheck property the
   pool is held to), a real two-domain run with the hand-off queue,
   and how a pooled engine fails and shuts down. *)

open Helpers
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Pubsub = Tpbs_core.Pubsub
module Pool = Tpbs_core.Pool
module Domain = Pubsub.Domain
module Process = Pubsub.Process
module Subscription = Pubsub.Subscription

(* --- the engine tick barrier ------------------------------------------ *)

let test_tick_barrier () =
  let engine = Engine.create () in
  let fired = ref [] in
  Engine.add_tick_barrier engine (fun () ->
      fired := Engine.now engine :: !fired);
  List.iter
    (fun delay -> Engine.schedule engine ~delay (fun () -> ()))
    [ 0; 5; 5; 9 ];
  Engine.run engine;
  (* Once per clock advancement (0→5, 5→9) plus once at drain — and
     never between the two actions at t = 5. *)
  Alcotest.(check (list int)) "fires between ticks" [ 0; 5; 9 ]
    (List.rev !fired)

let test_tick_barrier_schedules_followup () =
  let engine = Engine.create () in
  let ran = ref false in
  let armed = ref false in
  Engine.add_tick_barrier engine (fun () ->
      if not !armed then begin
        armed := true;
        Engine.schedule engine ~delay:3 (fun () -> ran := true)
      end);
  Engine.schedule engine ~delay:1 (fun () -> ());
  Engine.run engine;
  Alcotest.(check bool) "work scheduled by the barrier still runs" true !ran

(* --- the domain pool -------------------------------------------------- *)

let test_pool_executes_all () =
  let pool = Pool.create ~workers:2 in
  let hits = Atomic.make 0 in
  for _ = 0 to 99 do
    Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  Pool.barrier pool;
  Alcotest.(check int) "all tasks ran" 100 (Atomic.get hits);
  let st = Pool.stats pool in
  Alcotest.(check int) "tasks counted" 100 st.Pool.tasks;
  Alcotest.(check int) "nothing left queued" 0 st.Pool.queued;
  Pool.shutdown pool

(* --- shared scenario fixtures ----------------------------------------- *)

let scen_registry () =
  let reg = stock_registry () in
  Registry.declare_class reg ~name:"CertQuote" ~extends:"StockQuote"
    ~implements:[ "Certified" ] ();
  Registry.declare_class reg ~name:"Alarm" ~implements:[ "Prioritary" ]
    ~attrs:[ "source", Vtype.Tstring; "priority", Vtype.Tint ]
    ();
  Registry.declare_class reg ~name:"Reprint" ~extends:"StockRequest" ();
  reg

let setup ?(n = 4) ?(seed = 42) ?config ?domains () =
  let reg = scen_registry () in
  let engine = Engine.create ~seed () in
  let net = Net.create ?config engine in
  let domain = Domain.create ?domains reg net in
  let procs =
    Array.init n (fun _ -> Process.create domain (Net.add_node net))
  in
  reg, engine, net, domain, procs

let quote_of reg cls ?(company = "Telco Mobiles") ?(amount = 10) () =
  Obvent.make reg cls
    [ "company", Value.Str company; "price", Value.Float 80.;
      "amount", Value.Int amount ]

(* --- pooled = inline ---------------------------------------------------- *)

let params =
  [| "StockObvent"; "StockQuote"; "StockRequest"; "SpotPrice"; "CertQuote";
     "Alarm" |]

let event_classes =
  [| "StockQuote"; "SpotPrice"; "MarketPrice"; "CertQuote"; "Alarm" |]

(* Run one random scenario at a domain count: 4 processes, a broker
   host, six logging subscriptions on two processes, a publish batch
   covering plain, broker-routed, certified and prioritary (egress
   queue) classes, and a Multi subscription that republishes every
   StockQuote it gets as a Reprint — from a pool worker, through the
   hand-off queue, at 2 domains. Returns per-subscription delivery
   logs (flagged when the subscription is Single, so its bodies run on
   the engine thread in delivery order) and the stats.

   The net has no jitter: a handed-off publish runs at the end of its
   tick rather than inside the handler, and with jitter that would
   move the random draws of every later send. Timely classes are
   absent: expiry depends on drain timing. *)
let run_scenario ~domains (sub_params, events) =
  let config = { Net.default_config with jitter = 0 } in
  let reg, engine, _net, domain, procs = setup ~seed:9 ~config ~domains () in
  Pubsub.add_broker domain procs.(3);
  let logs =
    List.mapi
      (fun i pi ->
        let log = ref [] and lock = Mutex.create () in
        let param = params.(pi mod Array.length params) in
        let s =
          Process.subscribe procs.(1 + (i mod 2)) ~param (fun o ->
              let id =
                match Obvent.cls o with
                | "Alarm" -> (
                    match Obvent.get o "source" with
                    | Value.Str s -> s
                    | _ -> "?")
                | _ -> (
                    match Obvent.get o "amount" with
                    | Value.Int n -> string_of_int n
                    | _ -> "?")
              in
              Mutex.protect lock (fun () -> log := (Obvent.cls o, id) :: !log))
        in
        let single = i / 2 mod 2 = 1 in
        if single then Subscription.set_single_threading s;
        Subscription.activate s;
        (param, single), log)
      sub_params
  in
  Subscription.activate
    (Process.subscribe procs.(2) ~param:"StockQuote" (fun o ->
         match Obvent.get o "amount" with
         | Value.Int n ->
             Process.publish procs.(2)
               (quote_of reg "Reprint" ~amount:(1000 + n) ())
         | _ -> ()));
  List.iteri
    (fun j ci ->
      let cls = event_classes.(ci mod Array.length event_classes) in
      let o =
        if cls = "Alarm" then
          Obvent.make reg "Alarm"
            [ "source", Value.Str (string_of_int j);
              "priority", Value.Int (j mod 3) ]
        else quote_of reg cls ~amount:j ()
      in
      Process.publish procs.(0) o)
    events;
  Engine.run engine;
  Domain.shutdown domain;
  ( List.map (fun (key, log) -> key, List.rev !log) logs,
    Domain.stats domain )

let pooled_equivalent =
  QCheck.Test.make ~count:25
    ~name:"pooled engine = inline engine (domains in {1,2})"
    QCheck.(
      make
        Gen.(
          list_size (return 6) (int_range 0 (Array.length params - 1))
          >>= fun sub_params ->
          list_size (int_range 1 20)
            (int_range 0 (Array.length event_classes - 1))
          >>= fun events -> return (sub_params, events)))
    (fun scenario ->
      let base_logs, base_stats = run_scenario ~domains:1 scenario in
      let logs, stats = run_scenario ~domains:2 scenario in
      stats = base_stats
      && List.for_all2
           (fun (key, base) (key', log) ->
             key = key'
             (* Per-subscriber multiset: same events delivered. *)
             && List.sort compare base = List.sort compare log
             (* Per-(subscriber, class) order for Single subscribers:
                within one published class the delivery sequence is
                exactly the inline one. (Reprints are published by
                racing workers, so their order is not fixed.) *)
             && ((not (snd key))
                || List.for_all
                     (fun cls ->
                       List.filter (fun (c, _) -> c = cls) base
                       = List.filter (fun (c, _) -> c = cls) log)
                     (Array.to_list event_classes)))
           base_logs logs)

(* --- real domains: parallel dispatch + hand-off ------------------------- *)

let test_multi_domain_end_to_end () =
  let reg, engine, _net, domain, procs = setup ~domains:2 () in
  let handled = Atomic.make 0 in
  (* Handler A (Multi policy ⇒ runs on a pool worker) republishes into
     another class — a publish from off the engine thread, carried by
     the hand-off queue and applied at the next tick barrier. *)
  let s_quote =
    Process.subscribe procs.(1) ~param:"StockQuote" (fun o ->
        Atomic.incr handled;
        match Obvent.get o "amount" with
        | Value.Int n when n < 8 ->
            Process.publish procs.(1) (quote_of reg "SpotPrice" ~amount:100 ())
        | _ -> ())
  in
  let s_spot =
    Process.subscribe procs.(2) ~param:"SpotPrice" (fun _ ->
        Atomic.incr handled)
  in
  Subscription.activate s_quote;
  Subscription.activate s_spot;
  for i = 0 to 7 do
    Process.publish procs.(0) (quote_of reg "StockQuote" ~amount:i ())
  done;
  Engine.run engine;
  Alcotest.(check int) "quotes handled on workers" 8
    (Subscription.delivered s_quote);
  Alcotest.(check int) "handed-off republishes delivered" 8
    (Subscription.delivered s_spot);
  Alcotest.(check int) "every handler body ran" 16 (Atomic.get handled);
  (match Domain.pool_stats domain with
  | None -> Alcotest.fail "pooled domain reports no pool stats"
  | Some st ->
      Alcotest.(check bool) "handlers went through the pool" true
        (st.Pool.tasks >= 16));
  Domain.shutdown domain

(* A Multi handler that raises fails [Engine.run] whether its body ran
   inline or on a worker (re-raised at the tick barrier). *)
let test_handler_exception_propagates () =
  List.iter
    (fun domains ->
      let reg, engine, _net, domain, procs = setup ~domains () in
      Subscription.activate
        (Process.subscribe procs.(1) ~param:"StockQuote" (fun _ ->
             failwith "boom"));
      Process.publish procs.(0) (quote_of reg "StockQuote" ());
      (match Engine.run engine with
      | () ->
          Alcotest.failf "domains=%d: the handler's exception was lost" domains
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "domains=%d raises" domains)
            "boom" msg);
      Domain.shutdown domain)
    [ 1; 2 ]

(* A Single handler that raised still releases its slot: once the
   caller has caught the exception, the next obvent runs the handler. *)
let test_single_runs_after_raise () =
  List.iter
    (fun domains ->
      let reg, engine, _net, domain, procs = setup ~domains () in
      let calls = ref 0 in
      let s =
        Process.subscribe procs.(1) ~param:"StockQuote" (fun _ ->
            incr calls;
            if !calls = 1 then failwith "boom")
      in
      Subscription.set_single_threading s;
      Subscription.activate s;
      let label what = Printf.sprintf "domains=%d %s" domains what in
      Process.publish procs.(0) (quote_of reg "StockQuote" ());
      (match Engine.run engine with
      | () -> Alcotest.fail (label "the first handler call did not raise")
      | exception Failure _ -> ());
      Process.publish procs.(0) (quote_of reg "StockQuote" ());
      Engine.run engine;
      Alcotest.(check int) (label "delivered") 2 (Subscription.delivered s);
      Alcotest.(check int) (label "handler calls") 2 !calls;
      Domain.shutdown domain)
    [ 1; 2 ]

(* After [shutdown] the domain stays usable: Multi handler bodies run
   inline instead of being dropped on a stopped pool. *)
let test_shutdown_runs_inline () =
  List.iter
    (fun domains ->
      let reg, engine, _net, domain, procs = setup ~domains () in
      let ran = ref 0 in
      let s =
        Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> incr ran)
      in
      Subscription.activate s;
      Domain.shutdown domain;
      Process.publish procs.(0) (quote_of reg "StockQuote" ());
      Engine.run engine;
      let label what = Printf.sprintf "domains=%d %s" domains what in
      Alcotest.(check int) (label "delivered") 1 (Subscription.delivered s);
      Alcotest.(check int) (label "handler ran") 1 !ran)
    [ 1; 2 ]

let suite =
  ( "shard",
    [ Alcotest.test_case "engine tick barrier placement" `Quick
        test_tick_barrier;
      Alcotest.test_case "tick barrier may schedule follow-ups" `Quick
        test_tick_barrier_schedules_followup;
      Alcotest.test_case "pool executes every task" `Quick
        test_pool_executes_all;
      QCheck_alcotest.to_alcotest ~long:false pooled_equivalent;
      Alcotest.test_case "two domains: parallel dispatch + hand-off" `Quick
        test_multi_domain_end_to_end;
      Alcotest.test_case "a raising handler fails the run at 1 and 2 domains"
        `Quick test_handler_exception_propagates;
      Alcotest.test_case "a Single handler runs again after it raised"
        `Quick test_single_runs_after_raise;
      Alcotest.test_case "after shutdown, Multi handlers run inline" `Quick
        test_shutdown_runs_inline ] )
