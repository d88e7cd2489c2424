(* The per-class routing index (Routing) and the single-decode delivery
   path it feeds: equivalence with the pre-index linear scan,
   clone-per-subscriber identity on the gated path, invalidation on
   (de)activation, late type declarations, and the once-per-event
   accounting fixes. *)

open Helpers
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Codec = Tpbs_serial.Codec
module Pubsub = Tpbs_core.Pubsub
module Routing = Tpbs_core.Routing
module Fspec = Tpbs_core.Fspec
module Domain = Pubsub.Domain
module Process = Pubsub.Process
module Subscription = Pubsub.Subscription

let timely_registry () =
  let reg = stock_registry () in
  Registry.declare_class reg ~name:"Tick" ~implements:[ "Timely" ]
    ~attrs:
      [ "symbol", Vtype.Tstring; "birth", Vtype.Tint;
        "timeToLive", Vtype.Tint ]
    ();
  reg

let setup ?(n = 4) ?(config = Net.default_config) ?(seed = 42) ?tx_interval
    ?(registry = stock_registry) () =
  let reg = registry () in
  let engine = Engine.create ~seed () in
  let net = Net.create ~config engine in
  let domain = Domain.create ?tx_interval reg net in
  let procs =
    Array.init n (fun _ -> Process.create domain (Net.add_node net))
  in
  reg, engine, net, domain, procs

let quote_of reg ?(cls = "StockQuote") ?(company = "Telco") ?(price = 80.)
    ?(amount = 10) () =
  Obvent.make reg cls
    [ "company", Value.Str company; "price", Value.Float price;
      "amount", Value.Int amount ]

let collect_handler log = fun obvent -> log := obvent :: !log

(* --- pure index properties ------------------------------------------- *)

(* Random chain/tree lattices: class Ci extends a random earlier class
   (or roots at Obvent). *)
let gen_lattice =
  let open QCheck.Gen in
  int_range 2 8 >>= fun k ->
  list_size (return k) (int_range 0 1000) >>= fun parents ->
  return
    (List.mapi
       (fun i r -> Printf.sprintf "C%d" i, if i = 0 then None else Some (r mod i))
       parents)

let build_lattice spec =
  let reg = Registry.create () in
  List.iter
    (fun (name, parent) ->
      match parent with
      | None -> Registry.declare_class reg ~name ~implements:[ "Obvent" ] ()
      | Some p ->
          Registry.declare_class reg ~name ~extends:(Printf.sprintf "C%d" p) ())
    spec;
  reg

(* A model of exactly how the engine drives the index: targets are
   subscription indices; activation splices in incrementally (or, for
   a target already active, falls back to the coarse invalidation —
   both maintenance strategies must agree), deactivation removes.
   Whatever the operation sequence, find must agree with the oracle
   (the linear scan the index replaced). *)
let index_matches_oracle =
  QCheck.Test.make ~count:200 ~name:"index = linear scan under churn"
    QCheck.(
      make
        Gen.(
          gen_lattice >>= fun spec ->
          let k = List.length spec in
          list_size (return 6) (int_range 0 (k - 1)) >>= fun params ->
          list_size (int_range 1 30)
            (pair (int_range 0 3) (int_range 0 (max 5 (k - 1))))
          >>= fun ops -> return (spec, params, ops)))
    (fun (spec, params, ops) ->
      let reg = build_lattice spec in
      let params =
        Array.of_list (List.map (Printf.sprintf "C%d") params)
      in
      let active = Array.make (Array.length params) false in
      let idx = Routing.create reg in
      let build cls =
        List.filter
          (fun i -> active.(i) && Registry.subtype reg cls params.(i))
          (List.init (Array.length params) Fun.id)
      in
      let n_classes = ref (List.length spec) in
      List.for_all
        (fun (op, j) ->
          match op with
          | 0 ->
              (* find: compare against the oracle *)
              let cls = Printf.sprintf "C%d" (j mod !n_classes) in
              Routing.find idx cls ~build:(fun b cls -> b cls) build = build cls
          | 1 ->
              (* activate: incremental splice, matching the oracle's
                 ascending-index order; re-activating an already-active
                 target exercises the invalidation fallback instead
                 (splicing again would duplicate it) *)
              let i = j mod Array.length params in
              if active.(i) then Routing.invalidate idx ~param:params.(i)
              else begin
                active.(i) <- true;
                Routing.add idx ~param:params.(i) ~compare:Int.compare i
              end;
              true
          | 2 ->
              (* deactivate *)
              let i = j mod Array.length params in
              active.(i) <- false;
              Routing.remove idx ~param:params.(i) (fun i' -> i' = i);
              true
          | _ ->
              (* late declaration under a random existing class *)
              let parent = Printf.sprintf "C%d" (j mod !n_classes) in
              let name = Printf.sprintf "C%d" !n_classes in
              Registry.declare_class reg ~name ~extends:parent ();
              incr n_classes;
              true)
        ops)

(* --- end-to-end delivery equivalence --------------------------------- *)

let stock_params =
  [| "StockObvent"; "StockQuote"; "StockRequest"; "SpotPrice"; "MarketPrice" |]

let leaf_classes = [| "StockQuote"; "SpotPrice"; "MarketPrice" |]

(* Random subscriptions in two activation phases, random events in two
   batches: every subscription's delivered count must equal the linear
   scan oracle over the batches it was active for. *)
let delivery_matches_oracle =
  QCheck.Test.make ~count:30 ~name:"delivery sets = subtype oracle"
    QCheck.(
      make
        Gen.(
          list_size (return 6) (int_range 0 (Array.length stock_params - 1))
          >>= fun params ->
          list_size (return 6) (oneofl [ `Early; `Late; `Dropped; `Never ])
          >>= fun phases ->
          list_size (int_range 1 12)
            (int_range 0 (Array.length leaf_classes - 1))
          >>= fun batch1 ->
          list_size (int_range 1 12)
            (int_range 0 (Array.length leaf_classes - 1))
          >>= fun batch2 -> return (params, phases, batch1, batch2)))
    (fun (params, phases, batch1, batch2) ->
      let reg, engine, _net, _domain, procs = setup ~n:4 () in
      let subs =
        List.map2
          (fun pi phase ->
            let p = procs.(1 + (pi mod 3)) in
            let s = Process.subscribe p ~param:stock_params.(pi) (fun _ -> ()) in
            s, stock_params.(pi), phase)
          params phases
      in
      (* Phase 1: `Early and `Dropped are active. *)
      List.iter
        (fun (s, _, phase) ->
          match phase with
          | `Early | `Dropped -> Subscription.activate s
          | `Late | `Never -> ())
        subs;
      let publish cls_idx =
        Process.publish procs.(0) (quote_of reg ~cls:leaf_classes.(cls_idx) ())
      in
      List.iter publish batch1;
      Engine.run engine;
      (* Phase 2: `Late joins, `Dropped leaves. *)
      List.iter
        (fun (s, _, phase) ->
          match phase with
          | `Late -> Subscription.activate s
          | `Dropped -> Subscription.deactivate s
          | `Early | `Never -> ())
        subs;
      List.iter publish batch2;
      Engine.run engine;
      let matches param batch =
        List.length
          (List.filter
             (fun ci -> Registry.subtype reg leaf_classes.(ci) param)
             batch)
      in
      List.for_all
        (fun (s, param, phase) ->
          let expect =
            match phase with
            | `Early -> matches param batch1 + matches param batch2
            | `Dropped -> matches param batch1
            | `Late -> matches param batch2
            | `Never -> 0
          in
          Subscription.delivered s = expect)
        subs)

(* --- clone identity on the gated path -------------------------------- *)

let test_clone_identity_with_filters () =
  (* The gating instance doubles as the first delivered clone; it must
     still be physically distinct from the publisher's object and from
     every other subscriber's copy (§2.1.2). *)
  let reg, engine, _net, domain, procs = setup ~n:2 () in
  let got = ref [] in
  let low = Fspec.tree Tpbs_filter.Expr.(getter [ "getPrice" ] <. float 100.) in
  let high =
    Fspec.tree Tpbs_filter.Expr.(getter [ "getPrice" ] >. float 1000.)
  in
  let subscribe filter =
    let s =
      Process.subscribe procs.(1) ~param:"StockQuote" ~filter (fun o ->
          got := o :: !got)
    in
    Subscription.activate s
  in
  subscribe low;
  subscribe low;
  subscribe high;
  let original = quote_of reg ~price:80. () in
  Process.publish procs.(0) original;
  Engine.run engine;
  Alcotest.(check int) "two pass the filter" 2 (List.length !got);
  Alcotest.(check int) "one filtered out" 1
    (Domain.stats domain).Domain.filtered_out;
  let uids = List.map Obvent.uid !got in
  Alcotest.(check int) "all clones distinct" 2
    (List.length (List.sort_uniq Int.compare uids));
  Alcotest.(check bool) "none is the published object" false
    (List.mem (Obvent.uid original) uids)

(* --- invalidation ----------------------------------------------------- *)

let test_activate_deactivate_invalidation () =
  let reg, engine, _net, _domain, procs = setup ~n:2 () in
  let s = Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> ()) in
  let publish () =
    Process.publish procs.(0) (quote_of reg ());
    Engine.run engine
  in
  publish ();
  Alcotest.(check int) "inactive: nothing" 0 (Subscription.delivered s);
  Subscription.activate s;
  publish ();
  Alcotest.(check int) "active: delivered" 1 (Subscription.delivered s);
  Subscription.deactivate s;
  publish ();
  Alcotest.(check int) "deactivated: no longer delivered" 1
    (Subscription.delivered s);
  Subscription.activate s;
  publish ();
  Alcotest.(check int) "reactivated: delivered again" 2
    (Subscription.delivered s)

let test_late_type_registration () =
  (* A class declared after traffic has warmed the index must still
     route to supertype subscribers (generation invalidation). *)
  let reg, engine, _net, _domain, procs = setup ~n:2 () in
  let s = Process.subscribe procs.(1) ~param:"StockObvent" (fun _ -> ()) in
  Subscription.activate s;
  Process.publish procs.(0) (quote_of reg ());
  Engine.run engine;
  Alcotest.(check int) "existing class delivered" 1 (Subscription.delivered s);
  Registry.declare_class reg ~name:"FlashQuote" ~extends:"StockQuote" ();
  Process.publish procs.(0) (quote_of reg ~cls:"FlashQuote" ());
  Engine.run engine;
  Alcotest.(check int) "late class delivered" 2 (Subscription.delivered s)

let test_routing_stats () =
  let reg, engine, _net, _domain, procs = setup ~n:2 () in
  let s = Process.subscribe procs.(1) ~param:"StockQuote" (fun _ -> ()) in
  Subscription.activate s;
  for _ = 1 to 3 do
    Process.publish procs.(0) (quote_of reg ())
  done;
  Engine.run engine;
  let st = Process.routing_stats procs.(1) in
  Alcotest.(check int) "one lookup per event" 3 st.Routing.lookups;
  Alcotest.(check int) "one build for the class" 1 st.Routing.builds;
  Alcotest.(check int) "one cached class" 1 st.Routing.classes

(* --- accounting fixes -------------------------------------------------- *)

let test_stale_counted_once () =
  (* A Timely obvent that survives the egress queue but goes stale in
     flight: one event, three matching subscriptions, expired must
     count 1 — once per event, not once per subscription. *)
  let reg, engine, _net, domain, procs =
    setup ~n:2
      ~config:{ Net.default_config with jitter = 0 }
      ~registry:timely_registry ()
  in
  let got = ref [] in
  for _ = 1 to 3 do
    Subscription.activate
      (Process.subscribe procs.(1) ~param:"Tick" (collect_handler got))
  done;
  let now = Engine.now engine in
  (* ttl 500: longer than the 200-tick drain interval, shorter than
     the 1000-tick network latency. *)
  Process.publish procs.(0)
    (Obvent.make reg "Tick"
       [ "symbol", Value.Str "s"; "birth", Value.Int now;
         "timeToLive", Value.Int 500 ]);
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length !got);
  Alcotest.(check int) "expired counted once" 1
    (Domain.stats domain).Domain.expired;
  Alcotest.(check int) "no deliveries" 0 (Domain.stats domain).Domain.deliveries

let test_delivery_race_no_crash () =
  (* A broker-style delivery arriving before the receiving process has
     opened the class's channel must be dropped and counted, not abort
     the run. *)
  let reg, engine, net, domain, procs = setup ~n:2 () in
  let obvent_bytes = Obvent.serialize (quote_of reg ()) in
  let envelope =
    Codec.encode (Value.List [ Value.Int 0; Value.Str obvent_bytes ])
  in
  let routed =
    Codec.encode (Value.List [ Value.Str "StockQuote"; Value.Str envelope ])
  in
  Net.send net
    ~src:(Process.node procs.(0))
    ~dst:(Process.node procs.(1))
    ~port:"psb:del" routed;
  Engine.run engine;
  Alcotest.(check int) "counted as decode error" 1
    (Domain.stats domain).Domain.decode_errors;
  Alcotest.(check int) "nothing delivered" 0
    (Domain.stats domain).Domain.deliveries

(* --- registration order ------------------------------------------------ *)

let test_nodes_creation_order () =
  (* Registration prepends internally; the public views must stay in
     creation order. *)
  let _reg, _engine, _net, domain, procs = setup ~n:5 () in
  Alcotest.(check (list int))
    "Domain.nodes in creation order"
    (Array.to_list (Array.map Process.node procs))
    (Domain.nodes domain)

let suite =
  ( "routing",
    [ Alcotest.test_case "index = linear scan under churn" `Quick (fun () ->
          QCheck.Test.check_exn index_matches_oracle);
      Alcotest.test_case "delivery sets = subtype oracle" `Quick (fun () ->
          QCheck.Test.check_exn delivery_matches_oracle);
      Alcotest.test_case "clone identity on gated path (§2.1.2)" `Quick
        test_clone_identity_with_filters;
      Alcotest.test_case "activate/deactivate invalidation" `Quick
        test_activate_deactivate_invalidation;
      Alcotest.test_case "late type registration" `Quick
        test_late_type_registration;
      Alcotest.test_case "routing stats" `Quick test_routing_stats;
      Alcotest.test_case "stale Timely counted once per event" `Quick
        test_stale_counted_once;
      Alcotest.test_case "delivery/registration race survives" `Quick
        test_delivery_race_no_crash;
      Alcotest.test_case "registration order preserved" `Quick
        test_nodes_creation_order ] )
