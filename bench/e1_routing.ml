(* E1 — Type-based routing (Fig. 1, §2.1.3).

   Semantics: a subscription to a type receives instances of all its
   subtypes. Cost: we compare the per-event matching cost of
   (a) type-based subscriptions over the stock hierarchy,
   (b) the topic baseline with the equivalent topic tree
       ("stocks", "stocks/request", "stocks/request/spot", ...), and
   (c) the flat content-based baseline encoding the type as an
       attribute (which loses subtype coverage: an equality test on
       "type" cannot see subtypes without enumerating them — we encode
       the enumeration, which is the baseline's expressiveness tax).

   The shape to observe: all three are cheap; type-based matching
   scales with subscriptions like topics do, while flat content
   matching pays for the enumerated subtype constraints. *)

module Registry = Tpbs_types.Registry
module Vtype = Tpbs_types.Vtype
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module Rng = Tpbs_sim.Rng
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Routing = Tpbs_core.Routing
module Shard = Tpbs_core.Shard
module Pool = Tpbs_core.Pool
module Pubsub = Tpbs_core.Pubsub
module Topics = Tpbs_baselines.Topics
module Contentps = Tpbs_baselines.Contentps

let type_of_topic = function
  | "stocks" -> "StockObvent"
  | "stocks/quote" -> "StockQuote"
  | "stocks/request" -> "StockRequest"
  | "stocks/request/spot" -> "SpotPrice"
  | "stocks/request/market" -> "MarketPrice"
  | _ -> assert false

let topic_of_class = function
  | "StockQuote" -> "stocks/quote"
  | "SpotPrice" -> "stocks/request/spot"
  | "MarketPrice" -> "stocks/request/market"
  | _ -> assert false

let all_topics =
  [| "stocks"; "stocks/quote"; "stocks/request"; "stocks/request/spot";
     "stocks/request/market" |]

let rec run () =
  let reg = Workload.registry () in
  let rng = Rng.create 2025 in
  Workload.table_header
    "E1  type-based routing vs topics vs flat content (per-event match cost)"
    [ "subs"; "type-based(us)"; "linear-scan(us)"; "topics(us)";
      "content(us)"; "matches/evt(type)"; "matches/evt(topic)" ];
  List.iter
    (fun n ->
      (* Subscription populations with identical intent. *)
      let sub_topics = Array.init n (fun _ -> Rng.pick rng all_topics) in
      let sub_types = Array.map type_of_topic sub_topics in
      let topics = Topics.create () in
      Array.iteri (fun i topic -> Topics.subscribe topics ~topic i) sub_topics;
      let content = Contentps.create () in
      Array.iteri
        (fun i tname ->
          (* Flat encoding: enumerate the concrete classes under the
             subscribed type. *)
          let classes =
            List.filter
              (fun c -> Array.mem c Workload.leaf_classes)
              (Registry.subtypes reg tname)
          in
          match classes with
          | [ single ] ->
              Contentps.subscribe content i
                [ { attr = "type"; op = Contentps.Eq; const = Value.Str single } ]
          | several ->
              (* The baseline has no disjunction: register one
                 subscription per class under a shifted id space and
                 count any as a match for i. *)
              List.iteri
                (fun k cls ->
                  Contentps.subscribe content
                    ((k + 1) * 1_000_000 + i)
                    [ { attr = "type"; op = Contentps.Eq; const = Value.Str cls } ])
                several)
        sub_types;
      let events =
        Array.init 200 (fun _ -> Workload.random_event reg rng ())
      in
      (* (a) the engine's dispatch: per-concrete-class routing index —
         one hash lookup per event once the class has been seen. *)
      let route = Routing.create reg in
      let build cls =
        let targets = ref [] in
        for i = Array.length sub_types - 1 downto 0 do
          if Registry.subtype reg cls sub_types.(i) then
            targets := i :: !targets
        done;
        !targets
      in
      let type_matches = ref 0 in
      let t_type =
        Workload.time_per_op ~runs:50 (fun () ->
            type_matches := 0;
            Array.iter
              (fun event ->
                let cls = Obvent.cls event in
                type_matches :=
                  !type_matches + List.length (Routing.find route cls ~build:(fun b cls -> b cls) build))
              events)
      in
      (* (a') reference: the pre-index linear scan, one subtype
         question per subscription per event. *)
      let scan_matches = ref 0 in
      let t_scan =
        Workload.time_per_op ~runs:50 (fun () ->
            scan_matches := 0;
            Array.iter
              (fun event ->
                let cls = Obvent.cls event in
                Array.iter
                  (fun tname ->
                    if Registry.subtype reg cls tname then incr scan_matches)
                  sub_types)
              events)
      in
      assert (!type_matches = !scan_matches);
      let topic_matches = ref 0 in
      let t_topic =
        Workload.time_per_op ~runs:50 (fun () ->
            topic_matches := 0;
            Array.iter
              (fun event ->
                let topic = topic_of_class (Obvent.cls event) in
                topic_matches :=
                  !topic_matches + List.length (Topics.publish topics ~topic))
              events)
      in
      let t_content =
        Workload.time_per_op ~runs:50 (fun () ->
            Array.iter
              (fun event ->
                let ev =
                  [ "type", Value.Str (Obvent.cls event) ]
                in
                ignore (Contentps.matches content ev))
              events)
      in
      let per_event seconds = seconds /. 200. *. 1e6 in
      Fmt.pr "%5d  %14.3f  %15.3f  %10.3f  %11.3f  %17.1f  %18.1f@." n
        (per_event t_type) (per_event t_scan) (per_event t_topic)
        (per_event t_content)
        (float_of_int !type_matches /. 200.)
        (float_of_int !topic_matches /. 200.))
    [ 10; 100; 1000; 5000 ];
  (* Semantic agreement: topic containment = subtype coverage. *)
  let rng = Rng.create 7 in
  let agreement = ref true in
  for _ = 1 to 500 do
    let event = Workload.random_event reg rng () in
    let cls = Obvent.cls event in
    Array.iter
      (fun topic ->
        let by_type = Registry.subtype reg cls (type_of_topic topic) in
        let topics1 = Topics.create () in
        Topics.subscribe topics1 ~topic 0;
        let by_topic =
          Topics.publish topics1 ~topic:(topic_of_class cls) <> []
        in
        if by_type <> by_topic then agreement := false)
      all_topics
  done;
  Fmt.pr "routing agreement between type hierarchy and topic tree: %s@."
    (if !agreement then "exact" else "BROKEN");
  run_sharded ()

(* E1b — sharded dispatch.

   Aggregate egress throughput across engine shards: Prioritary
   traffic is egress-limited (one message per shard per drain
   interval), so with the class population spread over the shard
   partition, aggregate virtual-time throughput scales with the shard
   count. Handler bodies run on the real domain pool ([~domains:n]);
   per-shard delivery counts come from [Domain.stats_of_shard] and
   expose the load balance the hash partition achieves. *)

and run_sharded () =
  (* Eight Prioritary classes, one per residue of the 8-way partition
     — which also covers every shard at 4, 2 and 1 (r mod 8 covers
     r mod 4 covers r mod 2). *)
  let classes = Array.make 8 "" in
  let found = ref 0 in
  let i = ref 0 in
  while !found < 8 do
    let name = Printf.sprintf "Load%d" !i in
    let k = Shard.key ~n_shards:8 name in
    if classes.(k) = "" then begin
      classes.(k) <- name;
      incr found
    end;
    incr i
  done;
  let events = 400 in
  Workload.table_header
    (Printf.sprintf
       "E1b sharded dispatch: %d Prioritary events over %d classes \
        (virtual-time egress throughput)"
       events (Array.length classes))
    [ "shards"; "delivered"; "virt-ms"; "evt/ms"; "speedup"; "balance";
      "pool-tasks"; "pool-steals" ];
  Workload.json_table ~key:"e1_sharded"
    ~cols:
      [ "shards"; "delivered"; "virt_ms"; "evt_per_ms"; "speedup"; "balance";
        "pool_tasks"; "pool_steals" ];
  let base = ref 0.0 in
  (* [pool.tasks]/[pool.steals] live in the ambient trace registry and
     accumulate across pool instances: report per-run deltas. *)
  let prev_tasks = ref 0 and prev_steals = ref 0 in
  List.iter
    (fun n ->
      let reg = Registry.create () in
      Array.iter
        (fun name ->
          Registry.declare_class reg ~name ~implements:[ "Prioritary" ]
            ~attrs:[ "n", Vtype.Tint; "priority", Vtype.Tint ]
            ())
        classes;
      let engine = Engine.create ~seed:5 () in
      let net =
        Net.create ~config:{ Net.default_config with jitter = 0 } engine
      in
      let domain = Pubsub.Domain.create ~n_shards:n ~domains:n reg net in
      let pub = Pubsub.Process.create domain (Net.add_node net) in
      let sub = Pubsub.Process.create domain (Net.add_node net) in
      let subs =
        Array.map
          (fun cls ->
            let s = Pubsub.Process.subscribe sub ~param:cls (fun _ -> ()) in
            Pubsub.Subscription.activate s;
            s)
          classes
      in
      for j = 0 to events - 1 do
        Pubsub.Process.publish pub
          (Obvent.make reg
             classes.(j mod Array.length classes)
             [ "n", Value.Int j; "priority", Value.Int (j mod 3) ])
      done;
      Engine.run engine;
      let delivered =
        Array.fold_left
          (fun acc s -> acc + Pubsub.Subscription.delivered s)
          0 subs
      in
      let virt_ms = float_of_int (Engine.now engine) /. 1000. in
      let thr = float_of_int delivered /. virt_ms in
      if n = 1 then base := thr;
      let speedup = thr /. !base in
      (* Partition balance: smallest/largest per-shard delivery share
         (1.0 = perfectly even). *)
      let per_shard =
        List.init n (fun k ->
            (Pubsub.Domain.stats_of_shard domain k).Pubsub.Domain.deliveries)
      in
      let balance =
        float_of_int (List.fold_left min max_int per_shard)
        /. float_of_int (max 1 (List.fold_left max 0 per_shard))
      in
      let tasks, steals =
        match Pubsub.Domain.pool_stats domain with
        | None -> 0, 0
        | Some st ->
            let t = st.Pool.tasks - !prev_tasks
            and s = st.Pool.steals - !prev_steals in
            prev_tasks := st.Pool.tasks;
            prev_steals := st.Pool.steals;
            t, s
      in
      Fmt.pr "%6d  %9d  %7.1f  %6.2f  %7.2f  %7.2f  %10d  %11d@." n delivered
        virt_ms thr speedup balance tasks steals;
      Workload.json_row ~key:"e1_sharded"
        [ J_int n; J_int delivered; J_float virt_ms; J_float thr;
          J_float speedup; J_float balance; J_int tasks; J_int steals ];
      Pubsub.Domain.shutdown domain)
    [ 1; 2; 4; 8 ]
