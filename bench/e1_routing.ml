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
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module Rng = Tpbs_sim.Rng
module Routing = Tpbs_core.Routing
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

let run () =
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
    (if !agreement then "exact" else "BROKEN")
