module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Rng = Tpbs_sim.Rng
module Histogram = Tpbs_trace.Histogram
module Stable = Tpbs_sim.Stable

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:30 (fun () -> log := 30 :: !log);
  Engine.schedule e ~delay:10 (fun () -> log := 10 :: !log);
  Engine.schedule e ~delay:20 (fun () -> log := 20 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "ascending times" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "clock advanced" 30 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~delay:5 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order preserved on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10 (fun () ->
      log := "a" :: !log;
      Engine.schedule e ~delay:5 (fun () -> log := "b" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "final clock" 15 (Engine.now e)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:10 (fun () ->
      incr count;
      true);
  Engine.run ~until:95 e;
  Alcotest.(check int) "9 periods in 95 ticks" 9 !count;
  Alcotest.(check int) "clock at horizon" 95 (Engine.now e);
  Alcotest.(check bool) "work remains queued" true (Engine.pending e > 0)

let test_engine_every_stops () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:10 (fun () ->
      incr count;
      !count < 3);
  Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !count

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let seq_a = List.init 50 (fun _ -> Rng.int a 1000) in
  let seq_b = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same sequence" seq_a seq_b;
  let c = Rng.create 8 in
  let seq_c = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (seq_a <> seq_c)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    if x < 0 || x >= 10 then Alcotest.fail "int out of bounds";
    let f = Rng.float r 2.0 in
    if f < 0. || f >= 2.0 then Alcotest.fail "float out of bounds"
  done

let test_rng_sample () =
  let r = Rng.create 3 in
  let s = Rng.sample_without_replacement r 5 10 in
  Alcotest.(check int) "five samples" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq Int.compare s));
  List.iter (fun x -> if x < 0 || x >= 10 then Alcotest.fail "out of range") s;
  Alcotest.(check int) "k >= n returns all" 10
    (List.length (Rng.sample_without_replacement r 99 10))

let test_net_basic_delivery () =
  let e = Engine.create () in
  let net = Net.create e in
  let a = Net.add_node net and b = Net.add_node net in
  let inbox = ref [] in
  Net.set_handler net b ~port:"app" (fun src payload ->
      inbox := (src, payload) :: !inbox);
  Net.send net ~src:a ~dst:b ~port:"app" "hello";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered" [ a, "hello" ] !inbox;
  let s = Net.stats net in
  Alcotest.(check int) "one sent" 1 s.Net.sent;
  Alcotest.(check int) "one delivered" 1 s.Net.delivered;
  Alcotest.(check int) "bytes" 5 s.Net.bytes_delivered

let test_net_loss () =
  let e = Engine.create ~seed:11 () in
  let net = Net.create ~config:{ Net.default_config with loss = 0.5 } e in
  let a = Net.add_node net and b = Net.add_node net in
  let got = ref 0 in
  Net.set_handler net b ~port:"app" (fun _ _ -> incr got);
  for _ = 1 to 200 do
    Net.send net ~src:a ~dst:b ~port:"app" "x"
  done;
  Engine.run e;
  Alcotest.(check bool) "roughly half lost" true (!got > 60 && !got < 140);
  let s = Net.stats net in
  Alcotest.(check int) "loss accounted" 200 (s.Net.delivered + s.Net.dropped_loss)

let test_net_crash_recover () =
  let e = Engine.create () in
  let net = Net.create e in
  let a = Net.add_node net and b = Net.add_node net in
  let got = ref 0 in
  Net.set_handler net b ~port:"app" (fun _ _ -> incr got);
  Net.crash net b;
  Net.send net ~src:a ~dst:b ~port:"app" "lost";
  Engine.run e;
  Alcotest.(check int) "crashed node gets nothing" 0 !got;
  Net.recover net b;
  Net.send net ~src:a ~dst:b ~port:"app" "after";
  Engine.run e;
  Alcotest.(check int) "recovered node receives" 1 !got;
  Alcotest.(check int) "incarnation bumped" 1 (Net.incarnation net b);
  (* Crashed sources cannot send. *)
  Net.crash net a;
  Net.send net ~src:a ~dst:b ~port:"app" "never";
  Engine.run e;
  Alcotest.(check int) "crashed source sends nothing" 1 !got

let test_net_in_flight_to_crashed_lost () =
  let e = Engine.create () in
  let net = Net.create e in
  let a = Net.add_node net and b = Net.add_node net in
  let got = ref 0 in
  Net.set_handler net b ~port:"app" (fun _ _ -> incr got);
  Net.send net ~src:a ~dst:b ~port:"app" "in-flight";
  (* Crash while the message is in the air. *)
  Engine.schedule e ~delay:1 (fun () -> Net.crash net b);
  Engine.run e;
  Alcotest.(check int) "in-flight message lost" 0 !got;
  Alcotest.(check int) "accounted as crash drop" 1
    (Net.stats net).Net.dropped_crash

let test_net_partition () =
  let e = Engine.create () in
  let net = Net.create e in
  let a = Net.add_node net and b = Net.add_node net and c = Net.add_node net in
  let got_b = ref 0 and got_c = ref 0 in
  Net.set_handler net b ~port:"app" (fun _ _ -> incr got_b);
  Net.set_handler net c ~port:"app" (fun _ _ -> incr got_c);
  Net.partition net [ [ a; b ]; [ c ] ];
  Net.send net ~src:a ~dst:b ~port:"app" "same side";
  Net.send net ~src:a ~dst:c ~port:"app" "other side";
  Engine.run e;
  Alcotest.(check int) "same side delivered" 1 !got_b;
  Alcotest.(check int) "across partition dropped" 0 !got_c;
  Net.heal net;
  Net.send net ~src:a ~dst:c ~port:"app" "healed";
  Engine.run e;
  Alcotest.(check int) "healed" 1 !got_c

let test_schedule_on_incarnation () =
  let e = Engine.create () in
  let net = Net.create e in
  let a = Net.add_node net in
  let fired = ref 0 in
  Net.schedule_on net a ~delay:10 (fun () -> incr fired);
  Net.schedule_on net a ~delay:50 (fun () -> incr fired);
  (* Crash+recover between the two timers: the second must not fire. *)
  Engine.schedule e ~delay:20 (fun () ->
      Net.crash net a;
      Net.recover net a);
  Engine.run e;
  Alcotest.(check int) "only pre-crash timer fired" 1 !fired

let test_every_jitter_bounds () =
  let e = Engine.create ~seed:4 () in
  let times = ref [] in
  let count = ref 0 in
  Engine.every e ~period:100 ~jitter:30 (fun () ->
      times := Engine.now e :: !times;
      incr count;
      !count < 50);
  Engine.run e;
  let rec gaps = function
    | a :: (b :: _ as rest) -> (a - b) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun gap ->
      if gap < 70 || gap > 130 then
        Alcotest.failf "period %d outside jitter bounds" gap)
    (gaps !times)

let test_partition_heal_in_flight () =
  let e = Engine.create () in
  let net = Net.create e in
  let a = Net.add_node net and b = Net.add_node net in
  let got = ref 0 in
  Net.set_handler net b ~port:"p" (fun _ _ -> incr got);
  (* Sent while connected, but partitioned at delivery time: dropped. *)
  Net.send net ~src:a ~dst:b ~port:"p" "x";
  Engine.schedule e ~delay:1 (fun () -> Net.partition net [ [ a ]; [ b ] ]);
  Engine.run e;
  Alcotest.(check int) "partitioned at delivery: dropped" 0 !got;
  (* Sent while partitioned, healed before delivery: delivered. *)
  Net.send net ~src:a ~dst:b ~port:"p" "y";
  Engine.schedule e ~delay:1 (fun () -> Net.heal net);
  Engine.run e;
  Alcotest.(check int) "healed at delivery: delivered" 1 !got

let test_net_stats_balance () =
  (* Regression: a message arriving at a live, reachable node with no
     handler on the port used to vanish without a trace — [sent] never
     balanced against the outcome buckets. Mix all four drop causes
     with deliveries and check the books. *)
  let e = Engine.create ~seed:3 () in
  let net = Net.create ~config:{ Net.default_config with loss = 0.3 } e in
  let a = Net.add_node net and b = Net.add_node net and c = Net.add_node net in
  let got = ref 0 in
  Net.set_handler net b ~port:"app" (fun _ _ -> incr got);
  for _ = 1 to 50 do
    Net.send net ~src:a ~dst:b ~port:"app" "handled"
  done;
  (* No handler bound anywhere on node [c], nor on this port of [b]. *)
  for _ = 1 to 20 do
    Net.send net ~src:a ~dst:c ~port:"app" "nobody home";
    Net.send net ~src:a ~dst:b ~port:"other" "wrong port"
  done;
  Engine.run e;
  Net.crash net c;
  Net.send net ~src:a ~dst:c ~port:"app" "to the dead";
  Engine.run e;
  let s = Net.stats net in
  Alcotest.(check bool) "no-handler drops counted" true
    (s.Net.dropped_no_handler > 0);
  Alcotest.(check int) "every send lands in exactly one bucket" s.Net.sent
    (s.Net.delivered + s.Net.dropped_loss + s.Net.dropped_crash
    + s.Net.dropped_partition + s.Net.dropped_no_handler);
  Alcotest.(check int) "handled messages delivered" !got s.Net.delivered

let test_rng_exponential_and_stddev () =
  let r = Rng.create 6 in
  let m = Histogram.create () in
  for _ = 1 to 2000 do
    let x = Rng.exponential r 50. in
    if x < 0. then Alcotest.fail "negative exponential";
    Histogram.record m x
  done;
  Alcotest.(check bool) "mean near 50" true
    (Histogram.mean m > 35. && Histogram.mean m < 65.);
  Alcotest.(check bool) "stddev positive" true (Histogram.stddev m > 10.)

let test_metric () =
  let m = Histogram.create () in
  List.iter (Histogram.record m) [ 5.; 1.; 3.; 2.; 4. ];
  Alcotest.(check int) "count" 5 (Histogram.count m);
  Alcotest.(check (float 1e-9)) "mean" 3. (Histogram.mean m);
  Alcotest.(check (float 1e-9)) "min" 1. (Histogram.min m);
  Alcotest.(check (float 1e-9)) "max" 5. (Histogram.max m);
  Alcotest.(check (float 1e-9)) "median" 3. (Histogram.percentile m 0.5);
  Alcotest.(check (float 1e-9)) "p99 = max here" 5. (Histogram.percentile m 0.99);
  Histogram.record m 100.;
  Alcotest.(check (float 1e-9)) "still sorted after insert" 100. (Histogram.max m);
  let empty = Histogram.create () in
  Alcotest.(check (float 0.)) "empty mean" 0. (Histogram.mean empty)

let test_stable () =
  let s = Stable.create () in
  Stable.put s "a:1" "x";
  Stable.put s "a:2" "y";
  Stable.put s "b:1" "z";
  Alcotest.(check (option string)) "get" (Some "y") (Stable.get s "a:2");
  Alcotest.(check (list string)) "prefix scan" [ "a:1"; "a:2" ]
    (Stable.keys_with_prefix s "a:");
  Stable.delete s "a:1";
  Alcotest.(check (option string)) "deleted" None (Stable.get s "a:1");
  Alcotest.(check int) "size" 2 (Stable.size s)

let test_sim_determinism () =
  (* Two identical simulations produce identical delivery traces. *)
  let run_once () =
    let e = Engine.create ~seed:99 () in
    let net =
      Net.create ~config:{ latency = 500; jitter = 400; loss = 0.2 } e
    in
    let a = Net.add_node net and b = Net.add_node net in
    let log = ref [] in
    Net.set_handler net b ~port:"p" (fun _ payload ->
        log := (Engine.now e, payload) :: !log);
    for i = 1 to 50 do
      Engine.schedule e ~delay:(i * 10) (fun () ->
          Net.send net ~src:a ~dst:b ~port:"p" (string_of_int i))
    done;
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list (pair int string)))
    "bit-for-bit reproducible" (run_once ()) (run_once ())

let suite =
  ( "sim",
    [ Alcotest.test_case "engine: time order" `Quick test_engine_time_order;
      Alcotest.test_case "engine: FIFO on ties" `Quick test_engine_fifo_ties;
      Alcotest.test_case "engine: nested scheduling" `Quick
        test_engine_nested_scheduling;
      Alcotest.test_case "engine: run until horizon" `Quick
        test_engine_run_until;
      Alcotest.test_case "engine: every stops on false" `Quick
        test_engine_every_stops;
      Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng: sampling" `Quick test_rng_sample;
      Alcotest.test_case "net: basic delivery" `Quick test_net_basic_delivery;
      Alcotest.test_case "net: loss model" `Quick test_net_loss;
      Alcotest.test_case "net: crash and recover" `Quick
        test_net_crash_recover;
      Alcotest.test_case "net: in-flight to crashed lost" `Quick
        test_net_in_flight_to_crashed_lost;
      Alcotest.test_case "net: partitions" `Quick test_net_partition;
      Alcotest.test_case "net: stats balance" `Quick test_net_stats_balance;
      Alcotest.test_case "net: incarnation-guarded timers" `Quick
        test_schedule_on_incarnation;
      Alcotest.test_case "metric summaries" `Quick test_metric;
      Alcotest.test_case "stable storage" `Quick test_stable;
      Alcotest.test_case "whole-sim determinism" `Quick test_sim_determinism;
      Alcotest.test_case "every: jitter bounds" `Quick
        test_every_jitter_bounds;
      Alcotest.test_case "partition: delivery-time semantics" `Quick
        test_partition_heal_in_flight;
      Alcotest.test_case "rng exponential + metric stddev" `Quick
        test_rng_exponential_and_stddev ]
  )
