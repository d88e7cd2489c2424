open Helpers
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Trace = Tpbs_trace.Trace
module Histogram = Tpbs_trace.Histogram
module Jsonl = Tpbs_trace.Jsonl
module Report = Tpbs_trace.Report
module Qos = Tpbs_types.Qos
module Pubsub = Tpbs_core.Pubsub
module Domain = Pubsub.Domain
module Process = Pubsub.Process
module Subscription = Pubsub.Subscription

let lines_of buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

(* --- Welford stddev ---------------------------------------------------- *)

let test_stddev_large_offset_oracle () =
  (* Samples with a huge common offset: the old sum-of-squares formula
     cancels ~1e24 against ~1e24 and returns garbage (often 0 or a
     value off by orders of magnitude); Welford stays exact. The
     oracle is the population stddev of 0..999, invariant under
     shifts. *)
  let m = Histogram.create () in
  let offset = 1e12 in
  for i = 0 to 999 do
    Histogram.record m (offset +. float_of_int i)
  done;
  let oracle = sqrt ((1000. ** 2. -. 1.) /. 12.) in
  let got = Histogram.stddev m in
  Alcotest.(check bool)
    (Printf.sprintf "stddev %.6f within 1e-6 of oracle %.6f" got oracle)
    true
    (abs_float (got -. oracle) /. oracle < 1e-6);
  Alcotest.(check bool)
    "mean survives the offset" true
    (abs_float (Histogram.mean m -. (offset +. 499.5)) < 1e-3)

let test_stddev_small_samples () =
  let m = Histogram.create () in
  Alcotest.(check (float 0.)) "empty" 0. (Histogram.stddev m);
  Histogram.record m 5.;
  Alcotest.(check (float 0.)) "single sample" 0. (Histogram.stddev m);
  Histogram.record m 9.;
  (* population stddev of {5, 9} = 2 *)
  Alcotest.(check (float 1e-9)) "pair" 2. (Histogram.stddev m)

let test_histogram_summary () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Histogram.mean h);
  Alcotest.(check (float 0.)) "min" 1. (Histogram.min h);
  Alcotest.(check (float 0.)) "max" 100. (Histogram.max h);
  Alcotest.(check (float 0.)) "p50" 50. (Histogram.percentile h 0.5);
  Alcotest.(check (float 0.)) "p99" 99. (Histogram.percentile h 0.99)

(* --- counters / gauges ------------------------------------------------- *)

let test_counters_and_gauges () =
  let tr = Trace.create () in
  let c = Trace.counter tr "x.count" in
  Trace.Counter.incr c;
  Trace.Counter.add c 4;
  Alcotest.(check int) "counter" 5 (Trace.Counter.value c);
  Alcotest.(check bool) "find-or-create returns same" true
    (Trace.counter tr "x.count" == c);
  let g = Trace.gauge tr "x.level" in
  Trace.Gauge.set g 7;
  Trace.Gauge.set g 3;
  Alcotest.(check int) "gauge level" 3 (Trace.Gauge.value g);
  Alcotest.(check int) "gauge peak" 7 (Trace.Gauge.peak g);
  Trace.reset tr;
  Alcotest.(check int) "counter reset in place" 0 (Trace.Counter.value c);
  Alcotest.(check int) "gauge reset" 0 (Trace.Gauge.peak g)

(* --- JSONL exporter + parser ------------------------------------------- *)

let test_exported_jsonl_is_valid () =
  let time = ref 0 in
  let tr = Trace.create ~clock:(fun () -> !time) () in
  let buf = Buffer.create 256 in
  Trace.set_sink tr (Some buf);
  time := 42;
  Trace.emit tr ~layer:"core" ~kind:"publish" ~node:3 ~id:(3, 0)
    ~data:[ ("cls", Trace.S "StockQuote") ]
    ();
  time := 99;
  (* Hostile strings must be escaped, not break the line format. *)
  Trace.emit tr ~layer:"net" ~kind:"drop_loss"
    ~data:[ ("port", Trace.S "we\"ird\npo\trt\x01"); ("f", Trace.F 1.5) ]
    ();
  Trace.Counter.add (Trace.counter tr "a.count") 7;
  Trace.Gauge.set (Trace.gauge tr "b.gauge") 11;
  Histogram.record (Trace.histogram tr "c.hist") 2.5;
  Trace.metrics_to_jsonl tr buf;
  let lines = lines_of buf in
  (match Report.check lines with
  | Ok n -> Alcotest.(check int) "all lines valid" 5 n
  | Error (lineno, msg) -> Alcotest.failf "line %d invalid: %s" lineno msg);
  (* Round-trip the hostile string through the parser. *)
  match Jsonl.parse (List.nth lines 1) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok json -> (
      Alcotest.(check (option (float 0.)))
        "t field" (Some 99.)
        (Option.bind (Jsonl.member "t" json) Jsonl.to_num);
      match Option.bind (Jsonl.member "port" json) Jsonl.to_string with
      | Some s ->
          Alcotest.(check string) "escaping round-trips" "we\"ird\npo\trt\x01" s
      | None -> Alcotest.fail "port field missing")

let test_check_rejects_malformed () =
  let reject line =
    match Report.check [ line ] with
    | Ok _ -> Alcotest.failf "accepted malformed line: %s" (String.escaped line)
    | Error _ -> ()
  in
  reject "{";
  reject "{\"t\":1,\"layer\":\"core\"}";  (* no kind *)
  reject "{\"metric\":\"counter\"}";  (* no name *)
  reject "[1,2,3]";  (* not an object *)
  reject "{\"t\":1,\"layer\":\"core\",\"kind\":\"x\"} trailing";
  reject "{\"t\":1,\"layer\":\"core\",\"kind\":\"\x01\"}";  (* raw control *)
  match
    Report.check
      [ "{\"t\":1,\"layer\":\"core\",\"kind\":\"x\"}"; ""; "not json" ]
  with
  | Error (3, _) -> ()
  | Error (n, _) -> Alcotest.failf "wrong line number %d" n
  | Ok _ -> Alcotest.fail "accepted bad third line"

let test_summarize_mentions_everything () =
  let tr = Trace.create () in
  let buf = Buffer.create 256 in
  Trace.set_sink tr (Some buf);
  Trace.emit tr ~layer:"core" ~kind:"deliver" ~node:1 ();
  Trace.emit tr ~layer:"core" ~kind:"deliver" ~node:2 ();
  Trace.Counter.add (Trace.counter tr "net.sent") 17;
  Trace.Gauge.set (Trace.gauge tr "group.total.seq_seen") 4;
  Trace.metrics_to_jsonl tr buf;
  let s = Report.summarize (lines_of buf) in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "events per kind" true (has "core/deliver");
  Alcotest.(check bool) "counter row" true (has "net.sent");
  Alcotest.(check bool) "gauge row" true (has "group.total.seq_seen")

(* --- the one gate: --require NAME:FIELD OP BOUND ----------------------- *)

let test_requirement_parse () =
  let parsed spec =
    match Report.parse_requirement spec with
    | Some r -> (r.Report.name, r.field, r.op, r.bound)
    | None -> Alcotest.failf "rejected %S" spec
  in
  let same spec expected =
    Alcotest.(check bool) spec true (parsed spec = expected)
  in
  same "tpbsd.qdepth:peak<=256" ("tpbsd.qdepth", "peak", Report.Le, 256.);
  same " tpbsd.qdepth : peak <= 256 " ("tpbsd.qdepth", "peak", Report.Le, 256.);
  same "a.b:value >= 1" ("a.b", "value", Report.Ge, 1.);
  same "pool.tasks:value == 420" ("pool.tasks", "value", Report.Eq, 420.);
  same "lat:p99<=5e6" ("lat", "p99", Report.Le, 5e6);
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" spec)
        true
        (Report.parse_requirement spec = None))
    [ "a:b"; "a:b<=x"; "a<=1"; "a:b<1"; "a:b>1"; "a:b=1"; ":b<=1";
      "a:<=1"; "a:b<=" ]

let test_requirement_unmet () =
  let tr = Trace.create () in
  let buf = Buffer.create 256 in
  let c = Trace.counter tr "c.count" in
  let g = Trace.gauge tr "g.depth" in
  let h = Trace.histogram tr "h.lat" in
  Trace.Counter.add c 3;
  Trace.Gauge.set g 9;
  Trace.Gauge.set g 4;
  List.iter (fun x -> Histogram.record h (float_of_int x)) [ 1; 2; 3; 100 ];
  Trace.metrics_to_jsonl tr buf;
  (* a later export of the same registry: its records are final *)
  Trace.Counter.add c 2;
  Trace.metrics_to_jsonl tr buf;
  let lines = lines_of buf in
  let unmet specs =
    List.length
      (Report.unmet lines
         (List.map (fun s -> Option.get (Report.parse_requirement s)) specs))
  in
  let holds spec = Alcotest.(check int) (spec ^ " holds") 0 (unmet [ spec ]) in
  let fails spec = Alcotest.(check int) (spec ^ " fails") 1 (unmet [ spec ]) in
  holds "c.count:value==5";
  fails "c.count:value==3";
  holds "c.count:value>=1";
  holds "c.count:value <= 5";
  fails "c.count:value>=6";
  holds "g.depth:level==4";
  holds "g.depth:peak>=9";
  fails "g.depth:peak<=8";
  holds "h.lat:p99<=100";
  fails "h.lat:p99<=99";
  fails "missing.metric:value>=0";
  fails "c.count:level>=0";
  Alcotest.(check int) "one message per unmet requirement" 2
    (unmet [ "c.count:value==5"; "g.depth:level>=5"; "nope:value==0" ])

let test_write_file () =
  let tr = Trace.create () in
  Trace.Counter.incr (Trace.counter tr "x.count");
  let path = Filename.temp_file "tpbs_trace" ".jsonl" in
  let read () = In_channel.with_open_text path In_channel.input_all in
  let metrics = Buffer.create 64 in
  Trace.metrics_to_jsonl tr metrics;
  Trace.write_file tr path;
  Alcotest.(check string) "no sink: metrics only" (Buffer.contents metrics)
    (read ());
  let sink = Buffer.create 64 in
  Trace.set_sink tr (Some sink);
  Trace.emit tr ~layer:"core" ~kind:"deliver" ();
  let events = Buffer.contents sink in
  Trace.write_file tr path;
  Alcotest.(check string) "events, then metrics"
    (events ^ Buffer.contents metrics)
    (read ());
  Alcotest.(check string) "the sink is left as it was" events
    (Buffer.contents sink);
  Sys.remove path

(* --- determinism -------------------------------------------------------- *)

(* One traced end-to-end run: mixed QoS pub/sub over a lossy net with a
   crash/recovery, all under a fixed seed. Returns the full JSONL
   output (events ++ metrics). *)
let traced_run ~seed () =
  let reg = stock_registry () in
  Registry.declare_class reg ~name:"CertifiedQuote" ~extends:"StockQuote"
    ~implements:[ "Certified" ] ();
  Registry.declare_class reg ~name:"TotalQuote" ~extends:"StockQuote"
    ~implements:[ "TotalOrder" ] ();
  let engine = Engine.create ~seed () in
  let tr = Trace.create ~clock:(fun () -> Engine.now engine) () in
  let buf = Buffer.create 4096 in
  Trace.set_sink tr (Some buf);
  Trace.set_detailed tr true;
  Trace.set_ambient tr;
  let net =
    Net.create ~config:{ Net.default_config with loss = 0.05 } engine
  in
  let domain = Domain.create reg net in
  let procs = Array.init 4 (fun _ -> Process.create domain (Net.add_node net)) in
  let sink = ref [] in
  let subs =
    [ Process.subscribe procs.(1) ~param:"StockObvent" (fun o -> sink := o :: !sink);
      Process.subscribe procs.(2) ~param:"CertifiedQuote" (fun o -> sink := o :: !sink);
      Process.subscribe procs.(3) ~param:"TotalQuote" (fun o -> sink := o :: !sink) ]
  in
  List.iter Subscription.activate subs;
  for i = 0 to 19 do
    let cls =
      match i mod 3 with 0 -> "StockQuote" | 1 -> "CertifiedQuote" | _ -> "TotalQuote"
    in
    Engine.schedule engine ~delay:(i * 500) (fun () ->
        Process.publish procs.(0)
          (Obvent.make reg cls
             [ "company", Value.Str "Acme"; "price", Value.Float (float_of_int i);
               "amount", Value.Int i ]))
  done;
  Engine.schedule engine ~delay:4000 (fun () -> Net.crash net 2);
  Engine.schedule engine ~delay:9000 (fun () ->
      Net.recover net 2;
      Process.resume procs.(2));
  Engine.run ~until:120_000 engine;
  Trace.metrics_to_jsonl tr buf;
  (* Restore a quiet ambient registry for other suites. *)
  Trace.set_ambient (Trace.create ());
  Buffer.contents buf

let test_trace_determinism_fixed_seed () =
  let a = traced_run ~seed:2024 () in
  let b = traced_run ~seed:2024 () in
  Alcotest.(check bool) "trace output non-trivial" true
    (String.length a > 1000);
  Alcotest.(check bool) "same seed, byte-identical JSONL" true
    (String.equal a b);
  (* And the whole thing validates. *)
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' a) in
  match Report.check lines with
  | Ok n -> Alcotest.(check bool) "many valid lines" true (n > 50)
  | Error (lineno, msg) -> Alcotest.failf "line %d invalid: %s" lineno msg

let test_different_seed_differs () =
  let a = traced_run ~seed:2024 () in
  let b = traced_run ~seed:2025 () in
  Alcotest.(check bool) "different seed changes the trace" false
    (String.equal a b)

let suite =
  ( "trace",
    [ Alcotest.test_case "stddev: Welford vs oracle at 1e12 offset" `Quick
        test_stddev_large_offset_oracle;
      Alcotest.test_case "stddev: degenerate sizes" `Quick
        test_stddev_small_samples;
      Alcotest.test_case "histogram summary stats" `Quick
        test_histogram_summary;
      Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
      Alcotest.test_case "exported JSONL validates" `Quick
        test_exported_jsonl_is_valid;
      Alcotest.test_case "check rejects malformed lines" `Quick
        test_check_rejects_malformed;
      Alcotest.test_case "summarize covers events/counters/gauges" `Quick
        test_summarize_mentions_everything;
      Alcotest.test_case "requirement specs parse or are rejected" `Quick
        test_requirement_parse;
      Alcotest.test_case "requirements over every metric kind" `Quick
        test_requirement_unmet;
      Alcotest.test_case "write_file: sink events then metrics" `Quick
        test_write_file;
      Alcotest.test_case "JSONL byte-identical under fixed seed" `Quick
        test_trace_determinism_fixed_seed;
      Alcotest.test_case "different seed produces different trace" `Quick
        test_different_seed_differs ] )
