(* E2 — The cost ladder of composable delivery semantics (Fig. 3/4,
   §3.1.2).

   One class per rung (plain, Reliable, FIFO, Causal, Total,
   Certified, plus the composed lattice points Certified+FIFO,
   Certified+Total and Causal+Total) on an 8-node deployment with
   loss and jitter. For each:
   network messages and bytes per published obvent, delivery ratio,
   and delivery latency. The paper's qualitative claim — stronger
   semantics cost more — should appear as a monotone ladder, with
   certified paying acknowledgements and total paying the sequencer
   indirection. *)

module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Histogram = Tpbs_trace.Histogram
module Pubsub = Tpbs_core.Pubsub
module Rng = Tpbs_sim.Rng
module Trace = Tpbs_trace.Trace

let nodes = 8
let events = 60

let run_rung cls =
  (* Fresh ambient registry per rung: certified retransmits and total
     holdback peaks are read back per class, not accumulated. *)
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let reg = Workload.registry () in
  let engine = Engine.create ~seed:4242 () in
  let net =
    Net.create ~config:{ latency = 1000; jitter = 400; loss = 0.05 } engine
  in
  let domain = Pubsub.Domain.create reg net in
  let procs =
    Array.init nodes (fun _ -> Pubsub.Process.create domain (Net.add_node net))
  in
  let delivered = ref 0 in
  Array.iter
    (fun p ->
      let s = Pubsub.Process.subscribe p ~param:cls (fun _ -> incr delivered) in
      Pubsub.Subscription.activate s)
    procs;
  let rng = Rng.create 17 in
  for i = 0 to events - 1 do
    Engine.schedule engine ~delay:(i * 500) (fun () ->
        Pubsub.Process.publish procs.(i mod nodes)
          (Workload.random_event reg rng ~cls ()))
  done;
  Engine.run ~until:3_000_000 engine;
  let s = Net.stats net in
  let ratio = float_of_int !delivered /. float_of_int (events * nodes) in
  let latency = Pubsub.Domain.latency domain in
  ( float_of_int s.Net.sent /. float_of_int events,
    float_of_int s.Net.bytes_sent /. float_of_int events,
    ratio,
    Histogram.mean latency,
    Histogram.percentile latency 0.99,
    Trace.Counter.value (Trace.counter tr "group.certified.retransmits"),
    Trace.Gauge.peak (Trace.gauge tr "group.total.holdback") )

let run () =
  Workload.table_header
    "E2  delivery-semantics cost ladder (8 nodes, 5% loss, jitter)"
    [ "class"; "msgs/event"; "bytes/event"; "delivery"; "lat-mean";
      "lat-p99"; "cert-rtx"; "holdback-pk" ];
  List.iter
    (fun cls ->
      let msgs, bytes, ratio, mean, p99, rtx, holdback = run_rung cls in
      Fmt.pr "%-15s %10.1f  %11.0f  %7.1f%%  %8.0f  %8.0f  %8d  %11d@." cls
        msgs bytes (100. *. ratio) mean p99 rtx holdback)
    [ "StockQuote"; "ReliableQuote"; "FifoQuote"; "CausalQuote"; "TotalQuote";
      "CertifiedQuote"; "CertFifoQuote"; "CertTotalQuote"; "CausalTotalQuote" ];
  Trace.set_ambient (Trace.create ())
