(* OBS — traced end-to-end run for the observability layer.

   A trimmed mixed workload exercising every instrumented layer at
   once: mixed-QoS publishing over a lossy net, a crash/recovery, an
   RMI lease with adopt/release churn, and a call that times out.
   The full JSONL trace (events ++ metrics) is written to
   $TPBS_TRACE_FILE (default "tpbs_trace.jsonl") so it can be fed to
   bin/tpbs_report; a summary is printed inline. CI pipes this file
   through `tpbs_report --check` as a smoke test. *)

module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Trace = Tpbs_trace.Trace
module Report = Tpbs_trace.Report
module Pubsub = Tpbs_core.Pubsub
module Rmi = Tpbs_rmi.Rmi
module Value = Tpbs_serial.Value
module Rng = Tpbs_sim.Rng

let nodes = 6
let events = 120

let run () =
  let reg = Workload.registry () in
  let engine = Engine.create ~seed:90210 () in
  let tr = Trace.create ~clock:(fun () -> Engine.now engine) () in
  Trace.set_sink tr (Some (Buffer.create (1 lsl 16)));
  Trace.set_detailed tr true;
  Trace.set_ambient tr;
  let net =
    Net.create ~config:{ latency = 900; jitter = 300; loss = 0.05 } engine
  in
  let domain = Pubsub.Domain.create reg net in
  let procs =
    Array.init nodes (fun _ -> Pubsub.Process.create domain (Net.add_node net))
  in
  let node_ids = Array.map Pubsub.Process.node procs in
  (* Mixed subscriptions: a broad one, plus one per QoS rung. *)
  List.iter
    (fun (i, param) ->
      Pubsub.Subscription.activate
        (Pubsub.Process.subscribe procs.(i) ~param (fun _ -> ())))
    [ 1, "StockObvent"; 2, "FifoQuote"; 3, "TotalQuote"; 4, "CertifiedQuote";
      5, "StockQuote" ];
  let rng = Rng.create 7 in
  let classes =
    [| "StockQuote"; "FifoQuote"; "TotalQuote"; "CertifiedQuote" |]
  in
  for i = 0 to events - 1 do
    Engine.schedule engine ~delay:(i * 700) (fun () ->
        let p = i mod nodes in
        if Net.alive net node_ids.(p) then
          Pubsub.Process.publish procs.(p)
            (Workload.random_event reg rng ~cls:classes.(i mod 4) ()))
  done;
  (* Crash a subscriber mid-run and bring it back. *)
  Engine.schedule engine ~delay:20_000 (fun () -> Net.crash net node_ids.(3));
  Engine.schedule engine ~delay:45_000 (fun () ->
      Net.recover net node_ids.(3);
      Pubsub.Process.resume procs.(3));
  (* RMI on the same nodes: lease churn plus a timed-out call. *)
  let rts =
    Array.map (fun me -> Rmi.attach ~dgc:(Rmi.Lease 20_000) net ~me) node_ids
  in
  let obj =
    Rmi.export rts.(0) ~iface:"StockMarket" (fun ~meth:_ ~args ->
        match args with [ v ] -> v | _ -> Value.Null)
  in
  Rmi.adopt_proxy rts.(1) obj;
  Engine.schedule engine ~delay:30_000 (fun () ->
      Rmi.release_proxy rts.(1) obj);
  Engine.schedule engine ~delay:40_000 (fun () -> Rmi.adopt_proxy rts.(1) obj);
  Engine.schedule engine ~delay:10_000 (fun () ->
      Rmi.invoke rts.(2) obj ~meth:"echo" ~args:[ Value.Int 1 ] ~k:ignore);
  (* This call lands while node 3 is crashed: its reply never comes. *)
  let dead_obj =
    Rmi.export rts.(3) ~iface:"StockMarket" (fun ~meth:_ ~args:_ -> Value.Null)
  in
  Engine.schedule engine ~delay:25_000 (fun () ->
      Rmi.invoke rts.(1) dead_obj ~meth:"echo" ~args:[] ~k:ignore);
  Engine.run ~until:400_000 engine;
  let path = Workload.trace_path () in
  Trace.write_file tr path;
  Trace.set_ambient (Trace.create ());
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Fmt.pr "@.OBS  traced mixed run (%d nodes, %d events, crash+RMI churn)@."
    nodes events;
  Fmt.pr "trace: %d JSONL lines -> %s@." (List.length lines) path;
  Fmt.pr "%s@." (Report.summarize lines)
