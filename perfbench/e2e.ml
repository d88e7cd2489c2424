(* End-to-end benchmark of the paper's publish/subscribe path over TCP:

     Obvent.make -> Pubsub.Process.publish -> Client (publisher)
       -> tpbsd (forked child: Transport.Broker, remote filtering)
       -> Client (subscriber) -> Pubsub core (routing, filters, clones,
          dispatch) -> the benchmark's own handlers

   One run = several set-ups (the median is setup_s), then timed phases
   on the last set-up:

   --trace 0: closed loop (throughput_eps), then open loop at --rate
              (latency_p50_us);
   --trace 1: untraced closed loop (the base of trace.overhead_ratio,
              broker_cpu_us_per_event and the load-generator metrics),
              traced closed loop (per-layer
              work and time), traced open loop (the five-stage latency
              breakdown, queue peaks).

   The last stdout line is one JSON object: correct, attempted, failed,
   metrics. Lines before it print every metric by name with its unit. *)

module Obvent = Tpbs_obvent.Obvent
module Pubsub = Tpbs_core.Pubsub
module Trace = Tpbs_trace.Trace
module Report = Tpbs_trace.Report
module Vec = Spans.Vec
module W = Workload

let now_ns = Spans.now_ns

(* --- metric bookkeeping ---------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let put name unit v = metrics := (name, v, unit) :: !metrics
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. fi n)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of_list l) 0.5

(* --- registry snapshots ------------------------------------------------ *)

let cval tr name = fi (Trace.Counter.value (Trace.counter tr name))
let gpeak tr name = fi (Trace.Gauge.peak (Trace.gauge tr name))

let dump_value lines name field =
  Option.value (Report.metric_value lines name field) ~default:0.

let reset_all (w : World.t) =
  Trace.reset w.pub.tr;
  Trace.reset w.sub.tr;
  fst (Broker_child.command w.broker 'r')

(* --- phases ------------------------------------------------------------ *)

(* Closed loop: keep up to the broker's publish window of events
   outstanding (published, not yet acked and fully handled). Returns
   completions per second over the timed window; the drain afterwards
   is untimed. *)
let closed_phase (w : World.t) ~dur_ns =
  let t0 = now_ns () in
  let t_end = t0 + dur_ns in
  let d0 = w.done_upto in
  let t = ref t0 in
  while !t < t_end do
    while w.published - w.done_upto < World.window do
      World.publish_next w ~due:(now_ns ())
    done;
    World.turn w;
    World.advance_done w;
    t := now_ns ()
  done;
  let completed = w.done_upto - d0 in
  World.drain w;
  fi completed /. (fi (!t - t0) /. 1e9)

(* Open loop at a fixed rate: event k is due at t0 + k / rate whatever
   the system's state, and its latency runs from that due time to its
   first handler entry. Samples (events with at least one required
   delivery) are appended to [w.samples], which the caller sizes. *)
let open_phase (w : World.t) ~rate ~dur_ns =
  let period = 1e9 /. rate in
  w.sampling <- true;
  let t0 = now_ns () in
  let t_end = t0 + dur_ns in
  let k = ref 0 in
  let due () = t0 + int_of_float (fi !k *. period) in
  let t = ref t0 in
  while !t < t_end do
    while due () <= !t do
      if World.room w then World.publish_next w ~due:(due ())
      else begin
        World.tally.overrun <- World.tally.overrun + 1;
        World.note "open loop skipped a due event: too many in flight"
      end;
      incr k
    done;
    World.turn w;
    World.advance_done w;
    t := now_ns ()
  done;
  World.drain w;
  w.sampling <- false

let open_samples ~rate ~dur_ns =
  World.new_samples (int_of_float (rate *. fi dur_ns /. 1e9 *. 1.05) + 1024)

let us_of_ns v = fi v /. 1e3

let sorted_us vec ~lo ~hi =
  sorted_of_list (List.init (hi - lo) (fun i -> us_of_ns (Vec.get vec (lo + i))))

(* Median latency over all samples, and the p90 and p99 of each window
   (a run of samples, [lo, hi)) with the median over windows: a stall of
   a few milliseconds (a GC slice, a descheduled process) then moves one
   window's tail, not the run's figure. *)
let latency_summary (smp : World.samples) windows =
  let windowed p =
    median (List.map (fun (lo, hi) -> percentile (sorted_us smp.s_lat ~lo ~hi) p) windows)
  in
  (percentile (sorted_us smp.s_lat ~lo:0 ~hi:smp.n) 0.5, windowed 0.90, windowed 0.99)

(* --- untraced run: the end-to-end metrics ------------------------------ *)

(* Closed- and open-loop slices alternate [rounds] times, so both
   measurements spread over the whole run, and each metric is the
   median over its slices: a burst of host noise costs one slice. *)
let rounds = 6

let run_plain (w : World.t) ~rate ~seconds =
  let slice = int_of_float (seconds *. 1e9 /. fi (2 * rounds)) in
  w.samples <- open_samples ~rate ~dur_ns:(slice * rounds);
  let tputs = ref [] and windows = ref [] in
  for _ = 1 to rounds do
    tputs := closed_phase w ~dur_ns:slice :: !tputs;
    let lo = w.samples.n in
    open_phase w ~rate ~dur_ns:slice;
    windows := (lo, w.samples.n) :: !windows
  done;
  let p50, p90, p99 = latency_summary w.samples !windows in
  put "throughput_eps" "1/s" (median !tputs);
  put "latency_p50_us" "us" p50;
  Printf.printf "closed-loop slices: %s events/s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !tputs));
  Printf.printf "open loop at %.0f events/s: %d samples, p90 %.1f us, p99 %.1f us (medians over slices)\n"
    rate w.samples.n p90 p99

(* --- traced run: the per-layer metrics --------------------------------- *)

let run_traced (w : World.t) ~rate ~seconds ~setup_dump ~trace_file =
  let dur share = int_of_float (seconds *. share *. 1e9) in
  (* 1. untraced closed loop: baseline throughput, load generator, broker CPU *)
  let cpu0 = reset_all w in
  let gc0 = Gc.quick_stat () and p0 = w.published in
  let turns0 = w.turns and busy0 = w.busy_turns in
  let t0 = now_ns () in
  let tput_plain = closed_phase w ~dur_ns:(dur 0.3) in
  let wall = fi (now_ns () - t0) /. 1e9 in
  let cpu1, _ = Broker_child.command w.broker 't' in
  let gc1 = Gc.quick_stat () in
  let events = fi (w.published - p0) in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  put "loadgen.alloc_bytes_per_event" "bytes"
    (ratio ((words gc1 -. words gc0) *. fi (Sys.word_size / 8)) events);
  put "loadgen.minor_gcs_per_1k_events" "count"
    (ratio (fi (gc1.minor_collections - gc0.minor_collections) *. 1000.) events);
  put "loadgen.busy_ratio" "ratio" (ratio (fi (w.busy_turns - busy0)) (fi (w.turns - turns0)));
  put "broker.cpu_util" "ratio" (ratio (cpu1 -. cpu0) wall);
  put "broker_cpu_us_per_event" "us" (ratio ((cpu1 -. cpu0) *. 1e6) events);
  (* 2. traced closed loop: work counts and time per layer *)
  ignore (reset_all w);
  let views0 = (Obvent.cow_stats ()).views in
  let p0 = w.published in
  let lo = w.spans.n in
  w.tracing <- true;
  let tput_traced = closed_phase w ~dur_ns:(dur 0.3) in
  let hi = w.spans.n in
  let _, bdump = Broker_child.command w.broker 'd' in
  let events = fi (w.published - p0) in
  let agg = Spans.aggregate w.spans ~lo ~hi in
  let mean (a : Spans.agg) = ratio (fi a.total_ns) (fi a.count) in
  put "obvent.make_ns" "ns" (mean (agg Make));
  put "core.publish_ns" "ns" (mean (agg Publish));
  put "core.publish_alloc_bytes" "bytes"
    (ratio (w.alloc_words *. fi (Sys.word_size / 8)) (fi w.publish_calls));
  put "client_pub.poll_busy_ns_per_event" "ns" (ratio (fi (agg Pub_poll).total_ns) events);
  let pt = w.pub.tr and st = w.sub.tr in
  put "client_pub.frames_per_write_syscall" "frames/write"
    (ratio (cval pt "transport.frames_sent") (cval pt "transport.write_syscalls"));
  let bv name = dump_value bdump name "value" in
  let pubs = bv "tpbsd.pubs" in
  put "broker.poll_busy_us_per_pub" "us" (ratio (bv "perfbench.poll_busy_cpu_ns" /. 1e3) pubs);
  put "broker.read_syscalls_per_pub" "reads/pub" (ratio (bv "transport.read_syscalls") pubs);
  put "broker.frames_per_write_syscall" "frames/write"
    (ratio (bv "transport.frames_sent") (bv "transport.write_syscalls"));
  put "broker.payload_copies_per_pub" "copies/pub" (ratio (bv "transport.payload_copies") pubs);
  put "broker.forward_ratio" "ratio" (ratio (bv "tpbsd.forwarded") pubs);
  put "broker.deliver_encodes_per_pub" "encodes/pub" (ratio (bv "transport.deliver_encodes") pubs);
  put "broker.subs_covered" "count" (dump_value setup_dump "broker.subs_covered" "value");
  let frames = cval st "transport.delivered" in
  let reads = cval st "transport.read_syscalls" in
  let sub_poll = agg Sub_poll in
  put "client_sub.poll_self_ns_per_frame" "ns" (ratio (fi sub_poll.self_ns) frames);
  put "client_sub.frames_per_read_syscall" "frames/read"
    (ratio (cval st "transport.frames_received") reads);
  put "client_sub.bytes_per_read_syscall" "bytes/read" (ratio (cval st "transport.bytes_received") reads);
  put "client_sub.payload_copies_per_frame" "copies/frame"
    (ratio (cval st "transport.payload_copies") frames);
  put "client_sub.dup_drops" "count" (cval st "transport.dup_drops");
  let deliveries = cval st "core.deliveries" and cloned = cval st "core.cloned" in
  put "core.deliveries_per_frame" "count/frame" (ratio deliveries frames);
  put "core.cloned_per_frame" "count/frame" (ratio cloned frames);
  put "core.filter_pass_ratio" "ratio"
    (ratio deliveries (deliveries +. cval st "core.filtered_out"));
  (* full decodes = gate deserializations (clones that are not COW
     views) + cursor materializations *)
  let views = fi ((Obvent.cow_stats ()).views - views0) in
  put "serial.full_decodes_per_frame" "count/frame"
    (ratio (cloned -. views +. cval st "serial.cursor_full_decodes") frames);
  put "core.routing_builds" "count" (cval st "core.routing.builds");
  put "trace.overhead_ratio" "ratio" (ratio tput_plain tput_traced);
  Printf.printf "traced closed loop: %.0f events/s (untraced %.0f)\n" tput_traced tput_plain;
  List.iter
    (fun n ->
      let a = Spans.aggregate w.spans ~lo ~hi n in
      if a.count > 0 then
        Printf.printf "span %-16s count %8d  mean %9.0f ns  self %9.0f ns\n"
          (Spans.name_string n) a.count (mean a) (ratio (fi a.self_ns) (fi a.count)))
    Spans.all_names;
  (* the closed loop's spans are summarized; keep only the open loop's *)
  Spans.clear w.spans;
  (* 3. traced open loop: stage breakdown and queue peaks *)
  ignore (reset_all w);
  w.pumped_base <- Trace.Counter.value w.pc_pubs - w.published;
  w.sent_upto <- w.published;
  w.stages <- true;
  let slo = w.spans.n in
  w.samples <- open_samples ~rate ~dur_ns:(dur 0.4);
  open_phase w ~rate ~dur_ns:(dur 0.4);
  let smp = w.samples in
  let shi = w.spans.n in
  let _, odump = Broker_child.command w.broker 'd' in
  put "broker.qdepth_peak" "count" (dump_value odump "tpbsd.qdepth" "peak");
  w.tracing <- false;
  w.stages <- false;
  put "client_pub.unacked_peak" "count" (gpeak pt "transport.unacked");
  put "core.dispatch_peak_queue" "count"
    (fi
       (Array.fold_left
          (fun acc s ->
            match s with
            | Some s -> max acc (Pubsub.Subscription.dispatch_stats s).peak_queue
            | None -> acc)
          0 w.subs));
  (* The stages telescope: for every event they must add up exactly to
     its latency, with every stamp present and no stage negative. *)
  let broken = ref 0 in
  for i = 0 to smp.n - 1 do
    let parts = Array.map (fun v -> Vec.get v i) smp.s_stage in
    if Array.exists (fun p -> p < 0) parts || Array.fold_left ( + ) 0 parts <> Vec.get smp.s_lat i
    then incr broken
  done;
  Array.iteri
    (fun k name ->
      let a = sorted_us smp.s_stage.(k) ~lo:0 ~hi:smp.n in
      put (Printf.sprintf "stage.%s_us_p50" name) "us" (percentile a 0.50);
      put (Printf.sprintf "stage.%s_us_p99" name) "us" (percentile a 0.99))
    World.stage_names;
  put "stage.incomplete" "count" (fi !broken);
  let nw = max 3 (min 20 (smp.n / 2000)) in
  let p50, p90, p99 =
    latency_summary smp (List.init nw (fun i -> (i * smp.n / nw, (i + 1) * smp.n / nw)))
  in
  put "latency_p99_us" "us" p99;
  put "latency_samples" "count" (fi smp.n);
  Printf.printf "traced open loop at %.0f events/s: latency p50 %.1f us, p90 %.1f us, p99 %.1f us (%d samples)\n"
    rate p50 p90 p99 smp.n;
  match trace_file with
  | None -> ()
  | Some path ->
      let n = Spans.write_jsonl w.spans ~lo:slo ~hi:shi ~limit:200_000 path in
      Printf.printf "wrote %d spans of the traced open loop to %s\n" n path

(* --- main --------------------------------------------------------------- *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result () =
  let failed = World.failed () in
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-40s %16.4f %s\n" n v u) ms;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) World.tally.attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_float v) u)
          ms))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rate = ref 0. and setups = ref 9 and trace_dir = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" W.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end metrics, 1 = per-layer metrics");
      ("--rate", Arg.Set_float rate, " open-loop publish rate, events/s");
      ("--setups", Arg.Set_int setups, " set-ups per run (setup_s is their median)");
      ("--trace-dir", Arg.Set_string trace_dir, " write the traced spans as JSONL here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e --workload NAME --seed N --seconds S --trace 0|1 --rate R";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let wl =
    match W.of_name !workload !seed with
    | Some wl -> wl
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if !rate <= 0. || !setups < 1 then begin
    prerr_endline "--rate and --setups must be positive";
    exit 2
  end;
  let traced = !trace = 1 in
  let times = ref [] in
  let rec setup k =
    let t0 = now_ns () in
    let w = World.create wl ~trace:traced in
    times := (fi (now_ns () - t0) /. 1e9) :: !times;
    if k = 1 then w
    else begin
      World.finish w;
      setup (k - 1)
    end
  in
  let w = setup !setups in
  (try
     let _, setup_dump = Broker_child.command w.broker 'd' in
     if traced then
       run_traced w ~rate:!rate ~seconds:!seconds ~setup_dump
         ~trace_file:
           (if !trace_dir = "" then None
            else Some (Filename.concat !trace_dir ("trace-" ^ wl.name ^ ".jsonl")))
     else run_plain w ~rate:!rate ~seconds:!seconds
   with e ->
     Broker_child.kill w.broker;
     raise e);
  World.finish w;
  let setup_s = median !times in
  if traced then
    put "error_rate" "ratio" (ratio (fi (World.failed ())) (fi World.tally.attempted))
  else put "setup_s" "s" setup_s;
  Printf.printf "workload %s seed %d: setup %s s (median of %d), churn deliveries %d\n"
    wl.name !seed
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times))
    !setups w.churn_deliveries;
  Printf.printf "error_rate %.6f: %d failed of %d attempted\n"
    (ratio (fi (World.failed ())) (fi World.tally.attempted))
    (World.failed ()) World.tally.attempted;
  List.iter (fun m -> Printf.printf "FAILURE %s\n" m) (List.rev World.tally.first);
  print_result ()
