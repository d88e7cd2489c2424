(* E13 — broker fan-out cost vs subscriber count (encode-once frames).

   One in-process tpbsd broker, one raw publisher and K raw subscriber
   connections over real loopback sockets, all pumped from a single
   thread. P events of one class are published with no filters, so
   every event fans out to all K subscribers; the broker encodes +
   frames + CRCs each Deliver once and queues the same bytes on every
   session. The per-session-encode baseline this replaced is recorded
   in BENCH_10.json (rows with arm "persession").

   Reported per K: delivered events/s and payload MB/s over broker
   time (the fan-out phase alone — subscriber drain is off-box in a
   deployment), GC allocated bytes per delivered event, write-batching
   factor (frames/syscall), and the Deliver encode count — the
   headline number, exactly the publish count, independent of K.

   A final fresh-trace gate run (64 subscribers, 500
   publishes) exports its metrics to $TPBS_TRACE_FILE so CI can assert
   the counters exactly (tpbs_report --require
   "transport.deliver_encodes:value==500" and the like). *)

module Raw = Tpbs_harness.Raw
module Value = Tpbs_serial.Value
module Trace = Tpbs_trace.Trace

let cls = "bench/Fanout"
let pad_bytes = 8192

(* The obvent each publish carries: a padded one — realistic shape,
   fixed size. The pad is the application's string, made once. *)
let pad = String.make pad_bytes 'x'

let obvent eseq =
  Value.Obj { cls; fields = [ ("seq", Value.Int eseq); ("pad", Value.Str pad) ] }

let counter tr name = Trace.Counter.value (Trace.counter tr name)

(* Run one K cell under a fresh ambient registry so the
   transport counters and GC numbers belong to this cell alone. Broker
   time is the broker/publisher phase of each loop turn (Broker.poll —
   routing, encode, enqueue, kernel handoff — plus the publisher
   pump), the fan-out cost under test; the subscriber drain (read +
   CRC check + decode) belongs to remote subscriber machines in a
   deployment, so it is kept off the clock. *)
let cell ~subs ~pubs =
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let a0 = Gc.allocated_bytes () in
  let { Raw.delivered; payload_bytes; broker_s } = Raw.fanout ~subs ~pubs ~cls obvent in
  let alloc = Gc.allocated_bytes () -. a0 in
  let frames = counter tr "transport.frames_sent" in
  let syscalls = counter tr "transport.write_syscalls" in
  let encodes = counter tr "transport.deliver_encodes" in
  Trace.set_ambient (Trace.create ());
  let evps = float_of_int delivered /. broker_s in
  let mbps = float_of_int payload_bytes /. broker_s /. 1048576. in
  let alloc_pe = alloc /. float_of_int delivered in
  let fps =
    if syscalls = 0 then 0.0 else float_of_int frames /. float_of_int syscalls
  in
  (evps, mbps, alloc_pe, fps, encodes)

let axis = [ 1; 8; 64; 256 ]
let pubs_for subs = max 400 (min 4000 (120_000 / subs))

let run () =
  Workload.table_header "E13: broker fan-out, encode-once frames"
    [ "subs"; "arm"; "events/s"; "MB/s"; "alloc/event(B)"; "frames/syscall";
      "deliver_encodes" ];
  Workload.json_table ~key:"e13_fanout"
    ~cols:
      [ "subs"; "arm"; "events_per_s"; "mb_per_s"; "alloc_per_event";
        "frames_per_syscall"; "deliver_encodes" ];
  List.iter
    (fun subs ->
      let pubs = pubs_for subs in
      let evps, mbps, alloc_pe, fps, encodes = cell ~subs ~pubs in
      Fmt.pr "%4d  %-10s  %10.0f  %6.1f  %10.0f  %6.1f  %8d@." subs "shared"
        evps mbps alloc_pe fps encodes;
      Workload.json_row ~key:"e13_fanout"
        [ Workload.J_int subs; Workload.J_str "shared"; Workload.J_float evps;
          Workload.J_float mbps; Workload.J_float alloc_pe;
          Workload.J_float fps; Workload.J_int encodes ])
    axis;
  (* fresh-trace gate run for CI: 64 subscribers, exactly
     500 publishes — transport.deliver_encodes must equal 500 (not
     500 x 64) and transport.fanout_shared must equal 32000 *)
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let { Raw.delivered; _ } = Raw.fanout ~subs:64 ~pubs:500 ~cls obvent in
  let path = Workload.trace_path () in
  Trace.write_file tr path;
  Trace.set_ambient (Trace.create ());
  Fmt.pr "e13 gate run: %d deliveries, trace -> %s@." delivered path
