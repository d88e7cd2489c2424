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

module Broker = Tpbs_transport.Broker
module Conn = Tpbs_transport.Conn
module Proto = Tpbs_transport.Proto
module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Trace = Tpbs_trace.Trace

let cls = "bench/Fanout"
let pad_bytes = 8192

(* The obvent each publish carries: a padded one — realistic shape,
   fixed size. The pad is the application's string, made once. *)
let pad = String.make pad_bytes 'x'

let obvent ~eseq =
  Value.Obj { cls; fields = [ ("seq", Value.Int eseq); ("pad", Value.Str pad) ] }

type client = { conn : Conn.t; mutable credit : int }

let dial ~port ~id ~window =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  let conn = Conn.create fd in
  Conn.send conn (Proto.Hello { client = id; window });
  { conn; credit = 0 }

(* One measured run: returns (delivered, payload_bytes, broker_seconds).

   Time is split per loop turn: the broker/publisher phase
   (Broker.poll — routing, encode, enqueue, kernel handoff — plus the
   publisher pump) is the fan-out cost under test; the subscriber
   drain phase (read + CRC check + decode) belongs to remote
   subscriber machines in a deployment, so it is kept off the broker
   clock. *)
let run_one ~subs ~pubs =
  let config = { Broker.default_config with warmup_ms = 0 } in
  let broker = Broker.create ~config ~port:0 () in
  let port = Broker.port broker in
  (* subscribers first, each with a window large enough to never need
     replenishment — this measures fan-out, not credit chatter *)
  let sub_clients =
    List.init subs (fun k ->
        (* accept as we dial, or a big K overruns the listen backlog *)
        ignore (Broker.poll broker ~timeout_ms:0 ());
        let c = dial ~port ~id:(Printf.sprintf "sub-%d" k) ~window:max_int in
        Conn.send c.conn
          (Proto.Sub { sid = k; param = cls; filter = Value.Null });
        ignore (Conn.flush c.conn);
        c)
  in
  let pub = dial ~port ~id:"bench-pub" ~window:0 in
  Conn.send pub.conn (Proto.Advertise { cls; supers = [] });
  ignore (Conn.flush pub.conn);
  (* let the broker take everyone in before the clock starts *)
  for _ = 1 to 50 do
    ignore (Broker.poll broker ~timeout_ms:0 ())
  done;
  let delivered = ref 0 in
  let payload_bytes = ref 0 in
  let sent = ref 0 in
  let drain_sub c =
    match Conn.recv c.conn with
    | `Ok ->
        let continue = ref true in
        while !continue do
          match Conn.pop_view c.conn with
          | Conn.View (Proto.V_deliver { envelope; _ }) ->
              incr delivered;
              payload_bytes := !payload_bytes + envelope.Proto.sl_len
          | Conn.View _ -> ()
          | Conn.View_nothing -> continue := false
          | Conn.View_bad reason -> failwith ("e13: subscriber saw " ^ reason)
        done
    | `Blocked -> ()
    | `Closed reason -> failwith ("e13: subscriber lost broker: " ^ reason)
  in
  let pump_pub () =
    while pub.credit > 0 && !sent < pubs do
      (* framed as the client frames a publish: envelope
         [publish_time; origin; eseq; obvent] written into the frame,
         the pad by reference *)
      Conn.send_gathered pub.conn
        (Proto.pub_frame ~pseq:!sent ~cls ~publish_time:0 ~eid:(1, !sent)
           (obvent ~eseq:!sent));
      incr sent;
      pub.credit <- pub.credit - 1
    done;
    ignore (Conn.flush pub.conn);
    match Conn.recv pub.conn with
    | `Ok ->
        let continue = ref true in
        while !continue do
          match Conn.pop pub.conn with
          | Conn.Msg (Proto.Welcome { window }) -> pub.credit <- window
          | Conn.Msg (Proto.Credit { n }) -> pub.credit <- pub.credit + n
          | Conn.Msg _ -> ()
          | Conn.Nothing -> continue := false
          | Conn.Bad reason -> failwith ("e13: publisher saw " ^ reason)
        done
    | `Blocked -> ()
    | `Closed reason -> failwith ("e13: publisher lost broker: " ^ reason)
  in
  let expect = pubs * subs in
  let broker_time = ref 0.0 in
  let last_progress = ref (Unix.gettimeofday (), 0) in
  while !delivered < expect do
    let t0 = Unix.gettimeofday () in
    ignore (Broker.poll broker ~timeout_ms:0 ());
    pump_pub ();
    broker_time := !broker_time +. (Unix.gettimeofday () -. t0);
    List.iter drain_sub sub_clients;
    let stamp, seen = !last_progress in
    if !delivered > seen then last_progress := (Unix.gettimeofday (), !delivered)
    else if Unix.gettimeofday () -. stamp > 10.0 then
      failwith
        (Printf.sprintf "e13: stalled at %d/%d deliveries" !delivered expect)
  done;
  List.iter (fun c -> Conn.close c.conn) sub_clients;
  Conn.close pub.conn;
  Broker.stop broker;
  (!delivered, !payload_bytes, !broker_time)

let counter tr name = Trace.Counter.value (Trace.counter tr name)

(* Run one K cell under a fresh ambient registry so the
   transport counters and GC numbers belong to this cell alone. *)
let cell ~subs ~pubs =
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let a0 = Gc.allocated_bytes () in
  let delivered, payload, dt = run_one ~subs ~pubs in
  let alloc = Gc.allocated_bytes () -. a0 in
  let frames = counter tr "transport.frames_sent" in
  let syscalls = counter tr "transport.write_syscalls" in
  let encodes = counter tr "transport.deliver_encodes" in
  Trace.set_ambient (Trace.create ());
  let evps = float_of_int delivered /. dt in
  let mbps = float_of_int payload /. dt /. 1048576. in
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
  let delivered, _, _ = run_one ~subs:64 ~pubs:500 in
  let path = Workload.trace_path () in
  Trace.write_file tr path;
  Trace.set_ambient (Trace.create ());
  Fmt.pr "e13 gate run: %d deliveries, trace -> %s@." delivered path
