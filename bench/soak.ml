(* Localhost soak harness for the TCP transport + tpbsd broker.

   Default mode forks a real multi-process deployment: a broker child
   (adopting a pre-bound listening socket, so restarts reuse the very
   same fd), N subscriber children and P publisher children, each a
   full Pubsub.Domain joined over TCP through Tpbs_transport.Client.
   Publishers stamp each obvent with a wall-clock send time;
   subscribers verify exactly-once, per-origin ordering, and record
   delivery latency samples. With --restart the broker hangs for
   100 ms (SIGSTOP) and is then SIGKILLed mid-run (a genuine crash: no
   goodbye, no flush, events unacknowledged) and a fresh
   incarnation adopts the socket — certified delivery must hold
   through it via publisher retransmission + subscriber dedup.

   The parent aggregates everything into one JSONL metrics file
   (soak.latency_us histogram, soak.recovery_ms gauge, soak.* verdict
   counters, summed transport.* client counters, plus the broker's
   own tpbsd.* export) for tpbs_report --require NAME:FIELD OP BOUND
   SLO gates, and exits non-zero on any lost, duplicated or out-of-order
   delivery.

   Standalone roles for manual two-terminal runs against an external
   tpbsd:   soak.exe pub --port P --id a --events 100
            soak.exe sub --port P --expect 100 [--events 100]      *)

module Registry = Tpbs_types.Registry
module Vtype = Tpbs_types.Vtype
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module Pubsub = Tpbs_core.Pubsub
module Client = Tpbs_transport.Client
module Broker = Tpbs_transport.Broker
module Trace = Tpbs_trace.Trace
module Histogram = Tpbs_trace.Histogram
module Report = Tpbs_trace.Report
module Child = Tpbs_harness.Child
module Forked = Tpbs_harness.Forked
module Ctx = Tpbs_harness.Ctx
module Oracle = Tpbs_harness.Oracle

let now_s () = Unix.gettimeofday ()
let now_us () = int_of_float (now_s () *. 1e6)
let now_ms () = int_of_float (now_s () *. 1e3)

let soak_registry () =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"SoakQuote" ~implements:[ "Obvent" ]
    ~attrs:
      [ ("seq", Vtype.Tint); ("origin", Vtype.Tstring);
        ("sentUs", Vtype.Tint); ("pad", Vtype.Tstring) ]
    ();
  reg

(* One client process: a fresh trace registry and a one-node domain
   on the broker. When the broker goes away, [Client.poll] (in
   [Ctx.turn]) re-dials under the client's default backoff policy
   (with the retransmit/resubscribe resync on success) — its waits are
   bounded by [timeout_ms], so a disconnected child keeps its cadence
   without an explicit reconnect loop here. The backoff budget (~25 s)
   dwarfs any soak broker-restart window. *)
let connect ~id ~port =
  Trace.set_ambient (Trace.create ());
  Ctx.connect ~reg:(soak_registry ()) ~id ~port

(* --- publisher child --------------------------------------------------- *)

let run_publisher ~id ~port ~events ?(pace_us = 0) ?metrics_file () =
  let ctx = connect ~id ~port in
  let pad = String.make 64 'x' in
  let sent = ref 0 and next_at = ref (now_us ()) in
  let deadline = now_s () +. 120. in
  while
    (!sent < events || Client.queued_count ctx.client > 0)
    && now_s () < deadline
  do
    if !sent < events && now_us () >= !next_at then begin
      next_at := now_us () + pace_us;
      let ob =
        Obvent.make ctx.reg "SoakQuote"
          [ ("seq", Value.Int !sent); ("origin", Value.Str id);
            ("sentUs", Value.Int (now_us ())); ("pad", Value.Str pad) ]
      in
      Pubsub.Process.publish ctx.proc ob;
      incr sent
    end;
    Ctx.turn ctx ~timeout_ms:1
  done;
  let unresolved = Client.queued_count ctx.client in
  Option.iter (Trace.write_file (Trace.ambient ())) metrics_file;
  Printf.printf "soak[%s]: published %d, unacked at exit %d\n%!" id !sent
    unresolved;
  if unresolved = 0 then 0 else 3

(* --- subscriber child -------------------------------------------------- *)

let run_subscriber ~id ~port ~expect ~events ?metrics_file ?samples_file
    ?ready_file () =
  let ctx = connect ~id ~port in
  let samples = Buffer.create 8192 and oracle = Oracle.create () in
  (* [seq] counts per publisher: the narrow sibling below takes the
     second half of every publisher's run *)
  let tail_from = max 1 (events / 2) and tail = ref 0 in
  let handler ob =
    Oracle.observe oracle ob;
    match (Obvent.get ob "seq", Obvent.get ob "sentUs") with
    | Value.Int seq, Value.Int sent_us ->
        if seq >= tail_from then incr tail;
        let lat = now_us () - sent_us in
        Buffer.add_string samples
          (Printf.sprintf "%d %d\n" (now_ms ()) (max 0 lat))
    | _ -> ()
  in
  ignore (Ctx.subscribe ctx ~param:"SoakQuote" handler);
  (* Two narrower siblings registered after the subscribe-to-all: the
     broker's covering index suppresses them (and must keep them
     suppressed across restart resync, where the client replays Subs
     in original order). Locally they still dispatch, so the wide one
     doubles as a delivery cross-check on the main handler. *)
  let covered_sub k =
    let counter = ref 0 in
    let filter = Tpbs_filter.Expr.(Binop (Ge, getter [ "getSeq" ], int k)) in
    ignore
      (Ctx.subscribe ctx ~param:"SoakQuote" ~filter:(Tpbs_core.Fspec.tree filter)
         (fun _ -> incr counter));
    counter
  in
  let covered_all = covered_sub 0 in
  let covered_tail = covered_sub tail_from in
  let write path s = Out_channel.with_open_text path (fun oc -> output_string oc s) in
  Option.iter (fun p -> write p "ready\n") ready_file;
  let deadline = now_s () +. 120. in
  while Oracle.delivered oracle < expect && now_s () < deadline do
    Ctx.turn ctx ~timeout_ms:50
  done;
  Option.iter (fun p -> write p (Buffer.contents samples)) samples_file;
  Option.iter (Trace.write_file (Trace.ambient ())) metrics_file;
  let delivered = Oracle.delivered oracle in
  Printf.printf
    "soak[%s]: delivered %d/%d (dups seen by app %d, order violations %d, \
     covered siblings saw %d/%d, tail %d/%d)\n%!"
    id delivered expect (Oracle.dups oracle) (Oracle.reorders oracle)
    !covered_all delivered !covered_tail !tail;
  match Oracle.verdict oracle ~expect with
  | 0 when !covered_all <> delivered -> 7
  | 0 when !covered_tail <> !tail -> 8
  | code -> code

(* --- the forked deployment --------------------------------------------- *)

let read_lines path =
  if not (Sys.file_exists path) then []
  else In_channel.with_open_text path In_channel.input_lines

let deployment ~subs ~pubs ~events ~restart ~pace_us ~out =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.temp_dir "tpbs-soak-" "" in
  let path name = Filename.concat dir name in
  let listen_fd, port = Forked.listen () in
  Printf.printf "soak: broker port %d, %d subs × %d pubs × %d events%s\n%!"
    port subs pubs events
    (if restart then ", with mid-run broker crash" else "");
  (* the first incarnation needs no warmup: subscribers register
     before any publisher is forked (the ready barrier below); only a
     restarted broker must hold publishers back while survivors
     re-subscribe *)
  let start_broker gen =
    Forked.start listen_fd
      ~config:(if gen = 0 then Tpbs_harness.instant else Broker.default_config)
      ~who:(Printf.sprintf "broker-%d" gen)
      ~metrics_file:(path (Printf.sprintf "broker-%d.jsonl" gen))
  in
  let broker0 = start_broker 0 in
  let fork_client id run =
    Child.fork id (fun () ->
        Unix.close listen_fd;
        Unix.close broker0.ctl;
        run ~id ~metrics_file:(path ("metrics-" ^ id ^ ".jsonl")))
  in
  (* subscribers first; wait until each has its Sub registered *)
  let sub_children =
    List.init subs (fun i ->
        fork_client (Printf.sprintf "sub%d" i) (fun ~id ~metrics_file ->
            run_subscriber ~id ~port ~expect:(pubs * events) ~events ~metrics_file
              ~samples_file:(path ("samples-" ^ id ^ ".txt"))
              ~ready_file:(path ("ready-" ^ id)) ()))
  in
  let ready_deadline = now_s () +. 15. in
  let all_ready () =
    List.for_all (fun (c : Child.t) -> Sys.file_exists (path ("ready-" ^ c.who))) sub_children
  in
  while (not (all_ready ())) && now_s () < ready_deadline do
    Unix.sleepf 0.05
  done;
  if not (all_ready ()) then prerr_endline "soak: subscribers never ready";
  let pub_children =
    List.init pubs (fun i ->
        fork_client (Printf.sprintf "pub%d" i) (fun ~id ~metrics_file ->
            run_publisher ~id ~port ~events ~pace_us ~metrics_file ()))
  in
  (* the crash: the broker hangs (SIGSTOP) while the publishers go on
     writing into its socket buffers, then dies (SIGKILL), and a new
     incarnation adopts the same listening socket. The hang makes the
     publishers hold unacknowledged events at the crash however
     promptly the broker acks, so certified resume must retransmit. *)
  let kill_ms = ref 0 in
  let broker =
    if restart then begin
      Unix.sleepf 0.6;
      Forked.kill ~hang_s:0.1 broker0;
      kill_ms := now_ms ();
      Printf.printf "soak: broker killed at t=%dms, restarting\n%!" !kill_ms;
      Unix.sleepf 0.25;
      start_broker 1
    end
    else broker0
  in
  Child.wait_all ~timeout_s:120. (sub_children @ pub_children);
  (* orderly broker shutdown so it exports metrics *)
  let broker_code = Forked.quit broker in
  Unix.close listen_fd;
  (* --- aggregate ------------------------------------------------------ *)
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let hist = Trace.histogram tr "soak.latency_us" in
  let first_recv_after_kill = ref max_int in
  for i = 0 to subs - 1 do
    List.iter
      (fun line ->
        match Scanf.sscanf_opt line " %d %d" (fun r l -> (r, l)) with
        | Some (recv_ms, lat_us) ->
            Histogram.record hist (float_of_int lat_us);
            if restart && recv_ms > !kill_ms then
              first_recv_after_kill := min !first_recv_after_kill recv_ms
        | None -> ())
      (read_lines (path (Printf.sprintf "samples-sub%d.txt" i)))
  done;
  let recovery_ms =
    if not restart then 0
    else if !first_recv_after_kill = max_int then 999_999
    else !first_recv_after_kill - !kill_ms
  in
  Trace.Gauge.set (Trace.gauge tr "soak.recovery_ms") recovery_ms;
  (* sum interesting per-child transport counters into the output *)
  let child_metrics =
    List.map
      (fun (c : Child.t) -> read_lines (path ("metrics-" ^ c.who ^ ".jsonl")))
      (sub_children @ pub_children)
  in
  List.iter
    (fun name ->
      let total =
        List.fold_left
          (fun acc lines ->
            match Report.metric_value lines name "value" with
            | Some v -> acc + int_of_float v
            | None -> acc)
          0 child_metrics
      in
      Trace.Counter.add (Trace.counter tr name) total)
    [ "transport.client_pubs"; "transport.client_acked";
      "transport.delivered"; "transport.dup_drops"; "transport.retransmits";
      "transport.reconnects"; "transport.frames_sent";
      "transport.write_syscalls"; "transport.read_syscalls";
      "transport.corrupt_frames" ];
  let subs_ok = List.for_all (fun c -> Child.code c = 0) sub_children in
  let pubs_ok = List.for_all (fun c -> Child.code c = 0) pub_children in
  let brokers_ok = broker_code = 0 in
  Trace.Counter.add (Trace.counter tr "soak.expected") (subs * pubs * events);
  Trace.Counter.add (Trace.counter tr "soak.delivered") (Histogram.count hist);
  if subs_ok && pubs_ok then
    Trace.Counter.incr (Trace.counter tr "soak.exactly_once");
  let buf = Buffer.create 16384 in
  Trace.metrics_to_jsonl tr buf;
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    (read_lines (path (Printf.sprintf "broker-%d.jsonl" (if restart then 1 else 0))));
  let oc = open_out out in
  Buffer.output_buffer oc buf;
  close_out oc;
  (* best-effort cleanup *)
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat dir f))
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  Printf.printf
    "soak: delivered %d/%d, recovery %dms, verdicts subs=%b pubs=%b \
     brokers=%b → %s\n%!"
    (Histogram.count hist) (subs * pubs * events) recovery_ms subs_ok pubs_ok
    brokers_ok out;
  if subs_ok && pubs_ok && brokers_ok then 0 else 1

(* --- CLI --------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: soak [--subs N] [--pubs N] [--events N] [--restart] [--out FILE]\n\
    \       soak pub --port P [--id ID] [--events N]\n\
    \       soak sub --port P [--id ID] [--expect N] [--events N]";
  exit 2

let () =
  let mode, args =
    match List.tl (Array.to_list Sys.argv) with
    | ("pub" | "sub") as mode :: rest -> (mode, rest)
    | rest -> ("soak", rest)
  in
  let known =
    match mode with
    | "pub" -> [ "--port"; "--id"; "--events"; "--pace-us" ]
    | "sub" -> [ "--port"; "--id"; "--expect"; "--events" ]
    | _ -> [ "--subs"; "--pubs"; "--events"; "--pace-us"; "--out" ]
  in
  (* newest first, so a repeated option's last value wins *)
  let rec parse acc = function
    | [] -> acc
    | "--restart" :: r when mode = "soak" -> parse (("--restart", "") :: acc) r
    | k :: v :: r when List.mem k known -> parse ((k, v) :: acc) r
    | _ -> usage ()
  in
  let opts = parse [] args in
  let str k default = Option.value (List.assoc_opt k opts) ~default in
  let int k default =
    match List.assoc_opt k opts with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let port () = match int "--port" 0 with 0 -> usage () | p -> p in
  Stdlib.exit
    (match mode with
    | "pub" ->
        run_publisher ~id:(str "--id" "pub") ~port:(port ()) ~events:(int "--events" 100)
          ~pace_us:(int "--pace-us" 0) ()
    | "sub" ->
        let expect = int "--expect" 100 in
        (* one publisher unless told otherwise *)
        let events = match int "--events" 0 with 0 -> expect | n -> n in
        run_subscriber ~id:(str "--id" "sub") ~port:(port ()) ~expect ~events ()
    | _ ->
        let restart = List.mem_assoc "--restart" opts in
        (* under --restart, pace publishers by default so the crash
           lands mid-stream rather than after the run has drained *)
        let pace_us =
          match int "--pace-us" (-1) with
          | p when p >= 0 -> p
          | _ -> if restart then 8_000 else 0
        in
        let out = Option.value (Sys.getenv_opt "TPBS_TRACE_FILE") ~default:"soak.jsonl" in
        deployment ~subs:(int "--subs" 2) ~pubs:(int "--pubs" 2) ~events:(int "--events" 150)
          ~restart ~pace_us ~out:(str "--out" out))
