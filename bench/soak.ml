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

module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
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

let now_s () = Unix.gettimeofday ()
let now_us () = int_of_float (now_s () *. 1e6)
let now_ms () = int_of_float (now_s () *. 1e3)
let host = "127.0.0.1"

let soak_registry () =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"SoakQuote" ~implements:[ "Obvent" ]
    ~attrs:
      [ ("seq", Vtype.Tint); ("origin", Vtype.Tstring);
        ("sentUs", Vtype.Tint); ("pad", Vtype.Tstring) ]
    ();
  reg

(* One client process: fresh trace registry, a one-node domain, and a
   TCP connection to the broker. *)
type ctx = {
  reg : Registry.t;
  engine : Engine.t;
  proc : Pubsub.Process.t;
  client : Client.t;
}

let rec connect_retry ~id ~port ~deadline =
  match Client.connect ~host ~port ~id ~timeout_ms:1000 () with
  | Some c -> Some c
  | None ->
      if now_s () > deadline then None
      else begin
        Unix.sleepf 0.05;
        connect_retry ~id ~port ~deadline
      end

let fresh_ctx ~id ~port =
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let reg = soak_registry () in
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create domain (Net.add_node net) in
  match connect_retry ~id ~port ~deadline:(now_s () +. 10.) with
  | None ->
      Printf.eprintf "soak[%s]: cannot reach broker on port %d\n%!" id port;
      exit 3
  | Some client ->
      Client.attach client domain proc;
      { reg; engine; proc; client }

(* Pump: real I/O, then drain the simulated engine so injected
   deliveries run their handlers. When the broker goes away, poll
   itself re-dials under the client's default backoff policy (with
   the retransmit/resubscribe resync on success) — its waits are
   bounded by [timeout_ms], so a disconnected child keeps its cadence
   without an explicit reconnect loop here. The backoff budget
   (~25 s) dwarfs any soak broker-restart window. *)
let turn ctx ~timeout_ms =
  ignore (Client.poll ctx.client ~timeout_ms);
  Engine.run ctx.engine

(* --- publisher child --------------------------------------------------- *)

let run_publisher ~id ~port ~events ?(pace_us = 0) ?metrics_file () =
  let ctx = fresh_ctx ~id ~port in
  let pad = String.make 64 'x' in
  let sent = ref 0 in
  let next_at = ref (now_us ()) in
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
    turn ctx ~timeout_ms:1
  done;
  let unresolved = Client.queued_count ctx.client in
  Option.iter (Trace.write_file (Trace.ambient ())) metrics_file;
  Printf.printf "soak[%s]: published %d, unacked at exit %d\n%!" id !sent
    unresolved;
  if unresolved = 0 then 0 else 3

(* --- subscriber child -------------------------------------------------- *)

let run_subscriber ~id ~port ~expect ~events ?metrics_file ?samples_file
    ?ready_file () =
  let ctx = fresh_ctx ~id ~port in
  let samples = Buffer.create 8192 in
  let seen = Hashtbl.create 1024 in (* (origin, seq) → () *)
  let last = Hashtbl.create 8 in (* origin → last seq *)
  let delivered = ref 0 in
  let dups = ref 0 in
  let reorders = ref 0 in
  (* [seq] counts per publisher: the narrow sibling below takes the
     second half of every publisher's run *)
  let tail_from = max 1 (events / 2) in
  let tail = ref 0 in
  let handler ob =
    match (Obvent.get ob "seq", Obvent.get ob "origin", Obvent.get ob "sentUs")
    with
    | Value.Int seq, Value.Str origin, Value.Int sent_us ->
        incr delivered;
        if seq >= tail_from then incr tail;
        let lat = now_us () - sent_us in
        Buffer.add_string samples
          (Printf.sprintf "%d %d\n" (now_ms ()) (max 0 lat));
        if Hashtbl.mem seen (origin, seq) then incr dups
        else Hashtbl.replace seen (origin, seq) ();
        (match Hashtbl.find_opt last origin with
        | Some prev when seq <= prev -> incr reorders
        | _ -> ());
        Hashtbl.replace last origin seq
    | _ -> incr reorders
  in
  let sub = Pubsub.Process.subscribe ctx.proc ~param:"SoakQuote" handler in
  Pubsub.Subscription.activate sub;
  Engine.run ctx.engine;
  (* Two narrower siblings registered after the subscribe-to-all: the
     broker's covering index suppresses them (and must keep them
     suppressed across restart resync, where the client replays Subs
     in original order). Locally they still dispatch, so the wide one
     doubles as a delivery cross-check on the main handler. *)
  let covered_all = ref 0 in
  let covered_sub expr counter =
    let s =
      Pubsub.Process.subscribe ctx.proc ~param:"SoakQuote"
        ~filter:(Tpbs_core.Fspec.tree expr)
        (fun _ -> incr counter)
    in
    Pubsub.Subscription.activate s;
    Engine.run ctx.engine
  in
  let ge k = Tpbs_filter.Expr.(Binop (Ge, getter [ "getSeq" ], int k)) in
  covered_sub (ge 0) covered_all;
  let covered_tail = ref 0 in
  covered_sub (ge tail_from) covered_tail;
  (* push the Sub registrations out before declaring readiness *)
  ignore (Client.poll ctx.client ~timeout_ms:10);
  (match ready_file with
  | Some p ->
      let oc = open_out p in
      output_string oc "ready\n";
      close_out oc
  | None -> ());
  let deadline = now_s () +. 120. in
  while !delivered < expect && now_s () < deadline do
    turn ctx ~timeout_ms:50
  done;
  (match samples_file with
  | Some p ->
      let oc = open_out p in
      Buffer.output_buffer oc samples;
      close_out oc
  | None -> ());
  Option.iter (Trace.write_file (Trace.ambient ())) metrics_file;
  Printf.printf
    "soak[%s]: delivered %d/%d (dups seen by app %d, order violations %d, \
     covered siblings saw %d/%d, tail %d/%d)\n%!"
    id !delivered expect !dups !reorders !covered_all !delivered !covered_tail
    !tail;
  if !dups > 0 then 4
  else if !reorders > 0 then 5
  else if !delivered < expect then 6
  else if !covered_all <> !delivered then 7
  else if !covered_tail <> !tail then 8
  else 0

(* --- broker child ------------------------------------------------------ *)

let run_broker ~listen_fd ~ctl_r ~warmup_ms ~metrics_file =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let config = { Broker.default_config with warmup_ms } in
  let b = Broker.create ~config ~listen_fd ~port:0 () in
  let quit = ref false in
  while not !quit do
    if Broker.poll b ~extra_fds:[ ctl_r ] ~timeout_ms:100 () then quit := true
  done;
  Broker.stop b;
  Trace.write_file (Trace.ambient ()) metrics_file;
  0

(* --- the forked harness ------------------------------------------------ *)

type child = { pid : int; who : string; mutable code : int option }

let fork_child who f =
  match Unix.fork () with
  | 0 ->
      let code = try f () with e ->
        Printf.eprintf "soak[%s]: %s\n%!" who (Printexc.to_string e);
        10
      in
      Stdlib.exit code
  | pid -> { pid; who; code = None }

(* Reap children until all have exited or the deadline passes; anyone
   still alive then is killed and counted as failed. *)
let wait_all children ~deadline =
  let unfinished () = List.filter (fun c -> c.code = None) children in
  while unfinished () <> [] && now_s () < deadline do
    List.iter
      (fun c ->
        match Unix.waitpid [ WNOHANG ] c.pid with
        | 0, _ -> ()
        | _, WEXITED n -> c.code <- Some n
        | _, (WSIGNALED _ | WSTOPPED _) -> c.code <- Some 11
        | exception Unix.Unix_error (ECHILD, _, _) -> c.code <- Some 12)
      (unfinished ());
    if unfinished () <> [] then Unix.sleepf 0.05
  done;
  List.iter
    (fun c ->
      if c.code = None then begin
        Printf.eprintf "soak: %s (pid %d) timed out, killing\n%!" c.who c.pid;
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] c.pid);
        c.code <- Some 13
      end)
    children

let read_lines path =
  if not (Sys.file_exists path) then []
  else In_channel.with_open_text path In_channel.input_lines

let harness ~subs ~pubs ~events ~restart ~pace_us ~out =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpbs-soak-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  let path name = Filename.concat dir name in
  let listen_fd = Broker.listen_socket ~host ~port:0 in
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Printf.printf "soak: broker port %d, %d subs × %d pubs × %d events%s\n%!"
    port subs pubs events
    (if restart then ", with mid-run broker crash" else "");
  (* the first incarnation needs no warmup: subscribers register
     before any publisher is forked (the ready barrier below); only a
     restarted broker must hold publishers back while survivors
     re-subscribe *)
  let fork_broker gen =
    let r, w = Unix.pipe () in
    let c =
      fork_child
        (Printf.sprintf "broker-%d" gen)
        (fun () ->
          Unix.close w;
          run_broker ~listen_fd ~ctl_r:r
            ~warmup_ms:(if gen = 0 then 0 else Broker.default_config.warmup_ms)
            ~metrics_file:(path (Printf.sprintf "broker-%d.jsonl" gen)))
    in
    Unix.close r;
    (c, w)
  in
  let broker0, ctl0 = fork_broker 0 in
  (* subscribers first; wait until each has its Sub registered *)
  let sub_children =
    List.init subs (fun i ->
        let id = Printf.sprintf "sub%d" i in
        fork_child id (fun () ->
            Unix.close listen_fd;
            Unix.close ctl0;
            run_subscriber ~id ~port ~expect:(pubs * events) ~events
              ~metrics_file:(path ("metrics-" ^ id ^ ".jsonl"))
              ~samples_file:(path ("samples-" ^ id ^ ".txt"))
              ~ready_file:(path ("ready-" ^ id)) ()))
  in
  let ready_deadline = now_s () +. 15. in
  let all_ready () =
    List.for_all
      (fun i -> Sys.file_exists (path (Printf.sprintf "ready-sub%d" i)))
      (List.init subs (fun i -> i))
  in
  while (not (all_ready ())) && now_s () < ready_deadline do
    Unix.sleepf 0.05
  done;
  if not (all_ready ()) then prerr_endline "soak: subscribers never ready";
  let pub_children =
    List.init pubs (fun i ->
        let id = Printf.sprintf "pub%d" i in
        fork_child id (fun () ->
            Unix.close listen_fd;
            Unix.close ctl0;
            run_publisher ~id ~port ~events ~pace_us
              ~metrics_file:(path ("metrics-" ^ id ^ ".jsonl"))
              ()))
  in
  (* the crash: the broker hangs (SIGSTOP) while the publishers go on
     writing into its socket buffers, then dies (SIGKILL), and a new
     incarnation adopts the same listening socket. The hang makes the
     publishers hold unacknowledged events at the crash however
     promptly the broker acks, so certified resume must retransmit. *)
  let kill_ms = ref 0 in
  let broker_children, ctl =
    if restart then begin
      Unix.sleepf 0.6;
      (try Unix.kill broker0.pid Sys.sigstop with Unix.Unix_error _ -> ());
      Unix.sleepf 0.1;
      (try Unix.kill broker0.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] broker0.pid);
      broker0.code <- Some 0 (* killed on purpose *);
      kill_ms := now_ms ();
      Printf.printf "soak: broker killed at t=%dms, restarting\n%!" !kill_ms;
      Unix.sleepf 0.25;
      let broker1, ctl1 = fork_broker 1 in
      Unix.close ctl0;
      ([ broker0; broker1 ], ctl1)
    end
    else ([ broker0 ], ctl0)
  in
  wait_all (sub_children @ pub_children) ~deadline:(now_s () +. 120.);
  (* orderly broker shutdown so it exports metrics *)
  (try ignore (Unix.write ctl (Bytes.of_string "q") 0 1)
   with Unix.Unix_error _ -> ());
  wait_all broker_children ~deadline:(now_s () +. 10.);
  Unix.close listen_fd;
  (try Unix.close ctl with Unix.Unix_error _ -> ());
  (* --- aggregate ------------------------------------------------------ *)
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let hist = Trace.histogram tr "soak.latency_us" in
  let first_recv_after_kill = ref None in
  List.init subs (fun i -> path (Printf.sprintf "samples-sub%d.txt" i))
  |> List.iter (fun p ->
         List.iter
           (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ recv_ms; lat_us ] -> (
                 match
                   (int_of_string_opt recv_ms, int_of_string_opt lat_us)
                 with
                 | Some r, Some l ->
                     Histogram.record hist (float_of_int l);
                     if restart && r > !kill_ms then
                       first_recv_after_kill :=
                         Some
                           (match !first_recv_after_kill with
                           | None -> r
                           | Some r0 -> min r0 r)
                 | _ -> ())
             | _ -> ())
           (read_lines p));
  let recovery_ms =
    if not restart then 0
    else
      match !first_recv_after_kill with
      | Some r -> r - !kill_ms
      | None -> 999_999
  in
  Trace.Gauge.set (Trace.gauge tr "soak.recovery_ms") recovery_ms;
  (* sum interesting per-child transport counters into the output *)
  let child_metrics =
    List.init subs (fun i -> path (Printf.sprintf "metrics-sub%d.jsonl" i))
    @ List.init pubs (fun i -> path (Printf.sprintf "metrics-pub%d.jsonl" i))
    |> List.map read_lines
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
  let code_of c = Option.value c.code ~default:14 in
  let subs_ok = List.for_all (fun c -> code_of c = 0) sub_children in
  let pubs_ok = List.for_all (fun c -> code_of c = 0) pub_children in
  let brokers_ok = List.for_all (fun c -> code_of c = 0) broker_children in
  Trace.Counter.add
    (Trace.counter tr "soak.expected")
    (subs * pubs * events);
  Trace.Counter.add (Trace.counter tr "soak.delivered") (Histogram.count hist);
  if subs_ok && pubs_ok then
    Trace.Counter.incr (Trace.counter tr "soak.exactly_once");
  let buf = Buffer.create 16384 in
  Trace.metrics_to_jsonl tr buf;
  List.iter
    (fun gen ->
      List.iter
        (fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        (read_lines (path (Printf.sprintf "broker-%d.jsonl" gen))))
    (if restart then [ 1 ] else [ 0 ]);
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
  let args = List.tl (Array.to_list Sys.argv) in
  let get_int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  match args with
  | "pub" :: rest ->
      let port = ref 0 and id = ref "pub" and events = ref 100 in
      let pace = ref 0 in
      let rec parse = function
        | [] -> ()
        | "--port" :: v :: r -> port := get_int v; parse r
        | "--id" :: v :: r -> id := v; parse r
        | "--events" :: v :: r -> events := get_int v; parse r
        | "--pace-us" :: v :: r -> pace := get_int v; parse r
        | _ -> usage ()
      in
      parse rest;
      if !port = 0 then usage ();
      Stdlib.exit
        (run_publisher ~id:!id ~port:!port ~events:!events ~pace_us:!pace ())
  | "sub" :: rest ->
      let port = ref 0 and id = ref "sub" and expect = ref 100 in
      let events = ref 0 in
      let rec parse = function
        | [] -> ()
        | "--port" :: v :: r -> port := get_int v; parse r
        | "--id" :: v :: r -> id := v; parse r
        | "--expect" :: v :: r -> expect := get_int v; parse r
        | "--events" :: v :: r -> events := get_int v; parse r
        | _ -> usage ()
      in
      parse rest;
      if !port = 0 then usage ();
      (* one publisher unless told otherwise *)
      let events = if !events > 0 then !events else !expect in
      Stdlib.exit
        (run_subscriber ~id:!id ~port:!port ~expect:!expect ~events ())
  | rest ->
      let subs = ref 2 and pubs = ref 2 and events = ref 150 in
      let restart = ref false in
      let pace = ref (-1) in
      let out =
        ref
          (match Sys.getenv_opt "TPBS_TRACE_FILE" with
          | Some f -> f
          | None -> "soak.jsonl")
      in
      let rec parse = function
        | [] -> ()
        | "--subs" :: v :: r -> subs := get_int v; parse r
        | "--pubs" :: v :: r -> pubs := get_int v; parse r
        | "--events" :: v :: r -> events := get_int v; parse r
        | "--restart" :: r -> restart := true; parse r
        | "--pace-us" :: v :: r -> pace := get_int v; parse r
        | "--out" :: v :: r -> out := v; parse r
        | _ -> usage ()
      in
      parse rest;
      (* under --restart, pace publishers by default so the crash
         lands mid-stream rather than after the run has drained *)
      let pace_us =
        if !pace >= 0 then !pace else if !restart then 8_000 else 0
      in
      Stdlib.exit
        (harness ~subs:!subs ~pubs:!pubs ~events:!events ~restart:!restart
           ~pace_us ~out:!out)
