(* TCP transport: adversarial framing, protocol roundtrips, and
   in-process broker/client end-to-end runs over real sockets. *)

module Frame = Tpbs_transport.Frame
module Proto = Tpbs_transport.Proto
module Conn = Tpbs_transport.Conn
module Broker = Tpbs_transport.Broker
module Client = Tpbs_transport.Client
module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Wire = Tpbs_serial.Wire
module Registry = Tpbs_types.Registry
module Vtype = Tpbs_types.Vtype
module Obvent = Tpbs_obvent.Obvent
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Pubsub = Tpbs_core.Pubsub
module Trace = Tpbs_trace.Trace

(* --- framing: the happy path ----------------------------------------- *)

let pop_frame d =
  match Frame.Decoder.pop d with
  | Frame.Decoder.Frame s -> s
  | Frame.Decoder.Await -> Alcotest.fail "expected a frame, got Await"
  | Frame.Decoder.Corrupt why -> Alcotest.failf "expected a frame, got Corrupt %s" why

let check_await d =
  match Frame.Decoder.pop d with
  | Frame.Decoder.Await -> ()
  | Frame.Decoder.Frame s -> Alcotest.failf "expected Await, got %d-byte frame" (String.length s)
  | Frame.Decoder.Corrupt why -> Alcotest.failf "expected Await, got Corrupt %s" why

let check_corrupt d =
  match Frame.Decoder.pop d with
  | Frame.Decoder.Corrupt _ -> ()
  | Frame.Decoder.Frame _ -> Alcotest.fail "expected Corrupt, got a frame"
  | Frame.Decoder.Await -> Alcotest.fail "expected Corrupt, got Await"

let test_frame_roundtrip () =
  let d = Frame.Decoder.create () in
  let payloads = [ ""; "x"; "hello world"; String.make 1000 '\xff' ] in
  Frame.Decoder.feed_string d
    (String.concat "" (List.map Frame.frame payloads));
  List.iter
    (fun p -> Alcotest.(check string) "payload" p (pop_frame d))
    payloads;
  check_await d;
  Alcotest.(check int) "nothing buffered" 0 (Frame.Decoder.buffered d);
  Alcotest.(check int) "four frames" 4 (Frame.Decoder.frames d)

let test_frame_dribble () =
  (* One byte per feed — every header and payload boundary is hit.
     Pop after every byte: a frame must appear exactly when its last
     byte lands, never before. *)
  let d = Frame.Decoder.create () in
  let stream = Frame.frame "dribbled" ^ Frame.frame "" in
  let popped = ref [] in
  String.iter
    (fun c ->
      Frame.Decoder.feed d (String.make 1 c) 0 1;
      match Frame.Decoder.pop d with
      | Frame.Decoder.Frame s -> popped := s :: !popped
      | Frame.Decoder.Await -> ()
      | Frame.Decoder.Corrupt why -> Alcotest.failf "corrupt: %s" why)
    stream;
  Alcotest.(check (list string)) "both frames, in order" [ "dribbled"; "" ]
    (List.rev !popped);
  check_await d;
  Alcotest.(check int) "nothing buffered" 0 (Frame.Decoder.buffered d)

let test_frame_all_split_points () =
  (* Split the stream at every possible point into two feeds. *)
  let stream = Frame.frame "left" ^ Frame.frame "right" in
  for cut = 0 to String.length stream do
    let d = Frame.Decoder.create () in
    Frame.Decoder.feed d stream 0 cut;
    Frame.Decoder.feed d stream cut (String.length stream - cut);
    Alcotest.(check string) "left" "left" (pop_frame d);
    Alcotest.(check string) "right" "right" (pop_frame d);
    check_await d
  done

let test_frame_truncated_is_await () =
  let d = Frame.Decoder.create () in
  let f = Frame.frame "truncated tail" in
  Frame.Decoder.feed d f 0 (String.length f - 3);
  check_await d;
  Alcotest.(check bool) "not dead" false (Frame.Decoder.is_dead d);
  (* The rest arrives later: the frame completes. *)
  Frame.Decoder.feed d f (String.length f - 3) 3;
  Alcotest.(check string) "completes" "truncated tail" (pop_frame d)

let test_frame_corrupt_crc_sticky () =
  let d = Frame.Decoder.create () in
  let f = Bytes.of_string (Frame.frame "good bytes" ^ Frame.frame "after") in
  (* Flip one payload byte of the first frame. *)
  Bytes.set f Frame.header_bytes
    (Char.chr (Char.code (Bytes.get f Frame.header_bytes) lxor 0x01));
  Frame.Decoder.feed_string d (Bytes.to_string f);
  check_corrupt d;
  Alcotest.(check bool) "dead" true (Frame.Decoder.is_dead d);
  (* Sticky: the pristine second frame is gone with the stream, and
     later feeds are discarded. *)
  check_corrupt d;
  Frame.Decoder.feed_string d (Frame.frame "too late");
  check_corrupt d;
  Alcotest.(check int) "no frames decoded" 0 (Frame.Decoder.frames d)

let test_frame_oversize_and_negative_length () =
  List.iter
    (fun len ->
      let d = Frame.Decoder.create ~max_frame:1024 () in
      let hdr = Bytes.create Frame.header_bytes in
      Bytes.set_int32_le hdr 0 len;
      Bytes.set_int32_le hdr 4 0l;
      Frame.Decoder.feed_string d (Bytes.to_string hdr);
      check_corrupt d)
    [ 2048l; Int32.max_int; -1l; Int32.min_int ]

let test_frame_corrupt_length_of_valid_frame () =
  (* A length prefix lying within bounds but pointing at the wrong
     cut: the CRC refuses the mis-framed payload. *)
  let d = Frame.Decoder.create () in
  let f = Bytes.of_string (Frame.frame "abcdef" ^ Frame.frame "ghijkl") in
  Bytes.set_int32_le f 0 4l;
  Frame.Decoder.feed_string d (Bytes.to_string f);
  check_corrupt d

(* --- protocol roundtrips --------------------------------------------- *)

let all_msgs : Proto.msg list =
  [ Hello { client = "c-1"; window = 64 };
    Welcome { window = 0 };
    Advertise { cls = "StockQuote"; supers = [ "Obvent"; "StockObvent" ] };
    Sub { sid = 3; param = "StockQuote"; filter = Value.Null };
    Sub
      { sid = 4;
        param = "Alarm";
        filter = Value.List [ Value.Str "and"; Value.Int 1 ] };
    Unsub { sid = 3 };
    Pub { pseq = 42; cls = "StockQuote"; envelope = "\x00\xffraw bytes" };
    Pub_ack { pseq = 42 };
    Deliver
      { origin = "c-1"; pseq = 42; cls = "StockQuote"; envelope = "" };
    Credit { n = 32 };
    Bye ]

let test_proto_roundtrip () =
  List.iter
    (fun m ->
      match Proto.decode (Proto.encode m) with
      | Some m' ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %s" (Proto.tag m))
            true (m = m')
      | None -> Alcotest.failf "%s did not decode" (Proto.tag m))
    all_msgs

let test_proto_rejects_garbage () =
  List.iter
    (fun s ->
      match Proto.decode s with
      | None -> ()
      | Some m -> Alcotest.failf "garbage decoded as %s" (Proto.tag m))
    [ ""; "\xff\xff\xff"; Codec.encode (Value.Str "not a message");
      Codec.encode (Value.List [ Value.Str "unknown-tag"; Value.Int 1 ]);
      Codec.encode (Value.List [ Value.Str "pub"; Value.Str "wrong shape" ]) ]

(* --- end-to-end over real sockets ------------------------------------ *)

let test_registry () =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"TQuote" ~implements:[ "Obvent" ]
    ~attrs:[ ("seq", Vtype.Tint); ("origin", Vtype.Tstring) ]
    ();
  reg

type ctx = {
  reg : Registry.t;
  engine : Engine.t;
  proc : Pubsub.Process.t;
  client : Client.t;
}

let fresh_ctx ~id ~port =
  let reg = test_registry () in
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create domain (Net.add_node net) in
  match Client.connect ~host:"127.0.0.1" ~port ~id ~timeout_ms:2000 () with
  | None -> Alcotest.failf "client %s cannot reach broker on port %d" id port
  | Some client ->
      Client.attach client domain proc;
      { reg; engine; proc; client }

(* The broker runs in a forked child (as under the real daemon and the
   soak harness): [Client.connect]'s blocking handshake needs a live
   peer. The parent keeps the pre-bound listening socket, so a crashed
   incarnation can be replaced on the very same fd. A control pipe
   gives the child a clean quit signal; SIGKILL gives it a crash. *)
type broker_proc = { bpid : int; ctl : Unix.file_descr }

let instant_config = { Broker.default_config with warmup_ms = 0 }

let fork_broker ?(config = instant_config) ~listen_fd () =
  let ctl_r, ctl_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close ctl_w;
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Trace.set_ambient (Trace.create ());
      let b = Broker.create ~config ~listen_fd ~port:0 () in
      (try
         let quit = ref false in
         while not !quit do
           if Broker.poll b ~extra_fds:[ ctl_r ] ~timeout_ms:20 () then
             quit := true
         done
       with _ -> ());
      Broker.stop b;
      Unix._exit 0
  | pid ->
      Unix.close ctl_r;
      { bpid = pid; ctl = ctl_w }

let quit_broker bp =
  (try ignore (Unix.write_substring bp.ctl "q" 0 1)
   with Unix.Unix_error _ -> ());
  (try Unix.close bp.ctl with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] bp.bpid)

let kill_broker bp =
  Unix.kill bp.bpid Sys.sigkill;
  (try Unix.close bp.ctl with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] bp.bpid)

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> Alcotest.fail "listening socket has no inet port"

(* Drive the clients until [until ()] or timeout. *)
let spin ~ctxs ~until ~for_ms () =
  let deadline = Unix.gettimeofday () +. (float_of_int for_ms /. 1000.) in
  while (not (until ())) && Unix.gettimeofday () < deadline do
    List.iter
      (fun c ->
        ignore (Client.poll c.client ~timeout_ms:5);
        Engine.run c.engine)
      ctxs
  done;
  until ()

let publish_quote ctx ~origin seq =
  Pubsub.Process.publish ctx.proc
    (Obvent.make ctx.reg "TQuote"
       [ ("seq", Value.Int seq); ("origin", Value.Str origin) ]);
  Engine.run ctx.engine

(* Subscriber bookkeeping: collect (origin, seq), flag dups/reorders. *)
let collector ctx =
  let got = ref [] and dups = ref 0 and reorders = ref 0 in
  let last = Hashtbl.create 4 in
  let seen = Hashtbl.create 64 in
  let handler ob =
    match (Obvent.get ob "seq", Obvent.get ob "origin") with
    | Value.Int seq, Value.Str origin ->
        if Hashtbl.mem seen (origin, seq) then incr dups
        else Hashtbl.replace seen (origin, seq) ();
        (match Hashtbl.find_opt last origin with
        | Some prev when seq <= prev -> incr reorders
        | _ -> ());
        Hashtbl.replace last origin seq;
        got := (origin, seq) :: !got
    | _ -> incr reorders
  in
  let sub = Pubsub.Process.subscribe ctx.proc ~param:"TQuote" handler in
  Pubsub.Subscription.activate sub;
  Engine.run ctx.engine;
  ignore (Client.poll ctx.client ~timeout_ms:10);
  (got, dups, reorders)

let test_e2e_two_clients () =
  Trace.set_ambient (Trace.create ());
  let listen_fd = Broker.listen_socket ~host:"127.0.0.1" ~port:0 in
  let port = bound_port listen_fd in
  let bp = fork_broker ~listen_fd () in
  Fun.protect ~finally:(fun () -> quit_broker bp; Unix.close listen_fd)
  @@ fun () ->
  let sub1 = fresh_ctx ~id:"sub1" ~port in
  let sub2 = fresh_ctx ~id:"sub2" ~port in
  let pub = fresh_ctx ~id:"pub" ~port in
  let ctxs = [ sub1; sub2; pub ] in
  let got1, dups1, re1 = collector sub1 in
  let got2, dups2, re2 = collector sub2 in
  ignore (spin ~ctxs ~until:(fun () -> false) ~for_ms:100 ());
  let n = 30 in
  for i = 0 to n - 1 do
    publish_quote pub ~origin:"pub" i
  done;
  let all_in () = List.length !got1 = n && List.length !got2 = n in
  Alcotest.(check bool) "both subscribers got every event" true
    (spin ~ctxs ~until:all_in ~for_ms:10000 ());
  Alcotest.(check int) "no dups" 0 (!dups1 + !dups2);
  Alcotest.(check int) "no reorders" 0 (!re1 + !re2);
  Alcotest.(check (list (pair string int))) "in publish order"
    (List.init n (fun i -> ("pub", i)))
    (List.rev !got1);
  List.iter (fun c -> Client.close c.client) ctxs

let test_e2e_broker_restart_exactly_once () =
  (* The certified-delivery claim: SIGKILL-style broker death between
     two batches, a successor adopts the same listening socket, the
     subscriber re-subscribes, the publisher retransmits whatever was
     unacknowledged — every event arrives exactly once, in order. *)
  Trace.set_ambient (Trace.create ());
  let listen_fd = Broker.listen_socket ~host:"127.0.0.1" ~port:0 in
  let port = bound_port listen_fd in
  let bp1 = fork_broker ~listen_fd () in
  let sub = fresh_ctx ~id:"sub" ~port in
  let pub = fresh_ctx ~id:"pub" ~port in
  let ctxs = [ sub; pub ] in
  let got, dups, reorders = collector sub in
  let n1 = 10 and n2 = 10 in
  for i = 0 to n1 - 1 do
    publish_quote pub ~origin:"pub" i
  done;
  ignore (spin ~ctxs ~until:(fun () -> List.length !got = n1) ~for_ms:5000 ());
  Alcotest.(check int) "first batch delivered" n1 (List.length !got);
  (* Crash: SIGKILL — no goodbye, no flush. The parent still owns the
     listening socket. *)
  kill_broker bp1;
  (* Publish into the outage: everything queues client-side. *)
  for i = n1 to n1 + n2 - 1 do
    publish_quote pub ~origin:"pub" i
  done;
  ignore (spin ~ctxs ~until:(fun () -> false) ~for_ms:100 ());
  Alcotest.(check bool) "publisher holds the unacked batch" true
    (Client.queued_count pub.client >= n2);
  let bp2 = fork_broker ~listen_fd () in
  Fun.protect ~finally:(fun () -> quit_broker bp2; Unix.close listen_fd)
  @@ fun () ->
  (* Subscriber reconnects (and re-subscribes) first, then the
     publisher — the in-process twin of the daemon's warmup window. *)
  Alcotest.(check bool) "subscriber reconnects" true
    (Client.reconnect ~timeout_ms:2000 sub.client);
  ignore (spin ~ctxs:[ sub ] ~until:(fun () -> false) ~for_ms:100 ());
  Alcotest.(check bool) "publisher reconnects" true
    (Client.reconnect ~timeout_ms:2000 pub.client);
  let all = n1 + n2 in
  Alcotest.(check bool) "second batch recovered" true
    (spin ~ctxs ~until:(fun () -> List.length !got = all) ~for_ms:10000 ());
  Alcotest.(check int) "no duplicate deliveries" 0 !dups;
  Alcotest.(check int) "no reordering" 0 !reorders;
  Alcotest.(check (list (pair string int))) "the full sequence, in order"
    (List.init all (fun i -> ("pub", i)))
    (List.rev !got);
  (* Deliveries raced ahead of the cumulative ack — give it a beat. *)
  Alcotest.(check bool) "publisher fully acknowledged" true
    (spin ~ctxs ~until:(fun () -> Client.queued_count pub.client = 0)
       ~for_ms:5000 ());
  List.iter (fun c -> Client.close c.client) ctxs

let test_e2e_corrupt_bytes_condemn_connection () =
  (* A rogue peer spraying damaged frames must cost only its own
     connection: the broker condemns and drops it (observable as EOF
     on the rogue's socket) and keeps serving everyone else. *)
  Trace.set_ambient (Trace.create ());
  let listen_fd = Broker.listen_socket ~host:"127.0.0.1" ~port:0 in
  let port = bound_port listen_fd in
  let bp = fork_broker ~listen_fd () in
  Fun.protect ~finally:(fun () -> quit_broker bp; Unix.close listen_fd)
  @@ fun () ->
  let sub = fresh_ctx ~id:"sub" ~port in
  let pub = fresh_ctx ~id:"pub" ~port in
  let ctxs = [ sub; pub ] in
  let got, _, _ = collector sub in
  let rogue = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect rogue (ADDR_INET (Unix.inet_addr_loopback, port));
  let junk = String.make 64 '\xde' in
  ignore (Unix.write_substring rogue junk 0 (String.length junk));
  (* The broker hangs up on the rogue... *)
  (match Unix.select [ rogue ] [] [] 5.0 with
  | [ _ ], _, _ ->
      Alcotest.(check int) "rogue sees EOF" 0
        (Unix.read rogue (Bytes.create 16) 0 16)
  | _ -> Alcotest.fail "broker never hung up on the rogue");
  (* ...and the well-behaved pair still works end to end. *)
  publish_quote pub ~origin:"pub" 0;
  Alcotest.(check bool) "clean traffic still flows" true
    (spin ~ctxs ~until:(fun () -> !got <> []) ~for_ms:5000 ());
  Unix.close rogue;
  List.iter (fun c -> Client.close c.client) ctxs

(* --- reconnect backoff ------------------------------------------------ *)

module Backoff = Client.Backoff

(* --- covering suppression is delivery-invariant ----------------------- *)

(* The broker's covering index suppresses a [Sub] entailed by an
   installed subscription of the same session. Run one scenario twice —
   covering on and off — and demand byte-identical per-subscription
   delivery sequences, including after the covering subscription is
   dropped mid-run (which forces the broker to promote the suppressed
   ones back into the live index). *)
let run_covering_scenario ~covering =
  Trace.set_ambient (Trace.create ());
  let listen_fd = Broker.listen_socket ~host:"127.0.0.1" ~port:0 in
  let port = bound_port listen_fd in
  let bp = fork_broker ~config:{ instant_config with covering } ~listen_fd () in
  Fun.protect ~finally:(fun () -> quit_broker bp; Unix.close listen_fd)
  @@ fun () ->
  let sub = fresh_ctx ~id:"sub" ~port in
  let pub = fresh_ctx ~id:"pub" ~port in
  let ctxs = [ sub; pub ] in
  let seq_of ob =
    match Obvent.get ob "seq" with Value.Int s -> s | _ -> -1
  in
  let subscribe_ge k =
    let got = ref [] in
    let expr = Tpbs_filter.Expr.(Binop (Ge, getter [ "getSeq" ], int k)) in
    let s =
      Pubsub.Process.subscribe sub.proc ~param:"TQuote"
        ~filter:(Tpbs_core.Fspec.tree expr)
        (fun ob -> got := seq_of ob :: !got)
    in
    Pubsub.Subscription.activate s;
    Engine.run sub.engine;
    ignore (Client.poll sub.client ~timeout_ms:10);
    (s, got)
  in
  (* the wide sub first, then two narrower siblings it entails *)
  let s_all, got_all = subscribe_ge 0 in
  let _s_mid, got_mid = subscribe_ge 10 in
  let _s_high, got_high = subscribe_ge 20 in
  let n1 = 25 in
  for i = 0 to n1 - 1 do
    publish_quote pub ~origin:"pub" i
  done;
  let batch1_in () =
    List.length !got_all = n1
    && List.length !got_mid = n1 - 10
    && List.length !got_high = n1 - 20
  in
  Alcotest.(check bool) "first batch fully delivered" true
    (spin ~ctxs ~until:batch1_in ~for_ms:10000 ());
  (* drop the coverer: the narrower subs must keep receiving, which
     under covering requires the broker-side promotion sweep *)
  Pubsub.Subscription.deactivate s_all;
  Engine.run sub.engine;
  ignore (Client.poll sub.client ~timeout_ms:10);
  let n2 = 10 in
  for i = n1 to n1 + n2 - 1 do
    publish_quote pub ~origin:"pub" i
  done;
  let batch2_in () =
    List.length !got_mid = n1 - 10 + n2 && List.length !got_high = n1 - 20 + n2
  in
  Alcotest.(check bool) "promoted subs keep receiving" true
    (spin ~ctxs ~until:batch2_in ~for_ms:10000 ());
  let r = (List.rev !got_all, List.rev !got_mid, List.rev !got_high) in
  List.iter (fun c -> Client.close c.client) ctxs;
  r

let test_e2e_covering_equivalence () =
  let on = run_covering_scenario ~covering:true in
  let off = run_covering_scenario ~covering:false in
  Alcotest.(check (triple (list int) (list int) (list int)))
    "same per-subscription deliveries with covering on and off" off on

let test_backoff_schedule () =
  let p = Backoff.default in
  (* No jitter at u = 0.5: the pure exponential, capped at 10 s. *)
  Alcotest.(check (list int)) "exponential then capped"
    [ 100; 200; 400; 800; 1600; 3200; 6400; 10000; 10000 ]
    (List.map
       (fun attempt -> Backoff.delay_ms p ~attempt ~u:0.5)
       [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]);
  (* Jitter spans ±20% of the capped delay. *)
  Alcotest.(check int) "low draw" 80 (Backoff.delay_ms p ~attempt:0 ~u:0.0);
  Alcotest.(check bool) "high draw" true
    (Backoff.delay_ms p ~attempt:0 ~u:0.9999 >= 119);
  for attempt = 0 to 12 do
    let d = Backoff.delay_ms p ~attempt ~u:0.37 in
    Alcotest.(check bool) "never negative" true (d >= 0);
    Alcotest.(check bool) "never above cap + jitter" true
      (d
      <= int_of_float
           (float_of_int p.Backoff.max_delay_ms *. (1. +. p.Backoff.jitter)))
  done

let test_reconnect_with_backoff () =
  (* One client, a broker that dies and (mid-loop) comes back: the
     backoff loop must wait per the schedule, succeed as soon as the
     broker returns, and — once the port is truly dead — give up after
     exactly [max_retries] waits. *)
  Trace.set_ambient (Trace.create ());
  let listen_fd = Broker.listen_socket ~host:"127.0.0.1" ~port:0 in
  let port = bound_port listen_fd in
  let bp = fork_broker ~listen_fd () in
  let ctx = fresh_ctx ~id:"backoff" ~port in
  kill_broker bp;
  let policy =
    { Backoff.default with base_ms = 10; max_delay_ms = 40; jitter = 0.;
      max_retries = 4 }
  in
  (* Phase 1: the parent still holds the listening socket, so dials sit
     in the backlog and the handshake times out. The second wait brings
     a replacement broker up on the same fd — the next attempt lands. *)
  let slept = ref [] in
  let bp2 = ref None in
  let sleep ms =
    slept := ms :: !slept;
    if List.length !slept = 2 then bp2 := Some (fork_broker ~listen_fd ())
  in
  Alcotest.(check bool) "recovers once the broker returns" true
    (Client.reconnect_with_backoff ~policy ~sleep ~rand:(fun () -> 0.5)
       ~timeout_ms:300 ctx.client);
  Alcotest.(check (list int)) "two scheduled waits" [ 10; 20 ]
    (List.rev !slept);
  Alcotest.(check bool) "client is back" true (Client.connected ctx.client);
  (match !bp2 with Some bp -> quit_broker bp | None -> ());
  Unix.close listen_fd;
  (* Phase 2: nothing listens any more — every attempt is refused, the
     loop walks the whole capped schedule and gives up. *)
  slept := [];
  Alcotest.(check bool) "gives up on a dead port" false
    (Client.reconnect_with_backoff ~policy
       ~sleep:(fun ms -> slept := ms :: !slept)
       ~rand:(fun () -> 0.5) ~timeout_ms:200 ctx.client);
  Alcotest.(check (list int)) "waits follow the capped schedule"
    [ 10; 20; 40; 40 ] (List.rev !slept);
  Alcotest.(check int) "every wait counted" 6
    (Trace.Counter.value
       (Trace.counter (Trace.ambient ()) "transport.backoff_waits"));
  Client.close ctx.client

(* --- encode-once shared frames and zero-copy views -------------------- *)

let slice_of ~buf ~off ~len = { Proto.sl_buf = buf; sl_off = off; sl_len = len }

(* The shared-frame encoder against its oracle: byte-identical to
   framing the encoded [Deliver] message, for any origin/pseq/cls/
   envelope, including envelopes handed over as proper slices of a
   larger buffer. *)
let test_preframed_oracle =
  QCheck.Test.make ~name:"encode_deliver = frame (encode (Deliver ...))"
    ~count:300
    QCheck.(
      quad small_string small_nat small_string
        (triple
           (string_of_size (Gen.int_range 0 300))
           (int_bound 16) (int_bound 16)))
    (fun (origin, pseq, cls, (env, padl, padr)) ->
      let buf = String.make padl 'L' ^ env ^ String.make padr 'R' in
      let slice = slice_of ~buf ~off:padl ~len:(String.length env) in
      let pf = Proto.encode_deliver ~origin ~pseq ~cls slice in
      let oracle =
        Frame.frame (Proto.encode (Deliver { origin; pseq; cls; envelope = env }))
      in
      Frame.preframed_bytes pf = oracle
      && Frame.preframed_length pf = String.length oracle - Frame.header_bytes)

(* The one-buffer frame builder against the two-step oracle: length
   and CRC header in front of the separately encoded message, for
   every message shape, Deliver included, with envelopes on both
   sides of the coalescing threshold. *)
let gen_msg =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_range 0 12) in
  let envelope =
    oneof [ string_size (int_range 0 64); string_size (int_range 4000 9000) ]
  in
  oneof
    [ map2 (fun client window -> Proto.Hello { client; window }) str nat;
      map (fun window -> Proto.Welcome { window }) nat;
      map2 (fun cls supers -> Proto.Advertise { cls; supers }) str
        (list_size (int_range 0 3) str);
      map3
        (fun sid param filter -> Proto.Sub { sid; param; filter })
        nat str Helpers.gen_value;
      map (fun sid -> Proto.Unsub { sid }) nat;
      map3 (fun pseq cls envelope -> Proto.Pub { pseq; cls; envelope })
        int str envelope;
      map (fun pseq -> Proto.Pub_ack { pseq }) int;
      map2
        (fun (origin, pseq) (cls, envelope) ->
          Proto.Deliver { origin; pseq; cls; envelope })
        (pair str int) (pair str envelope);
      map (fun n -> Proto.Credit { n }) nat;
      return Proto.Bye ]

let test_frame_builder_oracle =
  QCheck.Test.make ~name:"Proto.frame = header ^ crc ^ Proto.encode" ~count:300
    (QCheck.make ~print:Proto.tag gen_msg)
    (fun m ->
      let payload = Proto.encode m in
      let header = Bytes.create Frame.header_bytes in
      Bytes.set_int32_le header 0 (Int32.of_int (String.length payload));
      Bytes.set_int32_le header 4 (Tpbs_serial.Wire.crc32 payload);
      let oracle = Bytes.to_string header ^ payload in
      Frame.preframed_bytes (Proto.frame m) = oracle
      && Frame.frame payload = oracle)

(* pop_view and pop must agree frame for frame under arbitrary feed
   chunking — same payloads, same order, same Await points. *)
let test_decoder_view_agrees_with_pop =
  QCheck.Test.make ~name:"decoder pop_view agrees with pop" ~count:200
    QCheck.(
      pair
        (small_list (string_of_size (Gen.int_range 0 80)))
        (list_of_size (Gen.int_range 1 16) (int_bound 40)))
    (fun (payloads, cuts) ->
      let stream = String.concat "" (List.map Frame.frame payloads) in
      let d_copy = Frame.Decoder.create () in
      let d_view = Frame.Decoder.create () in
      let got_copy = ref [] and got_view = ref [] in
      let drain_copy () =
        let rec go () =
          match Frame.Decoder.pop d_copy with
          | Frame.Decoder.Frame s ->
              got_copy := s :: !got_copy;
              go ()
          | Frame.Decoder.Await -> ()
          | Frame.Decoder.Corrupt m -> QCheck.Test.fail_reportf "copy corrupt: %s" m
        in
        go ()
      in
      let drain_view () =
        let rec go () =
          match Frame.Decoder.pop_view d_view with
          | Frame.Decoder.V_frame (buf, off, len) ->
              (* views die at the next feed: materialize now *)
              got_view := String.sub buf off len :: !got_view;
              go ()
          | Frame.Decoder.V_await -> ()
          | Frame.Decoder.V_corrupt m ->
              QCheck.Test.fail_reportf "view corrupt: %s" m
        in
        go ()
      in
      let pos = ref 0 in
      let feed len =
        let len = min len (String.length stream - !pos) in
        Frame.Decoder.feed d_copy stream !pos len;
        Frame.Decoder.feed d_view stream !pos len;
        pos := !pos + len;
        drain_copy ();
        drain_view ()
      in
      List.iter feed cuts;
      feed (String.length stream - !pos);
      List.rev !got_copy = payloads && !got_copy = !got_view)

(* Filling the decoder in place (reserve, write at the offset, commit)
   must be indistinguishable from [feed]: same frames, same Await
   points, and on a damaged stream the same sticky verdict, at random
   split points and with more room reserved than gets written. *)
let test_decoder_reserve_agrees_with_feed =
  let gen =
    QCheck.Gen.(
      small_list (string_size (int_range 0 300)) >>= fun payloads ->
      let stream = String.concat "" (List.map Frame.frame payloads) in
      let n = String.length stream in
      opt (pair (int_bound (max 0 (n - 1))) (int_range 1 255)) >>= fun damage ->
      list_size (int_range 1 16) (pair (int_bound 700) (int_bound 5000))
      >|= fun cuts -> (payloads, damage, cuts))
  in
  QCheck.Test.make ~name:"decoder reserve/commit agrees with feed" ~count:300
    (QCheck.make gen) (fun (payloads, damage, cuts) ->
      let stream = Bytes.of_string (String.concat "" (List.map Frame.frame payloads)) in
      (match damage with
      | Some (i, x) when i < Bytes.length stream ->
          Bytes.set stream i (Char.chr (Char.code (Bytes.get stream i) lxor x))
      | _ -> ());
      let stream = Bytes.to_string stream in
      let d_feed = Frame.Decoder.create () in
      let d_fill = Frame.Decoder.create () in
      let drain d acc =
        let rec go () =
          match Frame.Decoder.pop d with
          | Frame.Decoder.Frame s ->
              acc := `F s :: !acc;
              go ()
          | Frame.Decoder.Await -> acc := `Await :: !acc
          | Frame.Decoder.Corrupt m -> acc := `Corrupt m :: !acc
        in
        go ()
      in
      let got_feed = ref [] and got_fill = ref [] in
      let pos = ref 0 in
      let step (len, extra) =
        let len = min len (String.length stream - !pos) in
        Frame.Decoder.feed d_feed stream !pos len;
        let off = Frame.Decoder.reserve d_fill (len + extra) in
        let buf = Frame.Decoder.buffer d_fill in
        if Bytes.length buf - off < len + extra then
          QCheck.Test.fail_report "reserve gave less room than asked";
        Bytes.blit_string stream !pos buf off len;
        Frame.Decoder.commit d_fill len;
        pos := !pos + len;
        drain d_feed got_feed;
        drain d_fill got_fill
      in
      List.iter step cuts;
      step (String.length stream - !pos, 0);
      !got_feed = !got_fill
      && (damage <> None
         || List.filter_map (function `F s -> Some s | _ -> None) (List.rev !got_fill)
            = payloads))

(* A gathered frame's pieces, joined: the head with each left-out
   string put back at its offset. *)
let joined (f : Frame.gathered) =
  let b = Buffer.create 256 in
  let pos =
    List.fold_left
      (fun pos (at, s) ->
        Buffer.add_substring b f.head pos (at - pos);
        Buffer.add_string b s;
        at)
      0 f.refs
  in
  Buffer.add_substring b f.head pos (String.length f.head - pos);
  Buffer.contents b

(* Obvent classes for gathered frames: string fields first, last and
   in the middle, and a class name long enough to need a two-byte
   length. *)
let gather_registry () =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"Blob" ~implements:[ "Obvent" ]
    ~attrs:[ ("seq", Vtype.Tint); ("data", Vtype.Tstring) ] ();
  Registry.declare_class reg ~name:"Pair" ~implements:[ "Obvent" ]
    ~attrs:[ ("a", Vtype.Tstring); ("n", Vtype.Tint); ("b", Vtype.Tstring) ] ();
  Registry.declare_class reg ~name:(String.make 200 'C') ~extends:"Blob"
    ~attrs:[ ("tag", Vtype.Tstring) ] ();
  reg

(* A Pub frame written straight from the obvent is, pieces joined,
   byte for byte the frame Proto.frame builds around the envelope
   Remote.encode_envelope makes; exactly the strings of at least
   [Proto.ref_min] bytes are left out, and those are the obvent's own
   strings, not copies. *)
let prop_gathered_pub_frame =
  let reg = gather_registry () in
  let lim = Proto.ref_min in
  let str =
    QCheck.Gen.(
      oneof [ int_range 0 300; oneofl [ lim - 1; lim; lim + 1; 8192 ] ]
      >>= fun n -> map (fun c -> String.make n c) printable)
  in
  let gen =
    QCheck.Gen.(
      pair (triple small_nat int (pair small_nat small_nat))
        (int_range 0 2 >>= fun k ->
         map3
           (fun s1 s2 n ->
             match k with
             | 0 -> ("Blob", [ ("seq", Value.Int n); ("data", Value.Str s1) ])
             | 1 -> ("Pair", [ ("a", Value.Str s1); ("n", Value.Int n); ("b", Value.Str s2) ])
             | _ ->
                 ( String.make 200 'C',
                   [ ("seq", Value.Int n); ("data", Value.Str s1); ("tag", Value.Str s2) ] ))
           str str int))
  in
  QCheck.Test.make ~name:"gathered Pub frame = Proto.frame (Pub ...)" ~count:300
    (QCheck.make
       ~print:(fun ((pseq, _, _), (cls, fields)) ->
         Printf.sprintf "pseq=%d cls=%d bytes fields=[%s]" pseq (String.length cls)
           (String.concat "; "
              (List.map
                 (fun (n, v) ->
                   match v with
                   | Value.Str s -> Printf.sprintf "%s: %d bytes" n (String.length s)
                   | v -> n ^ ": " ^ Value.to_string v)
                 fields)))
       gen)
    (fun ((pseq, publish_time, eid), (cls, fields)) ->
      let o = Obvent.make reg cls fields in
      let f = Proto.pub_frame ~pseq ~cls ~publish_time ~eid (Obvent.to_value o) in
      let envelope = Pubsub.Remote.encode_envelope ~publish_time ~eid o in
      let long =
        List.filter_map
          (function _, Value.Str s when String.length s >= lim -> Some s | _ -> None)
          fields
      in
      joined f = Frame.preframed_bytes (Proto.frame (Pub { pseq; cls; envelope }))
      && List.length f.refs = List.length long
      && List.for_all2 (fun (_, r) s -> r == s) f.refs long)

let test_decoder_view_corrupt_matches_pop () =
  (* A flipped payload byte condemns both forms identically, and both
     stay condemned. *)
  let mk () =
    let f = Bytes.of_string (Frame.frame "abcdef" ^ Frame.frame "ghijkl") in
    Bytes.set f Frame.header_bytes 'X';
    Bytes.to_string f
  in
  let d_copy = Frame.Decoder.create () in
  let d_view = Frame.Decoder.create () in
  Frame.Decoder.feed_string d_copy (mk ());
  Frame.Decoder.feed_string d_view (mk ());
  let copy_msg =
    match Frame.Decoder.pop d_copy with
    | Frame.Decoder.Corrupt m -> m
    | _ -> Alcotest.fail "pop must report corruption"
  in
  (match Frame.Decoder.pop_view d_view with
  | Frame.Decoder.V_corrupt m ->
      Alcotest.(check string) "same condemnation" copy_msg m
  | _ -> Alcotest.fail "pop_view must report corruption");
  Frame.Decoder.feed_string d_view (Frame.frame "late");
  (match Frame.Decoder.pop_view d_view with
  | Frame.Decoder.V_corrupt _ -> ()
  | _ -> Alcotest.fail "condemnation must be sticky through pop_view")

(* Peer and class names come back right however many distinct names of
   one length pass through the view parser (it shares repeated names). *)
let prop_decode_view_names =
  let name = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'd' ]) (int_range 0 4)) in
  QCheck.Test.make ~name:"decode_view returns the names it was sent" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) (pair name name)))
    (fun names ->
      List.for_all
        (fun (origin, cls) ->
          let view m =
            let s = Proto.encode m in
            Proto.decode_view s ~off:0 ~len:(String.length s)
          in
          (match view (Proto.Deliver { origin; pseq = 1; cls; envelope = "e" }) with
          | Proto.V_deliver { origin = o; cls = c; _ } -> o = origin && c = cls
          | _ -> false)
          && match view (Proto.Pub { pseq = 2; cls; envelope = "e" }) with
             | Proto.V_pub { cls = c; _ } -> c = cls
             | _ -> false)
        names)

let test_decode_view_agrees_with_decode () =
  (* Over every protocol message and every garbage sample, the in-place
     view parse and the full decode tell the same story — also when the
     payload sits mid-buffer. *)
  let agree s =
    let pad = "\xaa\xbb\xcc" in
    let padded = pad ^ s ^ pad in
    List.iter
      (fun (buf, off) ->
        match
          ( Proto.decode s,
            Proto.decode_view buf ~off ~len:(String.length s) )
        with
        | None, Proto.V_none -> ()
        | Some (Proto.Pub { pseq; cls; envelope }),
          Proto.V_pub { pseq = p; cls = c; envelope = e } ->
            Alcotest.(check bool) "pub fields" true (p = pseq && c = cls);
            Alcotest.(check string) "pub envelope" envelope
              (Proto.slice_to_string e)
        | Some (Proto.Deliver { origin; pseq; cls; envelope }),
          Proto.V_deliver { origin = o; pseq = p; cls = c; envelope = e } ->
            Alcotest.(check bool) "deliver fields" true
              (o = origin && p = pseq && c = cls);
            Alcotest.(check string) "deliver envelope" envelope
              (Proto.slice_to_string e)
        | Some m, Proto.V_msg m' ->
            Alcotest.(check bool) (Proto.tag m) true (m = m')
        | _, _ -> Alcotest.fail "decode_view disagrees with decode")
      [ (s, 0); (padded, String.length pad) ]
  in
  (* A name whose length is the largest varint the codec accepts
     (max_int, nine bytes): the end offset it implies must not wrap. *)
  let huge_name tag arity fields =
    let w = Wire.Writer.create () in
    Codec.encode_list_header w arity;
    Codec.encode_str_sub w tag ~pos:0 ~len:(String.length tag);
    fields w;
    Codec.encode_str_header w max_int;
    Wire.Writer.raw w "abc";
    Wire.Writer.contents w
  in
  List.iter (fun m -> agree (Proto.encode m)) all_msgs;
  List.iter agree
    [ ""; "\xff\xff\xff"; Codec.encode (Value.Str "not a message");
      Codec.encode (Value.List [ Value.Str "unknown-tag"; Value.Int 1 ]);
      Codec.encode (Value.List [ Value.Str "pub"; Value.Str "wrong shape" ]);
      huge_name "pub" 4 (fun w -> Codec.encode_int w 1);
      huge_name "dlv" 5 ignore ]

let test_chunk_queue_order_under_partial_writes () =
  (* Interleave small control frames, large shared frames and Pubs
     on both sides of the by-reference threshold — as one string, or
     gathered from an obvent with long strings at the end and in the
     middle, which splits the head around them — through a socketpair
     whose send buffer is clamped small, so every writev hits partial
     writes and blocked pieces. The peer reads with Conn.recv, straight
     into its decoder, and must see every frame, in enqueue order,
     bit-exact. *)
  let reg = gather_registry () in
  Trace.set_ambient (Trace.create ());
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.setsockopt_int a SO_SNDBUF 4096;
  let conn = Conn.create ~max_frame:(1 lsl 20) a in
  let peer = Conn.create ~max_frame:(1 lsl 20) b in
  let lim = Proto.ref_min in
  let pub_sizes = [| lim; lim + 1; 1; 3 * lim; lim - 1; 9000 |] in
  let expected = ref [] and frame_bytes = ref 0 in
  let expect payload =
    expected := payload :: !expected;
    frame_bytes := !frame_bytes + Frame.header_bytes + String.length payload
  in
  let send_one i =
    match i mod 3 with
    | 0 ->
        (* unique big envelope: takes the chunk-queue reference path *)
        let env = String.init 6000 (fun j -> Char.chr ((i + j) land 0xff)) in
        let pf =
          Proto.encode_deliver ~origin:"pub" ~pseq:i ~cls:"TQuote"
            (slice_of ~buf:env ~off:0 ~len:(String.length env))
        in
        Conn.send_preframed conn pf;
        let s = Frame.preframed_bytes pf in
        expect (String.sub s Frame.header_bytes (Frame.preframed_length pf))
    | 1 ->
        let n = pub_sizes.(i / 3 mod Array.length pub_sizes) in
        let bytes k = String.init n (fun j -> Char.chr ((k * i + j) land 0xff)) in
        if i mod 2 = 0 then begin
          let m = Proto.Pub { pseq = i; cls = "TQuote"; envelope = bytes 7 } in
          Conn.send conn m;
          expect (Proto.encode m)
        end
        else begin
          let o =
            Obvent.make reg "Pair"
              [ ("a", Value.Str (bytes 5)); ("n", Value.Int i); ("b", Value.Str (bytes 3)) ]
          in
          let f = Proto.pub_frame ~pseq:i ~cls:"Pair" ~publish_time:i ~eid:(1, i) (Obvent.to_value o) in
          Conn.send_gathered conn f;
          let s = joined f in
          expect (String.sub s Frame.header_bytes (String.length s - Frame.header_bytes))
        end
    | _ ->
        let m = Proto.Credit { n = i } in
        Conn.send conn m;
        expect (Proto.encode m)
  in
  let got = ref [] in
  let read_some () =
    match Conn.recv peer with
    | `Closed _ -> false
    | `Blocked -> true
    | `Ok ->
        let rec drain () =
          match Conn.pop_view peer with
          | Conn.View v ->
              let payload =
                match v with
                | Proto.V_pub { pseq; cls; envelope } ->
                    Proto.encode
                      (Pub
                         { pseq; cls; envelope = Proto.slice_to_string envelope })
                | Proto.V_deliver { origin; pseq; cls; envelope } ->
                    Proto.encode
                      (Deliver
                         {
                           origin;
                           pseq;
                           cls;
                           envelope = Proto.slice_to_string envelope;
                         })
                | Proto.V_msg m -> Proto.encode m
                | Proto.V_none -> Alcotest.fail "undecodable frame"
              in
              got := payload :: !got;
              drain ()
          | Conn.View_nothing -> ()
          | Conn.View_bad m -> Alcotest.failf "corrupt stream: %s" m
        in
        drain ();
        true
  in
  let rec pump guard =
    if guard = 0 then Alcotest.fail "flush never drained";
    match Conn.flush conn with
    | `Ok -> ()
    | `Blocked ->
        ignore (read_some ());
        pump (guard - 1)
    | `Closed m -> Alcotest.failf "writer closed: %s" m
  in
  (* three batches, each flushed once before the next is queued, so
     the queue is pushed onto while partly written *)
  for i = 0 to 35 do
    send_one i;
    if i mod 12 = 11 then begin
      ignore (Conn.flush conn);
      ignore (read_some ())
    end
  done;
  let expected = List.rev !expected in
  pump 10_000;
  Alcotest.(check int) "nothing left queued" 0 (Conn.pending_bytes conn);
  Alcotest.(check int) "bytes_sent = sum of frame lengths" !frame_bytes
    (Conn.stats conn).bytes_sent;
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  while read_some () do
    ()
  done;
  Alcotest.(check int) "every frame arrived" (List.length expected)
    (List.length !got);
  Alcotest.(check bool) "in order, bit-exact" true (List.rev !got = expected);
  Conn.close conn;
  Conn.close peer

let test_syscall_stats_balance () =
  (* The ambient transport.read_syscalls / write_syscalls counters must
     equal the sum of the per-connection stats over every live
     connection in the registry's lifetime. *)
  Trace.set_ambient (Trace.create ());
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let ca = Conn.create a and cb = Conn.create b in
  let wait_readable fd = ignore (Unix.select [ fd ] [] [] 2.0) in
  let pump_across src dst n =
    for i = 1 to n do
      Conn.send src (Proto.Credit { n = i })
    done;
    (match Conn.flush src with
    | `Ok -> ()
    | _ -> Alcotest.fail "flush did not drain");
    let seen = ref 0 in
    while !seen < n do
      wait_readable (Conn.fd dst);
      (match Conn.recv dst with
      | `Ok -> ()
      | `Blocked -> ()
      | `Closed m -> Alcotest.failf "peer closed: %s" m);
      let rec drain () =
        match Conn.pop dst with
        | Conn.Msg _ ->
            incr seen;
            drain ()
        | Conn.Nothing -> ()
        | Conn.Bad m -> Alcotest.failf "bad frame: %s" m
      in
      drain ()
    done
  in
  pump_across ca cb 5;
  pump_across cb ca 3;
  let sa = Conn.stats ca and sb = Conn.stats cb in
  let ambient name =
    Trace.Counter.value (Trace.counter (Trace.ambient ()) name)
  in
  Alcotest.(check int) "write syscalls balance"
    (sa.Conn.write_syscalls + sb.Conn.write_syscalls)
    (ambient "transport.write_syscalls");
  Alcotest.(check int) "read syscalls balance"
    (sa.Conn.read_syscalls + sb.Conn.read_syscalls)
    (ambient "transport.read_syscalls");
  Alcotest.(check int) "frames sent balance"
    (sa.Conn.frames_sent + sb.Conn.frames_sent)
    (ambient "transport.frames_sent");
  Alcotest.(check int) "frames received balance"
    (sa.Conn.frames_received + sb.Conn.frames_received)
    (ambient "transport.frames_received");
  Alcotest.(check int) "bytes sent balance"
    (sa.Conn.bytes_sent + sb.Conn.bytes_sent)
    (ambient "transport.bytes_sent");
  Alcotest.(check bool) "read syscalls happened" true
    (ambient "transport.read_syscalls" > 0);
  Conn.close ca;
  Conn.close cb

(* A [TQuote] envelope as a publishing client encodes it. *)
let quote_envelope i =
  Codec.encode
    (Value.List
       [ Value.Int 0; Value.Int 1; Value.Int i;
         Value.Str (Codec.encode (Value.obj "TQuote" [ ("seq", Value.Int i) ])) ])

(* In-process broker with raw connections: the encode-once ledger.
   K subscribers and P publishes cost exactly P Deliver encodes and
   P*K shared enqueues. *)
let run_fanout_counters ~subs ~pubs =
  Trace.set_ambient (Trace.create ());
  let broker = Broker.create ~config:instant_config ~port:0 () in
  let port = Broker.port broker in
  let dial id window =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
    let c = Conn.create fd in
    Conn.send c (Proto.Hello { client = id; window });
    c
  in
  let sub_conns =
    List.init subs (fun k ->
        ignore (Broker.poll broker ~timeout_ms:0 ());
        let c = dial (Printf.sprintf "s%d" k) 1_000_000 in
        Conn.send c (Proto.Sub { sid = k; param = "TQuote"; filter = Value.Null });
        ignore (Conn.flush c);
        c)
  in
  let pub = dial "pub" 0 in
  Conn.send pub (Proto.Advertise { cls = "TQuote"; supers = [] });
  ignore (Conn.flush pub);
  let delivered = ref 0 in
  let credit = ref 0 and sent = ref 0 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while !delivered < pubs * subs && Unix.gettimeofday () < deadline do
    ignore (Broker.poll broker ~timeout_ms:0 ());
    while !credit > 0 && !sent < pubs do
      Conn.send pub (Proto.Pub { pseq = !sent; cls = "TQuote"; envelope = quote_envelope !sent });
      incr sent;
      decr credit
    done;
    ignore (Conn.flush pub);
    (match Conn.recv pub with
    | `Ok ->
        let rec drain () =
          match Conn.pop pub with
          | Conn.Msg (Proto.Welcome { window }) ->
              credit := window;
              drain ()
          | Conn.Msg (Proto.Credit { n }) ->
              credit := !credit + n;
              drain ()
          | Conn.Msg _ -> drain ()
          | Conn.Nothing -> ()
          | Conn.Bad m -> Alcotest.failf "publisher: %s" m
        in
        drain ()
    | `Blocked -> ()
    | `Closed m -> Alcotest.failf "publisher closed: %s" m);
    List.iter
      (fun c ->
        match Conn.recv c with
        | `Ok ->
            let rec drain () =
              match Conn.pop c with
              | Conn.Msg (Proto.Deliver _) ->
                  incr delivered;
                  drain ()
              | Conn.Msg _ -> drain ()
              | Conn.Nothing -> ()
              | Conn.Bad m -> Alcotest.failf "subscriber: %s" m
            in
            drain ()
        | `Blocked -> ()
        | `Closed m -> Alcotest.failf "subscriber closed: %s" m)
      sub_conns
  done;
  Alcotest.(check int) "all deliveries arrived" (pubs * subs) !delivered;
  List.iter Conn.close sub_conns;
  Conn.close pub;
  Broker.stop broker;
  let v name = Trace.Counter.value (Trace.counter (Trace.ambient ()) name) in
  (v "transport.deliver_encodes", v "transport.fanout_shared")

let test_broker_encode_once_counters () =
  let encodes, shared_enqueues = run_fanout_counters ~subs:4 ~pubs:10 in
  Alcotest.(check int) "one encode per publish, independent of K" 10 encodes;
  Alcotest.(check int) "every enqueue shares the frame" 40 shared_enqueues

let raw_dial broker =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Broker.port broker));
  Conn.create fd

(* Read what has arrived on a raw connection and pass each message on. *)
let raw_drain who c on_msg =
  match Conn.recv c with
  | `Ok ->
      let rec go () =
        match Conn.pop c with
        | Conn.Msg m ->
            on_msg m;
            go ()
        | Conn.Nothing -> ()
        | Conn.Bad m -> Alcotest.failf "%s: %s" who m
      in
      go ()
  | `Blocked -> ()
  | `Closed m -> Alcotest.failf "%s closed: %s" who m

(* An in-process broker with a raw subscriber of [TQuote] and a raw
   publisher, connected and settled: the subscription is installed and
   the publisher holds its credit window. [publish env] sends one Pub
   and returns the envelope of the Deliver it causes. *)
let raw_pair broker =
  let sub = raw_dial broker and pub = raw_dial broker in
  let credit = ref 0 and delivered = ref None in
  let pump_until what cond =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      ignore (Conn.flush pub);
      ignore (Conn.flush sub);
      ignore (Broker.poll broker ~timeout_ms:1 ());
      raw_drain "publisher" pub (function
        | Proto.Welcome { window } -> credit := window
        | Proto.Credit { n } -> credit := !credit + n
        | _ -> ());
      raw_drain "subscriber" sub (function
        | Proto.Deliver { envelope; _ } -> delivered := Some envelope
        | _ -> ())
    done;
    if not (cond ()) then Alcotest.failf "timed out waiting for %s" what
  in
  Conn.send sub (Proto.Hello { client = "sub"; window = 1_000_000 });
  Conn.send sub (Proto.Sub { sid = 0; param = "TQuote"; filter = Value.Null });
  pump_until "two sessions" (fun () -> Broker.session_count broker = 2);
  Conn.send pub (Proto.Hello { client = "pub"; window = 0 });
  Conn.send pub (Proto.Advertise { cls = "TQuote"; supers = [] });
  pump_until "the publish window" (fun () -> !credit > 0);
  let pseq = ref 0 in
  let publish envelope =
    delivered := None;
    Conn.send pub (Proto.Pub { pseq = !pseq; cls = "TQuote"; envelope });
    incr pseq;
    pump_until "the delivery" (fun () -> !delivered <> None);
    Option.get !delivered
  in
  (sub, pub, publish)

let blob_value seq =
  Value.obj "TQuote" [ ("seq", Value.Int seq); ("data", Value.Str (String.make 8192 'x')) ]

let blob_envelope seq =
  Codec.encode
    (Value.List
       [ Value.Int 0; Value.Int 1; Value.Int seq; Value.Str (Codec.encode (blob_value seq)) ])

(* [transport.crc_bytes] grows by a frame's payload once when the frame
   is built and once when it is verified: over a Pub -> Deliver round
   trip with every peer in this process, that is every payload byte
   sent plus every payload byte received, and the 8 KiB event is
   checksummed exactly four times (publisher frame, broker verify,
   broker re-frame, subscriber verify). *)
let test_crc_bytes_one_pass_per_frame () =
  Trace.set_ambient (Trace.create ());
  let broker = Broker.create ~config:instant_config ~port:0 () in
  let sub, pub, publish = raw_pair broker in
  let v name = Trace.Counter.value (Trace.counter (Trace.ambient ()) name) in
  (* let the publisher's first credit round settle before counting *)
  ignore (publish (blob_envelope 0));
  let snap () =
    ( v "transport.crc_bytes",
      v "transport.bytes_sent" - (Frame.header_bytes * v "transport.frames_sent"),
      v "transport.bytes_received" - (Frame.header_bytes * v "transport.frames_received") )
  in
  let crc0, sent0, recv0 = snap () in
  let env = blob_envelope 1 in
  let got = publish env in
  (* the peers' replies (acks, credits) may still be in flight *)
  for _ = 1 to 5 do
    ignore (Conn.flush pub);
    ignore (Conn.flush sub);
    ignore (Broker.poll broker ~timeout_ms:1 ())
  done;
  let crc1, sent1, recv1 = snap () in
  Alcotest.(check string) "delivered intact" env got;
  let pub_payload =
    String.length
      (Frame.preframed_bytes (Proto.frame (Proto.Pub { pseq = 1; cls = "TQuote"; envelope = env })))
    - Frame.header_bytes
  in
  Alcotest.(check int) "one pass per frame built or verified"
    (sent1 - sent0 + (recv1 - recv0))
    (crc1 - crc0);
  Alcotest.(check bool) "the event is checksummed four times" true
    (crc1 - crc0 >= 4 * pub_payload && crc1 - crc0 < 5 * pub_payload);
  Conn.close sub;
  Conn.close pub;
  Broker.stop broker

(* On Unix a file descriptor is its number. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

(* Run [f] with every descriptor below 1024 taken, so whatever it
   opens lands above; [cleanup] runs either way. Skipped when the
   process may not open that many. *)
let above_fd_setsize ~cleanup f =
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let rec fill acc =
    match Unix.dup devnull with
    | fd when fd_number fd < 1024 -> fill (fd :: acc)
    | fd ->
        Unix.close fd;
        acc
    | exception Unix.Unix_error (EMFILE, _, _) ->
        (* a process limited to 1024 descriptors cannot open one above it *)
        List.iter Unix.close acc;
        Unix.close devnull;
        cleanup ();
        Alcotest.skip ()
  in
  let fillers = fill [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Unix.close fillers;
      Unix.close devnull;
      cleanup ())
    f

(* select(2) cannot watch a descriptor at or past FD_SETSIZE (1024):
   with every lower descriptor taken, the broker's sessions are accepted
   above it and must still carry a Pub -> Deliver round trip. *)
let test_broker_sessions_above_fd_setsize () =
  Trace.set_ambient (Trace.create ());
  let broker = Broker.create ~config:instant_config ~port:0 () in
  above_fd_setsize ~cleanup:(fun () -> Broker.stop broker) (fun () ->
      let sub, pub, publish = raw_pair broker in
      Alcotest.(check bool) "peers above FD_SETSIZE" true
        (fd_number (Conn.fd sub) >= 1024 && fd_number (Conn.fd pub) >= 1024);
      let env = blob_envelope 7 in
      Alcotest.(check string) "delivered" env (publish env);
      Conn.close sub;
      Conn.close pub)

(* The client side of the same limit: a client whose socket lands above
   fd 1024 connects, publishes and receives (its waits are poll(2),
   not select). The broker is forked first, below the limit. *)
let test_client_above_fd_setsize () =
  Trace.set_ambient (Trace.create ());
  let listen_fd = Broker.listen_socket ~host:"127.0.0.1" ~port:0 in
  let port = bound_port listen_fd in
  let bp = fork_broker ~listen_fd () in
  above_fd_setsize
    ~cleanup:(fun () ->
      quit_broker bp;
      Unix.close listen_fd)
    (fun () ->
      let sub = fresh_ctx ~id:"sub" ~port in
      let pub = fresh_ctx ~id:"pub" ~port in
      let ctxs = [ sub; pub ] in
      let got, dups, _ = collector sub in
      publish_quote pub ~origin:"pub" 0;
      Alcotest.(check bool) "delivered above FD_SETSIZE" true
        (spin ~ctxs ~until:(fun () -> !got <> []) ~for_ms:5000 ());
      Alcotest.(check (list (pair string int))) "the one event" [ ("pub", 0) ] !got;
      Alcotest.(check int) "no dups" 0 !dups;
      List.iter (fun c -> Client.close c.client) ctxs)

(* --- the pipelined turn --------------------------------------------- *)

(* An in-process broker with a raw subscriber of [TQuote] (delivery
   window [sub_window]), a raw publisher holding its publish window and
   [idle] more sockets that connect and never send a byte. [turn] is
   one round of flushes, one broker poll and draining both peers. *)
type raw_peers = {
  broker : Broker.t;
  sub : Conn.t;
  pub : Conn.t;
  idle_fds : Unix.file_descr list;
  acks : int list ref;  (* Pub_acks the publisher got, newest first *)
  delivered : int list ref;  (* pseqs the subscriber got, newest first *)
  credit : int ref;  (* the publisher's window *)
}

let turn p =
  ignore (Conn.flush p.pub);
  ignore (Conn.flush p.sub);
  ignore (Broker.poll p.broker ~timeout_ms:1 ());
  raw_drain "publisher" p.pub (function
    | Proto.Welcome { window } -> p.credit := window
    | Proto.Credit { n } -> p.credit := !(p.credit) + n
    | Proto.Pub_ack { pseq } -> p.acks := pseq :: !(p.acks)
    | _ -> ());
  raw_drain "subscriber" p.sub (function
    | Proto.Deliver { pseq; _ } -> p.delivered := pseq :: !(p.delivered)
    | _ -> ())

let until p what cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    turn p
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

let raw_peers ?(idle = 0) ~sub_window () =
  Trace.set_ambient (Trace.create ());
  let broker = Broker.create ~config:instant_config ~port:0 () in
  let idle_fds =
    List.init idle (fun k ->
        (* accept as they come, so the listen backlog never fills *)
        if k mod 16 = 0 then ignore (Broker.poll broker ~timeout_ms:0 ());
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Broker.port broker));
        fd)
  in
  let p =
    { broker; sub = raw_dial broker; pub = raw_dial broker; idle_fds;
      acks = ref []; delivered = ref []; credit = ref 0 }
  in
  Conn.send p.sub (Proto.Hello { client = "sub"; window = sub_window });
  Conn.send p.sub (Proto.Sub { sid = 0; param = "TQuote"; filter = Value.Null });
  until p "every session" (fun () -> Broker.session_count broker = idle + 2);
  Conn.send p.pub (Proto.Hello { client = "pub"; window = 0 });
  Conn.send p.pub (Proto.Advertise { cls = "TQuote"; supers = [] });
  until p "the publish window" (fun () -> !(p.credit) > 0);
  p

let close_peers p =
  Conn.close p.sub;
  Conn.close p.pub;
  List.iter Unix.close p.idle_fds;
  Broker.stop p.broker

(* Pubs 0 .. n-1 in one write; the pause lets all of it reach the
   broker's socket buffer, so one read takes the lot. *)
let burst p n =
  for i = 0 to n - 1 do
    Conn.send p.pub (Proto.Pub { pseq = i; cls = "TQuote"; envelope = quote_envelope i })
  done;
  p.credit := !(p.credit) - n;
  Alcotest.(check bool) "the burst is written" true (Conn.flush p.pub = `Ok);
  Unix.sleepf 0.02

let last_ack_is p n () = match !(p.acks) with a :: _ -> a = n | [] -> false

(* A window read in one go is acked while it is being routed: at least
   one cumulative ack per quarter window, the first after a quarter. *)
let test_pipelined_acks () =
  let p = raw_peers ~sub_window:1_000_000 () in
  let w = Broker.default_config.pub_window in
  Alcotest.(check int) "a full window" w !(p.credit);
  burst p w;
  until p "the last ack" (last_ack_is p (w - 1));
  let acks = List.rev !(p.acks) in
  Alcotest.(check bool) "at least four acks per window" true (List.length acks >= 4);
  Alcotest.(check bool) "the first after at most a quarter window" true
    (List.hd acks <= w / 4);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (increasing acks);
  Alcotest.(check int) "every pub delivered" w (List.length !(p.delivered));
  close_peers p

(* A subscriber that grants no delivery credit holds the publisher's
   acks back: nothing is acked before its deliveries reach the kernel,
   however often the broker pumps. The queue depth gauge follows the
   held queue exactly. *)
let test_zero_credit_holds_acks () =
  let p = raw_peers ~sub_window:0 () in
  let qdepth = Trace.gauge (Trace.ambient ()) "tpbsd.qdepth" in
  burst p 8;
  for _ = 1 to 20 do
    turn p
  done;
  Alcotest.(check (list int)) "no ack while nothing is delivered" [] !(p.acks);
  Alcotest.(check (list int)) "nothing delivered" [] !(p.delivered);
  Alcotest.(check int) "queue depth" 8 (Trace.Gauge.value qdepth);
  let granted = ref 0 in
  let grant n =
    granted := !granted + n;
    Conn.send p.sub (Proto.Credit { n });
    until p "the granted acks" (last_ack_is p (!granted - 1));
    for _ = 1 to 5 do
      turn p
    done;
    Alcotest.(check (list int)) "exactly the granted pubs delivered"
      (List.init !granted Fun.id) (List.rev !(p.delivered));
    Alcotest.(check bool) "every ack covers flushed pubs only" true
      (List.for_all (fun a -> a < !granted) !(p.acks))
  in
  grant 3;
  Alcotest.(check int) "queue depth after 3" 5 (Trace.Gauge.value qdepth);
  grant 5;
  Alcotest.(check int) "queue drained" 0 (Trace.Gauge.value qdepth);
  Alcotest.(check int) "queue depth peak" 8 (Trace.Gauge.peak qdepth);
  close_peers p

(* Pumps visit the sessions that have work: a burst costs the same
   number of session pumps however many idle sockets are connected. *)
let burst_pumps ~idle =
  let p = raw_peers ~idle ~sub_window:1_000_000 () in
  let pumps () =
    Trace.Counter.value (Trace.counter (Trace.ambient ()) "tpbsd.session_pumps")
  in
  let before = pumps () in
  burst p 64;
  until p "the burst" (fun () ->
      last_ack_is p 63 () && List.length !(p.delivered) = 64);
  let n = pumps () - before in
  close_peers p;
  n

let test_pumps_independent_of_idle () =
  let quiet = burst_pumps ~idle:0 in
  let crowded = burst_pumps ~idle:128 in
  Alcotest.(check bool) "a burst pumps" true (quiet > 0);
  Alcotest.(check int) "idle sockets cost no pumps" quiet crowded

(* A signal that interrupts the wait reports nothing ready: an idle
   control pipe must not read as readable (its owner would then block
   reading it). *)
let test_broker_poll_interrupted () =
  Trace.set_ambient (Trace.create ());
  let broker = Broker.create ~config:instant_config ~port:0 () in
  let r, w = Unix.pipe () in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle ignore) in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer ITIMER_REAL { it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm old;
      Unix.close r;
      Unix.close w;
      Broker.stop broker)
    (fun () ->
      ignore
        (Unix.setitimer ITIMER_REAL { it_interval = 0.0; it_value = 0.02 });
      Alcotest.(check bool) "idle pipe not ready" false
        (Broker.poll broker ~extra_fds:[ r ] ~timeout_ms:1000 ()))

(* [transport.copy_bytes] over a large Pub -> Deliver round trip with
   every peer in this process: writing the gathered Pub copies nothing,
   and the broker copies the envelope once, into the Deliver it
   encodes for its subscribers. *)
let test_copy_bytes_large_round_trip () =
  Trace.set_ambient (Trace.create ());
  let broker = Broker.create ~config:instant_config ~port:0 () in
  let sub, pub, publish = raw_pair broker in
  let copies () = Trace.Counter.value (Trace.counter (Trace.ambient ()) "transport.copy_bytes") in
  (* settle the first credit round and the decoders' buffers *)
  ignore (publish (blob_envelope 0));
  for _ = 1 to 5 do
    ignore (Conn.flush sub);
    ignore (Broker.poll broker ~timeout_ms:1 ());
    raw_drain "publisher" pub ignore
  done;
  let c0 = copies () in
  let f = Proto.pub_frame ~pseq:1 ~cls:"TQuote" ~publish_time:0 ~eid:(1, 1) (blob_value 1) in
  Conn.send_gathered pub f;
  Alcotest.(check bool) "the Pub is written" true (Conn.flush pub = `Ok);
  let c1 = copies () in
  Alcotest.(check int) "publisher: no copy" 0 (c1 - c0);
  (* the whole frame reaches the broker's socket before it reads *)
  Unix.sleepf 0.02;
  let sub_readable () =
    match Unix.select [ Conn.fd sub ] [] [] 0.0 with [], _, _ -> false | _ -> true
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (sub_readable ())) && Unix.gettimeofday () < deadline do
    ignore (Broker.poll broker ~timeout_ms:1 ())
  done;
  let env = blob_envelope 1 in
  Alcotest.(check int) "broker: the envelope, once" (String.length env) (copies () - c1);
  let got = ref None in
  while !got = None && Unix.gettimeofday () < deadline do
    raw_drain "subscriber" sub (function
      | Proto.Deliver { envelope; _ } -> got := Some envelope
      | _ -> ())
  done;
  Alcotest.(check (option string)) "delivered intact" (Some env) !got;
  Conn.close sub;
  Conn.close pub;
  Broker.stop broker

(* A stand-in broker for one connection, in a child: it welcomes the
   client, then sends the payload of the first Pub frame it reads up
   [out] and hangs up without acking — a broker that dies with the
   publish unacknowledged. *)
let fork_recorder ~listen_fd out =
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let fd, _ = Unix.accept listen_fd in
          let dec = Frame.Decoder.create () in
          let buf = Bytes.create 65536 in
          let rec loop () =
            match Frame.Decoder.pop dec with
            | Frame.Decoder.Frame payload -> (
                match Proto.decode payload with
                | Some (Proto.Hello _) ->
                    let w = Frame.preframed_bytes (Proto.frame (Proto.Welcome { window = 64 })) in
                    ignore (Unix.write_substring fd w 0 (String.length w));
                    loop ()
                | Some (Proto.Pub _) ->
                    ignore (Unix.write_substring out payload 0 (String.length payload));
                    0
                | _ -> loop ())
            | Frame.Decoder.Await ->
                let n = Unix.read fd buf 0 (Bytes.length buf) in
                if n = 0 then 2
                else begin
                  Frame.Decoder.feed dec (Bytes.unsafe_to_string buf) 0 n;
                  loop ()
                end
            | Frame.Decoder.Corrupt _ -> 3
          in
          let code = loop () in
          Unix.close fd;
          code
        with _ -> 4
      in
      Unix._exit code
  | pid -> pid

let read_all fd =
  let b = Buffer.create 9000 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
  in
  go ()

(* A large Pub whose broker dies unacked is retransmitted, after each
   reconnect, with exactly the bytes of its first send — the frame built
   at publish, by reference — and reaches the subscriber of a real
   broker exactly once, intact. *)
let test_large_pub_retransmitted_verbatim () =
  Trace.set_ambient (Trace.create ());
  let listen_fd = Broker.listen_socket ~host:"127.0.0.1" ~port:0 in
  let port = bound_port listen_fd in
  let record connect =
    let r, w = Unix.pipe () in
    let pid = fork_recorder ~listen_fd w in
    Unix.close w;
    let x = connect () in
    x, (fun pump ->
        (* pump the publisher until the recorder has what it wants *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while
          (match Unix.select [ r ] [] [] 0.0 with [], _, _ -> true | _ -> false)
          && Unix.gettimeofday () < deadline
        do
          pump ()
        done;
        let payload = read_all r in
        Unix.close r;
        let _, status = Unix.waitpid [] pid in
        Alcotest.(check bool) "the recorder got a Pub" true (status = Unix.WEXITED 0);
        payload)
  in
  let big = String.init 8192 (fun i -> Char.chr (32 + (i mod 90))) in
  let pub, first =
    record (fun () ->
        let pub = fresh_ctx ~id:"pub" ~port in
        Pubsub.Process.publish pub.proc
          (Obvent.make pub.reg "TQuote" [ ("seq", Value.Int 0); ("origin", Value.Str big) ]);
        Engine.run pub.engine;
        pub)
  in
  let first = first (fun () -> ignore (Client.poll pub.client ~timeout_ms:5)) in
  let (), second =
    record (fun () ->
        Alcotest.(check bool) "reconnects to the second recorder" true
          (Client.reconnect ~timeout_ms:2000 pub.client))
  in
  let second = second (fun () -> ignore (Client.poll pub.client ~timeout_ms:5)) in
  Alcotest.(check int) "the first send is a large Pub" 1
    (match Proto.decode first with
    | Some (Proto.Pub { envelope; _ }) when String.length envelope > 8192 -> 1
    | _ -> 0);
  Alcotest.(check bool) "retransmitted byte for byte" true (String.equal first second);
  let bp = fork_broker ~listen_fd () in
  Fun.protect ~finally:(fun () -> quit_broker bp; Unix.close listen_fd)
  @@ fun () ->
  let sub = fresh_ctx ~id:"sub" ~port in
  let got, dups, _ = collector sub in
  Alcotest.(check bool) "reconnects to the broker" true
    (Client.reconnect ~timeout_ms:2000 pub.client);
  let ctxs = [ sub; pub ] in
  Alcotest.(check bool) "delivered and acknowledged" true
    (spin ~ctxs
       ~until:(fun () -> !got <> [] && Client.queued_count pub.client = 0)
       ~for_ms:10000 ());
  ignore (spin ~ctxs ~until:(fun () -> false) ~for_ms:100 ());
  Alcotest.(check (list (pair string int))) "exactly once, intact" [ (big, 0) ] !got;
  Alcotest.(check int) "no duplicates" 0 !dups;
  Alcotest.(check int) "sent three times: two retransmits" 2
    (Trace.Counter.value (Trace.counter (Trace.ambient ()) "transport.retransmits"));
  List.iter (fun c -> Client.close c.client) ctxs

(* An empty poll allocates the same however many sessions sit idle:
   the wait arrays persist, indexed by session slot, and only their
   event bits are refilled. One process, plain sockets. *)
let empty_poll_words ~idle =
  Trace.set_ambient (Trace.create ());
  let broker = Broker.create ~config:instant_config ~port:0 () in
  let fds =
    List.init idle (fun k ->
        if k mod 16 = 0 then ignore (Broker.poll broker ~timeout_ms:0 ());
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Broker.port broker));
        fd)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Broker.session_count broker < idle && Unix.gettimeofday () < deadline do
    ignore (Broker.poll broker ~timeout_ms:1 ())
  done;
  Alcotest.(check int) "every session accepted" idle (Broker.session_count broker);
  for _ = 1 to 10 do
    ignore (Broker.poll broker ~timeout_ms:0 ())
  done;
  let probe = let w = Gc.minor_words () in Gc.minor_words () -. w in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Broker.poll broker ~timeout_ms:0 ())
  done;
  let words = (Gc.minor_words () -. w0 -. probe) /. 100. in
  List.iter Unix.close fds;
  Broker.stop broker;
  words

let test_empty_poll_words_flat () =
  let one = empty_poll_words ~idle:1 and many = empty_poll_words ~idle:128 in
  Alcotest.(check (float 0.)) "words per empty poll: 1 vs 128 idle sessions" one many

(* The publisher's allocation per [Process.publish], framing included,
   as [Client.publish] frames it: an exact count for a small_typed
   obvent, and for an 8 KiB Blob no allocation the size of an envelope
   (the data string is written by reference, never copied). *)
let publish_words reg o =
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let dom = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create dom (Net.add_node net) in
  let frames = ref 0 in
  let endpoint =
    { Pubsub.Remote.r_publish =
        (fun ~cls ~publish_time ~eid obvent ->
          incr frames;
          ignore
            (Sys.opaque_identity
               (Proto.pub_frame ~pseq:!frames ~cls ~publish_time ~eid obvent)));
      r_subscribe = (fun ~sid:_ ~param:_ ~filter:_ -> ());
      r_unsubscribe = (fun ~sid:_ -> ()) }
  in
  let _inject = Pubsub.Remote.connect dom proc endpoint in
  for _ = 1 to 10 do
    Pubsub.Process.publish proc o
  done;
  let probe = let w = Gc.minor_words () in Gc.minor_words () -. w in
  let n = 1000 in
  let (_, _, major0) = Gc.counters () in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Pubsub.Process.publish proc o
  done;
  let words = (Gc.minor_words () -. w0 -. probe) /. float_of_int n in
  let (_, _, major1) = Gc.counters () in
  Alcotest.(check int) "every publish framed" (n + 10) !frames;
  (words, (major1 -. major0) /. float_of_int n)

let test_publish_words () =
  let reg = gather_registry () in
  Registry.declare_class reg ~name:"Tick" ~implements:[ "Obvent" ]
    ~attrs:
      [ ("seq", Vtype.Tint); ("sym", Vtype.Tstring); ("price", Vtype.Tint);
        ("side", Vtype.Tstring) ]
    ();
  let tick =
    Obvent.make reg "Tick"
      [ ("seq", Value.Int 4242); ("sym", Value.Str "SYM007"); ("price", Value.Int 512);
        ("side", Value.Str "sell") ]
  in
  let blob =
    Obvent.make reg "Blob" [ ("seq", Value.Int 4242); ("data", Value.Str (String.make 8192 'b')) ]
  in
  let tick_words, _ = publish_words reg tick in
  let blob_words, blob_major = publish_words reg blob in
  Alcotest.(check (float 0.)) "small_typed: minor words per publish" 60. tick_words;
  Alcotest.(check (float 0.)) "8 KiB Blob: minor words per publish" 72. blob_words;
  Alcotest.(check bool)
    (Printf.sprintf "8 KiB Blob: no envelope-sized allocation (%.1f major words)" blob_major)
    true (blob_major < 256.)

let suite =
  ( "transport",
    [ Alcotest.test_case "framing roundtrip" `Quick test_frame_roundtrip;
      Alcotest.test_case "framing byte-at-a-time" `Quick test_frame_dribble;
      Alcotest.test_case "framing all split points" `Quick
        test_frame_all_split_points;
      Alcotest.test_case "framing truncated = Await" `Quick
        test_frame_truncated_is_await;
      Alcotest.test_case "framing corrupt CRC is sticky" `Quick
        test_frame_corrupt_crc_sticky;
      Alcotest.test_case "framing oversize/negative length" `Quick
        test_frame_oversize_and_negative_length;
      Alcotest.test_case "framing lying length" `Quick
        test_frame_corrupt_length_of_valid_frame;
      Alcotest.test_case "proto roundtrips" `Quick test_proto_roundtrip;
      Alcotest.test_case "proto rejects garbage" `Quick
        test_proto_rejects_garbage;
      Alcotest.test_case "e2e: two subscribers, one broker" `Quick
        test_e2e_two_clients;
      Alcotest.test_case "e2e: exactly-once across broker restart" `Quick
        test_e2e_broker_restart_exactly_once;
      Alcotest.test_case "e2e: corrupt bytes condemn only their connection"
        `Quick test_e2e_corrupt_bytes_condemn_connection;
      Alcotest.test_case "e2e: covering on/off delivers identically" `Quick
        test_e2e_covering_equivalence;
      Alcotest.test_case "backoff schedule is exponential, capped, jittered"
        `Quick test_backoff_schedule;
      Alcotest.test_case "reconnect with backoff: recover, then give up"
        `Quick test_reconnect_with_backoff;
      QCheck_alcotest.to_alcotest test_preframed_oracle;
      QCheck_alcotest.to_alcotest test_frame_builder_oracle;
      QCheck_alcotest.to_alcotest test_decoder_view_agrees_with_pop;
      QCheck_alcotest.to_alcotest test_decoder_reserve_agrees_with_feed;
      QCheck_alcotest.to_alcotest prop_gathered_pub_frame;
      QCheck_alcotest.to_alcotest prop_decode_view_names;
      Alcotest.test_case "decoder view corruption matches pop" `Quick
        test_decoder_view_corrupt_matches_pop;
      Alcotest.test_case "decode_view agrees with decode" `Quick
        test_decode_view_agrees_with_decode;
      Alcotest.test_case "chunk queue keeps order under partial writes"
        `Quick test_chunk_queue_order_under_partial_writes;
      Alcotest.test_case "ambient syscall counters balance per-conn stats"
        `Quick test_syscall_stats_balance;
      Alcotest.test_case "broker fan-out encodes once per publish" `Quick
        test_broker_encode_once_counters;
      Alcotest.test_case "crc_bytes: one pass per frame built or verified"
        `Quick test_crc_bytes_one_pass_per_frame;
      Alcotest.test_case "broker sessions above FD_SETSIZE deliver" `Quick
        test_broker_sessions_above_fd_setsize;
      Alcotest.test_case "broker poll interrupted by a signal: nothing ready"
        `Quick test_broker_poll_interrupted;
      Alcotest.test_case "client above FD_SETSIZE connects and receives" `Quick
        test_client_above_fd_setsize;
      Alcotest.test_case "pipelined turn: acks every quarter window" `Quick
        test_pipelined_acks;
      Alcotest.test_case "pipelined turn: zero delivery credit holds acks"
        `Quick test_zero_credit_holds_acks;
      Alcotest.test_case "pipelined turn: idle sockets cost no pumps" `Quick
        test_pumps_independent_of_idle;
      Alcotest.test_case "copy_bytes: a large Pub is copied once, by the broker"
        `Quick test_copy_bytes_large_round_trip;
      Alcotest.test_case "reconnect: a large Pub is retransmitted verbatim, once"
        `Quick test_large_pub_retransmitted_verbatim;
      Alcotest.test_case "empty poll: words flat in idle sessions" `Quick
        test_empty_poll_words_flat;
      Alcotest.test_case "publish: words per Process.publish, framed" `Quick
        test_publish_words ] )
