(* MSGCOST — what one small obvent costs, stage by stage, on the way from
   publisher to handler, in nanoseconds and minor-heap words per event.

   The workload has the shape of perfbench's small_typed: 120-byte
   obvents of three classes in a 3-level class lattice (Tick <: Quote
   <: Book), eight subscriptions (four single-threaded, four with
   filters) and about 3.7 deliveries per event. A "read batch" of B
   events is what a subscriber gets from one socket read: B envelopes
   are injected into the domain back to back, then the engine drains
   the handler queues. Per-message cost that grows with B is a
   per-message cost that depends on the queue behind it.

   Subscriber stages, each replayed on its own over the same envelopes
   with the functions the delivery path calls:
   - open:     [Remote.decode_envelope_sub], the envelope in place;
   - decode:   [Obvent.deserialize_sub], the one gating decode;
   - route:    routing-index lookup plus every routed filter;
   - dispatch: a view per extra matching subscription, [Dispatch.submit];
   - drain:    [Engine.run] over the handler completions of one batch.
   The [path] row is the real thing: [Remote.connect]'s injection
   function, then [Engine.run], once per batch.

   Publisher stages: [Obvent.make], then publish → frame:
   [Process.publish] into a remote endpoint that frames the obvent as
   [Client.publish] does ([Proto.pub_frame]: the envelope written into
   the frame, never a string of its own) and drops the frame. Each
   row has, per event, the words allocated straight on the major heap
   (blocks too large for the minor heap, which the minor words miss)
   and the CRC and copy bytes that [transport.crc_bytes] and
   [transport.copy_bytes] count.

   A last table takes perfbench's large_payload shape, one class with
   an 8 KiB string: the publisher's publish → frame (the string left
   out of the frame's head, by reference), and the subscriber's frame
   verify, [Proto.decode_view], envelope open and obvent decode, with
   the same byte counts.

   The broker hop is an in-process [Transport.Broker] on loopback, fed
   recorded [Pub] frames of the small_typed and broker_filtered shapes
   a publish window at a time (one write, as the client sends a full
   window), with a raw subscriber session holding the shape's
   subscriptions. Its row is the broker's turns: the read and frame
   verify, route, [encode_deliver], the queueing and the pumps, per
   publish, with the write syscalls the pumps make.

   Word counts are exact and host-independent (the test suite gates the
   path row); nanoseconds are the median of [reps] timed repetitions
   and depend on the host. *)

module Registry = Tpbs_types.Registry
module Vtype = Tpbs_types.Vtype
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module Expr = Tpbs_filter.Expr
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Pubsub = Tpbs_core.Pubsub
module Fspec = Tpbs_core.Fspec
module Dispatch = Tpbs_core.Dispatch
module Routing = Tpbs_core.Routing
module Proto = Tpbs_transport.Proto
module Frame = Tpbs_transport.Frame
module Conn = Tpbs_transport.Conn
module Broker = Tpbs_transport.Broker
module Trace = Tpbs_trace.Trace

let batches = [ 1; 64; 256 ]
let events = 256 * 24
let reps = 5

(* --- the small_typed shape ------------------------------------------ *)

let declare reg =
  Registry.declare_class reg ~name:"Tick" ~implements:[ "Obvent" ]
    ~attrs:
      [ ("seq", Vtype.Tint); ("sym", Vtype.Tstring); ("price", Vtype.Tint);
        ("side", Vtype.Tstring) ]
    ();
  Registry.declare_class reg ~name:"Quote" ~extends:"Tick"
    ~attrs:[ ("vol", Vtype.Tint) ] ();
  Registry.declare_class reg ~name:"Book" ~extends:"Quote"
    ~attrs:[ ("venue", Vtype.Tstring) ] ()

let registry () =
  let reg = Registry.create () in
  declare reg;
  reg

(* Event [seq], a pure function of [seq]. *)
let gen seq =
  let h k = ((seq * 0x9E3779B1) + (k * 0x85EBCA77)) lsr 7 land 0xFFFFF in
  let cls = [| "Tick"; "Quote"; "Book" |].(h 1 mod 3) in
  let base =
    [ ("seq", Value.Int seq); ("sym", Value.Str (Printf.sprintf "SYM%03d" (h 2 mod 32)));
      ("price", Value.Int (h 3 mod 1000));
      ("side", Value.Str (if h 4 land 1 = 0 then "buy" else "sell")) ]
  in
  let fields =
    match cls with
    | "Tick" -> base
    | "Quote" -> base @ [ ("vol", Value.Int (h 5 mod 100)) ]
    | _ ->
        base
        @ [ ("vol", Value.Int (h 5 mod 100));
            ("venue", Value.Str [| "XNYS"; "XNAS"; "BATS"; "IEXG" |].(h 6 mod 4)) ]
  in
  (cls, fields)

let attr a = Expr.getter [ "get" ^ String.capitalize_ascii a ]

(* (param, filter, single-threaded) — small_typed's eight. *)
let subs =
  Expr.
    [ ("Tick", None, true);
      ("Tick", Some (attr "price" <. int 500), false);
      ("Quote", None, true);
      ("Quote", Some (attr "side" =. str "buy"), false);
      ("Book", None, true);
      ("Book", Some (attr "vol" >=. int 50), false);
      ("Quote", Some (attr "price" >=. int 250 &&& (attr "price" <. int 750)), true);
      ("Book", None, false) ]

let envelopes reg =
  Array.init events (fun seq ->
      let cls, fields = gen seq in
      ( cls,
        Pubsub.Remote.encode_envelope ~publish_time:0 ~eid:(1, seq)
          (Obvent.make reg cls fields) ))

(* --- measuring --------------------------------------------------------- *)

let probe_words =
  let a = Gc.minor_words () in
  Gc.minor_words () -. a

(* Run [f] once per repetition; report median ns and (last) minor words,
   each per event. [f] must process [n] events. *)
let measure ~n f =
  let ns = Array.make reps 0. and words = ref 0. in
  for r = 0 to reps - 1 do
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    f ();
    let t1 = Unix.gettimeofday () in
    words := Gc.minor_words () -. w0 -. probe_words;
    ns.(r) <- (t1 -. t0) *. 1e9
  done;
  Array.sort compare ns;
  (ns.(reps / 2) /. float_of_int n, !words /. float_of_int n)

(* --- subscriber ------------------------------------------------------- *)

let noop_endpoint =
  {
    Pubsub.Remote.r_publish = (fun ~cls:_ ~publish_time:_ ~eid:_ _ -> ());
    r_subscribe = (fun ~sid:_ ~param:_ ~filter:_ -> ());
    r_unsubscribe = (fun ~sid:_ -> ());
  }

(* A subscriber domain attached to a no-op remote endpoint, with the
   eight subscriptions active; returns its engine, injection function
   and a delivery counter. *)
let subscriber reg =
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let dom = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create dom (Net.add_node net) in
  let inject = Pubsub.Remote.connect dom proc noop_endpoint in
  let delivered = ref 0 in
  List.iter
    (fun (param, expr, single) ->
      let filter = Option.map (fun e -> Fspec.tree e) expr in
      let s = Pubsub.Process.subscribe proc ~param ?filter (fun _ -> incr delivered) in
      if single then Pubsub.Subscription.set_single_threading s;
      Pubsub.Subscription.activate s)
    subs;
  Engine.run engine;
  (engine, inject, delivered)

let in_batches ~batch f_event f_batch =
  let i = ref 0 in
  while !i < events do
    let stop = min events (!i + batch) in
    for k = !i to stop - 1 do
      f_event k
    done;
    f_batch ();
    i := stop
  done

(* The real path: inject each envelope of a batch, then drain. *)
let path_cost reg envs ~batch =
  let engine, inject, delivered = subscriber reg in
  let run () =
    in_batches ~batch
      (fun k ->
        let cls, env = envs.(k) in
        inject ~cls env ~off:0 ~len:(String.length env))
      (fun () -> Engine.run engine)
  in
  run ();
  (* warm: routing index built, queues at their steady size *)
  let before = !delivered in
  let cost = measure ~n:events run in
  (cost, float_of_int (!delivered - before) /. float_of_int (reps * events))

(* The stages of the same path, one at a time. *)
let stage_costs reg envs ~batch =
  let slices =
    Array.map
      (fun (_, env) ->
        match Pubsub.Remote.decode_envelope_sub env ~off:0 ~len:(String.length env) with
        | Some (_, _, sl) -> sl
        | None -> failwith "msgcost: undecodable envelope")
      envs
  in
  let opened () =
    Array.iter
      (fun (_, env) ->
        ignore
          (Sys.opaque_identity
             (Pubsub.Remote.decode_envelope_sub env ~off:0 ~len:(String.length env))))
      envs
  in
  let decoded () =
    Array.iteri
      (fun k (_, env) ->
        let off, len = slices.(k) in
        ignore (Sys.opaque_identity (Obvent.deserialize_sub reg env ~off ~len)))
      envs
  in
  let gates =
    Array.mapi
      (fun k (_, env) ->
        let off, len = slices.(k) in
        Obvent.deserialize_sub reg env ~off ~len)
      envs
  in
  let engine = Engine.create ~seed:1 () in
  let targets =
    List.map
      (fun (param, expr, single) ->
        let filter =
          match expr with Some e -> Fspec.tree e | None -> Fspec.Accept_all
        in
        let policy = if single then Dispatch.Single else Dispatch.Multi max_int in
        (param, filter, Dispatch.create engine policy (fun _ -> ())))
      subs
    |> List.rev
  in
  let index = Routing.create reg in
  let routed cls =
    Routing.find index cls
      ~build:(fun targets cls ->
        List.filter (fun (param, _, _) -> Registry.subtype reg cls param) targets)
      targets
  in
  let matched gate =
    List.filter
      (fun (_, filter, _) -> Fspec.matches reg filter gate)
      (routed (Obvent.cls gate))
  in
  let route () = Array.iter (fun g -> ignore (Sys.opaque_identity (matched g))) gates in
  let chosen = Array.map matched gates in
  let dispatched = ref 0 in
  let dispatch k =
    List.iteri
      (fun i (_, _, d) ->
        let o = if i = 0 then gates.(k) else Obvent.view gates.(k) in
        incr dispatched;
        Dispatch.submit d o)
      chosen.(k)
  in
  (* dispatch and drain share one batched run: time each part apart *)
  let d_ns = ref 0. and d_words = ref 0. and e_ns = ref 0. and e_words = ref 0. in
  let timed acc_ns acc_words f =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    f ();
    let t1 = Unix.gettimeofday () in
    acc_words := !acc_words +. (Gc.minor_words () -. w0 -. probe_words);
    acc_ns := !acc_ns +. ((t1 -. t0) *. 1e9)
  in
  let dispatch_run () =
    let i = ref 0 in
    while !i < events do
      let stop = min events (!i + batch) in
      let lo = !i in
      timed d_ns d_words (fun () ->
          for k = lo to stop - 1 do
            dispatch k
          done);
      timed e_ns e_words (fun () -> Engine.run engine);
      i := stop
    done
  in
  dispatch_run ();
  let n = float_of_int events in
  let per_rep () =
    d_ns := 0.;
    d_words := 0.;
    e_ns := 0.;
    e_words := 0.;
    dispatch_run ();
    (!d_ns /. n, !d_words /. n, !e_ns /. n, !e_words /. n)
  in
  let runs = Array.init reps (fun _ -> per_rep ()) in
  let median f =
    let a = Array.map f runs in
    Array.sort compare a;
    a.(reps / 2)
  in
  ignore (Sys.opaque_identity !dispatched);
  [ ("open", measure ~n:events opened);
    ("decode", measure ~n:events decoded);
    ("route", measure ~n:events route);
    ( "dispatch",
      (median (fun (ns, _, _, _) -> ns), median (fun (_, w, _, _) -> w)) );
    ("drain", (median (fun (_, _, ns, _) -> ns), median (fun (_, _, _, w) -> w))) ]

(* --- publisher -------------------------------------------------------- *)

(* [f]'s (ns, minor words) per event with, per event, the words it
   allocated straight on the major heap (a block too large for the
   minor heap: an 8 KiB string is one of 1025 words) and the
   [transport.crc_bytes] and [transport.copy_bytes] it adds, over [n]
   events a repetition. *)
let with_bytes ~n f =
  let tr = Trace.ambient () in
  let crc = Trace.counter tr "transport.crc_bytes"
  and copy = Trace.counter tr "transport.copy_bytes" in
  let c0 = Trace.Counter.value crc and k0 = Trace.Counter.value copy in
  let _, promoted0, major0 = Gc.counters () in
  let ns, words = f () in
  let _, promoted1, major1 = Gc.counters () in
  let per c = c /. float_of_int (reps * n) in
  ( ns,
    words,
    per (major1 -. major0 -. (promoted1 -. promoted0)),
    per (float_of_int (Trace.Counter.value crc - c0)),
    per (float_of_int (Trace.Counter.value copy - k0)) )

(* A publishing domain whose remote endpoint frames every publish as
   [Client.publish] does ([Proto.pub_frame]) and drops the frame: the
   publisher's whole path, obvent to the frame the socket queue holds. *)
let framing_publisher reg =
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let dom = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create dom (Net.add_node net) in
  let pseq = ref 0 in
  let endpoint =
    { noop_endpoint with
      Pubsub.Remote.r_publish =
        (fun ~cls ~publish_time ~eid obvent ->
          incr pseq;
          ignore
            (Sys.opaque_identity
               (Proto.pub_frame ~pseq:!pseq ~cls ~publish_time ~eid obvent))) }
  in
  let _inject = Pubsub.Remote.connect dom proc endpoint in
  proc

let publish_to_frame reg obvents =
  let proc = framing_publisher reg in
  let publish () = Array.iter (fun o -> Pubsub.Process.publish proc o) obvents in
  publish ();
  let n = Array.length obvents in
  with_bytes ~n (fun () -> measure ~n publish)

let publisher_costs reg =
  let fields = Array.init events gen in
  let obvents = Array.map (fun (cls, f) -> Obvent.make reg cls f) fields in
  let make () =
    Array.iter (fun (cls, f) -> ignore (Sys.opaque_identity (Obvent.make reg cls f))) fields
  in
  [ ("make", with_bytes ~n:events (fun () -> measure ~n:events make));
    ("publish → frame", publish_to_frame reg obvents) ]

(* --- large_payload: an 8 KiB Blob --------------------------------------- *)

let blob_events = 2048
let blob_batch = 16

(* [with_bytes]'s figures per event, publisher then subscriber. *)
let blob_costs () =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"Blob" ~implements:[ "Obvent" ]
    ~attrs:[ ("seq", Vtype.Tint); ("data", Vtype.Tstring) ]
    ();
  let data = String.init 8192 (fun i -> Char.chr (33 + (i * 7 mod 94))) in
  let obvents =
    Array.init blob_events (fun seq ->
        Obvent.make reg "Blob" [ ("seq", Value.Int seq); ("data", Value.Str data) ])
  in
  let envelope seq = Pubsub.Remote.encode_envelope ~publish_time:0 ~eid:(1, seq) obvents.(seq) in
  let pub = publish_to_frame reg obvents in
  let frames =
    Array.init blob_events (fun seq ->
        Frame.preframed_bytes
          (Proto.encode_deliver ~origin:"pub" ~pseq:seq ~cls:"Blob"
             (Proto.slice_of_string (envelope seq))))
  in
  (* A read batch of frames is fed to the decoder untimed (the
     kernel's copy into its buffer); popping, verifying, opening and
     decoding them is timed. *)
  let dec = Frame.Decoder.create () in
  let ns = ref 0. and words = ref 0. in
  let receive () =
    let k = ref 0 in
    while !k < blob_events do
      let stop = min blob_events (!k + blob_batch) in
      for i = !k to stop - 1 do
        Frame.Decoder.feed_string dec frames.(i)
      done;
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      for _ = !k to stop - 1 do
        match Frame.Decoder.pop_view dec with
        | Frame.Decoder.V_frame (buf, off, len) -> (
            match Proto.decode_view buf ~off ~len with
            | Proto.V_deliver { envelope = e; _ } -> (
                match
                  Pubsub.Remote.decode_envelope_sub e.Proto.sl_buf ~off:e.Proto.sl_off
                    ~len:e.Proto.sl_len
                with
                | Some (_, _, (off, len)) ->
                    ignore (Sys.opaque_identity (Obvent.deserialize_sub reg buf ~off ~len))
                | None -> failwith "msgcost: undecodable envelope")
            | _ -> failwith "msgcost: not a Deliver")
        | _ -> failwith "msgcost: frame did not verify"
      done;
      let t1 = Unix.gettimeofday () in
      words := !words +. (Gc.minor_words () -. w0 -. probe_words);
      ns := !ns +. ((t1 -. t0) *. 1e9);
      k := stop
    done
  in
  receive ();
  let sub =
    with_bytes ~n:blob_events (fun () ->
        let runs =
          Array.init reps (fun _ ->
              ns := 0.;
              words := 0.;
              receive ();
              (!ns /. float_of_int blob_events, !words /. float_of_int blob_events))
        in
        Array.sort compare runs;
        runs.(reps / 2))
  in
  [ ("publisher: publish → frame", pub); ("subscriber: verify + open + decode", sub) ]

(* --- the broker hop -------------------------------------------------------- *)

(* The [Sub] messages a subscribing client sends for [subs], as its
   domain's remote endpoint hands them over. *)
let recorded_subs reg subs =
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let dom = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create dom (Net.add_node net) in
  let got = ref [] in
  let endpoint =
    { noop_endpoint with
      Pubsub.Remote.r_subscribe =
        (fun ~sid ~param ~filter -> got := Proto.Sub { sid; param; filter } :: !got) }
  in
  let _inject = Pubsub.Remote.connect dom proc endpoint in
  List.iter
    (fun (param, expr) ->
      let filter = Option.map (fun e -> Fspec.tree e) expr in
      Pubsub.Subscription.activate (Pubsub.Process.subscribe proc ~param ?filter ignore))
    subs;
  Engine.run engine;
  List.rev !got

(* Advertise [cls], supertypes first, as the client does. *)
let rec advertise reg seen conn cls =
  if not (Hashtbl.mem seen cls) then begin
    Hashtbl.replace seen cls ();
    let supers = try (Registry.find reg cls).Registry.supers with _ -> [] in
    List.iter (advertise reg seen conn) supers;
    Conn.send conn (Proto.Advertise { cls; supers })
  end

(* (ns, words, write syscalls, deliveries) per publish through an
   in-process broker: [envs] are (class, envelope) pairs, [subs] the
   subscriber's (param, filter) list. Only the broker's turns are
   timed; in between, the subscriber's bytes are read and dropped and
   the publisher reads its acks and credits. *)
let broker_hop reg subs envs =
  let ambient = Trace.ambient () in
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let window = Broker.default_config.pub_window in
  let broker =
    Broker.create ~config:{ Broker.default_config with warmup_ms = 0 } ~port:0 ()
  in
  let dial () =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Broker.port broker));
    Conn.create fd
  in
  let sub = dial () and pub = dial () in
  let advertised conn classes =
    let seen = Hashtbl.create 8 in
    List.iter (advertise reg seen conn) classes
  in
  Conn.send sub (Proto.Hello { client = "sub"; window = 1 lsl 40 });
  advertised sub (List.map fst subs);
  List.iter (Conn.send sub) (recorded_subs reg subs);
  Conn.send pub (Proto.Hello { client = "pub"; window = 0 });
  advertised pub (Array.to_list (Array.map fst envs));
  let credit = ref 0 and acked = ref (-1) in
  let rec pub_drain () =
    match Conn.pop pub with
    | Conn.Msg (Proto.Welcome { window = n }) | Conn.Msg (Proto.Credit { n }) ->
        credit := !credit + n;
        pub_drain ()
    | Conn.Msg (Proto.Pub_ack { pseq }) ->
        acked := pseq;
        pub_drain ()
    | Conn.Msg _ -> pub_drain ()
    | Conn.Nothing -> ()
    | Conn.Bad m -> failwith ("msgcost: publisher: " ^ m)
  in
  let sink = Bytes.create 65536 in
  let rec sub_drain () =
    match Unix.read (Conn.fd sub) sink 0 (Bytes.length sink) with
    | 0 -> failwith "msgcost: broker hung up"
    | _ -> sub_drain ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  let ns = ref 0. and words = ref 0. in
  let turns_until cond =
    let deadline = Unix.gettimeofday () +. 10. in
    while not (cond ()) do
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "msgcost: broker stalled (credit %d, acked %d)" !credit !acked);
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      ignore (Broker.poll broker ~timeout_ms:0 ());
      let t1 = Unix.gettimeofday () in
      words := !words +. (Gc.minor_words () -. w0 -. probe_words);
      ns := !ns +. ((t1 -. t0) *. 1e9);
      ignore (Conn.flush sub);
      ignore (Conn.flush pub);
      sub_drain ();
      match Conn.recv pub with
      | `Ok -> pub_drain ()
      | `Blocked -> ()
      | `Closed m -> failwith ("msgcost: publisher: " ^ m)
    done
  in
  turns_until (fun () -> !credit = window);
  let n = Array.length envs in
  (* repetition [r] publishes the recorded envelopes under pseqs from
     [r * n]: a pseq already routed would be re-acked, not routed *)
  let frames r =
    Array.init ((n + window - 1) / window) (fun k ->
        String.concat ""
          (List.init (min window (n - (k * window))) (fun i ->
               let cls, envelope = envs.((k * window) + i) in
               let pseq = (r * n) + (k * window) + i in
               Frame.preframed_bytes (Proto.frame (Proto.Pub { pseq; cls; envelope })))))
  in
  let count name = Trace.Counter.value (Trace.counter tr name) in
  let rep r =
    let writes = frames r in
    ns := 0.;
    words := 0.;
    let w0 = count "transport.write_syscalls" and f0 = count "tpbsd.forwarded" in
    Array.iteri
      (fun k s ->
        (* a full window in one write, as the client sends it *)
        ignore (Unix.write_substring (Conn.fd pub) s 0 (String.length s));
        let last = (r * n) + min n ((k + 1) * window) - 1 in
        credit := !credit - (last - (r * n) - (k * window) + 1);
        turns_until (fun () -> !acked = last && !credit = window))
      writes;
    let per x = float_of_int x /. float_of_int n in
    ( !ns /. float_of_int n,
      !words /. float_of_int n,
      per (count "transport.write_syscalls" - w0),
      per (count "tpbsd.forwarded" - f0) )
  in
  ignore (rep 0);
  let runs = Array.init reps (fun r -> rep (r + 1)) in
  Conn.close sub;
  Conn.close pub;
  Broker.stop broker;
  Trace.set_ambient ambient;
  let median f =
    let a = Array.map f runs in
    Array.sort compare a;
    a.(reps / 2)
  in
  ( median (fun (ns, _, _, _) -> ns),
    median (fun (_, w, _, _) -> w),
    median (fun (_, _, s, _) -> s),
    median (fun (_, _, _, d) -> d) )

(* broker_filtered's shape: one class, 256 disjoint (symbol, price
   band) filters, about 10% of publishes forwarded. *)
let filtered_hop () =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"Order" ~implements:[ "Obvent" ]
    ~attrs:[ ("seq", Vtype.Tint); ("sym", Vtype.Tstring); ("price", Vtype.Tint) ]
    ();
  let sym s = Printf.sprintf "S%02d" s in
  let subs =
    List.init 256 (fun k ->
        let s = k / 4 and b = k mod 4 in
        let lo = (b * 2500) + (s * 7 mod 9 * 250) in
        ( "Order",
          Some
            Expr.(
              attr "sym" =. str (sym s)
              &&& (attr "price" >=. int lo)
              &&& (attr "price" <. int (lo + 250))) ))
  in
  let envs =
    Array.init events (fun seq ->
        let h k = ((seq * 0x9E3779B1) + (k * 0x85EBCA77)) lsr 7 land 0xFFFFF in
        let o =
          Obvent.make reg "Order"
            [ ("seq", Value.Int seq); ("sym", Value.Str (sym (h 1 mod 64)));
              ("price", Value.Int (h 2 mod 10_000)) ]
        in
        ("Order", Pubsub.Remote.encode_envelope ~publish_time:0 ~eid:(1, seq) o))
  in
  broker_hop reg subs envs

(* --- report ------------------------------------------------------------ *)

let run () =
  let reg = registry () in
  let envs = envelopes reg in
  Workload.table_header
    (Printf.sprintf
       "MSGCOST  subscriber, per event (ns / minor words), %d small_typed events"
       events)
    [ "batch"; "      open"; "    decode"; "     route"; "  dispatch";
      "     drain"; "       sum"; "      path"; "deliv/ev" ];
  Workload.json_table ~key:"msgcost_sub"
    ~cols:[ "batch"; "stage"; "ns_per_event"; "words_per_event" ];
  List.iter
    (fun batch ->
      let stages = stage_costs reg envs ~batch in
      let (p_ns, p_words), per_ev = path_cost reg envs ~batch in
      let sum_ns = List.fold_left (fun a (_, (ns, _)) -> a +. ns) 0. stages in
      let sum_w = List.fold_left (fun a (_, (_, w)) -> a +. w) 0. stages in
      let cell (ns, w) = Printf.sprintf "%4.0f/%5.1f" ns w in
      Fmt.pr "%5d  %s  %s  %8.2f@." batch
        (String.concat "  " (List.map (fun (_, c) -> cell c) stages @ [ cell (sum_ns, sum_w) ]))
        (cell (p_ns, p_words))
        per_ev;
      List.iter
        (fun (stage, (ns, w)) ->
          Workload.json_row ~key:"msgcost_sub"
            Workload.[ J_int batch; J_str stage; J_float ns; J_float w ])
        (stages @ [ ("path", (p_ns, p_words)) ]))
    batches;
  let bytes_table ~key ~title ~width rows =
    Workload.table_header title
      [ "stage" ^ String.make width ' '; "    ns"; "  words"; " major words"; " crc bytes";
        " copy bytes" ];
    Workload.json_table ~key
      ~cols:
        [ "stage"; "ns_per_event"; "words_per_event"; "major_words_per_event";
          "crc_bytes_per_event"; "copy_bytes_per_event" ];
    List.iter
      (fun (stage, (ns, w, m, c, k)) ->
        (* pad by characters, not bytes: a stage name may hold an arrow *)
        let chars = ref 0 in
        String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr chars) stage;
        let pad = width + 5 - !chars in
        Fmt.pr "%s%s  %6.0f  %7.1f  %12.1f  %10.0f  %11.0f@." stage
          (String.make (max 0 pad) ' ') ns w m c k;
        Workload.json_row ~key
          Workload.[ J_str stage; J_float ns; J_float w; J_float m; J_float c; J_float k ])
      rows
  in
  bytes_table ~key:"msgcost_pub" ~title:"MSGCOST  publisher, per event" ~width:10
    (publisher_costs reg);
  bytes_table ~key:"msgcost_blob"
    ~title:
      (Printf.sprintf "MSGCOST  large_payload (8 KiB Blob), per event, %d events"
         blob_events)
    ~width:29 (blob_costs ());
  Workload.table_header
    (Printf.sprintf
       "MSGCOST  broker hop (in-process tpbsd, loopback), per publish, %d publishes \
        in windows of %d"
       events Broker.default_config.pub_window)
    [ "shape           "; "    ns"; "  words"; " writes"; " deliv/pub" ];
  Workload.json_table ~key:"msgcost_broker"
    ~cols:
      [ "shape"; "ns_per_pub"; "words_per_pub"; "write_syscalls_per_pub";
        "deliveries_per_pub" ];
  List.iter
    (fun (shape, (ns, w, wr, d)) ->
      Fmt.pr "%-16s  %6.0f  %7.1f  %7.3f  %10.3f@." shape ns w wr d;
      Workload.json_row ~key:"msgcost_broker"
        Workload.[ J_str shape; J_float ns; J_float w; J_float wr; J_float d ])
    [ ("small_typed", broker_hop reg (List.map (fun (p, e, _) -> (p, e)) subs) envs);
      ("broker_filtered", filtered_hop ()) ]
