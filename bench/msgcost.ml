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

   Publisher stages: [Obvent.make], the envelope encode and the Pub
   frame the client writes, plus [Process.publish] into a remote
   endpoint that drops the envelope.

   A last table takes perfbench's large_payload shape, one class with
   an 8 KiB string: the publisher's envelope encode and Pub frame (head
   plus envelope by reference, as [Conn.send] builds a large Pub), and
   the subscriber's frame verify, [Proto.decode_view], envelope open
   and obvent decode, each with the CRC bytes per event that
   [transport.crc_bytes] counts.

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
    Pubsub.Remote.r_publish = (fun ~cls:_ _ -> ());
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

let publisher_costs reg =
  let fields = Array.init events gen in
  let obvents = Array.map (fun (cls, f) -> Obvent.make reg cls f) fields in
  let envs =
    Array.mapi
      (fun seq o -> Pubsub.Remote.encode_envelope ~publish_time:0 ~eid:(1, seq) o)
      obvents
  in
  let make () =
    Array.iter (fun (cls, f) -> ignore (Sys.opaque_identity (Obvent.make reg cls f))) fields
  in
  let encode () =
    Array.iteri
      (fun seq o ->
        ignore
          (Sys.opaque_identity
             (Pubsub.Remote.encode_envelope ~publish_time:0 ~eid:(1, seq) o)))
      obvents
  in
  let frame () =
    Array.iteri
      (fun pseq envelope ->
        let cls = Obvent.cls obvents.(pseq) in
        ignore (Sys.opaque_identity (Proto.frame (Proto.Pub { pseq; cls; envelope }))))
      envs
  in
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let dom = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create dom (Net.add_node net) in
  let _inject = Pubsub.Remote.connect dom proc noop_endpoint in
  let publish () = Array.iter (fun o -> Pubsub.Process.publish proc o) obvents in
  publish ();
  [ ("make", measure ~n:events make);
    ("envelope", measure ~n:events encode);
    ("pub frame", measure ~n:events frame);
    ("publish", measure ~n:events publish) ]

(* --- large_payload: an 8 KiB Blob --------------------------------------- *)

let blob_events = 2048
let blob_batch = 16

(* (ns, words, CRC bytes) per event, publisher then subscriber. *)
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
  let crc = Trace.counter (Trace.ambient ()) "transport.crc_bytes" in
  let with_crc f =
    let c0 = Trace.Counter.value crc in
    let ns, words = f () in
    let passes = Trace.Counter.value crc - c0 in
    (ns, words, float_of_int passes /. float_of_int (reps * blob_events))
  in
  let publish () =
    for seq = 0 to blob_events - 1 do
      let env = envelope seq in
      ignore (Sys.opaque_identity (Proto.pub_head ~pseq:seq ~cls:"Blob" env))
    done
  in
  publish ();
  let pub = with_crc (fun () -> measure ~n:blob_events publish) in
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
    with_crc (fun () ->
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
  [ ("publisher: envelope + frame", pub); ("subscriber: verify + open + decode", sub) ]

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
  Workload.table_header
    "MSGCOST  publisher, per event"
    [ "stage     "; "    ns"; "  words" ];
  Workload.json_table ~key:"msgcost_pub" ~cols:[ "stage"; "ns_per_event"; "words_per_event" ];
  List.iter
    (fun (stage, (ns, w)) ->
      Fmt.pr "%-10s  %6.0f  %7.1f@." stage ns w;
      Workload.json_row ~key:"msgcost_pub" Workload.[ J_str stage; J_float ns; J_float w ])
    (publisher_costs reg);
  Workload.table_header
    (Printf.sprintf "MSGCOST  large_payload (8 KiB Blob), per event, %d events"
       blob_events)
    [ "stage                             "; "    ns"; "  words"; " crc bytes" ];
  Workload.json_table ~key:"msgcost_blob"
    ~cols:[ "stage"; "ns_per_event"; "words_per_event"; "crc_bytes_per_event" ];
  List.iter
    (fun (stage, (ns, w, c)) ->
      Fmt.pr "%-34s  %6.0f  %7.1f  %10.0f@." stage ns w c;
      Workload.json_row ~key:"msgcost_blob"
        Workload.[ J_str stage; J_float ns; J_float w; J_float c ])
    (blob_costs ())
