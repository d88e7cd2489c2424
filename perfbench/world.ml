(* One deployment under test and the load-generator loop that drives it:
   a publisher Pubsub.Domain + Client and a subscriber Client +
   Pubsub.Domain, both in this single-threaded process, joined through
   a forked tpbsd child. Each side owns a Trace registry, made ambient
   before anything touches that side, so publisher and subscriber
   counters never blend (Conn/Proto/Cursor re-resolve the ambient
   registry at call time; Client and Domain capture it on creation).

   The oracle lives here too: the handlers are the benchmark's own and
   check every delivery against the expected set computed from the
   generated values and the workload's own predicates. *)

module Registry = Tpbs_types.Registry
module Vtype = Tpbs_types.Vtype
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Pubsub = Tpbs_core.Pubsub
module Fspec = Tpbs_core.Fspec
module Client = Tpbs_transport.Client
module Broker = Tpbs_transport.Broker
module Trace = Tpbs_trace.Trace
module Counter = Trace.Counter
module Vec = Spans.Vec
module W = Workload

let now_ns = Spans.now_ns
let window = Broker.default_config.pub_window

(* --- failure tally, shared by every world of a run ------------------- *)

type tally = {
  mutable attempted : int;  (* publishes + required deliveries *)
  mutable lost : int;
  mutable dup : int;
  mutable reorder : int;
  mutable mismatch : int;
  mutable unexpected : int;
  mutable unacked : int;
  mutable overrun : int;  (* due events the full rings made the loop skip *)
  mutable first : string list;  (* newest first, at most 8 *)
}

let tally =
  { attempted = 0; lost = 0; dup = 0; reorder = 0; mismatch = 0; unexpected = 0;
    unacked = 0; overrun = 0; first = [] }

let failed () =
  tally.lost + tally.dup + tally.reorder + tally.mismatch + tally.unexpected
  + tally.unacked + tally.overrun

let note msg = if List.length tally.first < 8 then tally.first <- msg :: tally.first

(* --- one side of the deployment -------------------------------------- *)

type side = {
  tr : Trace.t;
  reg : Registry.t;
  engine : Engine.t;
  proc : Pubsub.Process.t;
  client : Client.t;
}

let make_side (wl : W.t) ~id ~port =
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let reg = Registry.create () in
  wl.declare reg;
  (* the readiness barrier's class, see [barrier] *)
  Registry.declare_class reg ~name:"Probe" ~implements:[ "Obvent" ]
    ~attrs:[ ("n", Vtype.Tint) ] ();
  let engine = Engine.create ~seed:1 () in
  let net = Net.create engine in
  let dom = Pubsub.Domain.create reg net in
  let proc = Pubsub.Process.create dom (Net.add_node net) in
  match Client.connect ~host:"127.0.0.1" ~port ~id ~reconnect:`Manual () with
  | None -> failwith ("perfbench: " ^ id ^ " cannot reach the broker")
  | Some client ->
      Client.attach client dom proc;
      { tr; reg; engine; proc; client }

let counter side name = Trace.counter side.tr name

(* --- the world --------------------------------------------------------- *)

(* Per-event state lives in rings indexed by [seq land mask]: only
   events in flight (plus [retain] completed ones) are ever needed, and
   a fixed heap keeps the load generator's GC pauses independent of the
   run length. A completed event's values stay for [retain] more
   events because a delivery that is not required (a churned slot) can
   still arrive after its event is acked, but never after a later
   event's required deliveries were handled. *)
let cap = 1 lsl 17
let mask = cap - 1
let retain = cap / 4

(* Latency samples of an open-loop phase: due time, due -> first
   handler, and (traced) the five stages that add up to it. *)
type samples = { s_due : int Vec.t; s_lat : int Vec.t; s_stage : int Vec.t array; mutable n : int }

let stage_names = [| "gen_lag"; "publish"; "sendq"; "transit"; "receive_dispatch" |]

let new_samples capacity =
  let v () = Vec.create ~capacity 0 in
  { s_due = v (); s_lat = v (); s_stage = Array.init (Array.length stage_names) (fun _ -> v ()); n = 0 }

type t = {
  wl : W.t;
  broker : Broker_child.t;
  pub : side;
  sub : side;
  subs : Pubsub.Subscription.t option array;  (* by workload slot *)
  last : int array;  (* per slot: last seq handled *)
  (* rings, see [cap] *)
  events : W.ev array;
  expected : int array array;  (* required slots *)
  remaining : int array;
  due : int array;
  first : int array;  (* first handler entry, 0 = none yet *)
  t_call : int array;
  t_ret : int array;
  t_sent : int array;
  ev_span : int array;
  mutable published : int;
  mutable done_upto : int;  (* every seq below is acked and fully handled *)
  mutable probes : int;
  mutable probe_seen : bool;
  mutable churn_deliveries : int;
  mutable samples : samples;
  mutable sampling : bool;
  (* tracing *)
  spans : Spans.t;
  mutable tracing : bool;
  mutable stages : bool;
  mutable parent : int;  (* span enclosing handler calls *)
  mutable handler_runs : int;
  mutable sub_poll_start : int;
  mutable sent_upto : int;
  mutable pumped_base : int;
  mutable alloc_words : float;
  mutable publish_calls : int;
  (* loop accounting *)
  mutable turns : int;
  mutable busy_turns : int;
  mutable pub_mark : int;
  (* counters polled every turn *)
  pc_write : Counter.t;
  pc_read : Counter.t;
  pc_pubs : Counter.t;
  sc_frames : Counter.t;
}

let dummy_ev =
  { W.cls = ""; sym = ""; price = 0; vol = 0; side = ""; fields = [] }

(* Words Gc.minor_words itself allocates between two reads. *)
let gc_probe_words =
  let a = Gc.minor_words () in
  Gc.minor_words () -. a

let content_ok (ev : W.ev) ob =
  String.equal (Obvent.cls ob) ev.cls
  && List.for_all
       (fun (k, v) ->
         match Obvent.get ob k with
         | v' -> Value.equal v v'
         | exception Obvent.Invalid_obvent _ -> false)
       ev.fields

let record_sample w i t_first =
  let s = w.samples and due = w.due.(i) in
  Vec.set s.s_due s.n due;
  Vec.set s.s_lat s.n (t_first - due);
  if w.stages then
    Array.iteri
      (fun k v -> Vec.set s.s_stage.(k) s.n v)
      [| w.t_call.(i) - due; w.t_ret.(i) - w.t_call.(i);
         (if w.t_sent.(i) = 0 then min_int else w.t_sent.(i) - w.t_ret.(i));
         w.sub_poll_start - w.t_sent.(i); t_first - w.sub_poll_start |];
  s.n <- s.n + 1

let check w slot seq ob t_in =
  let i = seq land mask in
  let last = w.last.(slot) in
  if seq <= last then begin
    if seq = last then tally.dup <- tally.dup + 1
    else tally.reorder <- tally.reorder + 1;
    note (Printf.sprintf "slot %d: seq %d handled after %d" slot seq last)
  end
  else begin
    w.last.(slot) <- seq;
    if not (content_ok w.events.(i) ob) then begin
      tally.mismatch <- tally.mismatch + 1;
      note (Printf.sprintf "slot %d: seq %d content differs from what was published" slot seq)
    end
    else if w.wl.subs.(slot).churn then w.churn_deliveries <- w.churn_deliveries + 1
    else if Array.mem slot w.expected.(i) then w.remaining.(i) <- w.remaining.(i) - 1
    else begin
      tally.unexpected <- tally.unexpected + 1;
      note (Printf.sprintf "slot %d: seq %d delivered but its filter rejects it" slot seq)
    end;
    if w.first.(i) = 0 then begin
      w.first.(i) <- t_in;
      if w.sampling && Array.length w.expected.(i) > 0 then record_sample w i t_in;
      Spans.close_event w.spans w.ev_span.(i) ~id:seq t_in
    end
  end

let handler w slot ob =
  let t_in = now_ns () in
  w.handler_runs <- w.handler_runs + 1;
  let id =
    match Obvent.get ob "seq" with
    | Value.Int seq when seq < w.published && seq >= w.published - cap ->
        check w slot seq ob t_in;
        seq
    | _ | (exception Obvent.Invalid_obvent _) ->
        tally.mismatch <- tally.mismatch + 1;
        note (Printf.sprintf "slot %d: delivery with no valid seq" slot);
        -1
  in
  if w.tracing then
    ignore
      (Spans.add w.spans Handler ~start:t_in ~stop:(now_ns ()) ~parent:w.parent ~id)

let subscribe w slot =
  let sp = w.wl.subs.(slot) in
  let filter = Option.map (fun e -> Fspec.tree e) sp.W.expr in
  let s = Pubsub.Process.subscribe w.sub.proc ~param:sp.param ?filter (handler w slot) in
  if sp.single then Pubsub.Subscription.set_single_threading s;
  Pubsub.Subscription.activate s;
  s

(* Unsubscribe one of the churned slots and subscribe it afresh: the
   broker runs Unsub (with orphan re-parenting) and a new Sub (with its
   covering scan); the subscriber's routing index is updated. *)
let churn w =
  let n = Array.length w.wl.subs in
  let first_churn =
    let rec go i = if i < n && not w.wl.subs.(i).churn then go (i + 1) else i in
    go 0
  in
  let j = ((w.published / w.wl.churn_every) - 1) mod (n - first_churn) in
  let slot = first_churn + j in
  Trace.set_ambient w.sub.tr;
  Option.iter Pubsub.Subscription.deactivate w.subs.(slot);
  w.subs.(slot) <- Some (subscribe w slot)

let required (wl : W.t) (ev : W.ev) =
  let acc = ref [] in
  for i = Array.length wl.subs - 1 downto 0 do
    let s = wl.subs.(i) in
    if (not s.churn) && s.accepts ev.cls && s.pred ev then acc := i :: !acc
  done;
  Array.of_list !acc

(* Room in the rings for one more event. *)
let room w = w.published - w.done_upto < cap - retain

let publish_next w ~due =
  let seq = w.published in
  let i = seq land mask in
  let ev = w.wl.gen seq in
  let exp = required w.wl ev in
  w.events.(i) <- ev;
  w.expected.(i) <- exp;
  w.remaining.(i) <- Array.length exp;
  w.due.(i) <- due;
  w.first.(i) <- 0;
  w.t_sent.(i) <- 0;
  tally.attempted <- tally.attempted + 1 + Array.length exp;
  Trace.set_ambient w.pub.tr;
  let ev_span =
    if w.tracing then Spans.add w.spans Event ~start:due ~stop:(-1) ~parent:(-1) ~id:seq
    else -1
  in
  w.ev_span.(i) <- ev_span;
  let t0 = now_ns () in
  let ob = Obvent.make w.pub.reg ev.cls ev.fields in
  let t1 = now_ns () in
  let a0 = if w.tracing then Gc.minor_words () else 0. in
  w.published <- seq + 1;
  Pubsub.Process.publish w.pub.proc ob;
  let t2 = now_ns () in
  if w.tracing then begin
    w.alloc_words <- w.alloc_words +. (Gc.minor_words () -. a0 -. gc_probe_words);
    w.publish_calls <- w.publish_calls + 1;
    ignore (Spans.add w.spans Make ~start:t0 ~stop:t1 ~parent:ev_span ~id:seq);
    ignore (Spans.add w.spans Publish ~start:t1 ~stop:t2 ~parent:ev_span ~id:seq)
  end;
  w.t_call.(i) <- t1;
  w.t_ret.(i) <- t2;
  if w.wl.churn_every > 0 && w.published mod w.wl.churn_every = 0 then churn w

(* One loop turn: publisher I/O, publisher engine, subscriber I/O (which
   injects deliveries into the subscriber domain), subscriber engine.
   Both engines run every turn: a Single-policy subscription's queued
   deliveries only drain when its service slot completes there. *)
let turn w =
  w.turns <- w.turns + 1;
  Trace.set_ambient w.pub.tr;
  let io0 = Counter.value w.pc_write + Counter.value w.pc_read in
  let t0 = now_ns () in
  let sp =
    if w.tracing then Spans.add w.spans Pub_poll ~start:t0 ~stop:(-1) ~parent:(-1) ~id:(-1)
    else -1
  in
  ignore (Client.poll w.pub.client ~timeout_ms:0);
  let t1 = now_ns () in
  Engine.run w.pub.engine;
  let pub_busy = Counter.value w.pc_write + Counter.value w.pc_read <> io0 in
  if sp >= 0 then
    if pub_busy then Spans.close w.spans sp t1 else Spans.drop_last w.spans;
  if w.stages then begin
    let pumped = Counter.value w.pc_pubs - w.pumped_base in
    while w.sent_upto < pumped && w.sent_upto < w.published do
      w.t_sent.(w.sent_upto land mask) <- t1;
      w.sent_upto <- w.sent_upto + 1
    done
  end;
  Trace.set_ambient w.sub.tr;
  let f0 = Counter.value w.sc_frames and h0 = w.handler_runs in
  let s0 = now_ns () in
  w.sub_poll_start <- s0;
  let sp =
    if w.tracing then begin
      let i = Spans.add w.spans Sub_poll ~start:s0 ~stop:(-1) ~parent:(-1) ~id:(-1) in
      w.parent <- i;
      i
    end
    else -1
  in
  ignore (Client.poll w.sub.client ~timeout_ms:0);
  let s1 = now_ns () in
  let sub_busy = Counter.value w.sc_frames <> f0 || w.handler_runs <> h0 in
  if sp >= 0 then
    if sub_busy then Spans.close w.spans sp s1 else Spans.drop_last w.spans;
  let h1 = w.handler_runs in
  let ep =
    if w.tracing then begin
      let i = Spans.add w.spans Sub_engine ~start:(now_ns ()) ~stop:(-1) ~parent:(-1) ~id:(-1) in
      w.parent <- i;
      i
    end
    else -1
  in
  Engine.run w.sub.engine;
  if ep >= 0 then
    if w.handler_runs <> h1 then Spans.close w.spans ep (now_ns ())
    else Spans.drop_last w.spans;
  if pub_busy || sub_busy || w.handler_runs <> h1 || w.published <> w.pub_mark then
    w.busy_turns <- w.busy_turns + 1;
  w.pub_mark <- w.published

let advance_done w =
  let acked = w.published - Client.queued_count w.pub.client in
  while w.done_upto < acked && w.remaining.(w.done_upto land mask) = 0 do
    w.done_upto <- w.done_upto + 1
  done

(* Turn until every published event is complete, or give up after 10 s
   (what is still missing then is counted as lost/unacked). *)
let drain w =
  let deadline = now_ns () + 10_000_000_000 in
  advance_done w;
  while w.done_upto < w.published && now_ns () < deadline do
    turn w;
    advance_done w
  done

(* The broker installs one session's frames in order, so once the
   probe subscription — registered after every workload subscription —
   delivers, all of them are installed. Probes published earlier are
   acked with no delivery. *)
let barrier w =
  let deadline = now_ns () + 10_000_000_000 in
  let next = ref 0 in
  while not w.probe_seen do
    let now = now_ns () in
    if now > deadline then failwith "perfbench: subscriptions never reached the broker";
    if now >= !next then begin
      Trace.set_ambient w.pub.tr;
      Pubsub.Process.publish w.pub.proc
        (Obvent.make w.pub.reg "Probe" [ ("n", Value.Int w.probes) ]);
      w.probes <- w.probes + 1;
      next := now + 1_000_000
    end;
    turn w
  done

(* Fork the broker, connect both sides, install every subscription,
   pass the barrier and warm up (closed loop) until the routing indexes
   on the broker and in the subscriber's core are built. *)
let create (wl : W.t) ~trace =
  let broker = Broker_child.spawn ~trace in
  try
    let pub = make_side wl ~id:"pub" ~port:broker.port in
    let sub = make_side wl ~id:"sub" ~port:broker.port in
    let n = Array.length wl.subs in
    let w =
      {
        wl; broker; pub; sub;
        subs = Array.make n None;
        last = Array.make n (-1);
        events = Array.make cap dummy_ev;
        expected = Array.make cap [||];
        remaining = Array.make cap 0;
        due = Array.make cap 0;
        first = Array.make cap 0;
        t_call = Array.make cap 0;
        t_ret = Array.make cap 0;
        t_sent = Array.make cap 0;
        ev_span = Array.make cap (-1);
        published = 0; done_upto = 0; probes = 0; probe_seen = false;
        churn_deliveries = 0; samples = new_samples 0; sampling = false;
        spans = Spans.create ();
        tracing = false; stages = false; parent = -1; handler_runs = 0;
        sub_poll_start = 0; sent_upto = 0; pumped_base = 0; alloc_words = 0.;
        publish_calls = 0; turns = 0; busy_turns = 0; pub_mark = 0;
        pc_write = counter pub "transport.write_syscalls";
        pc_read = counter pub "transport.read_syscalls";
        pc_pubs = counter pub "transport.client_pubs";
        sc_frames = counter sub "transport.frames_received";
      }
    in
    Trace.set_ambient sub.tr;
    Array.iteri (fun i _ -> w.subs.(i) <- Some (subscribe w i)) wl.subs;
    let probe = Pubsub.Process.subscribe sub.proc ~param:"Probe" (fun _ -> w.probe_seen <- true) in
    Pubsub.Subscription.activate probe;
    barrier w;
    let target = 4 * window in
    let deadline = now_ns () + 20_000_000_000 in
    while w.published < target do
      if now_ns () > deadline then failwith "perfbench: warm-up did not complete";
      while w.published < target && w.published - w.done_upto < window do
        publish_next w ~due:(now_ns ())
      done;
      turn w;
      advance_done w
    done;
    drain w;
    w
  with e ->
    Broker_child.kill broker;
    raise e

(* Count what never completed, close both clients and stop the broker. *)
let finish w =
  drain w;
  for seq = max 0 (w.published - cap) to w.published - 1 do
    let r = w.remaining.(seq land mask) in
    if r > 0 then begin
      tally.lost <- tally.lost + r;
      note (Printf.sprintf "seq %d: %d required deliveries never handled" seq r)
    end
  done;
  let unacked = Client.queued_count w.pub.client in
  if unacked > 0 then begin
    tally.unacked <- tally.unacked + unacked;
    note (Printf.sprintf "%d publishes still unacked at the end" unacked)
  end;
  Trace.set_ambient w.pub.tr;
  Client.close w.pub.client;
  Trace.set_ambient w.sub.tr;
  Client.close w.sub.client;
  ignore (Broker_child.stop w.broker)
