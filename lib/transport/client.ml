module Pubsub = Tpbs_core.Pubsub
module Registry = Tpbs_types.Registry
module Value = Tpbs_serial.Value
module Trace = Tpbs_trace.Trace

(* The client side of the TCP transport: dials tpbsd, speaks the
   {!Proto} protocol over framed non-blocking I/O, and exposes a
   {!Pubsub.Remote} endpoint so an unmodified [Pubsub.Domain] joins
   the remote broker — every channel bottoms out here instead of in
   the simulated net.

   The exactly-once half owned by this side:

   - publishes get a contiguous per-client sequence and are held in
     [unacked] until the broker's cumulative ack covers them; after a
     reconnect, everything unacked is retransmitted (the broker either
     never saw it, or re-acks it as a duplicate);
   - deliveries carry (origin, pseq); anything not strictly above the
     per-origin frontier is a duplicate from a pre-restart life and is
     dropped, counted by [transport.dup_drops].

   Flow control mirrors the broker: publishes spend broker-granted
   credits (queueing locally when the window is shut), and the client
   grants the broker a delivery window, replenished as the
   application consumes. *)

(* Exponential backoff with decorrelating jitter for reconnect loops.
   The schedule is a pure function of (policy, attempt, jitter draw)
   so the unit tests can pin it down without sockets or sleeping. *)
module Backoff = struct
  type policy = {
    base_ms : int;  (* delay before the first retry *)
    factor : float;  (* growth per attempt *)
    max_delay_ms : int;  (* exponential growth is capped here *)
    jitter : float;  (* +/- fraction of the capped delay *)
    max_retries : int;  (* attempts before giving up *)
  }

  let default =
    {
      base_ms = 100;
      factor = 2.0;
      max_delay_ms = 10_000;
      jitter = 0.2;
      max_retries = 8;
    }

  (* Delay before retry [attempt] (0-based). [u] is a uniform draw in
     [0, 1): the jittered delay spans [(1 - jitter) * d, (1 + jitter)
     * d], keeping a fleet of clients that died together from
     re-dialing in lockstep. Never below 0. *)
  let delay_ms p ~attempt ~u =
    let d =
      float_of_int p.base_ms *. (p.factor ** float_of_int (max 0 attempt))
    in
    let d = Float.min d (float_of_int p.max_delay_ms) in
    let spread = (2.0 *. u -. 1.0) *. p.jitter *. d in
    max 0 (int_of_float (d +. spread))
end

type sub = { sb_sid : int; sb_param : string; sb_filter : Value.t }

(* One publish, framed when it was made ({!Proto.pub_frame}): the
   frame is a snapshot of the obvent at that moment, it is what the
   socket gets, and it is what a reconnect retransmits, byte for
   byte. *)
type pending = { p_pseq : int; p_cls : string; p_frame : Frame.gathered }

(* One publishing peer's dedup frontier, updated in place so that a
   delivery from a known peer allocates nothing. *)
type origin = { mutable o_seen : int  (* highest pseq *) }

type t = {
  host : string;
  tcp_port : int;
  id : string;
  window : int;  (* delivery credits we grant the broker *)
  max_frame : int;
  mutable conn : Conn.t option;
  mutable pub_credit : int;
  mutable next_pseq : int;
  sendq : pending Queue.t;
  unacked : pending Queue.t;
  mutable subs : sub list;  (* replayed on reconnect, newest first *)
  advertised : (string, unit) Hashtbl.t;  (* this connection only *)
  frontier : (string, origin) Hashtbl.t;  (* keyed by peer name *)
  mutable consumed : int;  (* deliveries since the last credit grant *)
  mutable registry : Registry.t option;
  mutable inject : (cls:string -> string -> off:int -> len:int -> unit) option;
  (* auto-reconnect ([None] = caller-driven) *)
  rc_policy : Backoff.policy option;
  mutable rc_attempt : int;  (* dials since the connection dropped *)
  mutable rc_next_at : float;  (* wall clock of the next allowed dial *)
  rc_rand : unit -> float;
  rc_timeout_ms : int;  (* handshake budget for automatic dials *)
  mutable user_closed : bool;  (* {!close} called: stop auto-dialing *)
  (* observability *)
  c_pubs : Trace.Counter.t;
  c_acked : Trace.Counter.t;
  c_delivered : Trace.Counter.t;
  c_dup_drops : Trace.Counter.t;
  c_retransmits : Trace.Counter.t;
  c_reconnects : Trace.Counter.t;
  c_backoff_waits : Trace.Counter.t;
  g_sendq : Trace.Gauge.t;
  g_unacked : Trace.Gauge.t;
  g_window : Trace.Gauge.t;
}

let connected t = t.conn <> None

let gauges t =
  Trace.Gauge.set t.g_sendq (Queue.length t.sendq);
  Trace.Gauge.set t.g_unacked (Queue.length t.unacked);
  Trace.Gauge.set t.g_window t.pub_credit

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some c ->
      Conn.close c;
      t.conn <- None;
      t.pub_credit <- 0;
      Hashtbl.reset t.advertised;
      (* a fresh disconnect re-arms the backoff schedule: the first
         automatic dial may happen immediately *)
      t.rc_attempt <- 0;
      t.rc_next_at <- 0.0

(* Advertise [cls] and (first) its supertype chain, so the broker can
   insert it into its lattice — supers-first is the topological order
   Advertise requires. Only once per connection per class. *)
let ensure_advertised t conn cls =
  let rec visit name =
    if not (Hashtbl.mem t.advertised name) then begin
      Hashtbl.replace t.advertised name ();
      let supers =
        match t.registry with
        | None -> []
        | Some reg -> (
            match Registry.find reg name with
            | decl -> decl.Registry.supers
            | exception _ -> [])
      in
      List.iter visit supers;
      Conn.send conn (Proto.Advertise { cls = name; supers })
    end
  in
  visit cls

let pump_send t =
  match t.conn with
  | None -> ()
  | Some conn ->
      while t.pub_credit > 0 && not (Queue.is_empty t.sendq) do
        let entry = Queue.pop t.sendq in
        ensure_advertised t conn entry.p_cls;
        Conn.send_gathered conn entry.p_frame;
        Trace.Counter.incr t.c_pubs;
        Queue.push entry t.unacked;
        t.pub_credit <- t.pub_credit - 1
      done;
      gauges t

let on_ack t pseq =
  let continue = ref true in
  while !continue && not (Queue.is_empty t.unacked) do
    if (Queue.peek t.unacked).p_pseq <= pseq then begin
      ignore (Queue.pop t.unacked);
      Trace.Counter.incr t.c_acked
    end
    else continue := false
  done

let frontier t name =
  match Hashtbl.find t.frontier name with
  | o -> o
  | exception Not_found ->
      let o = { o_seen = min_int } in
      Hashtbl.add t.frontier name o;
      o

(* [envelope] is a view into the frame decoder's buffer, valid for
   this call only — long enough: the dedup/frontier check runs over
   the view, so a duplicate from a pre-restart broker life is dropped
   without copying a byte, and a fresh delivery hands the same view to
   the domain, which opens the envelope and decodes the obvent in
   place before returning (no [recv] can intervene). *)
let on_deliver t ~origin ~pseq ~cls ~(envelope : Proto.slice) =
  let f = frontier t origin in
  if pseq <= f.o_seen then Trace.Counter.incr t.c_dup_drops
  else begin
    f.o_seen <- pseq;
    Trace.Counter.incr t.c_delivered;
    (match t.inject with
    | Some inject ->
        inject ~cls envelope.Proto.sl_buf ~off:envelope.Proto.sl_off
          ~len:envelope.Proto.sl_len
    | None -> ());
    t.consumed <- t.consumed + 1;
    if t.consumed >= max 1 (t.window / 2) then begin
      (match t.conn with
      | Some conn -> Conn.send conn (Proto.Credit { n = t.consumed })
      | None -> ());
      t.consumed <- 0
    end
  end

let on_msg t (m : Proto.msg) =
  match m with
  | Proto.Welcome { window } -> t.pub_credit <- window
  | Proto.Pub_ack { pseq } -> on_ack t pseq
  | Proto.Credit { n } -> t.pub_credit <- t.pub_credit + n
  | Proto.Deliver { origin; pseq; cls; envelope } ->
      on_deliver t ~origin ~pseq ~cls ~envelope:(Proto.slice_of_string envelope)
  | Proto.Bye -> drop_conn t
  | Proto.Hello _ | Proto.Advertise _ | Proto.Sub _ | Proto.Unsub _
  | Proto.Pub _ ->
      ()

let drain_incoming t conn =
  let continue = ref true in
  while !continue do
    match Conn.pop_view conn with
    | Conn.View (Proto.V_deliver { origin; pseq; cls; envelope }) ->
        (* the hot message, decoded in place over the decoder buffer:
           no recv happens before on_deliver returns, so the envelope
           view stays valid throughout *)
        on_deliver t ~origin ~pseq ~cls ~envelope;
        if t.conn == None then continue := false
    | Conn.View (Proto.V_pub _) -> ()  (* brokers do not publish to us *)
    | Conn.View (Proto.V_msg m) ->
        on_msg t m;
        if t.conn == None then continue := false
    | Conn.View Proto.V_none ->
        (* pop_view reports undecodable frames as View_bad *)
        assert false
    | Conn.View_nothing -> continue := false
    | Conn.View_bad _ ->
        drop_conn t;
        continue := false
  done

(* --- dialing ----------------------------------------------------------- *)

let handshake t conn ~timeout_ms =
  Conn.send conn (Proto.Hello { client = t.id; window = t.window });
  ignore (Conn.flush conn);
  let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.) in
  let ok = ref None in
  while !ok = None && Unix.gettimeofday () < deadline do
    if Conn.wait conn ~timeout_ms:50 then begin
      match Conn.recv conn with
      | `Ok -> (
          match Conn.pop conn with
          | Conn.Msg (Proto.Welcome { window }) ->
              t.pub_credit <- window;
              ok := Some true
          | Conn.Msg _ | Conn.Nothing -> ()
          | Conn.Bad _ -> ok := Some false)
      | `Blocked -> ()
      | `Closed _ -> ok := Some false
    end;
    ignore (Conn.flush conn)
  done;
  !ok = Some true

let dial t ~timeout_ms =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  match
    Unix.connect fd
      (ADDR_INET (Unix.inet_addr_of_string t.host, t.tcp_port))
  with
  | () ->
      let conn = Conn.create ~max_frame:t.max_frame fd in
      if handshake t conn ~timeout_ms then begin
        t.conn <- Some conn;
        true
      end
      else begin
        Conn.close conn;
        false
      end
  | exception Unix.Unix_error (_, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      false

(* Re-establish state on a fresh connection: subscriptions first (so
   nothing routed to us is missed), then retransmit everything the
   dead broker never acknowledged, in order, ahead of new sends. *)
let resync t =
  match t.conn with
  | None -> ()
  | Some conn ->
      List.iter
        (fun sb ->
          ensure_advertised t conn sb.sb_param;
          Conn.send conn
            (Proto.Sub
               { sid = sb.sb_sid; param = sb.sb_param; filter = sb.sb_filter }))
        (List.rev t.subs);
      let retransmit = Queue.length t.unacked in
      if retransmit > 0 then begin
        Trace.Counter.add t.c_retransmits retransmit;
        (* unacked (oldest first) go back to the head of the send
           queue, before anything queued while disconnected *)
        Queue.transfer t.sendq t.unacked;
        Queue.transfer t.unacked t.sendq
      end;
      pump_send t;
      ignore (Conn.flush conn)

let reconnect ?(timeout_ms = 2000) t =
  t.user_closed <- false;
  drop_conn t;
  if dial t ~timeout_ms then begin
    Trace.Counter.incr t.c_reconnects;
    resync t;
    true
  end
  else false

(* One scheduled re-dial, driven from {!poll} while disconnected. The
   first attempt after a drop is immediate ([drop_conn] zeroes the
   schedule); each failure books the next attempt one jittered
   exponential step later, until the retry budget runs out — after
   which only an explicit {!reconnect} re-arms the client. *)
let auto_dial t ~timeout_ms =
  match t.rc_policy with
  | None -> ()
  | Some p when t.user_closed || t.rc_attempt > p.Backoff.max_retries -> ()
  | Some p ->
      let now = Unix.gettimeofday () in
      let now =
        if now < t.rc_next_at then begin
          (* not due yet: wait it out, but never past the caller's
             poll budget — a pump loop keeps its cadence while
             disconnected instead of busy-spinning *)
          let budget = float_of_int (max 0 timeout_ms) /. 1000. in
          let wait = Float.min (t.rc_next_at -. now) budget in
          if wait > 0. then Unix.sleepf wait;
          Unix.gettimeofday ()
        end
        else now
      in
      if now >= t.rc_next_at then begin
        let n = t.rc_attempt in
        (* on success [reconnect]'s drop_conn has already re-armed the
           schedule for the next disconnect *)
        if not (reconnect ~timeout_ms:t.rc_timeout_ms t) then begin
          if n < p.Backoff.max_retries then begin
            Trace.Counter.incr t.c_backoff_waits;
            let d = Backoff.delay_ms p ~attempt:n ~u:(t.rc_rand ()) in
            t.rc_next_at <-
              Unix.gettimeofday () +. (float_of_int d /. 1000.)
          end;
          t.rc_attempt <- n + 1
        end
      end

(* One I/O turn. Returns [true] while the connection is up. While it
   is down and the client carries a backoff policy (the default),
   poll itself drives the re-dials on the jittered exponential
   schedule — callers just keep polling. *)
let poll t ~timeout_ms =
  (match t.conn with None -> auto_dial t ~timeout_ms | Some _ -> ());
  match t.conn with
  | None -> false
  | Some conn -> (
      (if Conn.wait conn ~timeout_ms then
         match Conn.recv conn with
         | `Ok -> drain_incoming t conn
         | `Blocked -> ()
         | `Closed _ -> drop_conn t);
      match t.conn with
      | None -> false
      | Some conn -> (
          pump_send t;
          match Conn.flush conn with
          | `Ok | `Blocked -> true
          | `Closed _ ->
              drop_conn t;
              false))

(* Keep re-dialing under the backoff schedule until the broker is back
   or the policy's retry budget runs out. [sleep] and [rand] default
   to the real clock and a self-seeded PRNG; tests inject both. Each
   wait is counted by [transport.backoff_waits]. *)
let reconnect_with_backoff ?(policy = Backoff.default) ?sleep ?rand
    ?(timeout_ms = 2000) t =
  let sleep =
    match sleep with
    | Some f -> f
    | None -> fun ms -> Unix.sleepf (float_of_int ms /. 1000.)
  in
  let rand =
    match rand with
    | Some f -> f
    | None ->
        let state = Random.State.make_self_init () in
        fun () -> Random.State.float state 1.0
  in
  let rec attempt n =
    if n > policy.Backoff.max_retries then false
    else if reconnect ~timeout_ms t then true
    else if n = policy.Backoff.max_retries then false
    else begin
      Trace.Counter.incr t.c_backoff_waits;
      sleep (Backoff.delay_ms policy ~attempt:n ~u:(rand ()));
      attempt (n + 1)
    end
  in
  attempt 0

let connect ?(window = 64) ?(max_frame = Frame.default_max_frame)
    ?(timeout_ms = 2000) ?(reconnect = `Backoff Backoff.default) ~host ~port
    ~id () =
  let tr = Trace.ambient () in
  let t =
    {
      host;
      tcp_port = port;
      id;
      window;
      max_frame;
      conn = None;
      pub_credit = 0;
      next_pseq = 0;
      sendq = Queue.create ();
      unacked = Queue.create ();
      subs = [];
      advertised = Hashtbl.create 16;
      frontier = Hashtbl.create 16;
      consumed = 0;
      registry = None;
      inject = None;
      rc_policy =
        (match reconnect with `Backoff p -> Some p | `Manual -> None);
      rc_attempt = 0;
      rc_next_at = 0.0;
      rc_rand =
        (let state = Random.State.make_self_init () in
         fun () -> Random.State.float state 1.0);
      rc_timeout_ms = timeout_ms;
      user_closed = false;
      c_pubs = Trace.counter tr "transport.client_pubs";
      c_acked = Trace.counter tr "transport.client_acked";
      c_delivered = Trace.counter tr "transport.delivered";
      c_dup_drops = Trace.counter tr "transport.dup_drops";
      c_retransmits = Trace.counter tr "transport.retransmits";
      c_reconnects = Trace.counter tr "transport.reconnects";
      c_backoff_waits = Trace.counter tr "transport.backoff_waits";
      g_sendq = Trace.gauge tr "transport.sendq";
      g_unacked = Trace.gauge tr "transport.unacked";
      g_window = Trace.gauge tr "transport.window";
    }
  in
  if dial t ~timeout_ms then Some t else None

(* --- the Pubsub.Remote endpoint ----------------------------------------- *)

let publish t ~cls ~publish_time ~eid obvent =
  let pseq = t.next_pseq in
  t.next_pseq <- t.next_pseq + 1;
  let p_frame = Proto.pub_frame ~pseq ~cls ~publish_time ~eid obvent in
  Queue.push { p_pseq = pseq; p_cls = cls; p_frame } t.sendq;
  pump_send t

let subscribe t ~sid ~param ~filter =
  t.subs <- { sb_sid = sid; sb_param = param; sb_filter = filter } :: t.subs;
  match t.conn with
  | None -> ()
  | Some conn ->
      ensure_advertised t conn param;
      Conn.send conn (Proto.Sub { sid; param; filter })

let unsubscribe t ~sid =
  t.subs <- List.filter (fun sb -> sb.sb_sid <> sid) t.subs;
  match t.conn with
  | None -> ()
  | Some conn -> Conn.send conn (Proto.Unsub { sid })

let endpoint t =
  {
    Pubsub.Remote.r_publish =
      (fun ~cls ~publish_time ~eid obvent -> publish t ~cls ~publish_time ~eid obvent);
    r_subscribe =
      (fun ~sid ~param ~filter -> subscribe t ~sid ~param ~filter);
    r_unsubscribe = (fun ~sid -> unsubscribe t ~sid);
  }

let attach t d p =
  t.registry <- Some (Pubsub.Domain.registry d);
  t.inject <- Some (Pubsub.Remote.connect d p (endpoint t))

let unacked_count t = Queue.length t.unacked
let queued_count t = Queue.length t.sendq + Queue.length t.unacked

let close t =
  t.user_closed <- true;
  (match t.conn with
  | Some conn ->
      Conn.send conn Proto.Bye;
      ignore (Conn.flush conn)
  | None -> ());
  drop_conn t
