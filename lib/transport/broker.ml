module Registry = Tpbs_types.Registry
module Broker_core = Tpbs_core.Broker_core
module Pubsub = Tpbs_core.Pubsub
module Trace = Tpbs_trace.Trace

(* The tpbsd broker engine — a library, so unit tests can run broker
   and clients in one process over real sockets, and the soak harness
   can fork broker children without an exec path.

   It is the TCP shell over Broker_core, the filtering-host core the
   in-simulation host (Pubsub.add_broker) also runs: sessions are the
   core's destinations, broker-wide bsids its subscription ids. What
   only a networked broker needs stays here: the registry grown from
   client Advertise messages, credits and watermarks, cumulative acks,
   the per-client publish frontier and the warmup window.

   Delivery and flow control: each session owns a bounded delivery
   queue drained by the credits the client granted. Publish credits
   are replenished only while every delivery queue sits below the low
   watermark, so total queued events are bounded by the sum of
   outstanding publish windows — backpressure propagates from the
   slowest subscriber to every publisher.

   Certified delivery across broker crashes: a [Pub] is acknowledged
   (cumulatively) only after its [Deliver] frames have been fully
   handed to the kernel for every matching subscriber session. If the
   broker dies first, the publisher still holds the event unacked and
   retransmits after reconnecting; subscriber-side per-origin monotone
   sequence checks drop whatever was already seen. Within one broker
   life, a per-client publish frontier suppresses re-routing of
   retransmitted duplicates (they are re-acked, not re-delivered).

   A turn is pipelined: every quarter publish window routed, the
   broker pumps — deliveries first, then the acks and credits they
   released — and goes on routing what it already read, so a
   publisher's next writes overlap the rest of the batch. A pump walks
   a work list of the sessions that have something to send, never
   every session. *)

type pubrec = {
  pr_session : session;  (* publisher awaiting the ack *)
  pr_pseq : int;
  mutable pr_outstanding : int;  (* subscriber sessions not yet flushed *)
}

and session = {
  s_conn : Conn.t;
  mutable s_id : string;
  mutable s_hello : bool;
  mutable s_pub_credit_owed : int;  (* credits to return to this publisher *)
  mutable s_deliver_credit : int;  (* credits the client granted us *)
  s_q : (Frame.preframed * pubrec) Queue.t;
      (* the once-encoded Deliver, shared by reference across sessions *)
  mutable s_unflushed : pubrec list;
      (* sent into s_conn but not yet drained to the kernel *)
  mutable s_subs : (int * int) list;
      (* (client sid, bsid) owned; client sid space is per-session *)
  mutable s_acked : (int, unit) Hashtbl.t;  (* completed pseqs *)
  mutable s_ack_frontier : int;  (* all ≤ this are complete *)
  mutable s_ack_sent : int;  (* last cumulative ack shipped *)
  mutable s_dropped : bool;
  mutable s_slot : int;  (* index in [t.sessions] *)
  mutable s_marked : bool;  (* on the work list, not yet pumped *)
  mutable s_held : bool;  (* owes publish credit held back by pressure *)
}

type config = {
  pub_window : int;  (* publish credits granted per client *)
  low_watermark : int;  (* queues below this ⇒ replenish pub credits *)
  high_watermark : int;  (* owed credits at this ⇒ stop reading session *)
  max_frame : int;
  covering : bool;
      (* suppress Subs covered by an installed subscription of the
         same session (see Broker_core) *)
  warmup_ms : int;
      (* a freshly started broker grants zero publish credits for this
         long, so after a crash every surviving subscriber gets a
         chance to re-subscribe before publishers are allowed to
         retransmit — otherwise an early retransmit routes to the
         subset that reconnected first, gets acked, and is lost to the
         late re-subscribers forever *)
}

let default_config =
  {
    pub_window = 64;
    low_watermark = 32;
    high_watermark = 256;
    max_frame = Frame.default_max_frame;
    covering = true;
    warmup_ms = 750;
  }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  port : int;
  registry : Registry.t;
  core : session Broker_core.t;
  mutable sessions : session array;  (* live ones in [0, n_sessions) *)
  mutable n_sessions : int;
  (* What a poll waits on, kept from one poll to the next: the
     listener at 0, session slot [i] at [1 + i] (a drop moves the last
     one down with it), then the caller's extra fds. Only the event
     bits are refilled before a wait. *)
  mutable wait_fds : Unix.file_descr array;
  mutable wait_events : int array;
  mutable hellos : int;  (* live sessions that said Hello *)
  mutable next_bsid : int;
  pub_frontier : (string, int) Hashtbl.t;  (* client id → routed frontier *)
  t_started : float;
  mutable warming : bool;  (* within [warmup_ms] of the start *)
  mutable stopped : bool;
  (* work lists *)
  mutable work : session list;  (* to pump; deduped by [s_marked] *)
  mutable held : session list;  (* owe credit; deduped by [s_held] *)
  slice : int;  (* pubs routed between two pumps of one turn *)
  mutable routed : int;  (* pubs routed since the last pump *)
  (* depths.(d) = delivery queues holding d ≥ 1 frames; worst = the
     deepest, kept exact on every push and pop *)
  mutable depths : int array;
  mutable worst : int;
  (* observability *)
  c_accepts : Trace.Counter.t;
  c_pubs : Trace.Counter.t;
  c_dup_pubs : Trace.Counter.t;
  c_forwarded : Trace.Counter.t;
  c_acked : Trace.Counter.t;
  c_bad_frames : Trace.Counter.t;
  c_bad_adverts : Trace.Counter.t;
  c_disconnects : Trace.Counter.t;
  c_session_pumps : Trace.Counter.t;
  g_sessions : Trace.Gauge.t;
  g_qdepth : Trace.Gauge.t;
  g_credit : Trace.Gauge.t;
}

let listen_socket ~host ~port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  let addr = Unix.inet_addr_of_string host in
  Unix.bind fd (ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let create ?(config = default_config) ?(host = "127.0.0.1") ?listen_fd
    ~port () =
  let listen_fd =
    match listen_fd with
    | Some fd -> fd
    | None -> listen_socket ~host ~port
  in
  Unix.set_nonblock listen_fd;
  let port =
    match Unix.getsockname listen_fd with
    | ADDR_INET (_, p) -> p
    | _ -> port
  in
  let tr = Trace.ambient () in
  let registry = Registry.create () in
  {
    cfg = config;
    listen_fd;
    port;
    registry;
    core = Broker_core.create ~covering:config.covering ~equal:( == ) registry;
    sessions = [||];
    n_sessions = 0;
    wait_fds = Array.make 16 listen_fd;
    wait_events = Array.make 16 0;
    hellos = 0;
    next_bsid = 0;
    pub_frontier = Hashtbl.create 16;
    t_started = Unix.gettimeofday ();
    warming = config.warmup_ms > 0;
    stopped = false;
    work = [];
    held = [];
    (* as the client returns delivery credit every half window, the
       broker acks every quarter publish window: the publisher has
       credit to write again while the rest of its window is routed *)
    slice = max 1 (config.pub_window / 4);
    routed = 0;
    depths = Array.make 64 0;
    worst = 0;
    c_accepts = Trace.counter tr "tpbsd.accepts";
    c_pubs = Trace.counter tr "tpbsd.pubs";
    c_dup_pubs = Trace.counter tr "tpbsd.dup_pubs";
    c_forwarded = Trace.counter tr "tpbsd.forwarded";
    c_acked = Trace.counter tr "tpbsd.acked";
    c_bad_frames = Trace.counter tr "tpbsd.bad_frames";
    c_bad_adverts = Trace.counter tr "tpbsd.bad_adverts";
    c_disconnects = Trace.counter tr "tpbsd.disconnects";
    c_session_pumps = Trace.counter tr "tpbsd.session_pumps";
    g_sessions = Trace.gauge tr "tpbsd.sessions";
    g_qdepth = Trace.gauge tr "tpbsd.qdepth";
    g_credit = Trace.gauge tr "tpbsd.credit_outstanding";
  }

let port t = t.port

let warmed_up t =
  Unix.gettimeofday () -. t.t_started
  >= float_of_int t.cfg.warmup_ms /. 1000.

(* Publish credit may be returned now: not during the warmup, and not
   while a delivery queue sits at the low watermark. *)
let may_grant t = not t.warming && t.worst < t.cfg.low_watermark

(* --- work lists and queue depths ----------------------------------------- *)

(* [s] has deliveries queued, an ack or credit owed, or bytes pending:
   the next pump visits it. *)
let mark t s =
  if not s.s_marked then begin
    s.s_marked <- true;
    t.work <- s :: t.work
  end

(* A queue went from [d - 1] to [d] frames. *)
let depth_up t d =
  if d >= Array.length t.depths then begin
    let a = Array.make (2 * d) 0 in
    Array.blit t.depths 0 a 0 (Array.length t.depths);
    t.depths <- a
  end;
  if d > 1 then t.depths.(d - 1) <- t.depths.(d - 1) - 1;
  t.depths.(d) <- t.depths.(d) + 1;
  if d > t.worst then begin
    t.worst <- d;
    Trace.Gauge.set t.g_qdepth d
  end

(* A queue of [d] frames lost [k] of them. *)
let depth_down t d k =
  t.depths.(d) <- t.depths.(d) - 1;
  if d > k then t.depths.(d - k) <- t.depths.(d - k) + 1;
  if d = t.worst && t.depths.(d) = 0 then begin
    while t.worst > 0 && t.depths.(t.worst) = 0 do
      t.worst <- t.worst - 1
    done;
    Trace.Gauge.set t.g_qdepth t.worst
  end

let enqueue t dst frame pr =
  Queue.push (frame, pr) dst.s_q;
  depth_up t (Queue.length dst.s_q);
  mark t dst

(* --- type lattice from advertisements ------------------------------- *)

let on_advertise t cls supers =
  if not (Registry.exists t.registry cls) then begin
    let known, missing = List.partition (Registry.exists t.registry) supers in
    if missing <> [] then Trace.Counter.incr t.c_bad_adverts;
    match Registry.declare_interface t.registry ~name:cls ~extends:known () with
    | () -> ()
    | exception Registry.Type_error _ -> Trace.Counter.incr t.c_bad_adverts
  end

(* --- subscriptions --------------------------------------------------- *)

(* Client sids are per-session; the core is keyed by broker-wide
   bsids, allocated in arrival order. *)
let on_sub t s ~sid ~param ~filter =
  if not (Registry.exists t.registry param) then
    (* a subscription to a type nobody advertised yet: declare it bare
       so later advertisements can extend it *)
    (try Registry.declare_interface t.registry ~name:param ()
     with Registry.Type_error _ -> Trace.Counter.incr t.c_bad_adverts);
  let bsid = t.next_bsid in
  t.next_bsid <- t.next_bsid + 1;
  s.s_subs <- (sid, bsid) :: s.s_subs;
  Broker_core.subscribe t.core ~id:bsid ~dest:s ~param filter

let on_unsub t s ~sid =
  let mine, rest = List.partition (fun (sid', _) -> sid' = sid) s.s_subs in
  s.s_subs <- rest;
  List.iter (fun (_, bsid) -> Broker_core.unsubscribe t.core bsid) mine

(* Completion bookkeeping: pseq [n] of [s] is fully handled (all its
   deliveries handed to the kernel, or it matched nobody). Cumulative
   acks only advance over a contiguous prefix — completion can arrive
   out of order when one subscriber drains faster than another. *)
let complete_pub t s pseq =
  Hashtbl.replace s.s_acked pseq ();
  let advanced = ref false in
  while Hashtbl.mem s.s_acked (s.s_ack_frontier + 1) do
    Hashtbl.remove s.s_acked (s.s_ack_frontier + 1);
    s.s_ack_frontier <- s.s_ack_frontier + 1;
    advanced := true
  done;
  if !advanced then begin
    Trace.Counter.incr t.c_acked;
    mark t s
  end

let pubrec_done t pr =
  pr.pr_outstanding <- pr.pr_outstanding - 1;
  if pr.pr_outstanding = 0 && not pr.pr_session.s_dropped then
    complete_pub t pr.pr_session pr.pr_pseq

(* [envelope] is a view into the session's frame decoder buffer: valid
   only for the duration of this call (the next [Conn.recv] may move
   it), which is enough — the core's filter decisions project over it
   in place, and it leaves inside the once-encoded shared frame. A
   dropped event costs no envelope copy at all. *)
let on_pub t s ~pseq ~cls ~(envelope : Proto.slice) =
  Trace.Counter.incr t.c_pubs;
  (* first pub of a (re)connected session pins the ack base *)
  if s.s_ack_frontier = min_int then begin
    s.s_ack_frontier <- pseq - 1;
    s.s_ack_sent <- pseq - 1
  end;
  let frontier =
    match Hashtbl.find_opt t.pub_frontier s.s_id with
    | Some f -> f
    | None -> min_int
  in
  if pseq <= frontier then begin
    (* retransmitted duplicate: already routed in this broker life —
       re-ack, never re-deliver *)
    Trace.Counter.incr t.c_dup_pubs;
    complete_pub t s pseq
  end
  else begin
    Hashtbl.replace t.pub_frontier s.s_id pseq;
    match
      Pubsub.Remote.decode_envelope_sub envelope.Proto.sl_buf
        ~off:envelope.Proto.sl_off ~len:envelope.Proto.sl_len
    with
    | None ->
        Trace.Counter.incr t.c_bad_frames;
        complete_pub t s pseq
    | Some (_, _, (obv_off, obv_len)) -> (
        match
          Broker_core.route t.core ~cls envelope.Proto.sl_buf ~off:obv_off
            ~len:obv_len
        with
        | [] -> complete_pub t s pseq
        | targets ->
            let pr = { pr_session = s; pr_pseq = pseq; pr_outstanding = 0 } in
            (* THE encode+CRC of the whole fan-out *)
            let frame = Proto.encode_deliver ~origin:s.s_id ~pseq ~cls envelope in
            (* every target is live: drop_session takes a session out
               of the core *)
            List.iter
              (fun dst ->
                pr.pr_outstanding <- pr.pr_outstanding + 1;
                enqueue t dst frame pr)
              targets)
  end

(* --- sessions ------------------------------------------------------------ *)

let drop_session t s reason =
  if s.s_dropped then ()
  else begin
  s.s_dropped <- true;
  ignore reason;
  Trace.Counter.incr t.c_disconnects;
  (* its queued/unflushed deliveries will never happen; release the
     publisher acks they were holding back *)
  let d = Queue.length s.s_q in
  if d > 0 then depth_down t d d;
  Queue.iter (fun (_, pr) -> pubrec_done t pr) s.s_q;
  Queue.clear s.s_q;
  let un = s.s_unflushed in
  s.s_unflushed <- [];
  List.iter (fun pr -> pubrec_done t pr) un;
  Broker_core.drop t.core s;
  s.s_subs <- [];
  Conn.close s.s_conn;
  if s.s_hello then t.hellos <- t.hellos - 1;
  (* the last live session takes the vacated slot; the freed tail
     slot points at a live session, not at the dropped one's buffers *)
  let last = t.n_sessions - 1 in
  let moved = t.sessions.(last) in
  t.sessions.(s.s_slot) <- moved;
  t.wait_fds.(1 + s.s_slot) <- t.wait_fds.(1 + last);
  t.wait_events.(1 + s.s_slot) <- t.wait_events.(1 + last);
  moved.s_slot <- s.s_slot;
  t.sessions.(last) <- t.sessions.(0);
  t.n_sessions <- last;
  Trace.Gauge.set t.g_sessions t.n_sessions
  end

(* Hand the connection's queue to the kernel. Once it drained,
   everything sent so far is the network's problem: the deliveries
   count as complete. *)
let flush t s =
  match Conn.flush s.s_conn with
  | `Ok ->
      let done_ = s.s_unflushed in
      s.s_unflushed <- [];
      List.iter (fun pr -> pubrec_done t pr) done_
  | `Blocked -> ()
  | `Closed reason -> drop_session t s reason

(* drain the delivery queue into the connection, credit-gated *)
let send_deliveries t s =
  while s.s_deliver_credit > 0 && not (Queue.is_empty s.s_q) do
    let frame, pr = Queue.pop s.s_q in
    depth_down t (Queue.length s.s_q + 1) 1;
    Conn.send_preframed s.s_conn frame;
    Trace.Counter.incr t.c_forwarded;
    s.s_deliver_credit <- s.s_deliver_credit - 1;
    s.s_unflushed <- pr :: s.s_unflushed
  done

let pump_session t s =
  if not s.s_dropped then begin
    Trace.Counter.incr t.c_session_pumps;
    send_deliveries t s;
    (* cumulative ack, if it advanced *)
    if s.s_ack_frontier > s.s_ack_sent && s.s_ack_frontier <> min_int then begin
      Conn.send s.s_conn (Proto.Pub_ack { pseq = s.s_ack_frontier });
      s.s_ack_sent <- s.s_ack_frontier
    end;
    (* publish-credit replenishment only under low queue pressure; a
       held session is pumped again once credit may be returned *)
    if s.s_pub_credit_owed > 0 then begin
      if may_grant t then begin
        Conn.send s.s_conn (Proto.Credit { n = s.s_pub_credit_owed });
        s.s_pub_credit_owed <- 0
      end
      else if not s.s_held then begin
        s.s_held <- true;
        t.held <- s :: t.held
      end
    end;
    flush t s
  end

let release_held t =
  if t.held <> [] && may_grant t then begin
    let held = t.held in
    t.held <- [];
    List.iter
      (fun s ->
        s.s_held <- false;
        mark t s)
      held
  end

(* Pump the work list in two steps. First the sessions with queued
   deliveries flush them: that completes their pubrecs and advances
   the publishers' ack frontiers (marking those publishers). Then
   every marked session sends its ack and credit and flushes, so a
   publisher gets the acks its deliveries released in the same pump.
   A session marked again after its own step repeats the loop. *)
let rec pump t =
  t.routed <- 0;
  release_held t;
  match t.work with
  | [] -> ()
  | batch ->
      t.work <- [];
      List.iter
        (fun s ->
          if s.s_deliver_credit > 0 && not (s.s_dropped || Queue.is_empty s.s_q)
          then begin
            send_deliveries t s;
            flush t s
          end)
        batch;
      release_held t;
      let batch = List.rev_append t.work batch in
      t.work <- [];
      List.iter
        (fun s ->
          s.s_marked <- false;
          pump_session t s)
        batch;
      pump t

(* Every processed Pub owes the publisher a credit back; every
   [slice] of them routed in a turn, the broker pumps. *)
let handle_pub t s ~pseq ~cls ~envelope =
  s.s_pub_credit_owed <- s.s_pub_credit_owed + 1;
  mark t s;
  on_pub t s ~pseq ~cls ~envelope;
  t.routed <- t.routed + 1;
  if t.routed >= t.slice then pump t

let on_msg t s (m : Proto.msg) =
  match m with
  | Hello { client; window } ->
      s.s_id <- client;
      if not s.s_hello then t.hellos <- t.hellos + 1;
      s.s_hello <- true;
      s.s_deliver_credit <- window;
      (* during warmup the publish window opens at zero and is owed:
         it follows as a Credit once the warmup has elapsed *)
      let granted = if t.warming then 0 else t.cfg.pub_window in
      s.s_pub_credit_owed <- s.s_pub_credit_owed + t.cfg.pub_window - granted;
      Conn.send s.s_conn (Proto.Welcome { window = granted });
      mark t s;
      Trace.Gauge.set t.g_credit (t.hellos * t.cfg.pub_window)
  | _ when not s.s_hello -> drop_session t s "message before hello"
  | Welcome _ -> drop_session t s "unexpected welcome"
  | Advertise { cls; supers } -> on_advertise t cls supers
  | Sub { sid; param; filter } -> on_sub t s ~sid ~param ~filter
  | Unsub { sid } -> on_unsub t s ~sid
  | Pub { pseq; cls; envelope } ->
      handle_pub t s ~pseq ~cls ~envelope:(Proto.slice_of_string envelope)
  | Pub_ack _ -> ()  (* brokers do not publish *)
  | Deliver _ -> drop_session t s "client sent deliver"
  | Credit { n } ->
      s.s_deliver_credit <- s.s_deliver_credit + n;
      mark t s
  | Bye -> drop_session t s "bye"

(* The wait arrays hold at least [n] entries. *)
let wait_room t n =
  let cap = Array.length t.wait_fds in
  if cap < n then begin
    let cap = max n (2 * cap) in
    let fds = Array.make cap t.listen_fd and events = Array.make cap 0 in
    Array.blit t.wait_fds 0 fds 0 (Array.length t.wait_fds);
    Array.blit t.wait_events 0 events 0 (Array.length t.wait_events);
    t.wait_fds <- fds;
    t.wait_events <- events
  end

let accept_all t =
  let continue = ref true in
  while !continue && not t.stopped do
    match Unix.accept t.listen_fd with
    | fd, _addr ->
        Trace.Counter.incr t.c_accepts;
        let s =
          {
            s_conn = Conn.create ~max_frame:t.cfg.max_frame fd;
            s_id = "";
            s_hello = false;
            s_pub_credit_owed = 0;
            s_deliver_credit = 0;
            s_q = Queue.create ();
            s_unflushed = [];
            s_subs = [];
            s_acked = Hashtbl.create 16;
            s_ack_frontier = min_int;
            s_ack_sent = min_int;
            s_dropped = false;
            s_slot = t.n_sessions;
            s_marked = false;
            s_held = false;
          }
        in
        if t.n_sessions = Array.length t.sessions then begin
          let a = Array.make (max 16 (2 * t.n_sessions)) s in
          Array.blit t.sessions 0 a 0 t.n_sessions;
          t.sessions <- a
        end;
        t.sessions.(t.n_sessions) <- s;
        wait_room t (2 + t.n_sessions);
        t.wait_fds.(1 + t.n_sessions) <- fd;
        t.wait_events.(1 + t.n_sessions) <- 0;
        t.n_sessions <- t.n_sessions + 1;
        Trace.Gauge.set t.g_sessions t.n_sessions
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

let read_session t s =
  (* Per-session overrun gate: a conforming publisher never has more
     than [pub_window] pubs in flight, so owed credits past the high
     watermark mean the client is ignoring backpressure. Stop reading
     it — the kernel socket buffer becomes the extension of our
     window — while still reading everyone else (a global gate would
     deadlock: subscribers could never deliver their Credit
     replenishments). *)
  let saturated = s.s_pub_credit_owed >= t.cfg.high_watermark in
  if not saturated then begin
    match Conn.recv s.s_conn with
    | `Ok ->
        let continue = ref true in
        while !continue && not s.s_dropped do
          match Conn.pop_view s.s_conn with
          | Conn.View (Proto.V_pub { pseq; cls; envelope }) ->
              (* the hot message, decoded in place: the envelope slice
                 stays valid through on_pub — no recv happens before
                 it returns *)
              if not s.s_hello then drop_session t s "message before hello"
              else handle_pub t s ~pseq ~cls ~envelope
          | Conn.View (Proto.V_deliver _) ->
              if not s.s_hello then drop_session t s "message before hello"
              else drop_session t s "client sent deliver"
          | Conn.View (Proto.V_msg m) -> on_msg t s m
          | Conn.View Proto.V_none ->
              (* pop_view reports undecodable frames as View_bad *)
              assert false
          | Conn.View_nothing -> continue := false
          | Conn.View_bad reason ->
              Trace.Counter.incr t.c_bad_frames;
              drop_session t s reason;
              continue := false
        done
    | `Blocked -> ()
    | `Closed reason -> drop_session t s reason
  end

let rec put_extra t i = function
  | [] -> ()
  | fd :: fds ->
      t.wait_fds.(i) <- fd;
      t.wait_events.(i) <- Conn.readable;
      put_extra t (i + 1) fds

let rec any_ready t i n =
  i < n && (t.wait_events.(i) land Conn.readable <> 0 || any_ready t (i + 1) n)

(* One engine turn: accept, read and route (pumping every [slice]
   routed pubs), pump. [timeout_ms < 0] blocks until any fd is
   ready. An idle turn allocates nothing that grows with the
   sessions: the wait arrays are kept, and only their event bits are
   refilled. *)
let poll t ?(extra_fds = []) ~timeout_ms () =
  if t.stopped then false
  else begin
    (* the sessions as they stand now: reads may drop some, accepts
       add more at higher slots *)
    let n_sessions = t.n_sessions in
    let n = 1 + n_sessions + List.length extra_fds in
    wait_room t n;
    t.wait_events.(0) <- Conn.readable;
    for i = 0 to n_sessions - 1 do
      t.wait_events.(1 + i) <-
        (if Conn.pending_bytes t.sessions.(i).s_conn > 0 then
           Conn.readable lor Conn.writable
         else Conn.readable)
    done;
    put_extra t (1 + n_sessions) extra_fds;
    ignore (Conn.poll_fds t.wait_fds t.wait_events n timeout_ms);
    (* read before accepts take over those entries *)
    let extra = any_ready t (1 + n_sessions) n in
    if t.wait_events.(0) land Conn.readable <> 0 then accept_all t;
    (* the withheld windows go out with the next pump *)
    if t.warming && warmed_up t then t.warming <- false;
    (* highest slot first, the newest session unless a drop moved one
       down: a subscriber that connected after a publisher has its Subs
       installed before that publisher's Pubs of the same turn are
       routed. Each entry is cleared as it is visited, so a session a
       drop moves down into a lower slot (with its entry) is not
       visited twice. *)
    for i = n_sessions - 1 downto 0 do
      if i < t.n_sessions then begin
        let ev = t.wait_events.(1 + i) in
        t.wait_events.(1 + i) <- 0;
        let s = t.sessions.(i) in
        if ev land Conn.writable <> 0 then mark t s;
        if ev land Conn.readable <> 0 then read_session t s
      end
    done;
    pump t;
    extra
  end

let stop ?(keep_listener = false) t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter
      (fun s -> drop_session t s "shutdown")
      (Array.sub t.sessions 0 t.n_sessions);
    if not keep_listener then
      try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let session_count t = t.n_sessions
