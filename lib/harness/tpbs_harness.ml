(* See the interface. *)

module Broker = Tpbs_transport.Broker
module Client = Tpbs_transport.Client
module Conn = Tpbs_transport.Conn
module Proto = Tpbs_transport.Proto
module Value = Tpbs_serial.Value
module Registry = Tpbs_types.Registry
module Obvent = Tpbs_obvent.Obvent
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Pubsub = Tpbs_core.Pubsub
module Trace = Tpbs_trace.Trace

let now = Unix.gettimeofday
let host = "127.0.0.1"
let instant = { Broker.default_config with warmup_ms = 0 }

module Raw = struct
  type peer = {
    conn : Conn.t;
    id : string;
    on_view : Proto.view -> unit;
    mutable credit : int;
    mutable acked : int;
  }

  let broker () = Broker.create ~config:instant ~port:0 ()

  let socket broker =
    (* accept whoever is waiting first, so a long run of dials never
       overruns the listen backlog *)
    ignore (Broker.poll broker ~timeout_ms:0 ());
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, Broker.port broker));
    fd

  let wrap ?(on_view = ignore) ~id conn = { conn; id; on_view; credit = 0; acked = -1 }

  let dial ?on_view broker ~id ~window =
    let p = wrap ?on_view ~id (Conn.create (socket broker)) in
    Conn.send p.conn (Proto.Hello { client = id; window });
    p

  let advertise ?(supers = []) p cls = Conn.send p.conn (Proto.Advertise { cls; supers })

  let subscribe ?(filter = Value.Null) p ~sid param =
    Conn.send p.conn (Proto.Sub { sid; param; filter })

  let track p = function
    | Proto.Welcome { window } -> p.credit <- window
    | Proto.Credit { n } -> p.credit <- p.credit + n
    | Proto.Pub_ack { pseq } -> p.acked <- pseq
    | _ -> ()

  (* Every frame is popped before the next read: a view dies with it. *)
  let rec drain p =
    let rec pop () =
      match Conn.pop_view p.conn with
      | Conn.View v ->
          (match v with Proto.V_msg m -> track p m | _ -> ());
          p.on_view v;
          pop ()
      | Conn.View_nothing -> ()
      | Conn.View_bad m -> failwith (Printf.sprintf "peer %s: %s" p.id m)
    in
    match Conn.recv p.conn with
    | `Blocked -> ()
    | `Closed m -> failwith (Printf.sprintf "peer %s closed: %s" p.id m)
    | `Ok ->
        pop ();
        drain p

  let turn broker peers =
    List.iter (fun p -> ignore (Conn.flush p.conn)) peers;
    ignore (Broker.poll broker ~timeout_ms:1 ());
    List.iter drain peers

  let until broker peers ~what cond =
    let deadline = now () +. 10. in
    while not (cond ()) do
      if now () > deadline then failwith ("timed out waiting for " ^ what);
      turn broker peers
    done

  let idle broker n = List.init n (fun _ -> socket broker)
  let close p = Conn.close p.conn

  type fanout = { delivered : int; payload_bytes : int; broker_s : float }

  let fanout ~subs ~pubs ~cls obvent =
    let broker = broker () in
    let delivered = ref 0 and payload_bytes = ref 0 in
    let on_view = function
      | Proto.V_deliver { envelope; _ } ->
          incr delivered;
          payload_bytes := !payload_bytes + envelope.Proto.sl_len
      | _ -> ()
    in
    (* windows that never need replenishing: this measures fan-out,
       not credit chatter *)
    let sub_peers =
      List.init subs (fun k ->
          let p = dial ~on_view broker ~id:(Printf.sprintf "sub-%d" k) ~window:max_int in
          subscribe p ~sid:k cls;
          ignore (Conn.flush p.conn);
          p)
    in
    let pub = dial broker ~id:"fanout-pub" ~window:0 in
    advertise pub cls;
    ignore (Conn.flush pub.conn);
    (* let the broker take everyone in before the clock starts *)
    for _ = 1 to 50 do
      ignore (Broker.poll broker ~timeout_ms:0 ())
    done;
    let expect = pubs * subs and sent = ref 0 in
    let broker_s = ref 0. and progress = ref (now (), 0) in
    while !delivered < expect do
      let t0 = now () in
      ignore (Broker.poll broker ~timeout_ms:0 ());
      while pub.credit > 0 && !sent < pubs do
        (* framed as the client frames a publish *)
        Conn.send_gathered pub.conn
          (Proto.pub_frame ~pseq:!sent ~cls ~publish_time:0 ~eid:(1, !sent) (obvent !sent));
        incr sent;
        pub.credit <- pub.credit - 1
      done;
      ignore (Conn.flush pub.conn);
      drain pub;
      broker_s := !broker_s +. (now () -. t0);
      List.iter drain sub_peers;
      let stamp, seen = !progress in
      if !delivered > seen then progress := (now (), !delivered)
      else if now () -. stamp > 10. then
        failwith (Printf.sprintf "fan-out stalled at %d/%d deliveries" !delivered expect)
    done;
    List.iter close (pub :: sub_peers);
    Broker.stop broker;
    { delivered = !delivered; payload_bytes = !payload_bytes; broker_s = !broker_s }
end

module Child = struct
  type t = { pid : int; who : string; mutable code : int option }

  let fork who f =
    (* nothing buffered may be written twice, by parent and child *)
    flush_all ();
    match Unix.fork () with
    | 0 ->
        let code =
          try f ()
          with e ->
            Printf.eprintf "%s: %s\n%!" who (Printexc.to_string e);
            10
        in
        flush_all ();
        Unix._exit code
    | pid -> { pid; who; code = None }

  let wait_all ~timeout_s children =
    let deadline = now () +. timeout_s in
    let unfinished () = List.filter (fun c -> c.code = None) children in
    while unfinished () <> [] && now () < deadline do
      List.iter
        (fun c ->
          match Unix.waitpid [ WNOHANG ] c.pid with
          | 0, _ -> ()
          | _, WEXITED n -> c.code <- Some n
          | _, (WSIGNALED _ | WSTOPPED _) -> c.code <- Some 11
          | exception Unix.Unix_error (ECHILD, _, _) -> c.code <- Some 12)
        (unfinished ());
      if unfinished () <> [] then Unix.sleepf 0.01
    done;
    List.iter
      (fun c ->
        Printf.eprintf "%s (pid %d) timed out, killing\n%!" c.who c.pid;
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] c.pid);
        c.code <- Some 13)
      (unfinished ())

  let code c = Option.value c.code ~default:14
end

module Forked = struct
  type t = { child : Child.t; ctl : Unix.file_descr }

  let listen () =
    let fd = Broker.listen_socket ~host ~port:0 in
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> (fd, port)
    | _ -> failwith "listening socket has no inet port"

  let start ?(config = instant) ?metrics_file ?(who = "broker") listen_fd =
    let ctl_r, ctl_w = Unix.pipe () in
    let child =
      Child.fork who (fun () ->
          Unix.close ctl_w;
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          Trace.set_ambient (Trace.create ());
          let b = Broker.create ~config ~listen_fd ~port:0 () in
          while not (Broker.poll b ~extra_fds:[ ctl_r ] ~timeout_ms:20 ()) do
            ()
          done;
          Broker.stop b;
          Option.iter (Trace.write_file (Trace.ambient ())) metrics_file;
          0)
    in
    Unix.close ctl_r;
    { child; ctl = ctl_w }

  let close_ctl t = try Unix.close t.ctl with Unix.Unix_error _ -> ()

  let quit t =
    (try ignore (Unix.write_substring t.ctl "q" 0 1) with Unix.Unix_error _ -> ());
    close_ctl t;
    Child.wait_all ~timeout_s:10. [ t.child ];
    Child.code t.child

  let kill ?hang_s t =
    let signal s = try Unix.kill t.child.pid s with Unix.Unix_error _ -> () in
    Option.iter
      (fun s ->
        signal Sys.sigstop;
        Unix.sleepf s)
      hang_s;
    signal Sys.sigkill;
    close_ctl t;
    ignore (Unix.waitpid [] t.child.pid)
end

module Ctx = struct
  type t = {
    reg : Registry.t;
    engine : Engine.t;
    proc : Pubsub.Process.t;
    client : Client.t;
  }

  let connect ~reg ~id ~port =
    let engine = Engine.create ~seed:1 () in
    let net = Net.create engine in
    let domain = Pubsub.Domain.create reg net in
    let proc = Pubsub.Process.create domain (Net.add_node net) in
    let deadline = now () +. 10. in
    let rec dial () =
      match Client.connect ~host ~port ~id ~timeout_ms:2000 () with
      | Some c -> c
      | None when now () < deadline ->
          Unix.sleepf 0.05;
          dial ()
      | None -> failwith (Printf.sprintf "client %s cannot reach the broker on port %d" id port)
    in
    let client = dial () in
    Client.attach client domain proc;
    { reg; engine; proc; client }

  let turn t ~timeout_ms =
    ignore (Client.poll t.client ~timeout_ms);
    Engine.run t.engine

  let spin ctxs ~until ~for_ms =
    let deadline = now () +. (float_of_int for_ms /. 1000.) in
    while (not (until ())) && now () < deadline do
      List.iter (turn ~timeout_ms:5) ctxs
    done;
    until ()

  let subscribe ?filter t ~param handler =
    let s = Pubsub.Process.subscribe t.proc ~param ?filter handler in
    Pubsub.Subscription.activate s;
    Engine.run t.engine;
    ignore (Client.poll t.client ~timeout_ms:10);
    s
end

module Oracle = struct
  type t = {
    seen : (string * int, unit) Hashtbl.t;
    last : (string, int) Hashtbl.t;
    mutable dups : int;
    mutable reorders : int;
    mutable sequence : (string * int) list;  (* newest first *)
  }

  let create () =
    { seen = Hashtbl.create 64; last = Hashtbl.create 8; dups = 0; reorders = 0; sequence = [] }

  let see t ~origin ~seq =
    if Hashtbl.mem t.seen (origin, seq) then t.dups <- t.dups + 1
    else Hashtbl.replace t.seen (origin, seq) ();
    (match Hashtbl.find_opt t.last origin with
    | Some prev when seq <= prev -> t.reorders <- t.reorders + 1
    | _ -> ());
    Hashtbl.replace t.last origin seq;
    t.sequence <- (origin, seq) :: t.sequence

  let observe t ob =
    match (Obvent.get ob "seq", Obvent.get ob "origin") with
    | Value.Int seq, Value.Str origin -> see t ~origin ~seq
    | _ -> t.reorders <- t.reorders + 1

  let delivered t = Hashtbl.length t.seen + t.dups
  let dups t = t.dups
  let reorders t = t.reorders
  let sequence t = List.rev t.sequence

  let verdict t ~expect =
    if t.dups > 0 then 4
    else if t.reorders > 0 then 5
    else if delivered t < expect then 6
    else 0
end
