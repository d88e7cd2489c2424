(** One loopback harness for the TCP transport, shared by the soak,
    E13, msgcost and the transport tests: raw protocol peers against an
    in-process broker, a broker in a forked child, one client context
    and one per-origin exactly-once and order oracle. Failures raise
    [Failure]; nothing here depends on a test framework.

    perfbench keeps its own world ([perfbench/world.ml],
    [perfbench/broker_child.ml]): those files are the benchmark's
    contract, and its metrics and output may not move with this
    library. *)

module Broker = Tpbs_transport.Broker
module Proto = Tpbs_transport.Proto

val instant : Broker.config
(** {!Broker.default_config} with [warmup_ms = 0]. *)

(** Raw peers, each on its own loopback socket to an in-process broker
    that the caller polls. *)
module Raw : sig
  type peer = {
    conn : Tpbs_transport.Conn.t;
    id : string;
    on_view : Proto.view -> unit;
    mutable credit : int;  (** publish credit: [Welcome], then [Credit]s *)
    mutable acked : int;  (** the last [Pub_ack]; -1 before any *)
  }

  val broker : unit -> Broker.t
  (** With {!instant}, on an ephemeral port. *)

  val wrap : ?on_view:(Proto.view -> unit) -> id:string -> Tpbs_transport.Conn.t -> peer

  val dial : ?on_view:(Proto.view -> unit) -> Broker.t -> id:string -> window:int -> peer
  (** Poll the broker once (accepting whoever waits), connect, queue
      [Hello]. *)

  val advertise : ?supers:string list -> peer -> string -> unit
  val subscribe : ?filter:Tpbs_serial.Value.t -> peer -> sid:int -> string -> unit

  val drain : peer -> unit
  (** Read until the socket blocks; track [credit] and [acked] and hand
      every message to [on_view] (a view dies at the next read).
      @raise Failure on a corrupt frame or a closed connection. *)

  val turn : Broker.t -> peer list -> unit
  (** Flush every peer, poll the broker (1 ms), drain every peer. *)

  val until : Broker.t -> peer list -> what:string -> (unit -> bool) -> unit
  (** {!turn} until the condition holds.
      @raise Failure after 10 s. *)

  val idle : Broker.t -> int -> Unix.file_descr list
  (** Sockets that connect and never send. *)

  val close : peer -> unit

  type fanout = { delivered : int; payload_bytes : int; broker_s : float }

  val fanout : subs:int -> pubs:int -> cls:string -> (int -> Tpbs_serial.Value.t) -> fanout
  (** A fresh broker, [subs] unfiltered subscribers of [cls] and one
      publisher of [pubs] obvents ([obvent seq], framed as the client
      frames them), run until every subscriber has every event.
      [broker_s] is the time spent polling the broker and pumping the
      publisher, not reading at the subscribers.
      @raise Failure after 10 s without a delivery. *)
end

(** Forked children with exit codes. *)
module Child : sig
  type t = private { pid : int; who : string; mutable code : int option }

  val fork : string -> (unit -> int) -> t
  (** The child exits with [f ()], or 10 (with a line on stderr) if it
      raises. *)

  val wait_all : timeout_s:float -> t list -> unit
  (** Reap every child: a signalled one gets code 11, one still running
      at the deadline is killed and gets 13. *)

  val code : t -> int  (** 14 if never reaped *)
end

(** A broker in a forked child, on a listening socket the parent keeps,
    so a successor can restart on the same fd. *)
module Forked : sig
  type t = private { child : Child.t; ctl : Unix.file_descr }

  val listen : unit -> Unix.file_descr * int  (** on an ephemeral loopback port *)

  val start : ?config:Broker.config -> ?metrics_file:string -> ?who:string -> Unix.file_descr -> t
  (** [config] defaults to {!instant}; the child writes its trace
      registry to [metrics_file] when it quits. *)

  val quit : t -> int
  (** Stop the child over its control pipe; its exit code, 10 if the
      broker raised. *)

  val kill : ?hang_s:float -> t -> unit
  (** SIGKILL and reap; with [hang_s], SIGSTOP for that long first. *)
end

(** A client process: a one-node domain attached to a
    {!Tpbs_transport.Client}. *)
module Ctx : sig
  type t = {
    reg : Tpbs_types.Registry.t;
    engine : Tpbs_sim.Engine.t;
    proc : Tpbs_core.Pubsub.Process.t;
    client : Tpbs_transport.Client.t;
  }

  val connect : reg:Tpbs_types.Registry.t -> id:string -> port:int -> t
  (** Retries for 10 s, then raises [Failure]. *)

  val turn : t -> timeout_ms:int -> unit  (** [Client.poll], then run the engine *)

  val spin : t list -> until:(unit -> bool) -> for_ms:int -> bool
  (** Turn every context until the condition holds or time is up;
      returns the condition. *)

  val subscribe :
    ?filter:Tpbs_core.Fspec.t ->
    t ->
    param:string ->
    (Tpbs_obvent.Obvent.t -> unit) ->
    Tpbs_core.Pubsub.Subscription.t
  (** Subscribe, activate, and push the [Sub] to the broker. *)
end

(** Per-origin exactly-once and order. *)
module Oracle : sig
  type t

  val create : unit -> t

  val see : t -> origin:string -> seq:int -> unit
  (** An [(origin, seq)] seen before is a duplicate; a [seq] not above
      the origin's last is a reorder. *)

  val observe : t -> Tpbs_obvent.Obvent.t -> unit
  (** {!see} the [seq] and [origin] fields; without them, a reorder. *)

  val delivered : t -> int
  val dups : t -> int
  val reorders : t -> int

  val sequence : t -> (string * int) list  (** every delivery, in order *)

  val verdict : t -> expect:int -> int
  (** 4 if any duplicate, else 5 if any reorder, else 6 if fewer than
      [expect] deliveries, else 0. *)
end
