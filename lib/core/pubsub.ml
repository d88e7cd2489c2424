module Registry = Tpbs_types.Registry
module Qos = Tpbs_types.Qos
module Vtype = Tpbs_types.Vtype
module Obvent = Tpbs_obvent.Obvent
module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Cursor = Tpbs_serial.Cursor
module Net = Tpbs_sim.Net
module Engine = Tpbs_sim.Engine
module Stable = Tpbs_sim.Stable
module Rng = Tpbs_sim.Rng
module Membership = Tpbs_group.Membership
module Gossip = Tpbs_group.Gossip
module Certified = Tpbs_group.Certified
module Layer = Tpbs_group.Layer
module Stack = Tpbs_group.Stack
module Rfilter = Tpbs_filter.Rfilter
module Fexpr = Tpbs_filter.Expr
module Subsume = Tpbs_filter.Subsume
module Factored = Tpbs_filter.Factored
module Mobility = Tpbs_filter.Mobility
module Typecheck = Tpbs_filter.Typecheck
module Trace = Tpbs_trace.Trace
module Histogram = Tpbs_trace.Histogram

let pub_port = "psb:pub"
let ctl_port = "psb:ctl"
let del_port = "psb:del"

(* A remote broker endpoint: the function-record seam a real
   transport connector (e.g. Tpbs_transport.Client over TCP) fills
   in. lib/core stays socket-free; the connector owns framing,
   credit, reconnection and certified retransmission. A publish hands
   it what the envelope holds, not the envelope: the connector writes
   the envelope straight into its frame ({!envelope_length},
   {!write_envelope}). *)
type remote = {
  r_publish :
    cls:string -> publish_time:int -> eid:int * int -> Value.t -> unit;
  r_subscribe : sid:int -> param:string -> filter:Value.t -> unit;
  r_unsubscribe : sid:int -> unit;
}

(* What a publish hands on to transmission: the envelope's bytes, for
   the channel's stack on the simulated net; or, in a domain joined to
   a broker with [Remote.connect], the obvent's value — its field
   spine at publish, which a later [Obvent.set] rebinds, not
   changes — for the connector to frame. *)
type outgoing =
  | Envelope of string
  | Remote_obvent of { publish_time : int; eid : int * int; obvent : Value.t }

type tx_entry = {
  tx_cls : string;
  tx_out : outgoing;
  tx_prio : int;
  tx_birth : int option;
  tx_ttl : int option;
  tx_seq : int;
}

type subscription = {
  sid : int;
  sub_process : process;
  param : string;
  filter : Fspec.t;
  rfilter : Rfilter.t option;  (* liftable + mobile: goes to the broker *)
  pruned : bool;
      (* lifted filter proven unsatisfiable at subscribe time: kept
         out of the routing index and never registered with filtering
         hosts — no event can ever match it *)
  dispatch : Dispatch.t;
  mutable active : bool;
  mutable durable : int option;
  mutable delivered : int;
}

and process = {
  dom : domain;
  node : Net.node_id;
  rmi : Tpbs_rmi.Rmi.runtime option;
  cert_storage : Stable.t;
  channels : (string, Stack.t) Hashtbl.t;
  route : subscription Routing.t;
      (* concrete class -> active subscriptions it routes to *)
  prefilter : Factored.t;
      (* the lifted filters of the routed subscriptions, by sid: a
         sound pre-filter in front of their local evaluation *)
  mutable txq : tx_entry list;  (* the egress queue *)
  mutable tx_armed : bool;
  mutable tx_next_seq : int;
  mutable subs : subscription list;
  interest : (Net.node_id * string, unit) Hashtbl.t;
      (* (node, subscribed type) pairs learned from the meta channel:
         this process's local view of who wants what *)
}

and channel_meta = {
  profile : Qos.profile;
  members : Membership.t;
  gossip_config : Gossip.config option;
  retain : bool;
      (* keep acknowledged certified history for replay subscriptions *)
}

(* A filtering host: the shared core, with subscriptions keyed by their
   global sid and delivering to subscriber nodes. *)
and broker_state = { b_process : process; b_core : Net.node_id Broker_core.t }

(* Observability handles captured once at Domain.create: counters are
   always-on plain int bumps; trace events additionally check
   [Trace.emitting] so the disabled path costs one load+branch. *)
and obs = {
  tr : Trace.t;
  c_published : Trace.Counter.t;
  c_routed : Trace.Counter.t;
  c_deliveries : Trace.Counter.t;
  c_filtered : Trace.Counter.t;
  c_expired : Trace.Counter.t;
  c_cloned : Trace.Counter.t;
  c_decode_errors : Trace.Counter.t;
  c_broker_forwards : Trace.Counter.t;
  c_qos_conflicts : Trace.Counter.t;
  c_filters_pruned : Trace.Counter.t;
  c_replayed : Trace.Counter.t;
  c_channel_misses : Trace.Counter.t;
}

(* The engine's running tallies, read as a {!Domain.stats} snapshot.
   Only the engine thread writes them. *)
and counts = {
  mutable published : int;
  mutable deliveries : int;
  mutable filtered_out : int;
  mutable expired : int;
  mutable decode_errors : int;
  mutable broker_forwards : int;
  mutable broker_events : int;
  mutable control_messages : int;
  mutable qos_conflicts : int;
  mutable filters_pruned : int;
  mutable replayed : int;
  mutable channel_misses : int;
}

and domain = {
  registry : Registry.t;
  net : Net.t;
  tx_interval : int;
  rng : Rng.t;
  channel_meta : (string, channel_meta) Hashtbl.t;
  mutable st : counts;
  mutable pool : Pool.t option;
      (* the parallel dispatch tier, present when the domain was
         created with [~domains] > 1 and not yet shut down: handler
         bodies of Multi-policy subscriptions run on its workers *)
  handoff : (unit -> unit) Queue.t;
  handoff_mutex : Mutex.t;
      (* engine mutations requested from pool workers (e.g. a handler
         publishing) are queued here and drained on the engine thread
         at the tick barrier *)
  mutable flush_storages : Stable.t list;
      (* grouped (group-commit) storages to [Stable.flush] once per
         tick barrier *)
  mutable barrier_installed : bool;
  mutable processes : process list;  (* newest first; see processes_in_order *)
  gossip_overrides : (string, Gossip.config) Hashtbl.t;
  retain_overrides : (string, unit) Hashtbl.t;
  mutable brokers : broker_state list;  (* newest first; see brokers_in_order *)
  mutable remote : remote option;
      (* connected to an out-of-process broker: every channel bottoms
         out in the remote transport, subscriptions register there *)
  mutable meta_enabled : bool;
  mutable targeted : bool;  (* subscription-aware best-effort dissemination *)
  mutable next_sid : int;
  mutable next_eid : int;  (* per-domain publish sequence for event ids *)
  obs : obs;
  latency : Histogram.t;
}

(* Registration prepends (constant-time); every ordered consumer goes
   through these accessors, which restore creation/designation
   order. *)
let processes_in_order d = List.rev d.processes
let brokers_in_order d = List.rev d.brokers

let zero_counts () =
  {
    published = 0;
    deliveries = 0;
    filtered_out = 0;
    expired = 0;
    decode_errors = 0;
    broker_forwards = 0;
    broker_events = 0;
    control_messages = 0;
    qos_conflicts = 0;
    filters_pruned = 0;
    replayed = 0;
    channel_misses = 0;
  }

let meta_find d cls = Hashtbl.find_opt d.channel_meta cls

(* Engine thunks queued by pool workers, run on the engine thread. *)
let drain_handoff d =
  let pending = Queue.create () in
  Mutex.lock d.handoff_mutex;
  Queue.transfer d.handoff pending;
  Mutex.unlock d.handoff_mutex;
  Queue.iter (fun f -> f ()) pending

(* The tick barrier joins the pool back in between virtual-time
   steps: wait for every offloaded handler to complete, apply their
   handed-off publishes, then pay the single group-commit fsync of any
   grouped storage. Installed lazily — an unpooled, ungrouped domain
   leaves the engine loop untouched. *)
let install_barrier d =
  if not d.barrier_installed then begin
    d.barrier_installed <- true;
    Engine.add_tick_barrier (Net.engine d.net) (fun () ->
        (match d.pool with Some pool -> Pool.barrier pool | None -> ());
        drain_handoff d;
        List.iter Stable.flush d.flush_storages)
  end

(* --- envelopes ------------------------------------------------------- *)

(* The envelope carries the event id (origin node, per-domain publish
   seq) so every hop of an event's life — publish, route, filter,
   deliver, expire — can be correlated across nodes in the trace.
   The obvent is encoded straight into its string field, so its bytes
   are never a string of their own: byte-identical to
   [Codec.encode (List [ ...; Str (Obvent.serialize obvent) ])].

   This is the one envelope walk. Its length follows from the
   obvent's, [olen] (one sizing walk, [Codec.gathered_size]); the
   bytes are written by [write_envelope], flat here, or with long
   strings left out by a connector that frames the envelope itself. *)
let envelope_length ~publish_time ~eid:(origin, eseq) olen =
  Codec.list_header_size 4 + Codec.int_size publish_time
  + Codec.int_size origin + Codec.int_size eseq + Codec.str_size olen

let write_envelope g w ~publish_time ~eid:(origin, eseq) ov ~olen =
  Codec.encode_list_header w 4;
  Codec.encode_int w publish_time;
  Codec.encode_int w origin;
  Codec.encode_int w eseq;
  Codec.encode_str_header w olen;
  Codec.encode_gathered g w ov

let encode_envelope ~publish_time ~eid obvent =
  let ov = Obvent.to_value obvent in
  let olen = Codec.encoded_size ov in
  let w =
    Tpbs_serial.Wire.Writer.create
      ~capacity:(envelope_length ~publish_time ~eid olen) ()
  in
  write_envelope Codec.flat w ~publish_time ~eid ov ~olen;
  Tpbs_serial.Wire.Writer.contents w

let decode_envelope bytes =
  match Codec.decode bytes with
  | List [ Int publish_time; Int origin; Int eseq; Str obvent_bytes ] ->
      Some (publish_time, (origin, eseq), obvent_bytes)
  | _ | (exception Codec.Decode_error _) -> None

(* Slice twin of [decode_envelope]: open an envelope living at
   [bytes.[off .. off+len-1]] of a larger buffer (a transport frame)
   in place, handing the serialized obvent back as an absolute
   (off, len) into [bytes] instead of a copy. Envelope-format
   knowledge stays here; the broker only sees offsets. *)
let decode_envelope_sub bytes ~off ~len =
  let module Wire = Tpbs_serial.Wire in
  if off < 0 || len < 0 || off + len > String.length bytes then
    invalid_arg "Pubsub.decode_envelope_sub";
  let limit = off + len in
  (* The offset lives in locals, so only the result is allocated. *)
  match
    if Codec.list_arity_at bytes off ~limit <> 4 then raise Exit;
    let p = Codec.next_at bytes off ~limit in
    let publish_time = Codec.int_at bytes p ~limit in
    let p = Codec.next_at bytes p ~limit in
    let origin = Codec.int_at bytes p ~limit in
    let p = Codec.next_at bytes p ~limit in
    let eseq = Codec.int_at bytes p ~limit in
    let p = Codec.next_at bytes p ~limit in
    let olen = Codec.str_len_at bytes p ~limit in
    if Codec.next_at bytes p ~limit <> limit then raise Exit;
    Some (publish_time, (origin, eseq), (limit - olen, olen))
  with
  | v -> v
  | exception (Exit | Wire.Truncated _ | Wire.Malformed _) -> None

let encode_routed ~cls envelope = Codec.encode (List [ Str cls; Str envelope ])

let decode_routed bytes =
  match Codec.decode bytes with
  | List [ Str cls; Str envelope ] -> Some (cls, envelope)
  | _ | (exception Codec.Decode_error _) -> None

(* --- domain ------------------------------------------------------------ *)

module Domain = struct
  type t = domain

  let create ?(tx_interval = 200) ?(domains = 1) registry net =
    let tr = Trace.ambient () in
    let pool =
      if domains > 1 then Some (Pool.create ~workers:domains) else None
    in
    let d =
      {
      registry;
      net;
      tx_interval;
      rng = Rng.split (Engine.rng (Net.engine net));
      channel_meta = Hashtbl.create 16;
      st = zero_counts ();
      pool;
      handoff = Queue.create ();
      handoff_mutex = Mutex.create ();
      flush_storages = [];
      barrier_installed = false;
      processes = [];
      gossip_overrides = Hashtbl.create 4;
      retain_overrides = Hashtbl.create 4;
      brokers = [];
      remote = None;
      meta_enabled = false;
      targeted = false;
      next_sid = 0;
      next_eid = 0;
      obs =
        (
         {
           tr;
           c_published = Trace.counter tr "core.published";
           c_routed = Trace.counter tr "core.routed";
           c_deliveries = Trace.counter tr "core.deliveries";
           c_filtered = Trace.counter tr "core.filtered_out";
           c_expired = Trace.counter tr "core.expired";
           c_cloned = Trace.counter tr "core.cloned";
           c_decode_errors = Trace.counter tr "core.decode_errors";
           c_broker_forwards = Trace.counter tr "core.broker_forwards";
           c_qos_conflicts = Trace.counter tr "core.qos_conflicts";
           c_filters_pruned = Trace.counter tr "core.filters_pruned";
           c_replayed = Trace.counter tr "core.replayed";
           c_channel_misses = Trace.counter tr "core.channel_misses";
         });
      latency = Histogram.create ();
      }
    in
    Trace.register_histogram d.obs.tr "core.latency" d.latency;
    (* A pooled domain always needs the barrier (handler join +
       hand-off drain); grouped storages install it on registration. *)
    if Option.is_some pool then install_barrier d;
    d

  let registry d = d.registry
  let net d = d.net
  let engine d = Net.engine d.net
  let nodes d = List.rev_map (fun p -> p.node) d.processes

  let enable_meta d = d.meta_enabled <- true

  let enable_targeted_dissemination d =
    d.meta_enabled <- true;
    d.targeted <- true

  let use_gossip d ~cls ?(config = Gossip.default_config) () =
    if meta_find d cls <> None then
      invalid_arg "Domain.use_gossip: channel already opened";
    Hashtbl.replace d.gossip_overrides cls config

  let retain_history d ~cls =
    if meta_find d cls <> None then
      invalid_arg "Domain.retain_history: channel already opened";
    Hashtbl.replace d.retain_overrides cls ()

  type stats = {
    published : int;
    deliveries : int;
    filtered_out : int;
    expired : int;
    decode_errors : int;
    broker_forwards : int;
    broker_events : int;
    control_messages : int;
    qos_conflicts : int;
    filters_pruned : int;
    replayed : int;
    channel_misses : int;
  }

  let stats (d : t) =
    let m = d.st in
    {
      published = m.published;
      deliveries = m.deliveries;
      filtered_out = m.filtered_out;
      expired = m.expired;
      decode_errors = m.decode_errors;
      broker_forwards = m.broker_forwards;
      broker_events = m.broker_events;
      control_messages = m.control_messages;
      qos_conflicts = m.qos_conflicts;
      filters_pruned = m.filters_pruned;
      replayed = m.replayed;
      channel_misses = m.channel_misses;
    }

  let pool_stats (d : t) = Option.map Pool.stats d.pool

  (* Dropping the pool sends later Multi handler bodies inline (the
     executor installed at subscribe reads [d.pool] per task). *)
  let shutdown (d : t) =
    match d.pool with
    | None -> ()
    | Some pool ->
        d.pool <- None;
        Pool.shutdown pool

  let latency d = d.latency
  let reset_stats (d : t) = d.st <- zero_counts ()
end

let now_of d = Engine.now (Net.engine d.net)

(* --- delivery path ---------------------------------------------------- *)

let adopt_proxies p obvent =
  match p.rmi with
  | None -> ()
  | Some runtime ->
      Value.fold
        (fun () v ->
          match v with
          | Value.Remote _ -> Tpbs_rmi.Rmi.adopt_proxy runtime v
          | _ -> ())
        () (Obvent.to_value obvent)

(* Timely staleness decided by lazy field projection over the encoded
   payload: two cursor probes instead of a full decode, so an expired
   event costs zero materializations on this node. A payload the
   cursor cannot navigate is simply not stale here — the gating decode
   downstream will account the malformation. The cursor is only built
   for channels with Timely semantics. *)
let stale_lazy d meta bytes ~off ~len =
  meta.profile.Qos.timely
  &&
  let cursor = Cursor.of_substring bytes ~off ~len in
  match
    match Cursor.class_id cursor with
    | Some cls when Registry.subtype d.registry cls "Timely" ->
        ( Cursor.project cursor [ "birth" ],
          Cursor.project cursor [ "timeToLive" ] )
    | Some _ | None -> None, None
  with
  | Some (Value.Int birth), Some (Value.Int ttl) -> now_of d > birth + ttl
  | _, _ -> false
  | exception Codec.Decode_error _ -> false

let deliver_clone p ~publish_time ~eid s obvent =
  let d = p.dom in
  s.delivered <- s.delivered + 1;
  d.st.deliveries <- d.st.deliveries + 1;
  Trace.Counter.incr d.obs.c_deliveries;
  (* Under [Remote.connect] [publish_time] is another process's
     virtual clock: no comparable sample. *)
  (match d.remote with
  | None ->
      Histogram.record d.latency (float_of_int (now_of d - publish_time))
  | Some _ -> ());
  if Trace.emitting d.obs.tr then
    Trace.emit d.obs.tr ~layer:"core" ~kind:"deliver" ~node:p.node ~id:eid
      ~data:[ ("sid", Trace.I s.sid) ] ();
  (* §5.4.2: a delivered copy containing remote references
     creates proxies in the subscriber's address space. *)
  adopt_proxies p obvent;
  Dispatch.submit s.dispatch obvent

let build_routed p cls =
  let reg = p.dom.registry in
  List.filter
    (fun s -> s.active && (not s.pruned) && Registry.subtype reg cls s.param)
    p.subs

let rec deliver_all p ~publish_time ~eid subs copies =
  match subs, copies with
  | s :: subs, clone :: copies ->
      deliver_clone p ~publish_time ~eid s clone;
      deliver_all p ~publish_time ~eid subs copies
  | _, _ -> ()

let routed_subscriptions p cls = Routing.find p.route cls ~build:build_routed p

(* Learn interest from control traffic: every process sees the meta
   channel (it is broadcast) and updates its local routing view. *)
let learn_interest p cls bytes ~off ~len =
  let d = p.dom in
  if d.targeted && (cls = "SubscriptionActivated" || cls = "SubscriptionDeactivated")
  then
    match Obvent.deserialize_sub d.registry bytes ~off ~len with
    | exception Obvent.Invalid_obvent _ -> ()
    | o -> (
        match Obvent.get o "nodeId", Obvent.get o "subscribedType" with
        | Value.Int node, Value.Str param ->
            if cls = "SubscriptionActivated" then
              Hashtbl.replace p.interest (node, param) ()
            else Hashtbl.remove p.interest (node, param)
        | _, _ -> ())

(* The pre-filter of [on_event_sub]: the sids of the routed
   subscriptions whose lifted filter accepts [gate], from one
   compound-filter pass over the process's index, descending like the
   routed list. A lifted filter that rejects implies the local filter
   rejects (the same soundness the filtering hosts rely on), so only
   accepted subscriptions need [Fspec.matches]. No pass when no routed
   subscription has a lifted filter. *)
let has_lifted s = Option.is_some s.rfilter

let lifted_matches p gate subs =
  if List.exists has_lifted subs then
    match Factored.matches p.prefilter (Obvent.to_value gate) with
    | ([] | [ _ ]) as ids -> ids
    | ids -> List.rev ids
  else []

let rec drop_above sid = function
  | x :: rest when x > sid -> drop_above sid rest
  | ids -> ids

(* The routed subscriptions [subs] whose filters accept [gate], in
   routed order, counting every rejection. [lifted] is what is left of
   [lifted_matches] once the subscriptions before the head of [subs]
   have asked. *)
let rec accepting d st gate lifted = function
  | [] -> []
  | s :: rest ->
      let lifted =
        match s.rfilter with None -> lifted | Some _ -> drop_above s.sid lifted
      in
      if
        (match s.rfilter, lifted with
        | None, _ -> true
        | Some _, x :: _ -> x = s.sid
        | Some _, [] -> false)
        && Fspec.matches d.registry s.filter gate
      then s :: accepting d st gate lifted rest
      else begin
        st.filtered_out <- st.filtered_out + 1;
        Trace.Counter.incr d.obs.c_filtered;
        accepting d st gate lifted rest
      end

(* One copy of the gate per subscription in [subs], the first being the
   gate itself: views, or private decodes of the obvent at
   [bytes.[off .. off+len-1]] for [eager] classes. *)
let rec clones d ~eager bytes ~off ~len gate first = function
  | [] -> []
  | _ :: rest ->
      let clone =
        if first then gate
        else begin
          Trace.Counter.incr d.obs.c_cloned;
          if eager then Obvent.deserialize_sub d.registry bytes ~off ~len
          else Obvent.view gate
        end
      in
      clone :: clones d ~eager bytes ~off ~len gate false rest

(* Delivery hot path: one routing-index lookup and at most ONE decode
   per event, however many subscribers match. Staleness (Timely) is
   settled by lazy projection before any decode; filters are evaluated
   on the single gating decode; each further matching subscriber then
   receives a copy-on-write view of the gate — fresh uid, field spine
   physically shared, so the per-notifiable clone §2.1.2 mandates
   costs O(1) instead of a serialize+deserialize round trip. Isolation
   holds because a write through any copy rebinds that copy's spine,
   never a sibling's. Classes marked EagerClone opt out of sharing and
   fall back to one deserialization per subscriber, reusing the
   envelope's already-encoded bytes (serialize once, decode N
   times).

   The envelope is [bytes.[off .. off+len-1]] and is read in place —
   over TCP it is still sitting in the connection's frame decoder —
   so the only copy of the obvent is its decode. Every read of
   [bytes] happens before this returns. *)
let on_event_sub p cls bytes ~off ~len =
  let d = p.dom in
  let st = d.st in
  let decode_error () =
    st.decode_errors <- st.decode_errors + 1;
    Trace.Counter.incr d.obs.c_decode_errors;
    if Trace.emitting d.obs.tr then
      Trace.emit d.obs.tr ~layer:"core" ~kind:"decode_error" ~node:p.node
        ~data:[ ("cls", Trace.S cls) ] ()
  in
  match decode_envelope_sub bytes ~off ~len with
  | None -> decode_error ()
  | Some (publish_time, eid, (ooff, olen)) -> (
      learn_interest p cls bytes ~off:ooff ~len:olen;
      match meta_find d cls with
      | None ->
          (* Delivery raced channel registration: count the miss, do
             not abort the simulation. *)
          decode_error ()
      | Some meta -> (
          match routed_subscriptions p cls with
          | [] -> ()
          | subs -> (
              Trace.Counter.incr d.obs.c_routed;
              if Trace.emitting d.obs.tr then
                Trace.emit d.obs.tr ~layer:"core" ~kind:"route" ~node:p.node
                  ~id:eid
                  ~data:
                    [ ("cls", Trace.S cls);
                      ("targets", Trace.I (List.length subs)) ]
                  ();
              if stale_lazy d meta bytes ~off:ooff ~len:olen then begin
                (* Once per event, not once per matching subscription —
                   and without ever materializing the obvent. *)
                st.expired <- st.expired + 1;
                Trace.Counter.incr d.obs.c_expired;
                if Trace.emitting d.obs.tr then
                  Trace.emit d.obs.tr ~layer:"core" ~kind:"expire"
                    ~node:p.node ~id:eid ()
              end
              else
                match Obvent.deserialize_sub d.registry bytes ~off:ooff ~len:olen with
                | exception Obvent.Invalid_obvent _ -> decode_error ()
                | gate ->
                    Trace.Counter.incr d.obs.c_cloned;
                    let filtered = st.filtered_out in
                    let matched =
                      accepting d st gate (lifted_matches p gate subs) subs
                    in
                    let dropped = st.filtered_out - filtered in
                    if dropped > 0 && Trace.emitting d.obs.tr then
                      Trace.emit d.obs.tr ~layer:"core" ~kind:"filter_drop"
                        ~node:p.node ~id:eid
                        ~data:[ ("dropped", Trace.I dropped) ]
                        ();
                    let eager =
                      Registry.subtype d.registry (Obvent.cls gate)
                        "EagerClone"
                    in
                    (* Every clone is minted before any delivery runs:
                       dispatch may invoke a handler synchronously, and
                       a view must snapshot the gate's spine before any
                       subscriber gets a chance to write through it. *)
                    let copies =
                      clones d ~eager bytes ~off:ooff ~len:olen gate true matched
                    in
                    deliver_all p ~publish_time ~eid matched copies)))

let on_event p cls envelope =
  on_event_sub p cls envelope ~off:0 ~len:(String.length envelope)

(* Replay delivery: a replayed history envelope goes only to the
   replay subscription that asked for it — every other subscriber on
   this process already saw (or chose not to see) the event when it
   was live. Filters apply as usual; staleness does not (replayed
   history is by definition old). Counted as [replayed] separately
   from live deliveries, and kept out of the latency histogram, which
   measures the live path. *)
let replay_event p s cls envelope =
  let d = p.dom in
  let st = d.st in
  let decode_error () =
    st.decode_errors <- st.decode_errors + 1;
    Trace.Counter.incr d.obs.c_decode_errors
  in
  if s.active && not s.pruned then
    match decode_envelope envelope with
    | None -> decode_error ()
    | Some (_publish_time, eid, obvent_bytes) -> (
        match Obvent.deserialize d.registry obvent_bytes with
        | exception Obvent.Invalid_obvent _ -> decode_error ()
        | gate ->
            if
              Registry.subtype d.registry (Obvent.cls gate) s.param
              && Fspec.matches d.registry s.filter gate
            then begin
              s.delivered <- s.delivered + 1;
              st.replayed <- st.replayed + 1;
              Trace.Counter.incr d.obs.c_replayed;
              if Trace.emitting d.obs.tr then
                Trace.emit d.obs.tr ~layer:"core" ~kind:"replay_deliver"
                  ~node:p.node ~id:eid
                  ~data:[ ("cls", Trace.S cls); ("sid", Trace.I s.sid) ]
                  ();
              adopt_proxies p gate;
              Dispatch.submit s.dispatch gate
            end)

(* --- channels ------------------------------------------------------------ *)

(* Events published on a broker-routed channel go publisher →
   filtering host(s); the hosts forward to matching subscribers on
   [del_port], outside the stack — hence the dropped upcall. *)
let broker_transport p cls =
  Layer.make ~name:"transport:broker"
    ~send:(fun ?self:_ ?except:_ envelope ->
      List.iter
        (fun b ->
          Net.send p.dom.net ~src:p.node ~dst:b.b_process.node ~port:pub_port
            (encode_routed ~cls envelope))
        (brokers_in_order p.dom))
    ~set_deliver:(fun _ -> ())
    ()

(* Channels of a remotely-connected domain all bottom out here, and
   nothing is sent through it: [transmit] hands a publish's obvent to
   the connector, which frames it (envelope included) and ships it to
   the broker; deliveries come back through the injection function of
   [Remote.connect], outside the stack. The TCP substrate is reliable
   and per-origin FIFO, and the connector layers certified
   acks/retransmission on top, so the stack above stays bare — QoS is
   provided by the transport, not recomposed over it. *)
let remote_transport =
  Layer.make ~name:"transport:remote"
    ~send:(fun ?self:_ ?except:_ _ -> ())
    ~set_deliver:(fun _ -> ())
    ()

let attach_channel p cls (meta : channel_meta) =
  if not (Hashtbl.mem p.channels cls) then begin
    let deliver ~origin:_ envelope = on_event p cls envelope in
    let profile =
      match p.dom.remote with
      | Some _ ->
          { meta.profile with
            Qos.certified = false; reliable = false; order = Qos.No_order }
      | None -> meta.profile
    in
    let transport =
      match p.dom.remote with
      | Some _ -> Stack.Custom remote_transport
      | None ->
      match meta.gossip_config with
      | Some config when not profile.Qos.certified ->
          let n = Membership.size meta.members in
          let contacts =
            List.map
              (fun k -> (Membership.members meta.members).(k))
              (Rng.sample_without_replacement p.dom.rng (min 4 n) n)
          in
          Stack.Gossip_net (config, contacts)
      | Some _ | None ->
          if
            (not profile.Qos.certified) && (not profile.Qos.reliable)
            && profile.Qos.order = Qos.No_order
            && p.dom.brokers <> []
          then Stack.Custom (broker_transport p cls)
          else Stack.Best
    in
    let stack =
      Stack.assemble profile ~transport ~storage:p.cert_storage
        ~retain_acked:meta.retain ~group:meta.members ~me:p.node ~name:cls
        ~deliver ()
    in
    Hashtbl.replace p.channels cls stack
  end

let ensure_channel d cls =
  match meta_find d cls with
  | Some meta -> meta
  | None ->
      let st = d.st in
      let profile, conflicts = Qos.of_type d.registry cls in
      (* Fig. 4 precedence dropped a requested semantics: surface it
         instead of silently resolving (once per class, at channel
         creation). *)
      List.iter
        (fun c ->
          st.qos_conflicts <- st.qos_conflicts + 1;
          Trace.Counter.incr d.obs.c_qos_conflicts;
          if Trace.emitting d.obs.tr then
            Trace.emit d.obs.tr ~layer:"core" ~kind:"qos_conflict"
              ~data:
                [ ("cls", Trace.S cls);
                  ("dropped", Trace.S (Qos.conflict_label c)) ]
              ())
        conflicts;
      let members =
        Membership.create d.net (List.rev_map (fun p -> p.node) d.processes)
      in
      let meta =
        { profile; members;
          gossip_config = Hashtbl.find_opt d.gossip_overrides cls;
          retain = Hashtbl.mem d.retain_overrides cls }
      in
      Hashtbl.replace d.channel_meta cls meta;
      (* Creation order: attach order feeds per-process RNG draws. *)
      List.iter (fun p -> attach_channel p cls meta) (processes_in_order d);
      meta

(* --- transmission ----------------------------------------------------------- *)

let transmit p cls out =
  let meta = ensure_channel p.dom cls in
  attach_channel p cls meta;
  match Hashtbl.find_opt p.channels cls with
  | None ->
      (* The channel vanished between enqueue and drain (the egress
         queue decouples publish from transmission, so a concurrent
         unsubscribe/teardown can win the race). A bare [Not_found]
         here used to kill the whole engine tick; skip the entry,
         counted and traced like any other tolerated inconsistency. *)
      let d = p.dom in
      d.st.channel_misses <- d.st.channel_misses + 1;
      Trace.Counter.incr d.obs.c_channel_misses;
      if Trace.emitting d.obs.tr then
        Trace.emit d.obs.tr ~layer:"core" ~kind:"channel_miss" ~node:p.node
          ~data:[ ("cls", Trace.S cls) ] ()
  | Some stack -> (
  match out with
  | Remote_obvent { publish_time; eid; obvent } -> (
      match p.dom.remote with
      | Some r -> r.r_publish ~cls ~publish_time ~eid obvent
      | None -> ())
  | Envelope envelope -> (
  match Stack.targeted stack with
  | Some send_to
    when p.dom.targeted
         && not (Registry.subtype p.dom.registry cls "MetaObvent") ->
      (* Subscription-aware dissemination: address only the nodes this
         process believes are interested (learned eventually from the
         meta channel), in node order so traces do not depend on
         hashtable iteration. Control traffic itself stays
         broadcast. *)
      let targets = Hashtbl.create 8 in
      Hashtbl.iter
        (fun (node, param) () ->
          if Registry.subtype p.dom.registry cls param then
            Hashtbl.replace targets node ())
        p.interest;
      Hashtbl.fold (fun node () acc -> node :: acc) targets []
      |> List.sort Int.compare
      |> List.iter (fun node -> send_to ~dst:node envelope)
  | Some _ | None -> Stack.bcast stack envelope))

(* Egress queue for Prioritary/Timely traffic: one message per drain
   slot; higher priority overtakes, later-born timely obvents are
   preferred, stale ones expire in the queue (§3.1.2 "transmission
   semantics"). One queue per process, one message per interval. *)
let rec drain_tx p =
  p.tx_armed <- false;
  let d = p.dom in
  let current = now_of d in
  let fresh, dead =
    List.partition
      (fun e ->
        match e.tx_birth, e.tx_ttl with
        | Some birth, Some ttl -> current <= birth + ttl
        | _, _ -> true)
      p.txq
  in
  d.st.expired <- d.st.expired + List.length dead;
  Trace.Counter.add d.obs.c_expired (List.length dead);
  if dead <> [] && Trace.emitting d.obs.tr then
    Trace.emit d.obs.tr ~layer:"core" ~kind:"expire_tx" ~node:p.node
      ~data:[ ("count", Trace.I (List.length dead)) ]
      ();
  p.txq <- fresh;
  match fresh with
  | [] -> ()
  | entries ->
      let better a b =
        if a.tx_prio <> b.tx_prio then a.tx_prio > b.tx_prio
        else
          match a.tx_birth, b.tx_birth with
          | Some ba, Some bb when ba <> bb -> ba > bb  (* newer first *)
          | _ -> a.tx_seq < b.tx_seq
      in
      let best =
        List.fold_left (fun acc e -> if better e acc then e else acc)
          (List.hd entries) (List.tl entries)
      in
      p.txq <- List.filter (fun e -> e.tx_seq <> best.tx_seq) p.txq;
      transmit p best.tx_cls best.tx_out;
      arm_tx p

and arm_tx p =
  if (not p.tx_armed) && p.txq <> [] then begin
    p.tx_armed <- true;
    Net.schedule_on p.dom.net p.node ~delay:p.dom.tx_interval (fun () ->
        drain_tx p)
  end

(* --- the reflexive meta channel (§4.2) ----------------------------------------- *)

(* Subscription and unsubscription requests are obvents themselves,
   disseminated on the channel of their own class. Meta traffic about
   meta subscriptions is suppressed to keep the reflexive tower
   finite. *)
let publish_meta_fwd :
    (process -> cls:string -> sid:int -> param:string -> unit) ref =
  ref (fun _ ~cls:_ ~sid:_ ~param:_ -> ())

let emit_meta p ~cls ~sid ~param =
  let d = p.dom in
  if d.targeted && not (Registry.subtype d.registry param "MetaObvent") then begin
    (* The subscriber's own process knows immediately. *)
    if cls = "SubscriptionActivated" then
      Hashtbl.replace p.interest (p.node, param) ()
    else Hashtbl.remove p.interest (p.node, param)
  end;
  if d.meta_enabled && not (Registry.subtype d.registry param "MetaObvent")
  then !publish_meta_fwd p ~cls ~sid ~param

(* --- subscription handles ------------------------------------------------------ *)

module Subscription = struct
  type t = subscription

  let id s = s.sid
  let subscribed_type s = s.param
  let is_active s = s.active
  let is_pruned s = s.pruned
  let durable_id s = s.durable
  let delivered s = s.delivered
  let dispatch_stats s = Dispatch.stats s.dispatch
  let set_single_threading s = Dispatch.set_policy s.dispatch Dispatch.Single

  let set_multi_threading s ~max =
    Dispatch.set_policy s.dispatch (Dispatch.Multi max)

  let set_class_serial_threading s =
    Dispatch.set_policy s.dispatch Dispatch.Class_serial

  let broker_of d node =
    match brokers_in_order d with
    | [] -> None
    | brokers ->
        (* Subscriptions are gathered per filtering host by subscriber
           node, so one node's filters always land on the same host. *)
        Some (List.nth brokers (node mod List.length brokers))

  let send_ctl s verb =
    let p = s.sub_process in
    let d = p.dom in
    (* A pruned subscription matches nothing: never ship its filter to
       a filtering host (§3.3.3 migration saved entirely). *)
    if s.pruned then ()
    else
    match d.remote with
    | Some r -> (
        d.st.control_messages <- d.st.control_messages + 1;
        match verb with
        | `Sub ->
            let filter =
              match s.rfilter with
              | Some rf -> Rfilter.to_value rf
              | None -> Value.Null
            in
            r.r_subscribe ~sid:s.sid ~param:s.param ~filter
        | `Unsub -> r.r_unsubscribe ~sid:s.sid)
    | None ->
    match broker_of d p.node with
    | None -> ()
    | Some b ->
        d.st.control_messages <- d.st.control_messages + 1;
        let body =
          match verb with
          | `Sub ->
              let filt =
                match s.rfilter with
                | Some rf -> Rfilter.to_value rf
                | None -> Value.Null
              in
              Value.List
                [ Str "sub"; Int s.sid; Int p.node; Str s.param; filt ]
          | `Unsub -> Value.List [ Str "unsub"; Int s.sid ]
        in
        Net.send d.net ~src:p.node ~dst:b.b_process.node ~port:ctl_port
          (Codec.encode body)

  let ensure_channels s =
    let d = s.sub_process.dom in
    List.iter
      (fun cls -> ignore (ensure_channel d cls))
      (List.filter
         (fun cls -> Registry.subtype d.registry cls s.param)
         (Registry.obvent_classes d.registry))

  (* Incremental routing-index maintenance: splice the activated
     subscription into every warm entry instead of dropping them for a
     full rebuild. Entries mirror [p.subs] order — newest (highest
     sid) first — so the insert compares sids descending. A pruned
     subscription never routes and never enters the index. *)
  let route_in s =
    if not s.pruned then begin
      let p = s.sub_process in
      Routing.add p.route ~param:s.param
        ~compare:(fun a b -> Int.compare b.sid a.sid)
        s;
      Option.iter (fun rf -> Factored.add p.prefilter ~id:s.sid rf) s.rfilter
    end

  let activate s =
    if s.active then
      Errors.cannot_subscribe "subscription %d is already activated" s.sid;
    ensure_channels s;
    s.active <- true;
    route_in s;
    send_ctl s `Sub;
    emit_meta s.sub_process ~cls:"SubscriptionActivated" ~sid:s.sid
      ~param:s.param

  let activate_durable s ~id =
    if s.active then
      Errors.cannot_subscribe "subscription %d is already activated" s.sid;
    let p = s.sub_process in
    let key = Printf.sprintf "dursub:%d" id in
    (match Stable.get p.cert_storage key with
    | Some param when param <> s.param ->
        Errors.cannot_subscribe
          "durable id %d is bound to type %s, not %s" id param s.param
    | Some _ | None -> ());
    Stable.put p.cert_storage key s.param;
    s.durable <- Some id;
    ensure_channels s;
    s.active <- true;
    route_in s;
    send_ctl s `Sub;
    emit_meta p ~cls:"SubscriptionActivated" ~sid:s.sid ~param:s.param

  let activate_replay s ~from =
    if s.active then
      Errors.cannot_subscribe "subscription %d is already activated" s.sid;
    if from < 0 then
      Errors.cannot_subscribe "replay offset %d is negative" from;
    ensure_channels s;
    s.active <- true;
    route_in s;
    send_ctl s `Sub;
    emit_meta s.sub_process ~cls:"SubscriptionActivated" ~sid:s.sid
      ~param:s.param;
    (* Catch-up-then-live: pull retained certified history from every
       matching channel. History lands only on this subscription (the
       rest of the process saw it live); anything at or past the live
       frontier splices into ordinary certified delivery for
       everyone. *)
    let p = s.sub_process in
    let d = p.dom in
    List.iter
      (fun cls ->
        if Registry.subtype d.registry cls s.param then
          match Hashtbl.find_opt p.channels cls with
          | None -> ()
          | Some stack -> (
              match Stack.certified stack with
              | None -> ()
              | Some c ->
                  Certified.replay c ~from
                    ~sink:(fun ~origin:_ ~seq:_ envelope ->
                      replay_event p s cls envelope)
                    ()))
      (Registry.obvent_classes d.registry)

  let deactivate s =
    if not s.active then
      Errors.cannot_unsubscribe "subscription %d is not activated" s.sid;
    s.active <- false;
    let p = s.sub_process in
    Routing.remove p.route ~param:s.param (fun x -> x.sid = s.sid);
    Factored.remove p.prefilter ~id:s.sid;
    send_ctl s `Unsub;
    emit_meta s.sub_process ~cls:"SubscriptionDeactivated" ~sid:s.sid
      ~param:s.param
end

(* --- processes -------------------------------------------------------------------- *)

module Process = struct
  type t = process

  let node p = p.node
  let domain p = p.dom

  let subscriptions p = List.rev p.subs

  let routing_stats p = Routing.stats p.route

  let create d ?storage ?rmi node =
    if List.exists (fun p -> p.node = node) d.processes then
      invalid_arg "Process.create: node already has a process";
    if Hashtbl.length d.channel_meta > 0 then
      invalid_arg
        "Process.create: create all processes before opening channels";
    let storage =
      match storage with Some s -> s | None -> Stable.create ()
    in
    (* S2: a group-commit storage defers its fsync to the engine tick
       barrier — register it (and make sure the barrier exists). *)
    if Stable.grouped storage then begin
      d.flush_storages <- d.flush_storages @ [ storage ];
      install_barrier d
    end;
    let p =
      {
        dom = d;
        node;
        rmi;
        cert_storage = storage;
        channels = Hashtbl.create 8;
        route = Routing.create d.registry;
        prefilter = Factored.create ();
        txq = [];
        tx_armed = false;
        tx_next_seq = 0;
        subs = [];
        interest = Hashtbl.create 16;
      }
    in
    (* Broker deliveries can arrive on any process; on_event itself
       handles a delivery that races channel registration. *)
    Net.set_handler d.net node ~port:del_port (fun _src bytes ->
        match decode_routed bytes with
        | Some (cls, envelope) -> on_event p cls envelope
        | None -> d.st.decode_errors <- d.st.decode_errors + 1);
    d.processes <- p :: d.processes;
    p

  let var_types env =
    List.map
      (fun (x, v) ->
        match Vtype.of_kind (Value.kind v) with
        | Some t -> x, t
        | None ->
            Errors.cannot_subscribe
              "captured variable %s has an untypeable binding" x)
      env

  let subscribe p ~param ?(filter = Fspec.Accept_all) ?(service_time = 0)
      handler =
    let d = p.dom in
    if not (Registry.exists d.registry param) then
      Errors.cannot_subscribe "unknown type %s" param;
    if not (Registry.is_obvent_type d.registry param) then
      Errors.cannot_subscribe "type %s does not widen to Obvent" param;
    (* LP1: the filter is typechecked against the subscribed type at
       subscription-creation time. *)
    let rfilter =
      match filter with
      | Fspec.Accept_all -> None
      | Fspec.Closure _ -> None
      | Fspec.Tree (e, env) -> (
          let vars = var_types env in
          (match Typecheck.check_filter d.registry ~param ~vars e with
          | () -> ()
          | exception Typecheck.Ill_typed err ->
              Errors.cannot_subscribe "ill-typed filter: %a" Typecheck.pp_error
                err);
          (* Same normalization as the psc compiler: folding redundant
             boolean structure lets more filters lift to atom form. *)
          let e = Fexpr.simplify e in
          match Mobility.classify d.registry ~param ~vars e with
          | Mobility.Local_only _ -> None
          | Mobility.Mobile -> Rfilter.of_expr ~env ~param e)
    in
    (* Static analysis feeding the engine: with the subscription-time
       bindings substituted in, an unsatisfiable verdict is sound even
       for variable-capturing filters — skip the routing index and the
       filtering hosts for such a subscription entirely. *)
    let pruned =
      match rfilter with Some rf -> Subsume.unsat rf | None -> false
    in
    let profile = fst (Qos.of_type d.registry param) in
    let default_policy =
      (* Multi-threading by default, except for ordered obvents
         (§3.3.5). *)
      if profile.Qos.order <> Qos.No_order then Dispatch.Single
      else Dispatch.Multi max_int
    in
    let sid = d.next_sid in
    d.next_sid <- sid + 1;
    let s =
      {
        sid;
        sub_process = p;
        param;
        filter;
        rfilter;
        pruned;
        dispatch =
          Dispatch.create (Net.engine d.net) ~service_time default_policy
            handler;
        active = false;
        durable = None;
        delivered = 0;
      }
    in
    if pruned then begin
      d.st.filters_pruned <- d.st.filters_pruned + 1;
      Trace.Counter.incr d.obs.c_filters_pruned;
      if Trace.emitting d.obs.tr then
        Trace.emit d.obs.tr ~layer:"core" ~kind:"filter_pruned" ~node:p.node
          ~data:[ ("sid", Trace.I sid); ("param", Trace.S param) ] ()
    end;
    (* Parallel dispatch: Multi-policy handler bodies run on the pool
       while it lives, inline after [Domain.shutdown]. Single and
       Class_serial policies stay inline on the engine thread (see
       Dispatch.set_executor). *)
    if Option.is_some d.pool then
      Dispatch.set_executor s.dispatch (fun task ->
          match d.pool with
          | Some pool -> Pool.submit pool task
          | None -> task ());
    p.subs <- s :: p.subs;
    s

  let publish_now p obvent =
    let d = p.dom in
    if not (Net.alive d.net p.node) then
      Errors.cannot_publish "publishing process %d is crashed" p.node;
    let cls = Obvent.cls obvent in
    let meta = ensure_channel d cls in
    d.st.published <- d.st.published + 1;
    Trace.Counter.incr d.obs.c_published;
    let eid = p.node, d.next_eid in
    d.next_eid <- d.next_eid + 1;
    if Trace.emitting d.obs.tr then
      Trace.emit d.obs.tr ~layer:"core" ~kind:"publish" ~node:p.node ~id:eid
        ~data:[ ("cls", Trace.S cls) ] ();
    let publish_time = now_of d in
    let out =
      match d.remote with
      | Some _ -> Remote_obvent { publish_time; eid; obvent = Obvent.to_value obvent }
      | None -> Envelope (encode_envelope ~publish_time ~eid obvent)
    in
    if meta.profile.Qos.prioritary || meta.profile.Qos.timely then begin
      let entry =
        {
          tx_cls = cls;
          tx_out = out;
          tx_prio = Obvent.priority d.registry obvent;
          tx_birth = Obvent.birth d.registry obvent;
          tx_ttl = Obvent.time_to_live d.registry obvent;
          tx_seq = p.tx_next_seq;
        }
      in
      p.tx_next_seq <- p.tx_next_seq + 1;
      p.txq <- entry :: p.txq;
      arm_tx p
    end
    else transmit p cls out

  (* Hand-off: a handler running on a pool worker must not
     mutate engine state (channel tables, the event heap) from its
     domain — its publish is queued and applied on the engine thread
     at the tick barrier. On the engine thread this is just
     publish_now. *)
  let publish p obvent =
    if Pool.on_worker () then begin
      let d = p.dom in
      Mutex.lock d.handoff_mutex;
      Queue.push (fun () -> publish_now p obvent) d.handoff;
      Mutex.unlock d.handoff_mutex
    end
    else publish_now p obvent

  let resume p =
    p.tx_armed <- false;
    Hashtbl.iter (fun _ stack -> Stack.resume stack) p.channels;
    List.iter (fun s -> if s.active then Subscription.send_ctl s `Sub) p.subs;
    arm_tx p
end

let () =
  publish_meta_fwd :=
    fun p ~cls ~sid ~param ->
      let d = p.dom in
      if Net.alive d.net p.node then
        Process.publish p
          (Obvent.make d.registry cls
             [ "subscriptionId", Value.Int sid; "nodeId", Value.Int p.node;
               "subscribedType", Value.Str param ])

(* --- remote broker connection ---------------------------------------------------------- *)

module Remote = struct
  let encode_envelope = encode_envelope
  let envelope_length = envelope_length
  let write_envelope = write_envelope
  let decode_envelope = decode_envelope
  let decode_envelope_sub = decode_envelope_sub

  type t = remote = {
    r_publish :
      cls:string -> publish_time:int -> eid:int * int -> Value.t -> unit;
    r_subscribe : sid:int -> param:string -> filter:Value.t -> unit;
    r_unsubscribe : sid:int -> unit;
  }

  let connect d p endpoint =
    (match d.remote with
    | Some _ -> invalid_arg "Remote.connect: domain is already connected"
    | None -> ());
    if not (p.dom == d) then
      invalid_arg "Remote.connect: process belongs to another domain";
    if Hashtbl.length d.channel_meta > 0 then
      invalid_arg "Remote.connect: connect before opening channels";
    d.remote <- Some endpoint;
    fun ~cls bytes ~off ~len -> on_event_sub p cls bytes ~off ~len
end

(* --- broker designation --------------------------------------------------------------- *)

(* The sim shell over [Broker_core]: control and publish frames arrive
   on the host's node, forwards leave on [del_port], one per subscriber
   node the core routes to. Subscriptions are keyed by their global
   sid, so forward order follows sid order. *)
let add_broker d p =
  if List.exists (fun b -> b.b_process.node = p.node) d.brokers then
    invalid_arg "add_broker: node is already a filtering host";
  let core = Broker_core.create ~covering:true ~equal:Int.equal d.registry in
  d.brokers <- { b_process = p; b_core = core } :: d.brokers;
  let decode_error () =
    d.st.decode_errors <- d.st.decode_errors + 1;
    Trace.Counter.incr d.obs.c_decode_errors
  in
  Net.set_handler d.net p.node ~port:pub_port (fun _src bytes ->
      match decode_routed bytes with
      | None -> decode_error ()
      | Some (cls, envelope) -> (
          let st = d.st in
          st.broker_events <- st.broker_events + 1;
          match decode_envelope envelope with
          | None -> decode_error ()
          | Some (_, eid, obvent_bytes) ->
              List.iter
                (fun node ->
                  st.broker_forwards <- st.broker_forwards + 1;
                  Trace.Counter.incr d.obs.c_broker_forwards;
                  if Trace.emitting d.obs.tr then
                    Trace.emit d.obs.tr ~layer:"broker" ~kind:"forward"
                      ~node:p.node ~id:eid
                      ~data:[ ("dst", Trace.I node) ]
                      ();
                  Net.send d.net ~src:p.node ~dst:node ~port:del_port
                    (encode_routed ~cls envelope))
                (Broker_core.route core ~cls obvent_bytes ~off:0
                   ~len:(String.length obvent_bytes))));
  Net.set_handler d.net p.node ~port:ctl_port (fun _src bytes ->
      match Codec.decode bytes with
      | List [ Str "sub"; Int sid; Int node; Str param; filt ] ->
          Broker_core.subscribe core ~id:sid ~dest:node ~param filt
      | List [ Str "unsub"; Int sid ] -> Broker_core.unsubscribe core sid
      | _ | (exception Codec.Decode_error _) -> decode_error ())

let broker_filter_stats d =
  match brokers_in_order d with
  | [] -> None
  | b :: _ -> Some (Broker_core.filter_stats b.b_core)

let per_broker_filter_stats d =
  List.map (fun b -> Broker_core.filter_stats b.b_core) (brokers_in_order d)

let per_broker_routing_stats d =
  List.map (fun b -> Broker_core.routing_stats b.b_core) (brokers_in_order d)
