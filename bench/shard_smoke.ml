(* SHARD — traced 2-domain pool smoke for CI.

   One pub/sub run with the dispatch pool at two domains: [events]
   Load obvents reach two Multi-policy subscriptions, and one of them
   republishes every tenth as an Echo from its worker (the hand-off
   queue) to a third subscription. Every handler body runs on the
   pool, so the run must count exactly [handler_bodies] pool tasks.
   The JSONL trace (metrics included) goes to $TPBS_TRACE_FILE
   (default "shard_smoke.jsonl") for

     tpbs_report shard_smoke.jsonl --require "pool.tasks:value==420"

   and the run itself exits 1 unless every subscription got every
   obvent published on its class. *)

module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Trace = Tpbs_trace.Trace
module Registry = Tpbs_types.Registry
module Vtype = Tpbs_types.Vtype
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module Pubsub = Tpbs_core.Pubsub
module Pool = Tpbs_core.Pool

let domains = 2
let events = 200
let echoes = events / 10
let handler_bodies = (2 * events) + echoes

let run () =
  let engine = Engine.create ~seed:41 () in
  let tr = Trace.create ~clock:(fun () -> Engine.now engine) () in
  Trace.set_sink tr (Some (Buffer.create (1 lsl 14)));
  Trace.set_ambient tr;
  let reg = Registry.create () in
  List.iter
    (fun name ->
      Registry.declare_class reg ~name ~implements:[ "Obvent" ]
        ~attrs:[ "n", Vtype.Tint ] ())
    [ "Load"; "Echo" ];
  let net = Net.create engine in
  let domain = Pubsub.Domain.create ~domains reg net in
  let pub = Pubsub.Process.create domain (Net.add_node net) in
  let sub = Pubsub.Process.create domain (Net.add_node net) in
  let listener = Pubsub.Process.create domain (Net.add_node net) in
  let bodies = Atomic.make 0 in
  let subscribe p param handler =
    let s =
      Pubsub.Process.subscribe p ~param (fun o ->
          Atomic.incr bodies;
          handler o)
    in
    Pubsub.Subscription.activate s;
    s
  in
  let echo =
    subscribe sub "Load" (fun o ->
        match Obvent.get o "n" with
        | Value.Int n when n mod 10 = 0 ->
            Pubsub.Process.publish sub
              (Obvent.make reg "Echo" [ "n", Value.Int n ])
        | _ -> ())
  in
  let plain = subscribe sub "Load" ignore in
  let heard = subscribe listener "Echo" ignore in
  for j = 0 to events - 1 do
    Pubsub.Process.publish pub (Obvent.make reg "Load" [ "n", Value.Int j ])
  done;
  Engine.run engine;
  let pool_tasks =
    match Pubsub.Domain.pool_stats domain with
    | None -> 0
    | Some st -> st.Pool.tasks
  in
  Pubsub.Domain.shutdown domain;
  let path = Workload.trace_path ~default:"shard_smoke.jsonl" () in
  Trace.write_file tr path;
  Trace.set_ambient (Trace.create ());
  let delivered = Pubsub.Subscription.delivered in
  Fmt.pr "@.SHARD  pool smoke (domains=%d)@." domains;
  Fmt.pr "delivered=%d+%d/%d echoes=%d/%d bodies=%d pool_tasks=%d/%d virt=%d \
          trace -> %s@."
    (delivered echo) (delivered plain) events (delivered heard) echoes
    (Atomic.get bodies) pool_tasks handler_bodies (Engine.now engine) path;
  if
    delivered echo <> events
    || delivered plain <> events
    || delivered heard <> echoes
  then begin
    Fmt.epr "shard smoke: a subscription missed obvents@.";
    exit 1
  end;
  if Atomic.get bodies <> handler_bodies || pool_tasks <> handler_bodies
  then begin
    Fmt.epr "shard smoke: %d handler bodies and %d pool tasks, expected %d@."
      (Atomic.get bodies) pool_tasks handler_bodies;
    exit 1
  end
