(* E9 — Handler thread semantics (§3.3.5).

   A burst of obvents against a slow handler (fixed service time)
   under the two policies the paper defines (plus a bounded pool).
   Single-threading serializes — peak backlog grows, completion time
   stretches; multi-threading overlaps. The engine's default is also
   checked: ordered obvents default to single-threading. *)

module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Pubsub = Tpbs_core.Pubsub
module Dispatch = Tpbs_core.Dispatch
module Rng = Tpbs_sim.Rng
module Pool = Tpbs_core.Pool

let burst = 40
let service_time = 8_000

let run_policy policy_name set_policy =
  let reg = Workload.registry () in
  let engine = Engine.create ~seed:12 () in
  let net = Net.create ~config:{ Net.default_config with jitter = 0 } engine in
  let domain = Pubsub.Domain.create reg net in
  let publisher = Pubsub.Process.create domain (Net.add_node net) in
  let subscriber = Pubsub.Process.create domain (Net.add_node net) in
  let last_done = ref 0 in
  let s =
    Pubsub.Process.subscribe subscriber ~param:"StockQuote" ~service_time
      (fun _ -> last_done := Engine.now engine)
  in
  set_policy s;
  Pubsub.Subscription.activate s;
  let rng = Rng.create 9 in
  for _ = 1 to burst do
    Pubsub.Process.publish publisher
      (Workload.random_event reg rng ~cls:"StockQuote" ())
  done;
  Engine.run engine;
  let st = Pubsub.Subscription.dispatch_stats s in
  Fmt.pr "%-14s %8d  %11d  %10d  %12d@." policy_name st.Dispatch.executed
    st.Dispatch.max_overlap st.Dispatch.peak_queue
    (Engine.now engine)

(* E9b — Multi handler bodies on real domains, by the wall clock.

   Three handler arms, each at 1 domain (inline) and 2 (the pool):
   no-op handlers, one CPU-bound handler per delivery, and eight per
   delivery. A CPU-bound body spins about 0.4 ms. Publishes are
   spaced [gap] ticks apart, so each delivery has a tick of its own
   and the tick barrier joins the pool after every delivery: only the
   handlers of one delivery can overlap. The virtual-time schedule
   (executed, finished-at) is the same at both domain counts; the
   wall and process CPU times of [Engine.run] are the median and
   min-max of [trials] runs. The no-op arm prices the hand-off: its
   extra wall time at 2 domains per pool task. *)

let trials = 5
let gap = 10

(* About 0.4 ms of CPU, whatever domain runs it. *)
let burn () =
  let x = ref 0 in
  for i = 1 to 180_000 do
    x := ((!x * 1103515245) + i) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !x)

let median_range xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  a.(Array.length a / 2), a.(0), a.(Array.length a - 1)

let show (med, lo, hi) = Printf.sprintf "%8.1f [%6.1f-%6.1f]" med lo hi

(* One trial: [events] StockQuotes, each delivered to [max 1
   per_delivery] Multi subscriptions (no-op bodies when
   [per_delivery = 0]). Returns executed, finished-at, pool tasks, wall
   ms and process CPU ms. *)
let pool_trial ~domains ~per_delivery ~events =
  let reg = Workload.registry () in
  let engine = Engine.create ~seed:12 () in
  let net = Net.create ~config:{ Net.default_config with jitter = 0 } engine in
  let domain = Pubsub.Domain.create ~domains reg net in
  let publisher = Pubsub.Process.create domain (Net.add_node net) in
  let subscriber = Pubsub.Process.create domain (Net.add_node net) in
  let body = if per_delivery = 0 then ignore else fun _ -> burn () in
  let subs =
    List.init (max 1 per_delivery) (fun _ ->
        let s = Pubsub.Process.subscribe subscriber ~param:"StockQuote" body in
        Pubsub.Subscription.activate s;
        s)
  in
  let rng = Rng.create 9 in
  for i = 0 to events - 1 do
    let o = Workload.random_event reg rng ~cls:"StockQuote" () in
    Engine.schedule engine ~delay:(i * gap) (fun () ->
        Pubsub.Process.publish publisher o)
  done;
  let tasks () =
    match Pubsub.Domain.pool_stats domain with
    | None -> 0
    | Some st -> st.Pool.tasks
  in
  let tasks0 = tasks () in
  let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
  Engine.run engine;
  let wall = (Unix.gettimeofday () -. wall0) *. 1000.
  and cpu = (Sys.time () -. cpu0) *. 1000. in
  let tasks = tasks () - tasks0 in
  Pubsub.Domain.shutdown domain;
  let executed =
    List.fold_left
      (fun acc s ->
        acc + (Pubsub.Subscription.dispatch_stats s).Dispatch.executed)
      0 subs
  in
  executed, Engine.now engine, tasks, wall, cpu

let run_domains () =
  Workload.table_header
    (Printf.sprintf
       "E9b Multi handler bodies on the domain pool (wall clock, %d trials)"
       trials)
    [ "handlers"; "domains"; "executed"; "finished-at"; "pool-tasks";
      "wall-ms med [min-max]"; "cpu-ms med [min-max]" ];
  let noop_wall = Array.make 2 0.0 and noop_tasks = ref 0 in
  List.iter
    (fun (label, per_delivery, events) ->
      List.iter
        (fun domains ->
          let runs =
            List.init trials (fun _ ->
                pool_trial ~domains ~per_delivery ~events)
          in
          let executed, finished, tasks, _, _ = List.hd runs in
          let wall = median_range (List.map (fun (_, _, _, w, _) -> w) runs) in
          let cpu = median_range (List.map (fun (_, _, _, _, c) -> c) runs) in
          if per_delivery = 0 then begin
            let med, _, _ = wall in
            noop_wall.(domains - 1) <- med;
            noop_tasks := tasks
          end;
          Fmt.pr "%-8s  %7d  %8d  %11d  %10d  %s  %s@." label domains executed
            finished tasks (show wall) (show cpu))
        [ 1; 2 ])
    [ "no-op", 0, 2000; "1 x cpu", 1, 400; "8 x cpu", 8, 100 ];
  Fmt.pr "hand-off cost (no-op arm): %.2f us per pool task@."
    ((noop_wall.(1) -. noop_wall.(0)) *. 1000.
    /. float_of_int (max 1 !noop_tasks))

let run () =
  Workload.table_header
    (Printf.sprintf
       "E9  thread policies: burst of %d obvents, handler takes %d ticks"
       burst service_time)
    [ "policy"; "executed"; "max-overlap"; "peak-queue"; "finished-at" ];
  run_policy "multi" (fun _ -> ());
  run_policy "multi(4)" (fun s -> Pubsub.Subscription.set_multi_threading s ~max:4);
  run_policy "single" Pubsub.Subscription.set_single_threading;
  (* Default policy for ordered obvents is single (§3.3.5). *)
  let reg = Workload.registry () in
  let engine = Engine.create () in
  let net = Net.create engine in
  let domain = Pubsub.Domain.create reg net in
  let p = Pubsub.Process.create domain (Net.add_node net) in
  let s_total = Pubsub.Process.subscribe p ~param:"TotalQuote" (fun _ -> ()) in
  ignore s_total;
  Fmt.pr "(ordered classes default to single-threaded handlers)@.";
  run_domains ()
