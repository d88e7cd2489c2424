(* Dispatch against a reference model: the original list-based
   dispatcher, kept here verbatim in behaviour (append with [@], rescan
   the whole list on every drain). Over random scripts of submit
   bursts, clock advances and policy switches — including handlers
   that submit or switch policy synchronously — the real dispatcher
   must start handlers in exactly the model's order and report the
   same statistics. *)

open Helpers
module Engine = Tpbs_sim.Engine
module Dispatch = Tpbs_core.Dispatch

module Model = struct
  type t = {
    engine : Engine.t;
    service_time : int;
    mutable policy : Dispatch.policy;
    handler : Obvent.t -> unit;
    mutable queue : Obvent.t list;
    mutable active : int;
    active_classes : (string, int) Hashtbl.t;
    mutable executed : int;
    mutable max_overlap : int;
    mutable peak_queue : int;
  }

  let create engine ~service_time policy handler =
    { engine; service_time; policy; handler; queue = []; active = 0;
      active_classes = Hashtbl.create 4; executed = 0; max_overlap = 0;
      peak_queue = 0 }

  let class_active t cls =
    Option.value ~default:0 (Hashtbl.find_opt t.active_classes cls)

  let admissible t obvent =
    match t.policy with
    | Dispatch.Single -> t.active < 1
    | Dispatch.Multi n -> t.active < max 1 n
    | Dispatch.Class_serial -> class_active t (Obvent.cls obvent) < 1

  let rec start t obvent =
    t.active <- t.active + 1;
    let cls = Obvent.cls obvent in
    Hashtbl.replace t.active_classes cls (class_active t cls + 1);
    t.executed <- t.executed + 1;
    if t.active > t.max_overlap then t.max_overlap <- t.active;
    t.handler obvent;
    Engine.schedule t.engine ~delay:t.service_time (fun () -> finish t cls)

  and finish t cls =
    t.active <- t.active - 1;
    (match class_active t cls with
    | 1 -> Hashtbl.remove t.active_classes cls
    | n -> Hashtbl.replace t.active_classes cls (n - 1));
    drain t

  and drain t =
    let rec pick seen = function
      | [] -> None
      | o :: rest ->
          if
            admissible t o
            && (t.policy <> Dispatch.Class_serial
               || not (List.exists (fun s -> Obvent.cls s = Obvent.cls o) seen))
          then Some (o, List.rev_append seen rest)
          else pick (o :: seen) rest
    in
    match pick [] t.queue with
    | None -> ()
    | Some (next, rest) ->
        t.queue <- rest;
        start t next;
        drain t

  let submit t obvent =
    let blocked_predecessor =
      t.policy = Dispatch.Class_serial
      && List.exists (fun o -> Obvent.cls o = Obvent.cls obvent) t.queue
    in
    if t.queue = [] && admissible t obvent && not blocked_predecessor then
      start t obvent
    else begin
      t.queue <- t.queue @ [ obvent ];
      if List.length t.queue > t.peak_queue then
        t.peak_queue <- List.length t.queue;
      drain t
    end

  let set_policy t policy =
    t.policy <- policy;
    drain t
end

type step = Burst of int list | Advance of int | Switch of Dispatch.policy

let classes = [| "StockQuote"; "SpotPrice"; "MarketPrice" |]

let gen_policy =
  QCheck.Gen.(
    oneof
      [ return Dispatch.Single; map (fun n -> Dispatch.Multi n) (int_range 0 4);
        return (Dispatch.Multi max_int); return Dispatch.Class_serial ])

let gen_step =
  QCheck.Gen.(
    frequency
      [ (5, map (fun l -> Burst l) (list_size (int_range 1 12) (int_range 0 2)));
        (3, map (fun d -> Advance d) (int_range 0 60));
        (2, map (fun p -> Switch p) gen_policy) ])

let pp_policy = function
  | Dispatch.Single -> "Single"
  | Dispatch.Multi n -> Printf.sprintf "Multi %d" n
  | Dispatch.Class_serial -> "Class_serial"

let pp_step = function
  | Burst l -> "burst " ^ String.concat "" (List.map string_of_int l)
  | Advance d -> Printf.sprintf "advance %d" d
  | Switch p -> "switch " ^ pp_policy p

(* A scenario: the initial policy, the service time, a handler
   behaviour seed (every [k]-th obvent re-submits a child or switches
   policy from inside its handler) and the script. *)
let arb_scenario =
  QCheck.make
    ~print:(fun (p, st, k, steps) ->
      Printf.sprintf "%s st=%d k=%d [%s]" (pp_policy p) st k
        (String.concat "; " (List.map pp_step steps)))
    QCheck.Gen.(
      quad gen_policy (int_range 0 40) (int_range 0 7)
        (list_size (int_range 1 40) gen_step))

(* Run one scenario against a dispatcher given as its three operations;
   returns the start order (obvent serial numbers). *)
let play (initial, service_time, k, steps) obvents ~create ~submit ~set_policy =
  let engine = Engine.create ~seed:3 () in
  let serial = Hashtbl.create 64 in
  Array.iteri (fun i o -> Hashtbl.replace serial (Obvent.uid o) i) obvents;
  let started = ref [] and next = ref 0 in
  let self = ref None in
  let handler o =
    let i = Hashtbl.find serial (Obvent.uid o) in
    started := i :: !started;
    (* Synchronous reentry from the handler, decided by the obvent alone
       so both dispatchers see the same behaviour. *)
    match !self with
    | Some d when k > 0 && i mod (k + 3) = 0 && !next < Array.length obvents ->
        let child = obvents.(!next) in
        incr next;
        submit d child
    | Some d when k > 0 && i mod (k + 5) = 1 ->
        set_policy d (if i land 2 = 0 then Dispatch.Class_serial else Dispatch.Single)
    | _ -> ()
  in
  let d = create engine ~service_time initial handler in
  self := Some d;
  List.iter
    (function
      | Burst l ->
          List.iter
            (fun _ ->
              if !next < Array.length obvents then begin
                let o = obvents.(!next) in
                incr next;
                submit d o
              end)
            l
      | Advance dt -> Engine.run ~until:(Engine.now engine + dt) engine
      | Switch p -> set_policy d p)
    steps;
  Engine.run engine;
  (d, List.rev !started)

let prop_dispatch_model =
  QCheck.Test.make ~name:"dispatch = list-based model (order and stats)"
    ~count:400 arb_scenario (fun ((_, _, _, steps) as sc) ->
      let reg = stock_registry () in
      let n =
        List.fold_left
          (fun acc -> function Burst l -> acc + List.length l | _ -> acc)
          0 steps
      in
      (* Burst members, then children, take obvents in this order. *)
      let picks = List.concat_map (function Burst l -> l | _ -> []) steps in
      let obvents =
        Array.of_list
          (List.map
             (fun c ->
               Obvent.make reg classes.(c)
                 [ "company", Value.Str "Acme"; "price", Value.Float 1.;
                   "amount", Value.Int 1 ])
             (picks @ List.init n (fun i -> i mod 3)))
      in
      let d, real =
        play sc obvents
          ~create:(fun engine ~service_time p h -> Dispatch.create engine ~service_time p h)
          ~submit:Dispatch.submit ~set_policy:Dispatch.set_policy
      in
      let m, model =
        play sc obvents ~create:Model.create ~submit:Model.submit
          ~set_policy:Model.set_policy
      in
      let st = Dispatch.stats d in
      if real <> model then
        QCheck.Test.fail_reportf "start order differs:@ real  %s@ model %s"
          (String.concat "," (List.map string_of_int real))
          (String.concat "," (List.map string_of_int model));
      st.Dispatch.executed = m.Model.executed
      && st.Dispatch.max_overlap = m.Model.max_overlap
      && st.Dispatch.peak_queue = m.Model.peak_queue
      && Dispatch.in_flight d = m.Model.active)

(* Submit a backlog of [n] obvents, cycling through [classes], each
   registered in [weak] only. *)
let[@inline never] submit_backlog reg d weak n =
  for i = 0 to n - 1 do
    let o =
      Obvent.make reg classes.(i mod Array.length classes)
        [ "company", Value.Str (String.make 64 'x'); "price", Value.Float 1.;
          "amount", Value.Int i ]
    in
    Weak.set weak i (Some o);
    Dispatch.submit d o
  done

(* Once every handler has run, the dispatcher holds none of the obvents
   it queued, whether they left the queue at its head (Single) or
   overtook a blocked one (Class_serial). *)
let test_no_retention () =
  let reg = stock_registry () in
  List.iter
    (fun policy ->
      let engine = Engine.create ~seed:1 () in
      let d = Dispatch.create engine ~service_time:5 policy ignore in
      let n = 20 in
      let weak = Weak.create n in
      submit_backlog reg d weak n;
      Engine.run engine;
      Gc.full_major ();
      let held = ref 0 in
      for i = 0 to n - 1 do
        if Weak.check weak i then incr held
      done;
      Alcotest.(check int) (pp_policy policy ^ ": obvents still reachable") 0 !held;
      Alcotest.(check int) "all ran" n (Dispatch.stats d).Dispatch.executed)
    [ Dispatch.Single; Dispatch.Class_serial ]

let suite =
  ( "dispatch",
    List.map QCheck_alcotest.to_alcotest [ prop_dispatch_model ]
    @ [ Alcotest.test_case "queued obvents are not retained" `Quick test_no_retention ] )
