module Engine = Tpbs_sim.Engine
module Obvent = Tpbs_obvent.Obvent

type policy = Single | Multi of int | Class_serial

(* A growable ring buffer (capacity a power of two). Free slots hold
   [fill], so an element taken out is no longer reachable from here. *)
module Ring = struct
  type 'a t = {
    fill : 'a;
    mutable slots : 'a array;
    mutable head : int;
    mutable len : int;
  }

  let create fill = { fill; slots = [||]; head = 0; len = 0 }
  let length q = q.len
  let nth q i = q.slots.((q.head + i) land (Array.length q.slots - 1))

  let push q x =
    let cap = Array.length q.slots in
    if q.len = cap then begin
      let fresh = Array.make (max 8 (2 * cap)) q.fill in
      for i = 0 to q.len - 1 do
        fresh.(i) <- nth q i
      done;
      q.slots <- fresh;
      q.head <- 0
    end;
    q.slots.((q.head + q.len) land (Array.length q.slots - 1)) <- x;
    q.len <- q.len + 1

  (* Remove and return element [i] (0 = oldest): the [i] elements
     before it move up one slot, so taking the head is O(1). *)
  let take q i =
    let mask = Array.length q.slots - 1 in
    let x = nth q i in
    for k = i downto 1 do
      q.slots.((q.head + k) land mask) <- q.slots.((q.head + k - 1) land mask)
    done;
    q.slots.(q.head) <- q.fill;
    q.head <- (q.head + 1) land mask;
    q.len <- q.len - 1;
    x
end

type t = {
  engine : Engine.t;
  service_time : int;
  mutable policy : policy;
  handler : Obvent.t -> unit;
  queue : Obvent.t Ring.t;  (* FIFO: oldest first *)
  running : string Ring.t;
      (* the classes of the handlers in flight, as a multiset: its
         length is the number of running handlers *)
  active_classes : (string, int) Hashtbl.t;
      (* per-class count of [running], kept only under Class_serial
         and rebuilt from [running] on a switch to it *)
  mutable executed : int;
  mutable max_overlap : int;
  mutable peak_queue : int;
  (* Optional offload seam for the domain pool: when set, [Multi]
     handler bodies run through this (a [Pool.submit] closure) instead
     of inline. [Single]/[Class_serial] always stay inline — their
     whole point is serialisation, which the engine thread provides
     for free. *)
  mutable executor : ((unit -> unit) -> unit) option;
}

let create engine ?(service_time = 0) policy handler =
  { engine; service_time; policy; handler; queue = Ring.create Obvent.placeholder;
    running = Ring.create ""; active_classes = Hashtbl.create 4;
    executed = 0; max_overlap = 0; peak_queue = 0; executor = None }

let class_active t cls =
  Option.value ~default:0 (Hashtbl.find_opt t.active_classes cls)

let active t = Ring.length t.running
let serial t = match t.policy with Class_serial -> true | Single | Multi _ -> false

(* Can an obvent of [cls] start right now? *)
let admissible t cls =
  match t.policy with
  | Single -> active t < 1
  | Multi n -> active t < max 1 n
  | Class_serial -> class_active t cls < 1

(* Drop one [cls] from the running multiset: the oldest entry is the
   one finishing unless a handler started another synchronously. *)
let rec index_of q cls i = if String.equal (Ring.nth q i) cls then i else index_of q cls (i + 1)
let remove_running t cls = ignore (Ring.take t.running (index_of t.running cls 0))

(* Index of the first queued obvent the policy admits, or -1. Under
   Single/Multi that can only be the head; under Class_serial later
   obvents of idle classes overtake a blocked head, and since every
   obvent of a busy class is blocked, per-class order is kept. *)
let rec first_idle t i =
  if i = Ring.length t.queue then -1
  else if class_active t (Obvent.cls (Ring.nth t.queue i)) < 1 then i
  else first_idle t (i + 1)

let pick t =
  if Ring.length t.queue = 0 then -1
  else
    match t.policy with
    | Single | Multi _ ->
        if admissible t (Obvent.cls (Ring.nth t.queue 0)) then 0 else -1
    | Class_serial -> first_idle t 0

let rec start t obvent =
  let cls = Obvent.cls obvent in
  Ring.push t.running cls;
  if serial t then
    Hashtbl.replace t.active_classes cls (class_active t cls + 1);
  t.executed <- t.executed + 1;
  if active t > t.max_overlap then t.max_overlap <- active t;
  (* A raising inline handler still finishes: otherwise its slot stays
     in [running] and a Single subscription never runs again. *)
  match
    match (t.executor, t.policy) with
    | Some run, Multi _ -> run (fun () -> t.handler obvent)
    | _ -> t.handler obvent
  with
  | () ->
      Engine.schedule t.engine ~delay:t.service_time (fun () -> finish t cls)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Engine.schedule t.engine ~delay:t.service_time (fun () -> finish t cls);
      Printexc.raise_with_backtrace e bt

and finish t cls =
  remove_running t cls;
  if serial t then begin
    match class_active t cls with
    | 1 -> Hashtbl.remove t.active_classes cls
    | n -> Hashtbl.replace t.active_classes cls (n - 1)
  end;
  drain t

and drain t =
  match pick t with
  | -1 -> ()
  | i ->
      start t (Ring.take t.queue i);
      drain t

let submit t obvent =
  (* Fairness: queued work goes first. *)
  if Ring.length t.queue = 0 && admissible t (Obvent.cls obvent) then
    start t obvent
  else begin
    Ring.push t.queue obvent;
    if Ring.length t.queue > t.peak_queue then
      t.peak_queue <- Ring.length t.queue;
    drain t
  end

let set_policy t policy =
  if (match policy with Class_serial -> true | Single | Multi _ -> false)
     && not (serial t)
  then begin
    Hashtbl.reset t.active_classes;
    for i = 0 to Ring.length t.running - 1 do
      let cls = Ring.nth t.running i in
      Hashtbl.replace t.active_classes cls (class_active t cls + 1)
    done
  end;
  t.policy <- policy;
  drain t

let policy t = t.policy
let set_executor t run = t.executor <- Some run

type stats = { executed : int; max_overlap : int; peak_queue : int }

let stats (t : t) =
  { executed = t.executed; max_overlap = t.max_overlap;
    peak_queue = t.peak_queue }

let in_flight t = active t
