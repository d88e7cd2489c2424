(* In-memory span store for the traced run. A span is (name, start,
   stop, parent, id), timed on the monotonic clock in nanoseconds around
   calls into one layer's public functions; [id] is the event's seq
   (or -1 for loop-level spans). Nothing is written until the run ends. *)

module Vec = struct
  type 'a t = { mutable a : 'a array; dummy : 'a }

  let create ?(capacity = 4096) dummy = { a = Array.make (max 1 capacity) dummy; dummy }
  let reset v = v.a <- Array.make 4096 v.dummy
  let get v i = if i < Array.length v.a then v.a.(i) else v.dummy

  let set v i x =
    if i >= Array.length v.a then begin
      let b = Array.make (max (i + 1) (2 * Array.length v.a)) v.dummy in
      Array.blit v.a 0 b 0 (Array.length v.a);
      v.a <- b
    end;
    v.a.(i) <- x
end

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type name = Event | Make | Publish | Pub_poll | Sub_poll | Sub_engine | Handler

let name_string = function
  | Event -> "event"
  | Make -> "obvent.make"
  | Publish -> "core.publish"
  | Pub_poll -> "client_pub.poll"
  | Sub_poll -> "client_sub.poll"
  | Sub_engine -> "engine_sub.run"
  | Handler -> "handler"

let all_names = [ Event; Make; Publish; Pub_poll; Sub_poll; Sub_engine; Handler ]

type t = {
  name : name Vec.t;
  start : int Vec.t;
  stop : int Vec.t;  (* -1 while open *)
  parent : int Vec.t;
  id : int Vec.t;
  mutable n : int;
}

let create () =
  {
    name = Vec.create Event;
    start = Vec.create 0;
    stop = Vec.create (-1);
    parent = Vec.create (-1);
    id = Vec.create (-1);
    n = 0;
  }

let add t name ~start ~stop ~parent ~id =
  let i = t.n in
  Vec.set t.name i name;
  Vec.set t.start i start;
  Vec.set t.stop i stop;
  Vec.set t.parent i parent;
  Vec.set t.id i id;
  t.n <- i + 1;
  i

let close t i stop = Vec.set t.stop i stop

(* Undo the last [add]: an opened loop span that turned out idle. *)
let drop_last t = t.n <- t.n - 1

(* End event [id]'s span [i], unless the store was cleared since. *)
let close_event t i ~id stop =
  if i >= 0 && i < t.n && Vec.get t.name i = Event && Vec.get t.id i = id then
    close t i stop

(* Forget every span and release the memory they held. *)
let clear t =
  t.n <- 0;
  Vec.reset t.name;
  Vec.reset t.start;
  Vec.reset t.stop;
  Vec.reset t.parent;
  Vec.reset t.id

let duration t i =
  let s = Vec.get t.stop i in
  if s < 0 then 0 else s - Vec.get t.start i

(* Self time of every span in [lo, hi): its duration minus the part its
   direct children cover (children of one span never overlap). *)
let self_times t ~lo ~hi =
  let covered = Array.make (hi - lo) 0 in
  for i = lo to hi - 1 do
    let p = Vec.get t.parent i in
    if p >= lo && p < hi then covered.(p - lo) <- covered.(p - lo) + duration t i
  done;
  Array.init (hi - lo) (fun k -> duration t (lo + k) - covered.(k))

type agg = { count : int; total_ns : int; self_ns : int }

(* Closed spans of one name in [lo, hi). *)
let aggregate t ~lo ~hi name =
  let self = self_times t ~lo ~hi in
  let count = ref 0 and total = ref 0 and selft = ref 0 in
  for i = lo to hi - 1 do
    if Vec.get t.name i = name && Vec.get t.stop i >= 0 then begin
      incr count;
      total := !total + duration t i;
      selft := !selft + self.(i - lo)
    end
  done;
  { count = !count; total_ns = !total; self_ns = !selft }

(* JSONL, one closed span per line, at most [limit] lines. *)
let write_jsonl t ~lo ~hi ~limit path =
  let self = self_times t ~lo ~hi in
  let oc = open_out path in
  let written = ref 0 in
  for i = lo to hi - 1 do
    if !written < limit && Vec.get t.stop i >= 0 then begin
      incr written;
      Printf.fprintf oc
        "{\"span\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d,\"parent\":%d,\"id\":%d}\n"
        i
        (name_string (Vec.get t.name i))
        (Vec.get t.start i) (Vec.get t.stop i) self.(i - lo) (Vec.get t.parent i)
        (Vec.get t.id i)
    end
  done;
  close_out oc;
  !written
