type time = int

(* Binary min-heap on (time, seq): seq breaks ties so that actions
   scheduled first run first — determinism under equal timestamps. *)
type entry = { at : time; seq : int; action : unit -> unit }

type t = {
  mutable heap : entry array;
  mutable size : int;
  mutable clock : time;
  mutable next_seq : int;
  rng : Rng.t;
  mutable tick_barriers : (unit -> unit) list;
      (* joined whenever virtual time is about to advance (and once
         more when the heap drains): the pooled engine parks its
         domain-pool join and group-commit flush here, so parallel
         work of one tick completes before the next tick's actions
         observe it. Empty list = the seed engine's exact loop. *)
}

let dummy = { at = 0; seq = 0; action = (fun () -> ()) }

let create ?(seed = 42) () =
  { heap = Array.make 256 dummy; size = 0; clock = 0; next_seq = 0;
    rng = Rng.create seed; tick_barriers = [] }

let add_tick_barrier t f = t.tick_barriers <- t.tick_barriers @ [ f ]

let now t = t.clock
let rng t = t.rng
let pending t = t.size

let earlier a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let push t e =
  if t.size = Array.length t.heap then begin
    let fresh = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 fresh 0 t.size;
    t.heap <- fresh
  end;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- e;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if earlier t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

(* Remove and return the earliest entry of a non-empty heap. *)
let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  top

let schedule_at t at action =
  let at = max at t.clock in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t { at; seq; action }

let schedule t ~delay action = schedule_at t (t.clock + max 0 delay) action

let every t ~period ?(jitter = 0) body =
  if period <= 0 then invalid_arg "Engine.every: non-positive period";
  let rec tick () =
    if body () then begin
      let noise = if jitter > 0 then Rng.int t.rng (2 * jitter) - jitter else 0 in
      schedule t ~delay:(max 1 (period + noise)) tick
    end
  in
  schedule t ~delay:period tick

let step t =
  t.size > 0
  &&
  let e = pop t in
  t.clock <- e.at;
  e.action ();
  true

let run ?until t =
  let continue = ref true in
  while !continue do
    (* Tick barrier: fires once per clock advancement (the heap top is
       past [clock]) and when the heap drains, before the next action
       runs — a barrier may schedule follow-up work (e.g. publishes
       handed off from pool workers), which the loop then picks up. *)
    (match t.tick_barriers with
    | [] -> ()
    | barriers ->
        if t.size = 0 || t.heap.(0).at > t.clock then
          List.iter (fun f -> f ()) barriers);
    match until with
    | Some limit -> (
        (* Peek: stop before executing an action beyond the horizon. *)
        if t.size = 0 then continue := false
        else if t.heap.(0).at > limit then begin
          t.clock <- limit;
          continue := false
        end
        else ignore (step t))
    | None -> if not (step t) then continue := false
  done
