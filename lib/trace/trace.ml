(* Counters and gauges are [Atomic] so the engine's domain workers
   (lib/core's dispatch pool) can bump them concurrently with
   the engine thread without losing updates. On the single-domain
   path an uncontended fetch-and-add costs the same handful of
   nanoseconds as the plain int it replaced. Histograms stay
   engine-thread-owned: every recording site runs on the tick thread. *)
module Counter = struct
  type t = { name : string; count : int Atomic.t }

  let incr t = ignore (Atomic.fetch_and_add t.count 1)
  let add t n = ignore (Atomic.fetch_and_add t.count n)
  let value t = Atomic.get t.count
  let name t = t.name
end

module Gauge = struct
  type t = { name : string; level : int Atomic.t; peak : int Atomic.t }

  (* Monotone peak via CAS so concurrent setters never regress it. A
     top-level loop: a local one would allocate its closure per set. *)
  let rec raise_peak t v =
    let p = Atomic.get t.peak in
    if v > p && not (Atomic.compare_and_set t.peak p v) then raise_peak t v

  let set t v =
    Atomic.set t.level v;
    raise_peak t v

  let value t = Atomic.get t.level
  let peak t = Atomic.get t.peak
  let name t = t.name
end

type t = {
  mutable clock : unit -> int;
  counters : (string, Counter.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  mutable sink : Buffer.t option;
  mutable detailed : bool;
}

let create ?(clock = fun () -> 0) () =
  {
    clock;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    histograms = Hashtbl.create 16;
    sink = None;
    detailed = false;
  }

let set_clock t clock = t.clock <- clock

let ambient_registry = ref (create ())
let ambient () = !ambient_registry
let set_ambient t = ambient_registry := t

let ambient_cached resolve =
  let cached = ref None in
  fun () ->
    let tr = !ambient_registry in
    match !cached with
    | Some (tr', v) when tr' == tr -> v
    | Some _ | None ->
        let v = resolve tr in
        cached := Some (tr, v);
        v

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { Counter.name; count = Atomic.make 0 } in
      Hashtbl.add t.counters name c;
      c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { Gauge.name; level = Atomic.make 0; peak = Atomic.make 0 } in
      Hashtbl.add t.gauges name g;
      g

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.histograms name h;
      h

let register_histogram t name h = Hashtbl.replace t.histograms name h
let set_sink t sink = t.sink <- sink
let emitting t = t.sink <> None
let set_detailed t d = t.detailed <- d
let detailed t = t.detailed

type field = I of int | S of string | F of float

let add_float buf x =
  (* %.12g is precise enough for our summaries and never prints the
     locale-dependent forms JSON forbids. *)
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" x)
  else Buffer.add_string buf (Printf.sprintf "%.12g" x)

let emit t ~layer ~kind ?node ?id ?(data = []) () =
  match t.sink with
  | None -> ()
  | Some buf ->
      Buffer.add_string buf "{\"t\":";
      Buffer.add_string buf (string_of_int (t.clock ()));
      Buffer.add_string buf ",\"layer\":\"";
      Jsonl.escape_into buf layer;
      Buffer.add_string buf "\",\"kind\":\"";
      Jsonl.escape_into buf kind;
      Buffer.add_char buf '"';
      (match node with
      | Some n ->
          Buffer.add_string buf ",\"node\":";
          Buffer.add_string buf (string_of_int n)
      | None -> ());
      (match id with
      | Some (origin, seq) ->
          Buffer.add_string buf ",\"id\":\"";
          Buffer.add_string buf (string_of_int origin);
          Buffer.add_char buf ':';
          Buffer.add_string buf (string_of_int seq);
          Buffer.add_char buf '"'
      | None -> ());
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf ",\"";
          Jsonl.escape_into buf k;
          Buffer.add_string buf "\":";
          match v with
          | I i -> Buffer.add_string buf (string_of_int i)
          | F x -> add_float buf x
          | S s ->
              Buffer.add_char buf '"';
              Jsonl.escape_into buf s;
              Buffer.add_char buf '"')
        data;
      Buffer.add_string buf "}\n"

let sorted_names tbl =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let metrics_to_jsonl t buf =
  List.iter
    (fun name ->
      let c = Hashtbl.find t.counters name in
      Buffer.add_string buf "{\"metric\":\"counter\",\"name\":\"";
      Jsonl.escape_into buf name;
      Buffer.add_string buf "\",\"value\":";
      Buffer.add_string buf (string_of_int (Counter.value c));
      Buffer.add_string buf "}\n")
    (sorted_names t.counters);
  List.iter
    (fun name ->
      let g = Hashtbl.find t.gauges name in
      Buffer.add_string buf "{\"metric\":\"gauge\",\"name\":\"";
      Jsonl.escape_into buf name;
      Buffer.add_string buf "\",\"level\":";
      Buffer.add_string buf (string_of_int (Gauge.value g));
      Buffer.add_string buf ",\"peak\":";
      Buffer.add_string buf (string_of_int (Gauge.peak g));
      Buffer.add_string buf "}\n")
    (sorted_names t.gauges);
  List.iter
    (fun name ->
      let h = Hashtbl.find t.histograms name in
      Buffer.add_string buf "{\"metric\":\"histogram\",\"name\":\"";
      Jsonl.escape_into buf name;
      Buffer.add_string buf "\",\"count\":";
      Buffer.add_string buf (string_of_int (Histogram.count h));
      Buffer.add_string buf ",\"mean\":";
      add_float buf (Histogram.mean h);
      Buffer.add_string buf ",\"p50\":";
      add_float buf (Histogram.percentile h 0.50);
      Buffer.add_string buf ",\"p99\":";
      add_float buf (Histogram.percentile h 0.99);
      Buffer.add_string buf ",\"max\":";
      add_float buf (Histogram.max h);
      Buffer.add_string buf ",\"stddev\":";
      add_float buf (Histogram.stddev h);
      Buffer.add_string buf "}\n")
    (sorted_names t.histograms)

let write_file t path =
  let metrics = Buffer.create 4096 in
  metrics_to_jsonl t metrics;
  Out_channel.with_open_text path (fun oc ->
      Option.iter (Buffer.output_buffer oc) t.sink;
      Buffer.output_buffer oc metrics)

let reset t =
  Hashtbl.iter (fun _ c -> Atomic.set c.Counter.count 0) t.counters;
  Hashtbl.iter
    (fun _ g ->
      Atomic.set g.Gauge.level 0;
      Atomic.set g.Gauge.peak 0)
    t.gauges;
  Hashtbl.iter (fun _ h -> Histogram.clear h) t.histograms
