let validate_line line =
  match Jsonl.parse line with
  | Error msg -> Error msg
  | Ok json -> (
      match json with
      | Jsonl.Obj _ -> (
          match Jsonl.member "metric" json with
          | Some (Jsonl.Str _) -> (
              match Jsonl.member "name" json with
              | Some (Jsonl.Str _) -> Ok ()
              | _ -> Error "metric record without string \"name\"")
          | Some _ -> Error "\"metric\" is not a string"
          | None -> (
              match
                ( Jsonl.member "t" json,
                  Jsonl.member "layer" json,
                  Jsonl.member "kind" json )
              with
              | Some (Jsonl.Num _), Some (Jsonl.Str _), Some (Jsonl.Str _) ->
                  Ok ()
              | _ -> Error "event record missing t/layer/kind"))
      | _ -> Error "line is not a JSON object")

let check lines =
  let rec go lineno ok = function
    | [] -> Ok ok
    | line :: rest -> (
        if String.trim line = "" then go (lineno + 1) ok rest
        else
          match validate_line line with
          | Ok () -> go (lineno + 1) (ok + 1) rest
          | Error msg -> Error (lineno, msg))
  in
  go 1 0 lines

let summarize lines =
  let events = Hashtbl.create 32 in
  let counters = ref [] in
  let gauges = ref [] in
  let histograms = ref [] in
  let n_events = ref 0 in
  let t_min = ref max_int and t_max = ref min_int in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match Jsonl.parse line with
        | Error _ -> ()
        | Ok json -> (
            match Jsonl.member "metric" json with
            | Some (Jsonl.Str kind) -> (
                let name =
                  match Jsonl.member "name" json with
                  | Some (Jsonl.Str s) -> s
                  | _ -> "?"
                in
                let num field =
                  match Jsonl.member field json with
                  | Some (Jsonl.Num f) -> f
                  | _ -> 0.
                in
                match kind with
                | "counter" ->
                    counters :=
                      (name, int_of_float (num "value")) :: !counters
                | "gauge" ->
                    gauges :=
                      ( name,
                        int_of_float (num "level"),
                        int_of_float (num "peak") )
                      :: !gauges
                | "histogram" ->
                    histograms :=
                      ( name,
                        int_of_float (num "count"),
                        num "mean",
                        num "p99" )
                      :: !histograms
                | _ -> ())
            | _ -> (
                match
                  ( Jsonl.member "t" json,
                    Jsonl.member "layer" json,
                    Jsonl.member "kind" json )
                with
                | Some (Jsonl.Num t), Some (Jsonl.Str layer), Some (Jsonl.Str k)
                  ->
                    incr n_events;
                    let t = int_of_float t in
                    if t < !t_min then t_min := t;
                    if t > !t_max then t_max := t;
                    let key = layer ^ "/" ^ k in
                    Hashtbl.replace events key
                      (1
                      + Option.value ~default:0 (Hashtbl.find_opt events key))
                | _ -> ())))
    lines;
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if !n_events > 0 then begin
    pf "events: %d  (t=%d..%d)\n" !n_events !t_min !t_max;
    List.iter
      (fun key -> pf "  %-32s %8d\n" key (Hashtbl.find events key))
      (List.sort String.compare
         (Hashtbl.fold (fun k _ acc -> k :: acc) events []))
  end
  else pf "events: 0\n";
  let sorted_by_name proj l =
    List.sort (fun a b -> String.compare (proj a) (proj b)) l
  in
  if !counters <> [] then begin
    pf "counters:\n";
    List.iter
      (fun (name, v) -> pf "  %-32s %8d\n" name v)
      (sorted_by_name fst !counters)
  end;
  if !gauges <> [] then begin
    pf "gauges (level/peak):\n";
    List.iter
      (fun (name, level, peak) -> pf "  %-32s %8d /%8d\n" name level peak)
      (sorted_by_name (fun (n, _, _) -> n) !gauges)
  end;
  if !histograms <> [] then begin
    pf "histograms:\n";
    List.iter
      (fun (name, count, mean, p99) ->
        pf "  %-32s n=%-8d mean=%-12.1f p99=%.1f\n" name count mean p99)
      (sorted_by_name (fun (n, _, _, _) -> n) !histograms)
  end;
  Buffer.contents buf

(* Any metric kind, any numeric field ("value" for counters,
   "level"/"peak" for gauges, "count"/"mean"/"p50"/"p99"/"max"/"stddev"
   for histograms). Metrics are exported cumulatively, so the last
   record for a name is its final value. *)
let metric_value lines name field =
  List.fold_left
    (fun acc line ->
      if String.trim line = "" then acc
      else
        match Jsonl.parse line with
        | Error _ -> acc
        | Ok json -> (
            match
              (Jsonl.member "metric" json, Jsonl.member "name" json)
            with
            | Some (Jsonl.Str _), Some (Jsonl.Str n) when n = name -> (
                match Jsonl.member field json with
                | Some (Jsonl.Num v) -> Some v
                | _ -> acc)
            | _ -> acc))
    None lines

type op = Le | Ge | Eq
type requirement = { name : string; field : string; op : op; bound : float }

(* "NAME:FIELD OP BOUND": the first colon ends NAME, the first of '<',
   '>' or '=' starts OP, which must be one of "<=", ">=", "==". *)
let parse_requirement spec =
  let len = String.length spec in
  let rec op_at j =
    if j + 1 >= len then None
    else
      match (spec.[j], spec.[j + 1]) with
      | '<', '=' -> Some (j, Le)
      | '>', '=' -> Some (j, Ge)
      | '=', '=' -> Some (j, Eq)
      | ('<' | '>' | '='), _ -> None
      | _ -> op_at (j + 1)
  in
  let trim a b = String.trim (String.sub spec a (b - a)) in
  match String.index_opt spec ':' with
  | None -> None
  | Some colon -> (
      match op_at colon with
      | None -> None
      | Some (j, op) -> (
          let name = trim 0 colon and field = trim (colon + 1) j in
          match float_of_string_opt (trim (j + 2) len) with
          | Some bound when name <> "" && field <> "" ->
              Some { name; field; op; bound }
          | _ -> None))

let unmet lines requirements =
  List.filter_map
    (fun { name; field; op; bound } ->
      let want =
        Printf.sprintf "want %s %g"
          (match op with Le -> "<=" | Ge -> ">=" | Eq -> "==")
          bound
      in
      match metric_value lines name field with
      | None ->
          Some (Printf.sprintf "%s:%s was never exported, %s" name field want)
      | Some v ->
          let holds =
            match op with Le -> v <= bound | Ge -> v >= bound | Eq -> v = bound
          in
          if holds then None
          else Some (Printf.sprintf "%s:%s is %g, %s" name field v want))
    requirements
