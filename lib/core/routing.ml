module Registry = Tpbs_types.Registry
module Trace = Tpbs_trace.Trace

type 'a t = {
  reg : Registry.t;
  entries : (string, 'a list) Hashtbl.t;
      (* concrete obvent class -> targets whose subscribed type is a
         supertype, in the holder's canonical order *)
  mutable gen : int;  (* registry generation the cache was built against *)
  mutable lookups : int;
  mutable builds : int;
  c_lookups : Trace.Counter.t;  (* aggregated across indices *)
  c_builds : Trace.Counter.t;
}

let create reg =
  let tr = Trace.ambient () in
  {
    reg;
    entries = Hashtbl.create 16;
    gen = Registry.generation reg;
    lookups = 0;
    builds = 0;
    c_lookups = Trace.counter tr "core.routing.lookups";
    c_builds = Trace.counter tr "core.routing.builds";
  }

(* Late type declarations (the registry moved) invalidate everything:
   a new class may slot under any subscribed type, and a cached entry
   keyed by it would otherwise stay silently empty. *)
let validate t =
  let g = Registry.generation t.reg in
  if g <> t.gen then begin
    Hashtbl.reset t.entries;
    t.gen <- g
  end

let find t cls ~build x =
  validate t;
  t.lookups <- t.lookups + 1;
  Trace.Counter.incr t.c_lookups;
  match Hashtbl.find t.entries cls with
  | targets -> targets
  | exception Not_found ->
      t.builds <- t.builds + 1;
      Trace.Counter.incr t.c_builds;
      let targets = build x cls in
      Hashtbl.replace t.entries cls targets;
      targets

let invalidate t ~param =
  validate t;
  let affected =
    Hashtbl.fold
      (fun cls _ acc ->
        if Registry.subtype t.reg cls param then cls :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) affected

(* Sorted insertion keeping the holder's canonical order: the element
   goes before the first target it compares below. Activation order
   and creation order can differ (deactivate/reactivate churn), so a
   plain prepend would diverge from what a rebuild produces. *)
let rec insert_sorted compare x = function
  | [] -> [ x ]
  | y :: rest as targets ->
      if compare x y <= 0 then x :: targets
      else y :: insert_sorted compare x rest

let add t ~param ~compare x =
  validate t;
  Hashtbl.filter_map_inplace
    (fun cls targets ->
      if Registry.subtype t.reg cls param then
        Some (insert_sorted compare x targets)
      else Some targets)
    t.entries

let remove t ~param pred =
  validate t;
  Hashtbl.filter_map_inplace
    (fun cls targets ->
      if Registry.subtype t.reg cls param then
        Some (List.filter (fun x -> not (pred x)) targets)
      else Some targets)
    t.entries

let clear t = Hashtbl.reset t.entries

type stats = { classes : int; lookups : int; builds : int }

let stats t =
  { classes = Hashtbl.length t.entries; lookups = t.lookups;
    builds = t.builds }
