module Registry = Tpbs_types.Registry
module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Cursor = Tpbs_serial.Cursor
module Obvent = Tpbs_obvent.Obvent
module Rfilter = Tpbs_filter.Rfilter
module Subsume = Tpbs_filter.Subsume
module Factored = Tpbs_filter.Factored
module Trace = Tpbs_trace.Trace

type 'd owner = {
  dest : 'd;
  mutable subs : 'd entry list;  (* installed and covered, newest first *)
  mutable mark : int;  (* last [route] epoch that picked this destination *)
  mutable low_covered : int;  (* least covered id in [subs], or max_int *)
}

and 'd entry = {
  id : int;
  owner : 'd owner;
  param : string;
  always : bool;  (* no liftable filter: every conforming event *)
  filter : Rfilter.t option;
  mutable covered_by : int option;  (* [None] = installed in the index *)
}

(* A class's routed entries split for [route]: the always-forward ones
   in id order, the filtered ones by id. Valid while [routed] is
   physically the list the routing index returns: the index never
   mutates a list, it splices in new ones. *)
type 'd split = {
  routed : 'd entry list;
  always_fwd : 'd entry list;
  filtered : (int, 'd entry) Hashtbl.t;
}

type 'd t = {
  registry : Registry.t;
  covering : bool;
  equal : 'd -> 'd -> bool;
  subs : (int, 'd entry) Hashtbl.t;
  index : 'd entry Routing.t;
  factored : Factored.t;
  splits : (string, 'd split) Hashtbl.t;
  mutable owners : 'd owner list;
  mutable epoch : int;
  mutable cover_checks : int;
  tr : Trace.t;
  c_covered : Trace.Counter.t;
  c_restored : Trace.Counter.t;
}

let create ~covering ~equal registry =
  let tr = Trace.ambient () in
  {
    registry;
    covering;
    equal;
    subs = Hashtbl.create 64;
    index = Routing.create registry;
    factored = Factored.create ();
    splits = Hashtbl.create 8;
    owners = [];
    epoch = 0;
    cover_checks = 0;
    tr;
    c_covered = Trace.counter tr "broker.subs_covered";
    c_restored = Trace.counter tr "broker.subs_restored";
  }

let install t e =
  e.covered_by <- None;
  Routing.add t.index ~param:e.param
    ~compare:(fun a b -> Int.compare a.id b.id)
    e;
  Option.iter (fun rf -> Factored.add t.factored ~id:e.id rf) e.filter

let uninstall t e =
  Routing.remove t.index ~param:e.param (fun e' -> e'.id = e.id);
  Factored.remove t.factored ~id:e.id

(* The newest installed subscription of [e]'s destination whose traffic
   is a superset of [e]'s. Same destination is essential: delivery is
   once per destination, so only a same-destination coverer makes the
   suppressed subscription observationally absent. *)
let find_coverer t e =
  List.find_opt
    (fun cov ->
      cov.covered_by = None
      && Registry.subtype t.registry e.param cov.param
      && (cov.always
         || (not e.always)
            &&
            match (e.filter, cov.filter) with
            | Some nf, Some cf ->
                t.cover_checks <- t.cover_checks + 1;
                Subsume.covers ~registry:t.registry ~param:e.param nf cf
            | _ -> false))
    e.owner.subs

let refresh_low (o : _ owner) =
  o.low_covered <-
    List.fold_left
      (fun m e -> if e.covered_by <> None && e.id < m then e.id else m)
      max_int o.subs

let parse_filter = function
  | Value.Null -> (true, None)
  | v -> (
      match Rfilter.of_value v with
      | Some rf -> (false, Some rf)
      | None -> (true, None))

let subscribe t ~id ~dest ~param filter =
  if not (Hashtbl.mem t.subs id) then begin
    let owner =
      match List.find_opt (fun o -> t.equal o.dest dest) t.owners with
      | Some o -> o
      | None ->
          let o = { dest; subs = []; mark = t.epoch; low_covered = max_int } in
          t.owners <- o :: t.owners;
          o
    in
    let always, filter = parse_filter filter in
    let e = { id; owner; param; always; filter; covered_by = None } in
    let coverer = if t.covering then find_coverer t e else None in
    owner.subs <- e :: owner.subs;
    Hashtbl.replace t.subs id e;
    match coverer with
    | Some by ->
        e.covered_by <- Some by.id;
        refresh_low owner;
        Trace.Counter.incr t.c_covered;
        if Trace.emitting t.tr then
          Trace.emit t.tr ~layer:"broker" ~kind:"sub_covered"
            ~data:
              [ ("id", Trace.I id); ("by", Trace.I by.id); ("param", Trace.S param) ]
            ()
    | None -> install t e
  end

(* [removed] just left the index: each subscription it covered either
   finds another coverer or is promoted, in id order, so an early
   promotion can re-cover a later orphan. *)
let reparent t removed =
  List.filter (fun e -> e.covered_by = Some removed.id) removed.owner.subs
  |> List.sort (fun a b -> Int.compare a.id b.id)
  |> List.iter (fun e ->
         match find_coverer t e with
         | Some by -> e.covered_by <- Some by.id
         | None ->
             install t e;
             Trace.Counter.incr t.c_restored;
             if Trace.emitting t.tr then
               Trace.emit t.tr ~layer:"broker" ~kind:"sub_restored"
                 ~data:[ ("id", Trace.I e.id); ("param", Trace.S e.param) ]
                 ());
  refresh_low removed.owner

let unsubscribe t id =
  match Hashtbl.find_opt t.subs id with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.subs id;
      let o = e.owner in
      o.subs <- List.filter (fun e' -> e' != e) o.subs;
      if o.subs = [] then t.owners <- List.filter (fun o' -> o' != o) t.owners;
      if e.covered_by = None then begin
        uninstall t e;
        reparent t e
      end
      else refresh_low o

let drop t dest =
  match List.find_opt (fun o -> t.equal o.dest dest) t.owners with
  | None -> ()
  | Some o ->
      List.iter
        (fun e ->
          Hashtbl.remove t.subs e.id;
          if e.covered_by = None then uninstall t e)
        o.subs;
      o.subs <- [];
      o.low_covered <- max_int;
      t.owners <- List.filter (fun o' -> o' != o) t.owners

let build t cls =
  Hashtbl.fold
    (fun _ e acc ->
      if e.covered_by = None && Registry.subtype t.registry cls e.param then
        e :: acc
      else acc)
    t.subs []
  |> List.sort (fun a b -> Int.compare a.id b.id)

(* Getter names map to attributes and navigation descends through
   objects only, as in [Rfilter.eval_path]. *)
let rec attrs_of_path = function
  | [] -> Some []
  | m :: rest -> (
      match (Obvent.attr_of_getter m, attrs_of_path rest) with
      | Some a, Some tl -> Some (a :: tl)
      | _ -> None)

(* The id a destination is ordered by: that of its first matching
   subscription. [e] is its first matching installed one; a covered
   sibling with a lower id matches only events its coverer matches, so
   it can only move the destination earlier — and only siblings below
   [e] need testing, which [low_covered] rules out in one comparison
   unless a newer coverer suppresses an older subscription. *)
let first_match t ~cls resolve (e : _ entry) =
  let o = e.owner in
  if o.low_covered >= e.id then e.id
  else
    List.fold_left
      (fun first c ->
        if
          c.covered_by <> None && c.id < first
          && Registry.subtype t.registry cls c.param
          && (c.always
             ||
             match c.filter with
             | Some rf -> (
                 try Rfilter.eval_resolve rf resolve
                 with Codec.Decode_error _ -> false)
             | None -> false)
        then c.id
        else first)
      e.id o.subs

let split t cls routed =
  match Hashtbl.find_opt t.splits cls with
  | Some s when s.routed == routed -> s
  | _ ->
      let filtered = Hashtbl.create 16 in
      List.iter (fun e -> if not e.always then Hashtbl.replace filtered e.id e) routed;
      let s = { routed; always_fwd = List.filter (fun e -> e.always) routed; filtered } in
      Hashtbl.replace t.splits cls s;
      s

let route t ~cls bytes ~off ~len =
  match Routing.find t.index cls ~build t with
  | [] -> []
  | routed ->
      let s = split t cls routed in
      let cursor = Cursor.of_substring bytes ~off ~len in
      let resolve path =
        Option.bind (attrs_of_path path) (Cursor.project cursor)
      in
      (* Matched ids ascend; those of other classes are skipped. *)
      let matched =
        match Factored.matches_resolve t.factored (Cursor.project cursor) with
        | ids -> List.filter_map (Hashtbl.find_opt s.filtered) ids
        | exception Codec.Decode_error _ -> []
      in
      t.epoch <- t.epoch + 1;
      let reordered = ref false in
      let visit acc e =
        if e.owner.mark <> t.epoch then begin
          e.owner.mark <- t.epoch;
          let first = first_match t ~cls resolve e in
          if first < e.id then reordered := true;
          (first, e.owner.dest) :: acc
        end
        else acc
      in
      (* The always-forward entries and the matched ones, in id order. *)
      let rec merge acc always matched =
        match (always, matched) with
        | [], [] -> acc
        | a :: arest, m :: _ when a.id < m.id -> merge (visit acc a) arest matched
        | _, m :: mrest -> merge (visit acc m) always mrest
        | a :: arest, [] -> merge (visit acc a) arest []
      in
      let picked = List.rev (merge [] s.always_fwd matched) in
      let picked =
        if !reordered then
          List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) picked
        else picked
      in
      List.map snd picked

type stats = { installed : int; covered : int; cover_checks : int }

let stats t =
  let installed, covered =
    Hashtbl.fold
      (fun _ e (i, c) -> if e.covered_by = None then (i + 1, c) else (i, c + 1))
      t.subs (0, 0)
  in
  { installed; covered; cover_checks = t.cover_checks }

let filter_stats t = Factored.stats t.factored
let routing_stats t = Routing.stats t.index
