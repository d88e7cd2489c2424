module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent

(* Interning key of an elementary condition. Constants compare with
   [Value.equal] (bitwise on floats), so two conditions share an atom
   exactly when they are the same condition. *)
module Atom_key = Hashtbl.Make (struct
  type t = string list * Rfilter.cmp * Value.t

  let equal (p1, c1, v1) (p2, c2, v2) =
    c1 = c2 && List.equal String.equal p1 p2 && Value.equal v1 v2

  let hash = Hashtbl.hash
end)

type path = {
  getters : string list;
  attrs : string list option;
      (* the getter chain as attribute names, translated once; [None]
         when a step is not getter-shaped and the path never resolves *)
  mutable live_atoms : int;
  mutable eq_buckets : eq_entry list array;  (* length a power of two *)
  mutable eq_count : int;
  mutable ne : atom list;
  mutable lt : atom list;
  mutable le : atom list;
  mutable gt : atom list;
  mutable ge : atom list;
  mutable lt_sorted : atom array;
  mutable le_sorted : atom array;
  mutable gt_sorted : atom array;
  mutable ge_sorted : atom array;
  mutable dirty : bool;
  mutable thresholds : int;  (* entries of the sorted arrays *)
  mutable misc : atom list;  (* string order, contains, prefix *)
  mutable cur : Value.t;  (* this pass's value, when [present] *)
  mutable present : bool;
}

and atom = {
  cond : Rfilter.atom;
  on : path;
  mutable refs : int;  (* filters holding the atom *)
  mutable conj : conj list;  (* counting conjunctions over it *)
  mutable tree_users : int;
  mutable stamp : int;  (* generation of the last pass that found it true *)
}

(* An equality-free pure conjunction, matched by counting. *)
and conj = {
  cid : int;
  size : int;
  cat : atom array;
  mutable count : int;
  mutable cgen : int;
}

(* A pure conjunction clustered under one of its equality atoms (its
   access predicate): the rest is checked only when that holds. *)
and cluster = { kid : int; access : atom; rest : atom array }

(* Everything hanging off one equality constant of a path. *)
and eq_entry = {
  key : Value.t;
  khash : int;
  mutable eq_atom : atom option;  (* the [==] atom, while indexed *)
  mutable clusters : cluster list;
}

type tformula =
  | T_true
  | T_false
  | T_atom of atom
  | T_not of tformula
  | T_and of tformula list
  | T_or of tformula list

type shape = Clustered of cluster | Counting of conj | Tree of atom list

type t = {
  path_ids : (string list, path) Hashtbl.t;
  mutable paths : path array;
  atom_ids : atom Atom_key.t;
  subs : (int, shape * int) Hashtbl.t;  (* shape, condition occurrences *)
  mutable trees : (int * tformula) list;
  mutable total_atoms : int;
  mutable generation : int;
  mutable path_evals : int;
  mutable atom_evals : int;
  mutable events_matched : int;
}

let create () =
  {
    path_ids = Hashtbl.create 16;
    paths = [||];
    atom_ids = Atom_key.create 64;
    subs = Hashtbl.create 64;
    trees = [];
    total_atoms = 0;
    generation = 0;
    path_evals = 0;
    atom_evals = 0;
    events_matched = 0;
  }

(* --- equality buckets ---------------------------------------------------- *)

(* Consistent with [Rfilter.value_eq]: numbers hash by their float
   value (an int promoted first, both zeros together), so an [Int] and
   a [Float] it equals land in one bucket. Written out per case so the
   promoted float is never boxed. *)
let hash_value (v : Value.t) =
  match v with
  | Int i ->
      let x = float_of_int i in
      if x = 0. then 0 else Int64.to_int (Int64.bits_of_float x) land max_int
  | Float x ->
      if x = 0. then 0 else Int64.to_int (Int64.bits_of_float x) land max_int
  | Str s -> Hashtbl.hash s
  | v -> Hashtbl.hash v

let bucket_of p h = h land (Array.length p.eq_buckets - 1)

let find_entry p key =
  if p.eq_count = 0 then None
  else
    List.find_opt
      (fun e -> Value.equal e.key key)
      p.eq_buckets.(bucket_of p (hash_value key))

let entry_for p key =
  match find_entry p key with
  | Some e -> e
  | None ->
      if p.eq_count >= 2 * Array.length p.eq_buckets then begin
        let old = p.eq_buckets in
        p.eq_buckets <- Array.make (max 8 (2 * Array.length old)) [];
        Array.iter
          (List.iter (fun e ->
               let b = bucket_of p e.khash in
               p.eq_buckets.(b) <- e :: p.eq_buckets.(b)))
          old
      end;
      let e = { key; khash = hash_value key; eq_atom = None; clusters = [] } in
      let b = bucket_of p e.khash in
      p.eq_buckets.(b) <- e :: p.eq_buckets.(b);
      p.eq_count <- p.eq_count + 1;
      e

let release_entry p e =
  if e.eq_atom = None && e.clusters = [] then begin
    let b = bucket_of p e.khash in
    p.eq_buckets.(b) <- List.filter (fun e' -> e' != e) p.eq_buckets.(b);
    p.eq_count <- p.eq_count - 1
  end

(* --- paths and atoms ----------------------------------------------------- *)

let rec attrs_of_getters = function
  | [] -> Some []
  | m :: rest -> (
      match (Obvent.attr_of_getter m, attrs_of_getters rest) with
      | Some a, Some tl -> Some (a :: tl)
      | _ -> None)

let path_for t getters =
  match Hashtbl.find_opt t.path_ids getters with
  | Some p -> p
  | None ->
      let p =
        {
          getters;
          attrs = attrs_of_getters getters;
          live_atoms = 0;
          eq_buckets = Array.make 8 [];
          eq_count = 0;
          ne = [];
          lt = []; le = []; gt = []; ge = [];
          lt_sorted = [||]; le_sorted = [||]; gt_sorted = [||]; ge_sorted = [||];
          dirty = false;
          thresholds = 0;
          misc = [];
          cur = Value.Null;
          present = false;
        }
      in
      Hashtbl.add t.path_ids getters p;
      t.paths <- Array.append t.paths [| p |];
      p

(* Thresholds are searched in one numeric order; an int constant the
   float order cannot represent exactly is evaluated on its own. *)
let exact_float_limit = 1 lsl 53

let numeric_threshold : Value.t -> bool = function
  | Int i -> i >= -exact_float_limit && i <= exact_float_limit
  | Float _ -> true
  | _ -> false

let drop a l = List.filter (fun a' -> a' != a) l

(* An atom enters its path's per-event structures only while a
   counting conjunction or a tree needs its truth value. *)
let indexed a = a.conj <> [] || a.tree_users > 0

let index_atom a =
  let p = a.on in
  match a.cond.cmp with
  | Ceq -> (entry_for p a.cond.const).eq_atom <- Some a
  | Cne -> p.ne <- a :: p.ne
  | (Clt | Cle | Cgt | Cge) when not (numeric_threshold a.cond.const) ->
      p.misc <- a :: p.misc
  | Clt -> p.lt <- a :: p.lt; p.dirty <- true
  | Cle -> p.le <- a :: p.le; p.dirty <- true
  | Cgt -> p.gt <- a :: p.gt; p.dirty <- true
  | Cge -> p.ge <- a :: p.ge; p.dirty <- true
  | Ccontains | Cprefix -> p.misc <- a :: p.misc

let unindex_atom a =
  let p = a.on in
  match a.cond.cmp with
  | Ceq -> (
      match find_entry p a.cond.const with
      | Some e ->
          e.eq_atom <- None;
          release_entry p e
      | None -> ())
  | Cne -> p.ne <- drop a p.ne
  | (Clt | Cle | Cgt | Cge) when not (numeric_threshold a.cond.const) ->
      p.misc <- drop a p.misc
  | Clt -> p.lt <- drop a p.lt; p.dirty <- true
  | Cle -> p.le <- drop a p.le; p.dirty <- true
  | Cgt -> p.gt <- drop a p.gt; p.dirty <- true
  | Cge -> p.ge <- drop a p.ge; p.dirty <- true
  | Ccontains | Cprefix -> p.misc <- drop a p.misc

(* Track a change of [a]'s counting/tree users: enter or leave the
   per-path structures on the 0 <-> 1 transitions. *)
let set_users a f =
  let was = indexed a in
  f a;
  match (was, indexed a) with
  | false, true -> index_atom a
  | true, false -> unindex_atom a
  | _ -> ()

let acquire t (c : Rfilter.atom) =
  let key = (c.path, c.cmp, c.const) in
  let a =
    match Atom_key.find_opt t.atom_ids key with
    | Some a -> a
    | None ->
        let on = path_for t c.path in
        on.live_atoms <- on.live_atoms + 1;
        let a = { cond = c; on; refs = 0; conj = []; tree_users = 0; stamp = -1 } in
        Atom_key.add t.atom_ids key a;
        a
  in
  a.refs <- a.refs + 1;
  a

let release t a =
  a.refs <- a.refs - 1;
  if a.refs = 0 then begin
    Atom_key.remove t.atom_ids (a.cond.path, a.cond.cmp, a.cond.const);
    let p = a.on in
    p.live_atoms <- p.live_atoms - 1;
    if p.live_atoms = 0 then begin
      Hashtbl.remove t.path_ids p.getters;
      t.paths <- Array.of_list (List.filter (fun p' -> p' != p) (Array.to_list t.paths))
    end
  end

(* --- registration -------------------------------------------------------- *)

(* A filter holds one reference per distinct atom, however often the
   condition recurs in it; [held] collects the distinct ones. *)
let acquire_once t held c =
  let a = acquire t c in
  if List.memq a !held then a.refs <- a.refs - 1 else held := a :: !held;
  a

let rec compile t held (f : Rfilter.formula) : tformula =
  match f with
  | True -> T_true
  | False -> T_false
  | Atom c -> T_atom (acquire_once t held c)
  | Not f -> T_not (compile t held f)
  | And fs -> T_and (List.map (compile t held) fs)
  | Or fs -> T_or (List.map (compile t held) fs)

let cluster_load p (a : atom) =
  match find_entry p a.cond.const with
  | Some e -> List.length e.clusters
  | None -> 0

let add t ~id (rf : Rfilter.t) =
  if Hashtbl.mem t.subs id then
    invalid_arg (Printf.sprintf "Factored.add: id %d already registered" id);
  let occurrences = List.length (Rfilter.atoms rf) in
  t.total_atoms <- t.total_atoms + occurrences;
  let shape =
    match Rfilter.conjunction_atoms rf with
    | Some conds -> (
        let held = ref [] in
        List.iter (fun c -> ignore (acquire_once t held c)) conds;
        let atoms = List.rev !held in
        let equalities = List.filter (fun a -> a.cond.cmp = Rfilter.Ceq) atoms in
        match equalities with
        | first :: others ->
            (* Access predicate: the equality whose bucket holds the
               fewest clusters so far, the first on ties. *)
            let access, _ =
              List.fold_left
                (fun (best, load) a ->
                  let l = cluster_load a.on a in
                  if l < load then (a, l) else (best, load))
                (first, cluster_load first.on first)
                others
            in
            let c =
              { kid = id; access; rest = Array.of_list (drop access atoms) }
            in
            let e = entry_for access.on access.cond.const in
            e.clusters <- c :: e.clusters;
            Clustered c
        | [] ->
            let cat = Array.of_list atoms in
            let c = { cid = id; size = Array.length cat; cat; count = 0; cgen = -1 } in
            Array.iter (fun a -> set_users a (fun a -> a.conj <- c :: a.conj)) cat;
            Counting c)
    | None ->
        let held = ref [] in
        let f = compile t held rf.formula in
        List.iter (fun a -> set_users a (fun a -> a.tree_users <- a.tree_users + 1)) !held;
        t.trees <- (id, f) :: t.trees;
        Tree !held
  in
  Hashtbl.add t.subs id (shape, occurrences)

let remove t ~id =
  match Hashtbl.find_opt t.subs id with
  | None -> ()
  | Some (shape, occurrences) ->
      Hashtbl.remove t.subs id;
      t.total_atoms <- t.total_atoms - occurrences;
      (match shape with
      | Clustered c ->
          let p = c.access.on in
          (match find_entry p c.access.cond.const with
          | Some e ->
              e.clusters <- List.filter (fun c' -> c' != c) e.clusters;
              release_entry p e
          | None -> ());
          release t c.access;
          Array.iter (release t) c.rest
      | Counting c ->
          Array.iter
            (fun a ->
              set_users a (fun a -> a.conj <- List.filter (fun c' -> c' != c) a.conj);
              release t a)
            c.cat
      | Tree atoms ->
          t.trees <- List.filter (fun (sid, _) -> sid <> id) t.trees;
          List.iter
            (fun a ->
              set_users a (fun a -> a.tree_users <- a.tree_users - 1);
              release t a)
            atoms)

let is_registered t ~id = Hashtbl.mem t.subs id

(* --- matching -------------------------------------------------------------
   Nothing below allocates except the result list (one cons per
   match), the lazily re-sorted threshold arrays after a change, and
   whatever the resolver allocates. Per-event state is generation
   stamps on atoms and conjunctions, never cleared. *)

(* Order between two numeric values; both are [Int] or [Float]. *)
let num_cmp (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | _ -> 0

let rebuild_sorted p =
  let sort l =
    let arr = Array.of_list l in
    Array.stable_sort (fun a b -> num_cmp a.cond.const b.cond.const) arr;
    arr
  in
  p.lt_sorted <- sort p.lt;
  p.le_sorted <- sort p.le;
  p.gt_sorted <- sort p.gt;
  p.ge_sorted <- sort p.ge;
  p.thresholds <-
    Array.length p.lt_sorted + Array.length p.le_sorted + Array.length p.gt_sorted
    + Array.length p.ge_sorted;
  p.dirty <- false

(* First index whose threshold [thr] has [num_cmp thr v > 0] (strict)
   or [>= 0]; thresholds ascend, so the test is false then true. *)
let first_above (arr : atom array) (v : Value.t) strict =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = num_cmp (Array.unsafe_get arr mid).cond.const v in
    if (if strict then c > 0 else c >= 0) then hi := mid else lo := mid + 1
  done;
  !lo

let rec bump gen cs acc =
  match cs with
  | [] -> acc
  | c :: rest ->
      let n = if c.cgen = gen then c.count + 1 else 1 in
      c.cgen <- gen;
      c.count <- n;
      bump gen rest (if n = c.size then c.cid :: acc else acc)

let mark gen a acc =
  if a.stamp = gen then acc
  else begin
    a.stamp <- gen;
    bump gen a.conj acc
  end

let mark_range gen (arr : atom array) lo hi acc =
  let acc = ref acc in
  for i = lo to hi - 1 do
    acc := mark gen (Array.unsafe_get arr i) !acc
  done;
  !acc

(* Mark the thresholds above [v] ([above]) or below it. *)
let mark_side gen (arr : atom array) v ~strict ~above acc =
  if Array.length arr = 0 then acc
  else
    let k = first_above arr v strict in
    if above then mark_range gen arr k (Array.length arr) acc
    else mark_range gen arr 0 k acc

let rec mark_if t gen v atoms acc =
  match atoms with
  | [] -> acc
  | a :: rest ->
      t.atom_evals <- t.atom_evals + 1;
      let acc = if Rfilter.eval_atom_value v a.cond then mark gen a acc else acc in
      mark_if t gen v rest acc

(* The rest of a cluster, against the values resolved this pass. *)
let rec rest_holds t (rest : atom array) i =
  i = Array.length rest
  ||
  let a = Array.unsafe_get rest i in
  t.atom_evals <- t.atom_evals + 1;
  a.on.present && Rfilter.eval_atom_value a.on.cur a.cond && rest_holds t rest (i + 1)

let rec check_clusters t cs acc =
  match cs with
  | [] -> acc
  | c :: rest ->
      check_clusters t rest (if rest_holds t c.rest 0 then c.kid :: acc else acc)

let rec scan_entries t gen v h entries acc =
  match entries with
  | [] -> acc
  | e :: rest ->
      let acc =
        if e.khash = h && Rfilter.value_eq v e.key then
          let acc = match e.eq_atom with Some a -> mark gen a acc | None -> acc in
          check_clusters t e.clusters acc
        else acc
      in
      scan_entries t gen v h rest acc

let scan_path t gen p acc =
  let v = p.cur in
  let acc =
    if p.eq_count = 0 then acc
    else
      let h = hash_value v in
      scan_entries t gen v h (Array.unsafe_get p.eq_buckets (bucket_of p h)) acc
  in
  let acc = if p.ne == [] then acc else mark_if t gen v p.ne acc in
  let acc =
    match v with
    | (Int _ | Float _) when p.dirty || p.thresholds > 0 ->
        if p.dirty then rebuild_sorted p;
        (* v < thr, v <= thr, v > thr, v >= thr *)
        let acc = mark_side gen p.lt_sorted v ~strict:true ~above:true acc in
        let acc = mark_side gen p.le_sorted v ~strict:false ~above:true acc in
        let acc = mark_side gen p.gt_sorted v ~strict:false ~above:false acc in
        mark_side gen p.ge_sorted v ~strict:true ~above:false acc
    | _ -> acc
  in
  if p.misc == [] then acc else mark_if t gen v p.misc acc

let rec holds gen = function
  | T_true -> true
  | T_false -> false
  | T_atom a -> a.stamp = gen
  | T_not f -> not (holds gen f)
  | T_and fs -> all_hold gen fs
  | T_or fs -> any_holds gen fs

and all_hold gen = function [] -> true | f :: fs -> holds gen f && all_hold gen fs
and any_holds gen = function [] -> false | f :: fs -> holds gen f || any_holds gen fs

let rec eval_trees gen trees acc =
  match trees with
  | [] -> acc
  | (id, f) :: rest -> eval_trees gen rest (if holds gen f then id :: acc else acc)

let start_pass t =
  t.events_matched <- t.events_matched + 1;
  t.generation <- t.generation + 1;
  t.generation

(* Phases 2 and 3, once phase 1 has set every path's value: per path,
   equality buckets (marking atoms, checking clusters), then the
   individually evaluated and sorted atoms — a missing path makes all
   its conditions false; then general formulas over the stamped truth
   values. *)
let finish_pass t gen =
  let paths = t.paths in
  let acc = ref [] in
  for i = 0 to Array.length paths - 1 do
    let p = Array.unsafe_get paths i in
    if p.present then acc := scan_path t gen p !acc
  done;
  let acc = eval_trees gen t.trees !acc in
  match acc with [] | [ _ ] -> acc | _ -> List.sort Int.compare acc

(* Phase 1: every path resolved once. Should [resolve] raise, no stamp
   of this generation has been written yet and the next pass starts a
   fresh one. *)
let matches_resolve t resolve =
  let gen = start_pass t in
  let paths = t.paths in
  for i = 0 to Array.length paths - 1 do
    let p = Array.unsafe_get paths i in
    t.path_evals <- t.path_evals + 1;
    match p.attrs with
    | None -> p.present <- false
    | Some attrs -> (
        match (resolve attrs : Value.t option) with
        | None -> p.present <- false
        | Some v ->
            p.cur <- v;
            p.present <- true)
  done;
  finish_pass t gen

(* Follow an attribute chain through nested objects, as
   [Rfilter.eval_path] does, writing the value straight into the path. *)
let rec descend p (v : Value.t) = function
  | [] ->
      p.cur <- v;
      p.present <- true
  | attr :: rest -> (
      match v with
      | Obj o -> descend_fields p attr rest o.fields
      | _ -> p.present <- false)

and descend_fields p attr rest = function
  | [] -> p.present <- false
  | (name, v) :: fields ->
      if String.equal name attr then descend p v rest
      else descend_fields p attr rest fields

let matches t root =
  let gen = start_pass t in
  let paths = t.paths in
  for i = 0 to Array.length paths - 1 do
    let p = Array.unsafe_get paths i in
    t.path_evals <- t.path_evals + 1;
    match p.attrs with
    | None -> p.present <- false
    | Some attrs -> descend p root attrs
  done;
  finish_pass t gen

let matches_obvent t o = matches t (Obvent.to_value o)

type stats = {
  subscriptions : int;
  unique_paths : int;
  unique_atoms : int;
  total_atoms : int;
  path_evals : int;
  atom_evals : int;
  events_matched : int;
}

let stats t =
  {
    subscriptions = Hashtbl.length t.subs;
    unique_paths = Array.length t.paths;
    unique_atoms = Atom_key.length t.atom_ids;
    total_atoms = t.total_atoms;
    path_evals = t.path_evals;
    atom_evals = t.atom_evals;
    events_matched = t.events_matched;
  }

let redundancy t =
  let s = stats t in
  if s.total_atoms = 0 then 0.
  else 1. -. (float_of_int s.unique_atoms /. float_of_int s.total_atoms)
