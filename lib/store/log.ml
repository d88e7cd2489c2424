module Stable = Tpbs_sim.Stable
module Trace = Tpbs_trace.Trace

(* A segmented append-only key–value log, bitcask style: every put or
   delete appends one CRC-guarded record (Record.frame) to the active
   segment; the full key→value map is kept in memory and rebuilt on
   open by replaying the segments in order. Durability therefore
   reduces to three invariants:

   1. A record is durable iff it is completely on disk — the recovery
      scan truncates the log at the first torn or corrupt record and
      discards everything after it (later bytes are unordered relative
      to the hole, so nothing behind a bad record can be trusted).
   2. Replaying surviving segments in ascending id order, last record
      per key wins; a Delete record is a tombstone.
   3. Removing a sealed segment never changes the replayed state:
      the fast path drops a segment only once none of its records is
      the latest for its key (tombstones count as live while they may
      shadow an older put); merge compaction rewrites the whole
      sealed state into a [base-<n>] snapshot that makes every
      segment with id <= n obsolete — the rename is the commit point,
      so a crash mid-compaction leaves either the old segments or the
      snapshot, never a mix.

   The fault-injection hook models a power cut at an exact byte
   offset of the append stream: once the budget is exhausted the
   record being written is cut short on disk and [Injected_crash]
   is raised; every later write raises too. Reopening the directory
   then exercises the real recovery path. *)

exception Injected_crash

type entry = { value : string; mutable seg : int }

type t = {
  dir : string;
  segment_bytes : int;
  compact_min_dead : int;
  auto_compact : bool;
  fsync : bool;  (* fsync every record append *)
  index : (string, entry) Hashtbl.t;
  tombstones : (string, int) Hashtbl.t;
      (* absent key -> segment of its latest tombstone record *)
  live : (int, int ref) Hashtbl.t;  (* seg -> records still authoritative *)
  recs : (int, int ref) Hashtbl.t;  (* seg -> records written, total *)
  files : (int, string) Hashtbl.t;  (* seg -> path *)
  mutable sealed : int list;  (* ascending *)
  mutable active : int;
  mutable chan : out_channel option;
  mutable active_bytes : int;
  mutable sealed_records : int;
  mutable sealed_dead : int;
  (* fault injection *)
  mutable fault_budget : int option;
  mutable dead : bool;
  (* accounting *)
  mutable appends : int;
  mutable rotations : int;
  mutable compactions : int;
  mutable segments_dropped : int;
  mutable recovered_records : int;
  mutable torn_bytes : int;
  mutable corrupt_records : int;
  c_appends : Trace.Counter.t;
  c_compactions : Trace.Counter.t;
  c_dropped : Trace.Counter.t;
  c_recovered : Trace.Counter.t;
  c_torn_bytes : Trace.Counter.t;
  c_crc_rejects : Trace.Counter.t;
  c_fsyncs : Trace.Counter.t;
  c_group_commits : Trace.Counter.t;
}

let seg_path dir id = Filename.concat dir (Printf.sprintf "seg-%08d.log" id)
let base_path dir id = Filename.concat dir (Printf.sprintf "base-%08d.log" id)

let parse_name name =
  let num s =
    match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None
  in
  match String.length name with
  | 16 when String.sub name 0 4 = "seg-" && Filename.check_suffix name ".log"
    -> Option.map (fun id -> (`Seg, id)) (num (String.sub name 4 8))
  | 17 when String.sub name 0 5 = "base-" && Filename.check_suffix name ".log"
    -> Option.map (fun id -> (`Base, id)) (num (String.sub name 5 8))
  | _ -> None

let rec mkdir_p dir =
  if
    dir <> "" && dir <> "/" && dir <> "."
    && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let remove_file path = try Sys.remove path with Sys_error _ -> ()

(* fsync of the *directory* publishes a rename/creat/unlink: without
   it the new name is only durable once the kernel happens to write
   the directory block, so a power cut after [Sys.rename] could
   resurface the pre-rename state. Directories cannot be fsynced on
   every platform; failing to is no worse than before, so ignore. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- per-segment bookkeeping ------------------------------------------ *)

let count_of tbl seg =
  match Hashtbl.find_opt tbl seg with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace tbl seg r;
      r

let drop_sealed t seg =
  t.sealed <- List.filter (fun s -> s <> seg) t.sealed;
  let recs = !(count_of t.recs seg) in
  t.sealed_records <- t.sealed_records - recs;
  t.sealed_dead <- t.sealed_dead - recs;
  Hashtbl.remove t.live seg;
  Hashtbl.remove t.recs seg;
  (match Hashtbl.find_opt t.files seg with
  | Some path ->
      remove_file path;
      Hashtbl.remove t.files seg
  | None -> ());
  t.segments_dropped <- t.segments_dropped + 1;
  Trace.Counter.incr t.c_dropped

(* A record in [seg] stopped being authoritative. *)
let decr_live t seg =
  match Hashtbl.find_opt t.live seg with
  | None -> ()
  | Some r ->
      decr r;
      if seg <> t.active then begin
        t.sealed_dead <- t.sealed_dead + 1;
        if !r = 0 then drop_sealed t seg
      end

(* Whatever record previously was authoritative for [key] is
   superseded by a new record landing in segment [t.active]. *)
let supersede t key =
  match Hashtbl.find_opt t.index key with
  | Some e -> decr_live t e.seg
  | None -> (
      match Hashtbl.find_opt t.tombstones key with
      | Some seg ->
          decr_live t seg;
          Hashtbl.remove t.tombstones key
      | None -> ())

let note_put t key value =
  supersede t key;
  Hashtbl.replace t.index key { value; seg = t.active };
  incr (count_of t.live t.active);
  incr (count_of t.recs t.active)

let note_delete t key =
  supersede t key;
  Hashtbl.remove t.index key;
  Hashtbl.replace t.tombstones key t.active;
  (* the tombstone record itself stays live: it shadows any older
     record for the key until a merge rewrites the sealed state *)
  incr (count_of t.live t.active);
  incr (count_of t.recs t.active)

let seal_bookkeeping t seg =
  t.sealed <- t.sealed @ [ seg ];
  let recs = !(count_of t.recs seg) and live = !(count_of t.live seg) in
  t.sealed_records <- t.sealed_records + recs;
  t.sealed_dead <- t.sealed_dead + (recs - live);
  if live = 0 && recs >= 0 then drop_sealed t seg

let open_active t id =
  let path = seg_path t.dir id in
  Hashtbl.replace t.files id path;
  ignore (count_of t.live id);
  ignore (count_of t.recs id);
  t.active <- id;
  t.chan <-
    Some (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path);
  t.active_bytes <-
    (if Sys.file_exists path then (
       let ic = open_in_bin path in
       let n = in_channel_length ic in
       close_in ic;
       n)
     else 0)

let next_seg_id t =
  1 + Hashtbl.fold (fun id _ acc -> max id acc) t.files (-1)

let rotate t =
  (match t.chan with Some oc -> close_out oc | None -> ());
  t.chan <- None;
  let old = t.active in
  let id = next_seg_id t in
  seal_bookkeeping t old;
  open_active t id;
  t.rotations <- t.rotations + 1

(* --- compaction -------------------------------------------------------- *)

(* Merge every sealed segment into one [base-<n>] snapshot holding
   exactly the still-authoritative sealed entries (n = highest sealed
   id, so the snapshot sorts before the active segment on replay).
   Tombstones need not be copied: the snapshot makes every older
   segment obsolete, so there is nothing left for them to shadow.
   The rename is atomic; the old files are deleted only after it, and
   recovery ignores any segment at or below the newest base id, so a
   crash anywhere in between recovers to a consistent state. *)
let compact t =
  if (not t.dead) && t.sealed <> [] then begin
    let sealedset = Hashtbl.create 8 in
    List.iter (fun s -> Hashtbl.replace sealedset s ()) t.sealed;
    let base_id = List.fold_left max 0 t.sealed in
    let entries =
      Hashtbl.fold
        (fun k e acc ->
          if Hashtbl.mem sealedset e.seg then (k, e) :: acc else acc)
        t.index []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let tmp = Filename.concat t.dir "compact.tmp" in
    let oc = open_out_bin tmp in
    List.iter
      (fun (k, e) ->
        output_string oc (Record.frame ~op:Record.Put ~key:k ~value:e.value))
      entries;
    flush oc;
    (* The snapshot's contents must be on disk before the rename can
       commit to it, and the rename itself is only durable once the
       directory entry is — fsync both, in that order. *)
    Trace.Counter.incr t.c_fsyncs;
    (try Unix.fsync (Unix.descr_of_out_channel oc)
     with Unix.Unix_error _ -> ());
    close_out oc;
    let base = base_path t.dir base_id in
    Sys.rename tmp base;
    Trace.Counter.incr t.c_fsyncs;
    fsync_dir t.dir;
    List.iter
      (fun s ->
        (match Hashtbl.find_opt t.files s with
        | Some p when p <> base -> remove_file p
        | Some _ | None -> ());
        Hashtbl.remove t.files s;
        Hashtbl.remove t.live s;
        Hashtbl.remove t.recs s)
      t.sealed;
    Hashtbl.iter
      (fun k seg -> if Hashtbl.mem sealedset seg then Hashtbl.remove t.tombstones k)
      (Hashtbl.copy t.tombstones);
    let n = List.length entries in
    List.iter (fun (_, e) -> e.seg <- base_id) entries;
    t.compactions <- t.compactions + 1;
    Trace.Counter.incr t.c_compactions;
    if n = 0 then begin
      remove_file base;
      t.sealed <- [];
      t.sealed_records <- 0;
      t.sealed_dead <- 0
    end
    else begin
      Hashtbl.replace t.files base_id base;
      Hashtbl.replace t.live base_id (ref n);
      Hashtbl.replace t.recs base_id (ref n);
      t.sealed <- [ base_id ];
      t.sealed_records <- n;
      t.sealed_dead <- 0
    end
  end

let maybe_compact t =
  if
    t.auto_compact
    && t.sealed_dead >= t.compact_min_dead
    && 2 * t.sealed_dead >= t.sealed_records
  then compact t

(* --- the append path --------------------------------------------------- *)

(* [flush] only hands the bytes to the kernel: it makes a record
   survive a *process* crash, not a power cut. The commit point of a
   durable append is therefore flush + fsync; [sync] (defaulting to
   the store-wide [t.fsync]) selects whether this append pays for the
   full guarantee. *)
let append_bytes ?sync t s =
  if t.dead then raise Injected_crash;
  let oc =
    match t.chan with
    | Some oc -> oc
    | None -> invalid_arg "Store.Log: store is closed"
  in
  (match t.fault_budget with
  | Some b when String.length s > b ->
      (* the power cut: the record is cut short on disk *)
      output_substring oc s 0 b;
      flush oc;
      t.dead <- true;
      t.fault_budget <- Some 0;
      raise Injected_crash
  | Some b ->
      t.fault_budget <- Some (b - String.length s);
      output_string oc s;
      flush oc
  | None ->
      output_string oc s;
      flush oc;
      if Option.value sync ~default:t.fsync then begin
        Trace.Counter.incr t.c_fsyncs;
        try Unix.fsync (Unix.descr_of_out_channel oc)
        with Unix.Unix_error _ -> ()
      end);
  t.active_bytes <- t.active_bytes + String.length s

let put ?sync t key value =
  append_bytes ?sync t (Record.frame ~op:Record.Put ~key ~value);
  note_put t key value;
  t.appends <- t.appends + 1;
  Trace.Counter.incr t.c_appends;
  if t.active_bytes >= t.segment_bytes then rotate t;
  maybe_compact t

let delete ?sync t key =
  (* Deleting an absent key appends nothing: there is no record to
     shadow. *)
  if Hashtbl.mem t.index key then begin
    append_bytes ?sync t (Record.frame ~op:Record.Delete ~key ~value:"");
    note_delete t key;
    t.appends <- t.appends + 1;
    Trace.Counter.incr t.c_appends;
    if t.active_bytes >= t.segment_bytes then rotate t;
    maybe_compact t
  end

let get t key =
  match Hashtbl.find_opt t.index key with
  | Some e -> Some e.value
  | None -> None

let keys_with_prefix t prefix =
  let n = String.length prefix in
  Hashtbl.fold
    (fun k _ acc ->
      if String.length k >= n && String.sub k 0 n = prefix then k :: acc
      else acc)
    t.index []
  |> List.sort String.compare

let key_count t = Hashtbl.length t.index

(* --- recovery ----------------------------------------------------------- *)

let open_ ?(segment_bytes = 1 lsl 20) ?(compact_min_dead = 64)
    ?(auto_compact = true) ?(fsync = false) ~dir () =
  mkdir_p dir;
  let tr = Trace.ambient () in
  let t =
    {
      dir;
      segment_bytes;
      compact_min_dead;
      auto_compact;
      fsync;
      index = Hashtbl.create 256;
      tombstones = Hashtbl.create 64;
      live = Hashtbl.create 16;
      recs = Hashtbl.create 16;
      files = Hashtbl.create 16;
      sealed = [];
      active = 0;
      chan = None;
      active_bytes = 0;
      sealed_records = 0;
      sealed_dead = 0;
      fault_budget = None;
      dead = false;
      appends = 0;
      rotations = 0;
      compactions = 0;
      segments_dropped = 0;
      recovered_records = 0;
      torn_bytes = 0;
      corrupt_records = 0;
      c_appends = Trace.counter tr "store.appends";
      c_compactions = Trace.counter tr "store.compactions";
      c_dropped = Trace.counter tr "store.segments_dropped";
      c_recovered = Trace.counter tr "store.recovered_records";
      c_torn_bytes = Trace.counter tr "store.torn_bytes";
      c_crc_rejects = Trace.counter tr "store.crc_rejects";
      c_fsyncs = Trace.counter tr "store.fsyncs";
      c_group_commits = Trace.counter tr "store.group_commits";
    }
  in
  (* Inventory the directory. A leftover compact.tmp is an uncommitted
     merge: discard it. The newest base snapshot obsoletes every
     segment (and older base) at or below its id. *)
  let names = Sys.readdir dir in
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".tmp" then
        remove_file (Filename.concat dir n))
    names;
  let parsed =
    Array.to_list names |> List.filter_map parse_name
    |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
  in
  let newest_base =
    List.fold_left
      (fun acc -> function `Base, id -> max acc id | `Seg, _ -> acc)
      (-1) parsed
  in
  let survivors =
    List.filter
      (fun (kind, id) ->
        let keep =
          match kind with
          | `Base -> id = newest_base
          | `Seg -> id > newest_base
        in
        if not keep then
          remove_file
            (Filename.concat t.dir
               (match kind with
               | `Base -> Filename.basename (base_path dir id)
               | `Seg -> Filename.basename (seg_path dir id)));
        keep)
      parsed
  in
  (* Replay in order; stop at the first torn/corrupt record — truncate
     there and discard everything after it. *)
  let stopped = ref false in
  let loaded = ref [] in
  List.iter
    (fun (kind, id) ->
      let path =
        match kind with `Base -> base_path dir id | `Seg -> seg_path dir id
      in
      if !stopped then begin
        remove_file path;
        t.segments_dropped <- t.segments_dropped + 1;
        Trace.Counter.incr t.c_dropped
      end
      else begin
        (* seal the previously replayed file before starting this one *)
        (match !loaded with
        | prev :: _ -> seal_bookkeeping t prev
        | [] -> ());
        Hashtbl.replace t.files id path;
        ignore (count_of t.live id);
        ignore (count_of t.recs id);
        t.active <- id;
        loaded := id :: !loaded;
        let buf = read_file path in
        let len = String.length buf in
        let rec scan off =
          match Record.read buf off with
          | Record.Record (op, key, value, next) ->
              (match op with
              | Record.Put -> note_put t key value
              | Record.Delete -> note_delete t key);
              t.recovered_records <- t.recovered_records + 1;
              Trace.Counter.incr t.c_recovered;
              scan next
          | Record.End -> ()
          | Record.Torn | Record.Corrupt ->
              (match Record.read buf off with
              | Record.Corrupt ->
                  t.corrupt_records <- t.corrupt_records + 1;
                  Trace.Counter.incr t.c_crc_rejects
              | _ -> ());
              t.torn_bytes <- t.torn_bytes + (len - off);
              Trace.Counter.add t.c_torn_bytes (len - off);
              let oc = open_out_bin path in
              output_substring oc buf 0 off;
              close_out oc;
              stopped := true
        in
        scan 0
      end)
    survivors;
  (* The last surviving file becomes the active segment — unless it is
     a base snapshot or already full, in which case it is sealed and a
     fresh segment is opened. *)
  (match !loaded with
  | [] -> open_active t (newest_base + 1)
  | last :: _ ->
      let is_base =
        match Hashtbl.find_opt t.files last with
        | Some p -> Filename.basename p = Filename.basename (base_path dir last)
        | None -> false
      in
      t.active <- last;
      if is_base then begin
        seal_bookkeeping t last;
        open_active t (next_seg_id t)
      end
      else begin
        open_active t last;
        if t.active_bytes >= t.segment_bytes then rotate t
      end);
  t

let close t =
  (match t.chan with Some oc -> close_out oc | None -> ());
  t.chan <- None

(* --- fault injection ----------------------------------------------------- *)

let set_fault t ~after_bytes =
  if after_bytes < 0 then invalid_arg "Store.Log.set_fault";
  t.fault_budget <- Some after_bytes

let is_dead t = t.dead

(* --- exposure ------------------------------------------------------------- *)

(* Certified commit points go through this adapter, so the "survives
   a power cut" claim is anchored here: [sync] defaults on, making
   every record append fsync before the operation returns. Pass
   ~sync:false only when the caller batches its own sync points. *)
let stable ?(sync = true) t =
  Stable.make
    ~put:(fun k v -> put ~sync t k v)
    ~get:(get t)
    ~delete:(fun k -> delete ~sync t k)
    ~keys_with_prefix:(keys_with_prefix t)
    ~size:(fun () -> Hashtbl.length t.index)
    ()

(* Pay one deferred fsync for everything appended since the last sync
   point. Bytes are already with the kernel ([append_bytes] flushes),
   so this is the group-commit boundary: before it, appended records
   survive a process kill but not a power cut. *)
let sync t =
  match t.chan with
  | None -> ()
  | Some oc -> (
      Trace.Counter.incr t.c_fsyncs;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ())

(* Group-commit variant of [stable]: record appends are flush-only and
   the deferred fsync is paid in [Stable.flush] — which the pub/sub
   engine calls once per tick barrier, coalescing every certified
   frontier/low-watermark persist of the tick into one sync
   ([store.group_commits] counts the non-empty flushes). *)
let group_stable t =
  let dirty = ref false in
  Stable.make ~grouped:true
    ~flush:(fun () ->
      if !dirty then begin
        dirty := false;
        sync t;
        Trace.Counter.incr t.c_group_commits
      end)
    ~put:(fun k v ->
      put ~sync:false t k v;
      dirty := true)
    ~get:(get t)
    ~delete:(fun k ->
      delete ~sync:false t k;
      dirty := true)
    ~keys_with_prefix:(keys_with_prefix t)
    ~size:(fun () -> Hashtbl.length t.index)
    ()

type stats = {
  keys : int;
  segments : int;
  disk_bytes : int;
  appends : int;
  rotations : int;
  compactions : int;
  segments_dropped : int;
  recovered_records : int;
  torn_bytes : int;
  corrupt_records : int;
  tombstones : int;
}

let stats t =
  let disk_bytes =
    Hashtbl.fold
      (fun _ path acc ->
        if Sys.file_exists path then (
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          close_in ic;
          acc + n)
        else acc)
      t.files 0
  in
  {
    keys = Hashtbl.length t.index;
    segments = Hashtbl.length t.files;
    disk_bytes;
    appends = t.appends;
    rotations = t.rotations;
    compactions = t.compactions;
    segments_dropped = t.segments_dropped;
    recovered_records = t.recovered_records;
    torn_bytes = t.torn_bytes;
    corrupt_records = t.corrupt_records;
    tombstones = Hashtbl.length t.tombstones;
  }
