(* Ablations — what each design ingredient buys.

   A1: compound-filter indexing. Three arms on the same population:
       naive (each filter fully evaluated), memoized atoms (each
       unique condition evaluated once, counting over subscriptions —
       factoring without the equality clusters / sorted thresholds),
       and the full indexed compound filter. The three must return the
       same match set for every event; a disagreement aborts the run.
   A2: why reliable broadcast floods: delivery ratio of one direct
       send per member vs flooding relays, across loss rates.
   A3: lpbcast's pull (id digests + retrieval) on vs off.
   A4: the price of obvent uniqueness: eager per-subscription
       deserialization (the pre-COW §2.1.2 implementation) vs
       copy-on-write views (the delivery path's current strategy,
       with and without subscriber writes) vs a hypothetical shared
       decode with no isolation at all. Exports the gauge
       a4.cow_over_shared_pct, ceil (100 x cow/shared) at 64
       subs/node, to $TPBS_TRACE_FILE: CI requires level<=300, COW
       within 3x of shared. *)

module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Obvent = Tpbs_obvent.Obvent
module Rng = Tpbs_sim.Rng
module Rfilter = Tpbs_filter.Rfilter
module Factored = Tpbs_filter.Factored
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Membership = Tpbs_group.Membership
module Best_effort = Tpbs_group.Best_effort
module Rbcast = Tpbs_group.Rbcast
module Gossip = Tpbs_group.Gossip
module Trace = Tpbs_trace.Trace

(* --- A1 ----------------------------------------------------------------- *)

(* Factoring without indexes: unique atoms evaluated one by one, then
   the counting algorithm. *)
module Memoized = struct
  type t = {
    atoms : Rfilter.atom array;  (* unique *)
    subs : (int * int array) list;  (* sub id, atom indices *)
  }

  let build rfilters =
    let tbl = Hashtbl.create 256 in
    let atoms = ref [] in
    let n = ref 0 in
    let intern (a : Rfilter.atom) =
      let key = a.path, a.cmp, a.const in
      match Hashtbl.find_opt tbl key with
      | Some i -> i
      | None ->
          let i = !n in
          incr n;
          Hashtbl.add tbl key i;
          atoms := a :: !atoms;
          i
    in
    let subs =
      List.mapi
        (fun sid rf ->
          match Rfilter.conjunction_atoms rf with
          | Some atom_list ->
              sid, Array.of_list (List.sort_uniq Int.compare (List.map intern atom_list))
          | None -> sid, [||])
        rfilters
    in
    { atoms = Array.of_list (List.rev !atoms); subs }

  let matches t root =
    let truth = Array.map (fun a -> Rfilter.eval_atom root a) t.atoms in
    List.filter_map
      (fun (sid, indices) ->
        if Array.length indices > 0 && Array.for_all (fun i -> truth.(i)) indices
        then Some sid
        else None)
      t.subs
end

let a1 () =
  Workload.table_header
    "A1  filter-matching ablation: naive / memoized atoms / full index"
    [ "subs"; "naive(us/evt)"; "memoized(us/evt)"; "indexed(us/evt)" ];
  let reg = Workload.registry () in
  List.iter
    (fun n ->
      let rng = Rng.create (100 + n) in
      let rfilters =
        List.filter_map
          (Rfilter.of_expr ~env:[] ~param:"StockQuote")
          (Workload.filter_population rng ~n ~redundancy:0.5 ~pool:(n / 20))
      in
      let events =
        Array.init 200 (fun _ ->
            Obvent.to_value (Workload.random_event reg rng ~cls:"StockQuote" ()))
      in
      let arr = Array.of_list rfilters in
      let t_naive =
        Workload.time_per_op ~runs:3 (fun () ->
            Array.iter
              (fun ev -> Array.iter (fun rf -> ignore (Rfilter.eval rf ev)) arr)
              events)
      in
      let memo = Memoized.build rfilters in
      let t_memo =
        Workload.time_per_op ~runs:3 (fun () ->
            Array.iter (fun ev -> ignore (Memoized.matches memo ev)) events)
      in
      let factored = Factored.create () in
      List.iteri (fun i rf -> Factored.add factored ~id:i rf) rfilters;
      Array.iter
        (fun ev ->
          let naive =
            List.concat
              (List.mapi (fun i rf -> if Rfilter.eval rf ev then [ i ] else []) rfilters)
          in
          if Memoized.matches memo ev <> naive || Factored.matches factored ev <> naive
          then begin
            Fmt.epr "A1: the arms disagree at %d filters on %a@." n Value.pp ev;
            exit 1
          end)
        events;
      let t_index =
        Workload.time_per_op ~runs:3 (fun () ->
            Array.iter (fun ev -> ignore (Factored.matches factored ev)) events)
      in
      let us t = t /. 200. *. 1e6 in
      Fmt.pr "%5d  %13.2f  %16.2f  %15.2f@." n (us t_naive) (us t_memo)
        (us t_index))
    [ 500; 2000; 8000 ]

(* --- A2 ----------------------------------------------------------------- *)

let a2 () =
  Workload.table_header
    "A2  reliability ablation: direct per-member send vs flooding relays"
    [ "loss"; "direct delivery"; "flood delivery"; "direct msgs"; "flood msgs" ];
  let run_arm ~loss ~flood =
    let engine = Engine.create ~seed:77 () in
    let net = Net.create ~config:{ Net.default_config with loss } engine in
    let nodes = Array.init 10 (fun _ -> Net.add_node net) in
    let group = Membership.create net (Array.to_list nodes) in
    let count = ref 0 in
    if flood then begin
      let protos =
        Array.map
          (fun me ->
            Rbcast.attach group ~me ~name:"a2" ~deliver:(fun ~origin:_ _ ->
                incr count))
          nodes
      in
      for i = 1 to 30 do
        Rbcast.bcast protos.(i mod 10) "x"
      done
    end
    else begin
      let protos =
        Array.map
          (fun me ->
            Best_effort.attach group ~me ~name:"a2" ~deliver:(fun ~origin:_ _ ->
                incr count))
          nodes
      in
      for i = 1 to 30 do
        Best_effort.bcast protos.(i mod 10) "x"
      done
    end;
    Engine.run engine;
    float_of_int !count /. float_of_int (30 * 10), (Net.stats net).Net.sent
  in
  List.iter
    (fun loss ->
      let d_ratio, d_msgs = run_arm ~loss ~flood:false in
      let f_ratio, f_msgs = run_arm ~loss ~flood:true in
      Fmt.pr "%4.0f%%  %15.1f%%  %14.1f%%  %11d  %10d@." (100. *. loss)
        (100. *. d_ratio) (100. *. f_ratio) d_msgs f_msgs)
    [ 0.0; 0.1; 0.3; 0.5 ]

(* --- A3 ----------------------------------------------------------------- *)

let a3 () =
  (* The pull mechanism's value is recovery *speed*: a lost push is
     repaired the next round by retrieval instead of waiting for
     another random infection. Measure delivery at early horizons,
     averaged over seeds. *)
  Workload.table_header
    "A3  lpbcast pull (digests + retrieval) on vs off — delivery over time"
    [ "horizon"; "pull delivery"; "push-only delivery" ];
  let n = 60 and loss = 0.4 in
  let run_arm ~seed ~pull ~horizon =
    let engine = Engine.create ~seed () in
    let net = Net.create ~config:{ Net.default_config with loss } engine in
    let nodes = Array.init n (fun _ -> Net.add_node net) in
    let group = Membership.create net (Array.to_list nodes) in
    let rng = Rng.create 8 in
    let count = ref 0 in
    let protos =
      Array.map
        (fun me ->
          let seed_view =
            List.map (fun k -> nodes.(k)) (Rng.sample_without_replacement rng 4 n)
          in
          Gossip.attach
            ~config:{ Gossip.default_config with fanout = 1; pull }
            group ~me ~name:"a3" ~seed_view
            ~deliver:(fun ~origin:_ _ -> incr count))
        nodes
    in
    for i = 1 to 5 do
      Gossip.bcast protos.(i) (Printf.sprintf "e%d" i)
    done;
    Engine.run ~until:horizon engine;
    Array.iter Gossip.stop protos;
    Engine.run engine;
    float_of_int !count /. float_of_int (n * 5)
  in
  let seeds = [ 91; 92; 93; 94; 95 ] in
  let avg ~pull ~horizon =
    List.fold_left (fun acc seed -> acc +. run_arm ~seed ~pull ~horizon) 0. seeds
    /. float_of_int (List.length seeds)
  in
  List.iter
    (fun horizon ->
      Fmt.pr "%7d  %12.1f%%  %17.1f%%@." horizon
        (100. *. avg ~pull:true ~horizon)
        (100. *. avg ~pull:false ~horizon))
    [ 10_000; 20_000; 40_000; 80_000 ]

(* --- A4 ----------------------------------------------------------------- *)

let a4 () =
  Workload.table_header
    "A4  obvent uniqueness: eager decode / cow views / cow+write / shared"
    [ "subs/node"; "eager(us/evt)"; "cow(us/evt)"; "cow+write(us/evt)";
      "shared(us/evt)"; "eager/shared"; "cow/shared" ];
  Workload.json_table ~key:"a4"
    ~cols:
      [ "subs"; "eager_us"; "cow_us"; "cow_write_us"; "shared_us";
        "eager_over_shared"; "cow_over_shared" ];
  let reg = Workload.registry () in
  let rng = Rng.create 3 in
  let event = Workload.random_event reg rng ~cls:"StockQuote" () in
  let bytes = Obvent.serialize event in
  let tr = Trace.create () in
  let pct = Trace.gauge tr "a4.cow_over_shared_pct" in
  List.iter
    (fun n ->
      (* The §2.1.2 guarantee paid eagerly: one full deserialization
         per subscription (the EagerClone fallback path). *)
      let t_eager =
        Workload.time_per_op ~runs:2000 (fun () ->
            for _ = 1 to n do
              ignore (Obvent.deserialize reg bytes)
            done)
      in
      (* The delivery path today: one gating decode, n-1 O(1) views. *)
      let t_cow =
        Workload.time_per_op ~runs:2000 (fun () ->
            let gate = Obvent.deserialize reg bytes in
            for _ = 2 to n do
              ignore (Obvent.view gate)
            done)
      in
      (* Worst case for COW: every subscriber mutates its clone, so
         every view pays the write barrier and a spine rebuild. *)
      let t_cow_write =
        Workload.time_per_op ~runs:2000 (fun () ->
            let gate = Obvent.deserialize reg bytes in
            for _ = 2 to n do
              let v = Obvent.view gate in
              Obvent.set reg v "price" (Value.Float 1.)
            done)
      in
      (* No isolation at all: the lower bound COW chases. *)
      let t_shared =
        Workload.time_per_op ~runs:2000 (fun () ->
            let shared = Obvent.deserialize reg bytes in
            for _ = 1 to n do
              ignore (Obvent.cls shared)
            done)
      in
      let eager_ratio = t_eager /. Float.max 1e-9 t_shared in
      let cow_ratio = t_cow /. Float.max 1e-9 t_shared in
      (* the level is the last row's: 64 subs/node *)
      Trace.Gauge.set pct (int_of_float (Float.ceil (100. *. cow_ratio)));
      Fmt.pr "%9d  %13.2f  %11.2f  %17.2f  %14.2f  %11.1fx  %9.1fx@." n
        (t_eager *. 1e6) (t_cow *. 1e6) (t_cow_write *. 1e6)
        (t_shared *. 1e6) eager_ratio cow_ratio;
      Workload.json_row ~key:"a4"
        [ J_int n; J_float (t_eager *. 1e6); J_float (t_cow *. 1e6);
          J_float (t_cow_write *. 1e6); J_float (t_shared *. 1e6);
          J_float eager_ratio; J_float cow_ratio ])
    [ 1; 4; 16; 64 ];
  Trace.write_file tr (Workload.trace_path ())

let run () =
  a1 ();
  a2 ();
  a3 ();
  a4 ()
