(* E3 — Compound-filter factoring (§2.3.2, §3.3.3, [ASS+99]).

   N subscriber filters on one filtering host, with a controlled
   fraction of redundancy (subscribers sharing criteria, the common
   case the paper argues for). Arms:

   - naive:    evaluate every filter on every event;
   - factored: the compound filter (shared paths, hash-bucketed
               equality, binary-searched thresholds, counting
               algorithm).

   Reported: unique/total conditions, match time per event, speedup,
   and the further redundancy the subsumption analysis finds. The
   paper's claim: "performance can be significantly improved". *)

module Rng = Tpbs_sim.Rng
module Rfilter = Tpbs_filter.Rfilter
module Expr = Tpbs_filter.Expr
module Factored = Tpbs_filter.Factored
module Subsume = Tpbs_filter.Subsume
module Obvent = Tpbs_obvent.Obvent
module Trace = Tpbs_trace.Trace

let events_n = 300

let run_cell ~n ~redundancy =
  let reg = Workload.registry () in
  let rng = Rng.create (n + int_of_float (redundancy *. 1000.)) in
  let filters =
    Workload.filter_population rng ~n ~redundancy ~pool:(max 1 (n / 20))
  in
  let rfilters =
    List.filter_map
      (Rfilter.of_expr ~env:[] ~param:"StockQuote")
      filters
  in
  let events =
    Array.init events_n (fun _ ->
        Obvent.to_value (Workload.random_event reg rng ~cls:"StockQuote" ()))
  in
  let factored = Factored.create () in
  List.iteri (fun i rf -> Factored.add factored ~id:i rf) rfilters;
  let arr = Array.of_list rfilters in
  let naive_count = ref 0 in
  let t_naive =
    Workload.time_per_op ~runs:3 (fun () ->
        naive_count := 0;
        Array.iter
          (fun ev ->
            Array.iter
              (fun rf -> if Rfilter.eval rf ev then incr naive_count)
              arr)
          events)
  in
  let fact_count = ref 0 in
  let t_fact =
    Workload.time_per_op ~runs:3 (fun () ->
        fact_count := 0;
        Array.iter
          (fun ev ->
            fact_count := !fact_count + List.length (Factored.matches factored ev))
          events)
  in
  assert (!naive_count = !fact_count);
  let stats = Factored.stats factored in
  let covered = Subsume.count_covered rfilters in
  ( List.length rfilters,
    stats.Factored.unique_atoms,
    stats.Factored.total_atoms,
    t_naive /. float_of_int events_n *. 1e6,
    t_fact /. float_of_int events_n *. 1e6,
    covered )

(* Second table: static pruning of provably-false filters (the lint
   TP001 class, applied by the engine at subscription time). A fraction
   [dead] of the population is contradictory; every pruned filter saves
   one evaluation on every event. *)
let dead_filter rng =
  let x = float_of_int (Rng.int rng 50) in
  Expr.(
    getter [ "getPrice" ] <. float x &&& (getter [ "getPrice" ] >. float (x +. 10.)))

let run_prune_cell ~n ~dead =
  let rng = Rng.create (n + int_of_float (dead *. 1000.)) in
  let reg = Workload.registry () in
  let filters =
    List.init n (fun _ ->
        if Rng.bool rng dead then dead_filter rng
        else Workload.random_filter rng)
  in
  let rfilters =
    List.filter_map (Rfilter.of_expr ~env:[] ~param:"StockQuote") filters
  in
  let kept = List.filter (fun rf -> not (Subsume.unsat rf)) rfilters in
  let pruned = List.length rfilters - List.length kept in
  let events =
    Array.init events_n (fun _ ->
        Obvent.to_value (Workload.random_event reg rng ~cls:"StockQuote" ()))
  in
  let eval_all fs =
    let arr = Array.of_list fs in
    Workload.time_per_op ~runs:3 (fun () ->
        Array.iter
          (fun ev -> Array.iter (fun rf -> ignore (Rfilter.eval rf ev)) arr)
          events)
  in
  let t_all = eval_all rfilters in
  let t_kept = eval_all kept in
  ( List.length rfilters,
    pruned,
    t_all /. float_of_int events_n *. 1e6,
    t_kept /. float_of_int events_n *. 1e6 )

(* Third table pair: the covering tier that backs [pscc lint
   --deployment] and the broker's suppression index.

   e3c_decision — cost of one [Subsume.covers] decision as the filters
   grow (k conjunction atoms per side), in both the provable direction
   (narrow ⊆ wide) and the refutable one (wide ⊈ narrow).

   e3c_suppression — the broker install scan: filters arrive in order,
   each is suppressed iff an already-installed one covers it. Reported
   per (population, redundancy) cell, with the install time per
   covering decision. The gauge e3c.suppressed_pct, the floor of the
   last row's rate (the largest population at the highest redundancy),
   goes to $TPBS_TRACE_FILE: CI requires level>=50. *)

let conj ~k ~slack =
  let atom i =
    let c = i * 3 in
    if i mod 2 = 0 then
      Expr.(getter [ "getPrice" ] >=. float (float_of_int (c - slack)))
    else Expr.(getter [ "getAmount" ] <=. int (1000 - c + slack))
  in
  List.fold_left
    (fun acc i -> Expr.(acc &&& atom i))
    (atom 0)
    (List.init (max 0 (k - 1)) (fun i -> i + 1))

let rf_exn expr =
  match Rfilter.of_expr ~env:[] ~param:"StockQuote" expr with
  | Some rf -> rf
  | None -> failwith "e3c: expression did not lift to a remote filter"

let decision_runs = 200

let run_decision_cell ~k =
  let reg = Workload.registry () in
  let narrow = rf_exn (conj ~k ~slack:0) in
  let wide = rf_exn (conj ~k ~slack:5) in
  let covers = Subsume.covers ~registry:reg ~param:"StockQuote" in
  assert (covers narrow wide);
  assert (not (covers wide narrow));
  let time dir =
    Workload.time_per_op ~runs:3 (fun () ->
        for _ = 1 to decision_runs do
          ignore (dir ())
        done)
    /. float_of_int decision_runs *. 1e6
  in
  let t_yes = time (fun () -> covers narrow wide) in
  let t_no = time (fun () -> covers wide narrow) in
  (2 * k, t_yes, t_no)

(* The real install path: every filter is subscribed, in order, to a
   covering broker core as one destination's subscription, so each is
   suppressed iff an installed one covers it. *)
let run_suppression_cell ~n ~redundancy =
  let reg = Workload.registry () in
  let rng = Rng.create (n + int_of_float (redundancy *. 1000.) + 7) in
  let filters =
    Workload.filter_population rng ~n ~redundancy ~pool:(max 1 (n / 20))
    |> List.filter_map (Rfilter.of_expr ~env:[] ~param:"StockQuote")
    |> List.map Rfilter.to_value
  in
  let core =
    Tpbs_core.Broker_core.create ~covering:true ~equal:(fun () () -> true) reg
  in
  let t0 = Sys.time () in
  List.iteri
    (fun id filter ->
      Tpbs_core.Broker_core.subscribe core ~id ~dest:() ~param:"StockQuote"
        filter)
    filters;
  let dt = Sys.time () -. t0 in
  let st = Tpbs_core.Broker_core.stats core in
  let total = List.length filters in
  ( total,
    st.installed,
    st.covered,
    100. *. float_of_int st.covered /. float_of_int (max 1 total),
    dt /. float_of_int (max 1 st.cover_checks) *. 1e6 )

let run_cover () =
  Workload.table_header
    "E3c covering decisions (Subsume.covers) and broker-side suppression"
    [ "atoms"; "covered(us)"; "not-covered(us)" ];
  Workload.json_table ~key:"e3c_decision"
    ~cols:[ "atoms"; "covered_us"; "not_covered_us" ];
  List.iter
    (fun k ->
      let atoms, t_yes, t_no = run_decision_cell ~k in
      Fmt.pr "%5d  %11.2f  %15.2f@." atoms t_yes t_no;
      Workload.json_row ~key:"e3c_decision"
        [ Workload.J_int atoms; Workload.J_float t_yes; Workload.J_float t_no ])
    [ 1; 2; 4; 8; 16 ];
  Workload.table_header
    "E3c broker install scan: subs suppressed by an installed coverer"
    [ "subs"; "redund"; "installed"; "suppressed"; "rate"; "decision(us)" ];
  Workload.json_table ~key:"e3c_suppression"
    ~cols:
      [ "subs"; "redundancy_pct"; "installed"; "suppressed";
        "suppressed_pct"; "decision_us" ];
  let tr = Trace.create () in
  let pct = Trace.gauge tr "e3c.suppressed_pct" in
  List.iter
    (fun n ->
      List.iter
        (fun redundancy ->
          let total, installed, suppressed, rate, dec_us =
            run_suppression_cell ~n ~redundancy
          in
          Fmt.pr "%5d  %6.0f%%  %9d  %10d  %4.0f%%  %11.2f@." total
            (100. *. redundancy) installed suppressed rate dec_us;
          Trace.Gauge.set pct (int_of_float (Float.floor rate));
          Workload.json_row ~key:"e3c_suppression"
            [ Workload.J_int total;
              Workload.J_float (100. *. redundancy);
              Workload.J_int installed; Workload.J_int suppressed;
              Workload.J_float rate; Workload.J_float dec_us ])
        [ 0.0; 0.5; 0.9 ])
    [ 100; 1000 ];
  Trace.write_file tr (Workload.trace_path ())

let run () =
  Workload.table_header
    "E3  compound-filter factoring vs naive per-subscriber evaluation"
    [ "subs"; "redund"; "uniq-conds"; "total-conds"; "naive(us/evt)";
      "factored(us/evt)"; "speedup"; "subsumed" ];
  List.iter
    (fun n ->
      List.iter
        (fun redundancy ->
          let subs, uniq, total, t_naive, t_fact, covered =
            run_cell ~n ~redundancy
          in
          Fmt.pr "%5d  %6.0f%%  %10d  %11d  %13.2f  %16.2f  %7.1fx  %8d@."
            subs (100. *. redundancy) uniq total t_naive t_fact
            (t_naive /. Float.max 1e-9 t_fact)
            covered)
        [ 0.0; 0.5; 0.9 ])
    [ 100; 1000; 4000 ];
  Workload.table_header
    "E3b static pruning of unsatisfiable filters (lint TP001 at the engine)"
    [ "subs"; "dead"; "pruned"; "all(us/evt)"; "pruned-out(us/evt)";
      "evals-saved/evt" ];
  List.iter
    (fun n ->
      List.iter
        (fun dead ->
          let subs, pruned, t_all, t_kept = run_prune_cell ~n ~dead in
          Fmt.pr "%5d  %4.0f%%  %6d  %11.2f  %18.2f  %15d@." subs
            (100. *. dead) pruned t_all t_kept pruned)
        [ 0.0; 0.1; 0.3 ])
    [ 100; 1000 ];
  run_cover ()
