(* Experiment harness: regenerates every table of EXPERIMENTS.md.

   dune exec bench/main.exe                    -- run everything
   dune exec bench/main.exe -- e3 e5           -- selected experiments
   dune exec bench/main.exe -- a1              -- CI filter check: exits 1
                                                  unless naive, memoized and
                                                  indexed matching agree
   dune exec bench/main.exe -- msgcost         -- per-message cost of the
                                                  small_typed path, stage by
                                                  stage, at read batch 1/64/256
   dune exec bench/main.exe -- --json a4 micro -- also dump BENCH_10.json

   Gates are metrics, not flags: a4, e3, crash, shard, e13 and obs
   write a JSONL metrics file to $TPBS_TRACE_FILE, and CI checks it
   with tpbs_report --require NAME:FIELD OP BOUND, e.g.

   TPBS_TRACE_FILE=a4.smoke.jsonl dune exec bench/main.exe -- a4
   dune exec bin/tpbs_report.exe -- a4.smoke.jsonl \
     --require "a4.cow_over_shared_pct:level<=300"
                                               -- COW within 3x of shared at
                                                  64 subs/node *)

let experiments =
  [ "e1", E1_routing.run; "e2", E2_semantics.run; "e3", E3_factoring.run;
    "e4", E4_remote_filtering.run; "e5", E5_gossip.run; "e6", E6_rmi.run;
    "e7", E7_paradigms.run; "e8", E8_dgc.run; "e9", E9_threading.run;
    "e10", E10_psc.run; "e11", E11_store.run; "ablations", A1_ablations.run;
    "a1", A1_ablations.a1; "a4", A1_ablations.a4; "micro", Micro.run; "obs", Obs.run;
    "crash", Crash_smoke.run; "shard", Shard_smoke.run;
    "e13", E13_fanout.run; "msgcost", Msgcost.run ]

let json_path = "BENCH_10.json"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let requested =
    match List.filter (( <> ) "--json") args with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) experiments with
      | Some run -> run ()
      | None ->
          Fmt.epr "unknown experiment %s (known: %s)@." name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested;
  if json then Workload.write_json json_path
