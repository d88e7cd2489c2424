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
   dune exec bench/main.exe -- --guard-a4 3.0 a4
                                               -- CI perf smoke: fail if the
                                                  COW arm at 64 subs/node
                                                  exceeds 3x the shared arm
   dune exec bench/main.exe -- --guard-cover 50 e3
                                               -- CI covering smoke: fail if the
                                                  E3c install scan suppresses
                                                  less than 50% of a highly
                                                  redundant population *)

let experiments =
  [ "e1", E1_routing.run; "e2", E2_semantics.run; "e3", E3_factoring.run;
    "e4", E4_remote_filtering.run; "e5", E5_gossip.run; "e6", E6_rmi.run;
    "e7", E7_paradigms.run; "e8", E8_dgc.run; "e9", E9_threading.run;
    "e10", E10_psc.run; "e11", E11_store.run; "ablations", A1_ablations.run;
    "a1", A1_ablations.a1; "a4", A1_ablations.a4; "micro", Micro.run; "obs", Obs.run;
    "crash", Crash_smoke.run; "shard", Shard_smoke.run;
    "e13", E13_fanout.run; "msgcost", Msgcost.run ]

let json_path = "BENCH_10.json"

let guard_a4 limit =
  match Workload.json_find "a4" with
  | None ->
      Fmt.epr "--guard-a4: experiment a4 was not run@.";
      exit 1
  | Some (_, rows) -> (
      let ratio_at_64 =
        List.find_map
          (function
            | Workload.J_int 64 :: _ as row -> (
                match List.nth_opt row 6 with
                | Some (Workload.J_float r) -> Some r
                | _ -> None)
            | _ -> None)
          rows
      in
      match ratio_at_64 with
      | None ->
          Fmt.epr "--guard-a4: no 64-subs row in the a4 table@.";
          exit 1
      | Some r when r > limit ->
          Fmt.epr
            "--guard-a4: cow/shared at 64 subs/node is %.2fx, above the \
             %.2fx budget@."
            r limit;
          exit 1
      | Some r ->
          Fmt.pr "a4 guard: cow/shared at 64 subs/node = %.2fx (budget \
                  %.2fx)@."
            r limit)

let guard_cover floor =
  match Workload.json_find "e3c_suppression" with
  | None ->
      Fmt.epr "--guard-cover: the E3c suppression table was not produced \
               (run e3)@.";
      exit 1
  | Some (_, rows) -> (
      (* last row = largest population at the highest redundancy *)
      let rate =
        match List.rev rows with
        | last :: _ -> (
            match List.nth_opt last 4 with
            | Some (Workload.J_float r) -> Some r
            | _ -> None)
        | [] -> None
      in
      match rate with
      | None ->
          Fmt.epr "--guard-cover: no rows in the E3c suppression table@.";
          exit 1
      | Some r when r < floor ->
          Fmt.epr
            "--guard-cover: install scan suppressed %.0f%% of the redundant \
             population, below the %.0f%% floor@."
            r floor;
          exit 1
      | Some r ->
          Fmt.pr "cover guard: %.0f%% of redundant subs suppressed (floor \
                  %.0f%%)@."
            r floor)

let () =
  let rec parse json guard cover names = function
    | [] -> json, guard, cover, List.rev names
    | "--json" :: rest -> parse true guard cover names rest
    | "--guard-a4" :: limit :: rest -> (
        match float_of_string_opt limit with
        | Some l -> parse json (Some l) cover names rest
        | None ->
            Fmt.epr "--guard-a4 expects a ratio, got %s@." limit;
            exit 1)
    | [ "--guard-a4" ] ->
        Fmt.epr "--guard-a4 expects a ratio@.";
        exit 1
    | "--guard-cover" :: floor :: rest -> (
        match float_of_string_opt floor with
        | Some f -> parse json guard (Some f) names rest
        | None ->
            Fmt.epr "--guard-cover expects a percentage, got %s@." floor;
            exit 1)
    | [ "--guard-cover" ] ->
        Fmt.epr "--guard-cover expects a percentage@.";
        exit 1
    | name :: rest -> parse json guard cover (name :: names) rest
  in
  let json, guard, cover, requested =
    parse false None None [] (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match requested with [] -> List.map fst experiments | names -> names
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
  if json then Workload.write_json json_path;
  Option.iter guard_a4 guard;
  Option.iter guard_cover cover
