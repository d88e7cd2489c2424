(* Bechamel micro-benchmarks: per-operation costs of the core data
   paths. One Test.make per row. *)

open Bechamel
open Toolkit
module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Registry = Tpbs_types.Registry
module Obvent = Tpbs_obvent.Obvent
module Expr = Tpbs_filter.Expr
module Rfilter = Tpbs_filter.Rfilter
module Factored = Tpbs_filter.Factored
module Vclock = Tpbs_group.Vclock
module Rng = Tpbs_sim.Rng
module Routing = Tpbs_core.Routing
module Topics = Tpbs_baselines.Topics
module Wire = Tpbs_serial.Wire

(* The slicing-by-8 table kernel whatever the CPU, to set beside the
   kernel [Wire.crc32_sub] picked at start-up. *)
external crc32_tables :
  (int[@untagged]) ->
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "tpbs_crc32_update_tables_byte" "tpbs_crc32_update_tables"
[@@noalloc]

(* CRC rows at the two frame sizes the workloads send: a ~120 B typed
   obvent and an 8 KiB blob in its envelope (8,232 bytes). *)
let crc_tests () =
  List.concat_map
    (fun (label, n) ->
      let s = String.init n (fun i -> Char.chr ((i * 131) land 0xff)) in
      [ Test.make ~name:("crc32: active kernel " ^ label)
          (Staged.stage (fun () -> ignore (Wire.crc32_sub s ~pos:0 ~len:n)));
        Test.make ~name:("crc32: table kernel " ^ label)
          (Staged.stage (fun () -> ignore (crc32_tables 0 s 0 n))) ])
    [ ("120 B", 120); ("8232 B", 8232) ]

let tests () =
  let reg = Workload.registry () in
  let rng = Rng.create 1 in
  let event = Workload.random_event reg rng ~cls:"StockQuote" () in
  let value = Obvent.to_value event in
  let bytes = Codec.encode value in
  let filter =
    Expr.(
      getter [ "getPrice" ] <. float 100.
      &&& Binop (Contains, getter [ "getCompany" ], str "Telco"))
  in
  let rf = Option.get (Rfilter.of_expr ~env:[] ~param:"StockQuote" filter) in
  let factored_1000 = Factored.create () in
  List.iteri
    (fun i rf -> Factored.add factored_1000 ~id:i rf)
    (List.filter_map
       (Rfilter.of_expr ~env:[] ~param:"StockQuote")
       (Workload.filter_population rng ~n:1000 ~redundancy:0.5 ~pool:50));
  let vc1 = Vclock.create 32 and vc2 = Vclock.create 32 in
  for i = 0 to 31 do
    if i mod 2 = 0 then Vclock.tick vc1 i else Vclock.tick vc2 i
  done;
  let topics = Topics.create () in
  for i = 0 to 999 do
    Topics.subscribe topics
      ~topic:(Printf.sprintf "stocks/s%d" (i mod 50))
      i
  done;
  let sub_params =
    Array.init 1000 (fun _ ->
        Rng.pick rng
          [| "Obvent"; "StockObvent"; "StockRequest"; "StockQuote";
             "SpotPrice"; "MarketPrice" |])
  in
  let route = Routing.create reg in
  let route_build () cls =
    let targets = ref [] in
    for i = Array.length sub_params - 1 downto 0 do
      if Registry.subtype reg cls sub_params.(i) then targets := i :: !targets
    done;
    !targets
  in
  ignore (Routing.find route "SpotPrice" ~build:route_build ());
  let route_cold = Routing.create reg in
  let cursor = Tpbs_serial.Cursor.of_string bytes in
  [ Test.make ~name:"codec: encode obvent"
      (Staged.stage (fun () -> ignore (Codec.encode value)));
    Test.make ~name:"codec: decode obvent"
      (Staged.stage (fun () -> ignore (Codec.decode bytes)));
    Test.make ~name:"obvent: clone (serialize+deserialize)"
      (Staged.stage (fun () -> ignore (Obvent.clone reg event)));
    Test.make ~name:"obvent: cow view clone"
      (Staged.stage (fun () -> ignore (Obvent.view event)));
    Test.make ~name:"obvent: cow view + first write"
      (Staged.stage (fun () ->
           let v = Obvent.view event in
           Obvent.set reg v "price" (Value.Float 1.)));
    Test.make ~name:"cursor: class-id peek"
      (Staged.stage (fun () -> ignore (Tpbs_serial.Cursor.class_id cursor)));
    Test.make ~name:"cursor: lazy projection (1 field)"
      (Staged.stage (fun () ->
           ignore (Tpbs_serial.Cursor.project cursor [ "price" ])));
    Test.make ~name:"registry: subtype check"
      (Staged.stage (fun () ->
           ignore (Registry.subtype reg "SpotPrice" "Obvent")));
    Test.make ~name:"filter: interpreted eval"
      (Staged.stage (fun () ->
           ignore (Expr.eval_bool reg ~env:[] ~arg:event filter)));
    Test.make ~name:"filter: remote-filter eval"
      (Staged.stage (fun () -> ignore (Rfilter.matches_obvent rf event)));
    Test.make ~name:"filter: factored match (1000 subs)"
      (Staged.stage (fun () ->
           ignore (Factored.matches factored_1000 value)));
    Test.make ~name:"vclock: merge (32 ranks)"
      (Staged.stage (fun () ->
           let c = Vclock.copy vc1 in
           Vclock.merge c vc2));
    Test.make ~name:"routing: index lookup (1000 subs)"
      (Staged.stage (fun () ->
           ignore (Routing.find route "SpotPrice" ~build:route_build ())));
    Test.make ~name:"routing: entry build (1000 subs)"
      (Staged.stage (fun () ->
           Routing.clear route_cold;
           ignore (Routing.find route_cold "SpotPrice" ~build:route_build ())));
    Test.make ~name:"routing: incremental add+remove (1000 subs)"
      (Staged.stage (fun () ->
           (* Paired so the warm entry's size is steady across runs. *)
           Routing.add route ~param:"StockRequest" ~compare:Int.compare 1000;
           Routing.remove route ~param:"StockRequest" (fun i -> i = 1000)));
    Test.make ~name:"topics: match (1000 subs)"
      (Staged.stage (fun () -> ignore (Topics.publish topics ~topic:"stocks/s7")))
  ]
  @ crc_tests ()

let run () =
  Fmt.pr "@.== micro-benchmarks (Bechamel, ns/op) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()))
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  (* Print estimates sorted by name. *)
  Workload.json_table ~key:"micro" ~cols:[ "name"; "ns_per_op" ];
  (match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> Fmt.pr "(no results)@."
  | Some tbl ->
      Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, ols) ->
             match Analyze.OLS.estimates ols with
             | Some [ est ] ->
                 Fmt.pr "%-45s %12.1f@." name est;
                 Workload.json_row ~key:"micro"
                   [ J_str name; J_float est ]
             | _ -> Fmt.pr "%-45s %12s@." name "n/a"))
