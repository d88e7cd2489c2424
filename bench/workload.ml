(* Shared workload generators for the experiment harness: the stock
   trade application of the paper's running example, scaled up. *)

module Registry = Tpbs_types.Registry
module Vtype = Tpbs_types.Vtype
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module Expr = Tpbs_filter.Expr
module Rng = Tpbs_sim.Rng
module Jsonl = Tpbs_trace.Jsonl

let companies =
  [| "Telco Mobiles"; "Telco Fixnet"; "Telco Cloud"; "Acme Corp";
     "Acme Retail"; "Banka"; "Octopus"; "Initech"; "Globex"; "Umbrella";
     "Stark Industries"; "Wayne Enterprises"; "Tyrell"; "Cyberdyne";
     "Wonka Industries"; "Gringotts" |]

let sectors = [| "telco"; "industry"; "finance"; "retail" |]

(* The Fig. 1 hierarchy plus QoS'd classes for the semantics ladder. *)
let registry () =
  let reg = Registry.create () in
  Registry.declare_class reg ~name:"StockObvent" ~implements:[ "Obvent" ]
    ~attrs:
      [ "company", Vtype.Tstring; "sector", Vtype.Tstring;
        "price", Vtype.Tfloat; "amount", Vtype.Tint ]
    ();
  Registry.declare_class reg ~name:"StockQuote" ~extends:"StockObvent" ();
  Registry.declare_class reg ~name:"StockRequest" ~extends:"StockObvent" ();
  Registry.declare_class reg ~name:"SpotPrice" ~extends:"StockRequest" ();
  Registry.declare_class reg ~name:"MarketPrice" ~extends:"StockRequest" ();
  List.iter
    (fun (name, itfs) ->
      Registry.declare_class reg ~name ~extends:"StockQuote"
        ~implements:itfs ())
    [ "ReliableQuote", [ "Reliable" ]; "FifoQuote", [ "FIFOOrder" ];
      "CausalQuote", [ "CausalOrder" ]; "TotalQuote", [ "TotalOrder" ];
      "CertifiedQuote", [ "Certified" ];
      (* Composed lattice points (multiple subtyping, Fig. 3/4). *)
      "CertFifoQuote", [ "Certified"; "FIFOOrder" ];
      "CertTotalQuote", [ "Certified"; "TotalOrder" ];
      "CausalTotalQuote", [ "CausalOrder"; "TotalOrder" ] ];
  reg

let leaf_classes = [| "StockQuote"; "SpotPrice"; "MarketPrice" |]

let random_event reg rng ?cls () =
  let cls =
    match cls with Some c -> c | None -> Rng.pick rng leaf_classes
  in
  Obvent.make reg cls
    [ "company", Value.Str (Rng.pick rng companies);
      "sector", Value.Str (Rng.pick rng sectors);
      "price", Value.Float (Rng.float rng 200.);
      "amount", Value.Int (1 + Rng.int rng 1000) ]

(* A random conjunctive filter over the stock attributes, as a filter
   expression. [selectivity_hint] loosely controls how often it
   matches. *)
let random_filter rng =
  (* Selectivities mirror content-based pub/sub workloads: mostly
     selective equality tests on discrete attributes, some narrow
     ranges (cf. the Gryphon/Siena workloads behind [ASS+99]). *)
  let price_atom () =
    (* ~20% selective on uniform prices in [0, 200). *)
    Expr.(getter [ "getPrice" ] <. float (10. +. Rng.float rng 60.))
  in
  let company_atom () =
    if Rng.bool rng 0.75 then
      Expr.(Binop (Eq, getter [ "getCompany" ], str (Rng.pick rng companies)))
    else
      Expr.(
        Binop
          ( Contains,
            getter [ "getCompany" ],
            str (String.sub (Rng.pick rng companies) 0 4) ))
  in
  let sector_atom () =
    Expr.(Binop (Eq, getter [ "getSector" ], str (Rng.pick rng sectors)))
  in
  let amount_atom () =
    Expr.(getter [ "getAmount" ] >. int (600 + Rng.int rng 400))
  in
  let atoms =
    [| price_atom; company_atom; company_atom; sector_atom; amount_atom |]
  in
  let n = 1 + Rng.int rng 3 in
  let rec build k =
    let atom = (Rng.pick rng atoms) () in
    if k = 1 then atom else Expr.(atom &&& build (k - 1))
  in
  build n

(* A population of N filters where a fraction [redundancy] is drawn
   from a pool of [pool] distinct filters — the sharing compound
   filtering exploits (E3). *)
let filter_population rng ~n ~redundancy ~pool =
  let shared = Array.init (max 1 pool) (fun _ -> random_filter rng) in
  List.init n (fun _ ->
      if Rng.bool rng redundancy then Rng.pick rng shared
      else random_filter rng)

let table_header title columns =
  Fmt.pr "@.== %s ==@." title;
  Fmt.pr "%s@." (String.concat "  " columns)

let time_per_op f ~runs =
  (* CPU seconds per op, by repetition. *)
  let t0 = Sys.time () in
  for _ = 1 to runs do
    f ()
  done;
  (Sys.time () -. t0) /. float_of_int runs

(* The file a bench writes its metrics to: $TPBS_TRACE_FILE, else
   [default]. *)
let trace_path ?(default = "tpbs_trace.jsonl") () =
  Option.value (Sys.getenv_opt "TPBS_TRACE_FILE") ~default

(* --- machine-readable table collection ------------------------------- *)

(* Experiments register their tables here as they print them; the
   harness dumps the collection to BENCH_<n>.json on --json.
   Collection is always on — it is a few lists per run. *)

type cell = J_int of int | J_float of float | J_str of string

let json_tables : (string, string list * cell list list ref) Hashtbl.t =
  Hashtbl.create 8

let json_order : string list ref = ref []

let json_table ~key ~cols =
  if not (Hashtbl.mem json_tables key) then
    json_order := !json_order @ [ key ];
  Hashtbl.replace json_tables key (cols, ref [])

let json_row ~key row =
  match Hashtbl.find_opt json_tables key with
  | None -> invalid_arg ("json_row: unregistered table " ^ key)
  | Some (_, rows) -> rows := row :: !rows

let cell_to_json = function
  | J_int i -> string_of_int i
  | J_float f ->
      if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
  | J_str s -> "\"" ^ Jsonl.escape s ^ "\""

let write_json path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{";
  List.iteri
    (fun ti key ->
      let cols, rows = Hashtbl.find json_tables key in
      if ti > 0 then out ",";
      out "\n  \"%s\": {\n    \"columns\": [%s],\n    \"rows\": ["
        (Jsonl.escape key)
        (String.concat ", "
           (List.map (fun c -> "\"" ^ Jsonl.escape c ^ "\"") cols));
      List.iteri
        (fun ri row ->
          if ri > 0 then out ",";
          out "\n      [%s]"
            (String.concat ", " (List.map cell_to_json row)))
        (List.rev !rows);
      out "\n    ]\n  }")
    !json_order;
  out "\n}\n";
  close_out oc;
  Fmt.pr "wrote %s (%d tables)@." path (List.length !json_order)
