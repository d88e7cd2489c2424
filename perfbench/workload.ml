(* The three workloads: obvent classes, the subscription set, and a
   seeded generator. Every event is a pure function of (seed, seq), and
   every subscription carries two forms of its filter: the Expr the
   engine lifts and ships to the broker, and an OCaml predicate over the
   generated values that the delivery oracle evaluates on its own. *)

module Value = Tpbs_serial.Value
module Vtype = Tpbs_types.Vtype
module Registry = Tpbs_types.Registry
module Expr = Tpbs_filter.Expr

type ev = {
  cls : string;
  sym : string;
  price : int;
  vol : int;
  side : string;
  fields : (string * Value.t) list;
}

type sub = {
  param : string;
  accepts : string -> bool;  (* concrete classes that reach [param] *)
  expr : Expr.t option;
  pred : ev -> bool;
  single : bool;  (* Single-threaded dispatch (§3.3.5) *)
  churn : bool;  (* re-subscribed periodically: deliveries not required *)
}

type t = {
  name : string;
  declare : Registry.t -> unit;
  subs : sub array;
  gen : int -> ev;
  churn_every : int;  (* publishes between two churn steps; 0 = none *)
}

(* A stateless 62-bit mixer (splitmix-style finaliser), so any event can
   be regenerated from (seed, seq) without carrying RNG state. *)
let hash seed seq salt =
  let h = (seed * 0x2545F4914F6CDD1D) + (seq * 0x1E3779B97F4A7C1) + (salt * 0x632BE59BD9B4E01) in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1851F42D4C957F2D in
  let h = h lxor (h lsr 32) in
  let h = h * 0x14057B7EF767814F in
  (h lxor (h lsr 29)) land max_int

let draw seed seq salt bound = hash seed seq salt mod bound
let attr a = Expr.getter [ "get" ^ String.capitalize_ascii a ]
let all _ = true

(* --- small_typed: three classes in a 3-level hierarchy -------------- *)

let small_typed seed =
  let declare reg =
    Registry.declare_class reg ~name:"Tick" ~implements:[ "Obvent" ]
      ~attrs:
        [ ("seq", Vtype.Tint); ("sym", Vtype.Tstring); ("price", Vtype.Tint);
          ("side", Vtype.Tstring) ]
      ();
    Registry.declare_class reg ~name:"Quote" ~extends:"Tick"
      ~attrs:[ ("vol", Vtype.Tint) ] ();
    Registry.declare_class reg ~name:"Book" ~extends:"Quote"
      ~attrs:[ ("venue", Vtype.Tstring) ] ()
  in
  let classes = [| "Tick"; "Quote"; "Book" |] in
  let syms = Array.init 32 (Printf.sprintf "SYM%03d") in
  let venues = [| "XNYS"; "XNAS"; "BATS"; "IEXG" |] in
  let gen seq =
    let cls = classes.(draw seed seq 0 3) in
    let sym = syms.(draw seed seq 1 32) in
    let price = draw seed seq 2 1000 in
    let vol = draw seed seq 3 100 in
    let side = if draw seed seq 4 2 = 0 then "buy" else "sell" in
    let base =
      [ ("seq", Value.Int seq); ("sym", Value.Str sym); ("price", Value.Int price);
        ("side", Value.Str side) ]
    in
    let fields =
      match cls with
      | "Tick" -> base
      | "Quote" -> base @ [ ("vol", Value.Int vol) ]
      | _ ->
          base
          @ [ ("vol", Value.Int vol);
              ("venue", Value.Str venues.(draw seed seq 5 4)) ]
    in
    { cls; sym; price; vol; side; fields }
  in
  let tick = all and quote c = c <> "Tick" and book c = c = "Book" in
  let sub ?(single = false) param accepts expr pred =
    { param; accepts; expr; pred; single; churn = false }
  in
  (* The unfiltered root subscription comes first, so the broker's
     covering scan suppresses the other seven and forwards each event
     once; locally all eight still filter and dispatch. *)
  let subs =
    Expr.
      [|
        sub ~single:true "Tick" tick None all;
        sub "Tick" tick (Some (attr "price" <. int 500)) (fun e -> e.price < 500);
        sub ~single:true "Quote" quote None all;
        sub "Quote" quote (Some (attr "side" =. str "buy")) (fun e -> e.side = "buy");
        sub ~single:true "Book" book None all;
        sub "Book" book (Some (attr "vol" >=. int 50)) (fun e -> e.vol >= 50);
        sub ~single:true "Quote" quote
          (Some (attr "price" >=. int 250 &&& (attr "price" <. int 750)))
          (fun e -> e.price >= 250 && e.price < 750);
        sub "Book" book None all;
      |]
  in
  { name = "small_typed"; declare; subs; gen; churn_every = 0 }

(* --- large_payload: one class carrying an 8 KiB string -------------- *)

let payload_bytes = 8192

let large_payload seed =
  let declare reg =
    Registry.declare_class reg ~name:"Blob" ~implements:[ "Obvent" ]
      ~attrs:[ ("seq", Vtype.Tint); ("data", Vtype.Tstring) ]
      ()
  in
  let pool =
    Array.init 16 (fun k ->
        String.init payload_bytes (fun i ->
            Char.chr (33 + draw seed ((k * payload_bytes) + i) 7 94)))
  in
  let gen seq =
    {
      cls = "Blob"; sym = ""; price = 0; vol = 0; side = "";
      fields =
        [ ("seq", Value.Int seq); ("data", Value.Str pool.(draw seed seq 1 16)) ];
    }
  in
  let subs =
    [| { param = "Blob"; accepts = all; expr = None; pred = all; single = false;
         churn = false } |]
  in
  { name = "large_payload"; declare; subs; gen; churn_every = 0 }

(* --- broker_filtered: 256 disjoint (symbol, price band) filters ------ *)

let n_symbols = 64
let bands_per_symbol = 4
let band_width = 250
let price_range = 10_000
let n_churn = 16

(* Band [b] of symbol [s]: [lo, lo + 250) inside [b * 2500, (b + 1) *
   2500). Four bands of 250 per symbol cover 10% of the price range, so
   about 10% of uniformly drawn publishes match exactly one filter. *)
let band_lo s b = (b * (price_range / bands_per_symbol)) + (s * 7 mod 9 * band_width)

let broker_filtered seed =
  let declare reg =
    Registry.declare_class reg ~name:"Order" ~implements:[ "Obvent" ]
      ~attrs:[ ("seq", Vtype.Tint); ("sym", Vtype.Tstring); ("price", Vtype.Tint) ]
      ()
  in
  let syms = Array.init n_symbols (Printf.sprintf "S%02d") in
  let gen seq =
    let sym = syms.(draw seed seq 1 n_symbols) in
    let price = draw seed seq 2 price_range in
    {
      cls = "Order"; sym; price; vol = 0; side = "";
      fields =
        [ ("seq", Value.Int seq); ("sym", Value.Str sym); ("price", Value.Int price) ];
    }
  in
  let range ~churn sym lo hi =
    {
      param = "Order";
      accepts = all;
      expr =
        Some
          Expr.(
            attr "sym" =. str sym
            &&& (attr "price" >=. int lo)
            &&& (attr "price" <. int hi));
      pred = (fun e -> e.sym = sym && e.price >= lo && e.price < hi);
      single = false;
      churn;
    }
  in
  let main =
    Array.init (n_symbols * bands_per_symbol) (fun k ->
        let s = k / bands_per_symbol and b = k mod bands_per_symbol in
        let lo = band_lo s b in
        range ~churn:false syms.(s) lo (lo + band_width))
  in
  let churned = Array.init n_churn (fun j -> range ~churn:true syms.(j * 4) 0 100) in
  { name = "broker_filtered"; declare; subs = Array.append main churned; gen;
    churn_every = 1000 }

let names = [ "small_typed"; "large_payload"; "broker_filtered" ]

let of_name name seed =
  match name with
  | "small_typed" -> Some (small_typed seed)
  | "large_payload" -> Some (large_payload seed)
  | "broker_filtered" -> Some (broker_filtered seed)
  | _ -> None
