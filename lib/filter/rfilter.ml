module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge | Ccontains | Cprefix

type atom = { path : string list; cmp : cmp; const : Value.t }

type formula =
  | True
  | False
  | Atom of atom
  | Not of formula
  | And of formula list
  | Or of formula list

type t = { param : string; paths : string list array; formula : formula }

let cmp_name = function
  | Ceq -> "==" | Cne -> "!=" | Clt -> "<" | Cle -> "<=" | Cgt -> ">"
  | Cge -> ">=" | Ccontains -> "contains" | Cprefix -> "startsWith"

let pp_atom ppf a =
  Fmt.pf ppf "%s %s %a" (String.concat "." a.path) (cmp_name a.cmp) Value.pp
    a.const

let rec pp_formula ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Atom a -> pp_atom ppf a
  | Not f -> Fmt.pf ppf "!(%a)" pp_formula f
  | And fs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " && ") pp_formula) fs
  | Or fs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " || ") pp_formula) fs

let pp ppf t =
  Fmt.pf ppf "remote-filter<%s>{paths=[%a]; %a}" t.param
    Fmt.(array ~sep:(any "; ") (fun ppf p -> Fmt.string ppf (String.concat "." p)))
    t.paths pp_formula t.formula

(* --- normalization ------------------------------------------------- *)

(* Resolve Var references to their subscription-time constants and
   recognize a pure getter chain. *)
let rec as_path : Expr.t -> string list option = function
  | Arg -> Some []
  | Invoke (e, m) -> (
      match as_path e with Some p -> Some (p @ [ m ]) | None -> None)
  | Const _ | Var _ | Unop _ | Binop _ -> None

let as_const ~env : Expr.t -> Value.t option = function
  | Const v -> Some v
  | Var x -> List.assoc_opt x env
  | Arg | Invoke _ | Unop _ | Binop _ -> None

let mirror = function
  | Ceq -> Ceq | Cne -> Cne | Clt -> Cgt | Cle -> Cge | Cgt -> Clt | Cge -> Cle
  | (Ccontains | Cprefix) as c -> c

let cmp_of_binop : Expr.binop -> cmp option = function
  | Eq -> Some Ceq | Ne -> Some Cne | Lt -> Some Clt | Le -> Some Cle
  | Gt -> Some Cgt | Ge -> Some Cge
  | Add | Sub | Mul | Div | Mod | And | Or | Concat | Index_of | Contains
  | Starts_with ->
      None

let rec formula_of_expr ~env (e : Expr.t) : formula option =
  match e with
  | Const (Bool true) -> Some True
  | Const (Bool false) -> Some False
  | Var x -> (
      match List.assoc_opt x env with
      | Some (Value.Bool true) -> Some True
      | Some (Value.Bool false) -> Some False
      | Some _ | None -> None)
  | Unop (Not, e) -> (
      match formula_of_expr ~env e with
      | Some f -> Some (Not f)
      | None -> None)
  | Binop (And, a, b) -> combine ~env (fun x y -> And [ x; y ]) a b
  | Binop (Or, a, b) -> combine ~env (fun x y -> Or [ x; y ]) a b
  | Binop (op, a, b) -> atom_of ~env op a b
  | Invoke _ -> (
      (* A boolean getter used directly: path == true. *)
      match as_path e with
      | Some path -> Some (Atom { path; cmp = Ceq; const = Bool true })
      | None -> None)
  | Const _ | Arg | Unop _ -> None

and combine ~env mk a b =
  match formula_of_expr ~env a, formula_of_expr ~env b with
  | Some fa, Some fb -> Some (mk fa fb)
  | _, _ -> None

and atom_of ~env op a b =
  (* indexOf idioms first: s.indexOf(c) != -1, == -1, >= 0, < 0. *)
  let index_of_idiom lhs rhs =
    match (lhs : Expr.t) with
    | Binop (Index_of, s, c) -> (
        match as_path s, as_const ~env c, as_const ~env rhs with
        | Some path, Some (Str _ as needle), Some (Int k) -> (
            match op, k with
            | Expr.Ne, -1 | Expr.Ge, 0 | Expr.Gt, -1 ->
                Some (Atom { path; cmp = Ccontains; const = needle })
            | Expr.Eq, -1 | Expr.Lt, 0 | Expr.Le, -1 ->
                Some (Not (Atom { path; cmp = Ccontains; const = needle }))
            | _, _ -> None)
        | _, _, _ -> None)
    | _ -> None
  in
  match op with
  | Expr.Contains -> (
      match as_path a, as_const ~env b with
      | Some path, Some (Str _ as needle) ->
          Some (Atom { path; cmp = Ccontains; const = needle })
      | _, _ -> None)
  | Expr.Starts_with -> (
      match as_path a, as_const ~env b with
      | Some path, Some (Str _ as needle) ->
          Some (Atom { path; cmp = Cprefix; const = needle })
      | _, _ -> None)
  | _ -> (
      match index_of_idiom a b with
      | Some f -> Some f
      | None -> (
          match index_of_idiom b a with
          | Some f -> Some f
          | None -> (
              match cmp_of_binop op with
              | None -> None
              | Some cmp -> (
                  match as_path a, as_const ~env b with
                  | Some path, Some const -> Some (Atom { path; cmp; const })
                  | _, _ -> (
                      match as_path b, as_const ~env a with
                      | Some path, Some const ->
                          Some (Atom { path; cmp = mirror cmp; const })
                      | _, _ -> None)))))

let rec flatten = function
  | And fs ->
      let fs = List.map flatten fs in
      let fs =
        List.concat_map (function And gs -> gs | f -> [ f ]) fs
      in
      if List.exists (fun f -> f = False) fs then False
      else begin
        match List.filter (fun f -> f <> True) fs with
        | [] -> True
        | [ f ] -> f
        | fs -> And fs
      end
  | Or fs ->
      let fs = List.map flatten fs in
      let fs = List.concat_map (function Or gs -> gs | f -> [ f ]) fs in
      if List.exists (fun f -> f = True) fs then True
      else begin
        match List.filter (fun f -> f <> False) fs with
        | [] -> False
        | [ f ] -> f
        | fs -> Or fs
      end
  | Not f -> (
      match flatten f with
      | True -> False
      | False -> True
      | Not g -> g
      | g -> Not g)
  | (True | False | Atom _) as f -> f

let rec formula_paths acc = function
  | True | False -> acc
  | Atom a -> a.path :: acc
  | Not f -> formula_paths acc f
  | And fs | Or fs -> List.fold_left formula_paths acc fs

let of_expr ~env ~param e =
  match formula_of_expr ~env e with
  | None -> None
  | Some f ->
      let formula = flatten f in
      let paths =
        List.sort_uniq (List.compare String.compare)
          (formula_paths [] formula)
      in
      Some { param; paths = Array.of_list paths; formula }

(* --- back to expressions ------------------------------------------- *)

let expr_of_atom a : Expr.t =
  let path = Expr.getter a.path in
  match a.cmp with
  | Ceq -> Binop (Eq, path, Const a.const)
  | Cne -> Binop (Ne, path, Const a.const)
  | Clt -> Binop (Lt, path, Const a.const)
  | Cle -> Binop (Le, path, Const a.const)
  | Cgt -> Binop (Gt, path, Const a.const)
  | Cge -> Binop (Ge, path, Const a.const)
  | Ccontains -> Binop (Contains, path, Const a.const)
  | Cprefix -> Binop (Starts_with, path, Const a.const)

let rec expr_of_formula : formula -> Expr.t = function
  | True -> Expr.bool true
  | False -> Expr.bool false
  | Atom a -> expr_of_atom a
  | Not f -> Unop (Not, expr_of_formula f)
  | And [] -> Expr.bool true
  | And (f :: fs) ->
      List.fold_left
        (fun acc f -> Expr.Binop (And, acc, expr_of_formula f))
        (expr_of_formula f) fs
  | Or [] -> Expr.bool false
  | Or (f :: fs) ->
      List.fold_left
        (fun acc f -> Expr.Binop (Or, acc, expr_of_formula f))
        (expr_of_formula f) fs

let to_expr t = expr_of_formula t.formula

(* --- evaluation ----------------------------------------------------- *)

let eval_path (v : Value.t) path =
  let step v m =
    match v, Obvent.attr_of_getter m with
    | Value.Obj o, Some attr -> List.assoc_opt attr o.fields
    | _, _ -> None
  in
  List.fold_left
    (fun acc m -> match acc with None -> None | Some v -> step v m)
    (Some v) path

(* Numeric (and string) order between a path value and a constant;
   [incomparable] when the kinds do not order. An int, not an option:
   the compound filter calls this on its hot path. *)
let incomparable = min_int

let value_cmp_num (a : Value.t) (b : Value.t) =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | _ -> incomparable

let value_eq (a : Value.t) (b : Value.t) =
  match a, b with
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | _ -> Value.equal a b

(* [needle.[k ..]] occurs in [s] at [i + k] (the caller checked the
   bounds); no substring is allocated, nor any closure. *)
let rec occurs_at s needle i k =
  k = String.length needle
  || String.unsafe_get s (i + k) = String.unsafe_get needle k
     && occurs_at s needle i (k + 1)

(* [needle] occurs in [s] at [i] or later. *)
let rec contains_from s needle i =
  i + String.length needle <= String.length s
  && (occurs_at s needle i 0 || contains_from s needle (i + 1))

let eval_atom_value (v : Value.t) a =
  match a.cmp with
  | Ceq -> value_eq v a.const
  | Cne -> not (value_eq v a.const)
  | Clt | Cle | Cgt | Cge -> (
      let c = value_cmp_num v a.const in
      c <> incomparable
      &&
      match a.cmp with
      | Clt -> c < 0
      | Cle -> c <= 0
      | Cgt -> c > 0
      | Cge -> c >= 0
      | Ceq | Cne | Ccontains | Cprefix -> assert false)
  | Ccontains | Cprefix -> (
      match v, a.const with
      | Str s, Str needle ->
          if a.cmp = Cprefix then
            String.length s >= String.length needle && occurs_at s needle 0 0
          else contains_from s needle 0
      | _, _ -> false)

let eval_atom_resolve resolve a =
  match resolve a.path with
  | None -> false
  | Some v -> eval_atom_value v a

let eval_atom root a = eval_atom_resolve (eval_path root) a

let rec eval_formula resolve = function
  | True -> true
  | False -> false
  | Atom a -> eval_atom_resolve resolve a
  | Not f -> not (eval_formula resolve f)
  | And fs -> List.for_all (eval_formula resolve) fs
  | Or fs -> List.exists (eval_formula resolve) fs

let eval_resolve t resolve = eval_formula resolve t.formula
let eval t root = eval_resolve t (eval_path root)
let matches_obvent t o = eval t (Obvent.to_value o)

(* --- wire format ----------------------------------------------------- *)

let cmp_code = function
  | Ceq -> 0 | Cne -> 1 | Clt -> 2 | Cle -> 3 | Cgt -> 4 | Cge -> 5
  | Ccontains -> 6 | Cprefix -> 7

let cmp_of_code = function
  | 0 -> Some Ceq | 1 -> Some Cne | 2 -> Some Clt | 3 -> Some Cle
  | 4 -> Some Cgt | 5 -> Some Cge | 6 -> Some Ccontains | 7 -> Some Cprefix
  | _ -> None

let atom_to_value a : Value.t =
  List
    [ List (List.map (fun m -> Value.Str m) a.path);
      Int (cmp_code a.cmp); a.const ]

let atom_of_value : Value.t -> atom option = function
  | List [ List path; Int code; const ] -> (
      let path =
        List.filter_map (function Value.Str s -> Some s | _ -> None) path
      in
      match cmp_of_code code with
      | Some cmp -> Some { path; cmp; const }
      | None -> None)
  | _ -> None

let rec formula_to_value : formula -> Value.t = function
  | True -> List [ Str "true" ]
  | False -> List [ Str "false" ]
  | Atom a -> List [ Str "atom"; atom_to_value a ]
  | Not f -> List [ Str "not"; formula_to_value f ]
  | And fs -> List (Str "and" :: List.map formula_to_value fs)
  | Or fs -> List (Str "or" :: List.map formula_to_value fs)

let rec formula_of_value : Value.t -> formula option = function
  | List [ Str "true" ] -> Some True
  | List [ Str "false" ] -> Some False
  | List [ Str "atom"; av ] -> (
      match atom_of_value av with Some a -> Some (Atom a) | None -> None)
  | List [ Str "not"; fv ] -> (
      match formula_of_value fv with Some f -> Some (Not f) | None -> None)
  | List (Str "and" :: fvs) -> formulas_of_values fvs (fun fs -> And fs)
  | List (Str "or" :: fvs) -> formulas_of_values fvs (fun fs -> Or fs)
  | _ -> None

and formulas_of_values fvs mk =
  let fs = List.map formula_of_value fvs in
  if List.exists Option.is_none fs then None
  else Some (mk (List.map Option.get fs))

let to_value t : Value.t =
  List [ Str t.param; formula_to_value t.formula ]

let of_value : Value.t -> t option = function
  | List [ Str param; fv ] -> (
      match formula_of_value fv with
      | None -> None
      | Some formula ->
          let paths =
            List.sort_uniq (List.compare String.compare)
              (formula_paths [] formula)
          in
          Some { param; paths = Array.of_list paths; formula })
  | _ -> None

(* --- inspection ----------------------------------------------------- *)

let atoms t =
  let rec walk acc = function
    | True | False -> acc
    | Atom a -> a :: acc
    | Not f -> walk acc f
    | And fs | Or fs -> List.fold_left walk acc fs
  in
  List.rev (walk [] t.formula)

let conjunction_atoms t =
  let rec walk acc = function
    | Atom a -> Some (a :: acc)
    | And fs ->
        List.fold_left
          (fun acc f -> match acc with None -> None | Some acc -> walk acc f)
          (Some acc) fs
    | True -> Some acc
    | False | Not _ | Or _ -> None
  in
  match walk [] t.formula with
  | Some (_ :: _ as atoms) -> Some (List.rev atoms)
  | Some [] | None -> None

let always_true t = t.formula = True
