module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent

type unop = Not | Neg | Length | Is_null

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Concat
  | Index_of
  | Contains
  | Starts_with

type t =
  | Const of Value.t
  | Arg
  | Invoke of t * string
  | Var of string
  | Unop of unop * t
  | Binop of binop * t * t

type env = (string * Value.t) list

let unop_name = function
  | Not -> "!"
  | Neg -> "-"
  | Length -> "length"
  | Is_null -> "isNull"

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"
  | Concat -> "^"
  | Index_of -> "indexOf"
  | Contains -> "contains"
  | Starts_with -> "startsWith"

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Arg -> Fmt.string ppf "$arg"
  | Invoke (e, m) -> Fmt.pf ppf "%a.%s()" pp e m
  | Var x -> Fmt.string ppf x
  | Unop (Length, e) -> Fmt.pf ppf "%a.length()" pp e
  | Unop (Is_null, e) -> Fmt.pf ppf "(%a == null)" pp e
  | Unop (op, e) -> Fmt.pf ppf "%s(%a)" (unop_name op) pp e
  | Binop ((Index_of | Contains | Starts_with) as op, a, b) ->
      Fmt.pf ppf "%a.%s(%a)" pp a (binop_name op) pp b
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (binop_name op) pp b

let to_string e = Fmt.str "%a" pp e

let rec equal a b =
  match a, b with
  | Const x, Const y -> Value.equal x y
  | Arg, Arg -> true
  | Invoke (e1, m1), Invoke (e2, m2) -> String.equal m1 m2 && equal e1 e2
  | Var x, Var y -> String.equal x y
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && equal e1 e2
  | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
      o1 = o2 && equal a1 a2 && equal b1 b2
  | (Const _ | Arg | Invoke _ | Var _ | Unop _ | Binop _), _ -> false

let rank = function
  | Const _ -> 0 | Arg -> 1 | Invoke _ -> 2 | Var _ -> 3 | Unop _ -> 4
  | Binop _ -> 5

let rec compare a b =
  match a, b with
  | Const x, Const y -> Value.compare x y
  | Arg, Arg -> 0
  | Invoke (e1, m1), Invoke (e2, m2) ->
      let c = String.compare m1 m2 in
      if c <> 0 then c else compare e1 e2
  | Var x, Var y -> String.compare x y
  | Unop (o1, e1), Unop (o2, e2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c else compare e1 e2
  | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c
      else
        let c = compare a1 a2 in
        if c <> 0 then c else compare b1 b2
  | _, _ -> Int.compare (rank a) (rank b)

let rec size = function
  | Const _ | Arg | Var _ -> 1
  | Unop (_, e) -> 1 + size e
  | Invoke (e, _) -> 1 + size e
  | Binop (_, a, b) -> 1 + size a + size b

(* A maximal invocation path is a chain of Invoke nodes rooted at Arg
   that is not itself immediately extended by another Invoke. *)
let getter_paths e =
  let acc = ref [] in
  let rec chain = function
    | Arg -> Some []
    | Invoke (e, m) -> (
        match chain e with Some p -> Some (p @ [ m ]) | None -> None)
    | Const _ | Var _ | Unop _ | Binop _ -> None
  in
  let rec walk e =
    match e with
    | Invoke (inner, _) -> (
        (* Record only at the outermost Invoke of a pure chain, which
           makes the recorded path maximal. *)
        match chain e with
        | Some path -> acc := path :: !acc
        | None -> walk inner)
    | Unop (_, e) -> walk e
    | Binop (_, a, b) ->
        walk a;
        walk b
    | Const _ | Arg | Var _ -> ()
  in
  walk e;
  List.sort_uniq (List.compare String.compare) !acc

let vars e =
  let rec walk acc = function
    | Var x -> x :: acc
    | Const _ | Arg -> acc
    | Invoke (e, _) | Unop (_, e) -> walk acc e
    | Binop (_, a, b) -> walk (walk acc a) b
  in
  List.sort_uniq String.compare (walk [] e)

exception Eval_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let as_bool = function
  | Value.Bool b -> b
  | v -> fail "expected bool, got %a" Value.pp v

let num_binop op (a : Value.t) (b : Value.t) : Value.t =
  let float_op x y : Value.t =
    match op with
    | Add -> Float (x +. y)
    | Sub -> Float (x -. y)
    | Mul -> Float (x *. y)
    | Div -> if y = 0. then fail "division by zero" else Float (x /. y)
    | Mod -> if y = 0. then fail "modulo by zero" else Float (Float.rem x y)
    | Lt -> Bool (x < y)
    | Le -> Bool (x <= y)
    | Gt -> Bool (x > y)
    | Ge -> Bool (x >= y)
    | _ -> fail "not a numeric operator"
  in
  let int_op x y : Value.t =
    match op with
    | Add -> Int (x + y)
    | Sub -> Int (x - y)
    | Mul -> Int (x * y)
    | Div -> if y = 0 then fail "division by zero" else Int (x / y)
    | Mod -> if y = 0 then fail "modulo by zero" else Int (x mod y)
    | Lt -> Bool (x < y)
    | Le -> Bool (x <= y)
    | Gt -> Bool (x > y)
    | Ge -> Bool (x >= y)
    | _ -> fail "not a numeric operator"
  in
  match a, b with
  | Int x, Int y -> int_op x y
  | Float x, Float y -> float_op x y
  (* Java-style numeric promotion. *)
  | Int x, Float y -> float_op (float_of_int x) y
  | Float x, Int y -> float_op x (float_of_int y)
  | Str x, Str y -> (
      match op with
      | Lt -> Bool (String.compare x y < 0)
      | Le -> Bool (String.compare x y <= 0)
      | Gt -> Bool (String.compare x y > 0)
      | Ge -> Bool (String.compare x y >= 0)
      | Add -> Str (x ^ y)  (* Java's overloaded + *)
      | _ -> fail "operator %s undefined on strings" (binop_name op))
  | _ -> fail "operator %s on %a and %a" (binop_name op) Value.pp a Value.pp b

(* The field the getter [m] reads on an object of class [cls]. *)
let rec read_getter cls m = function
  | [] -> (
      match Obvent.attr_of_getter m with
      | Some _ -> fail "object %s has no attribute for %s" cls m
      | None -> fail "method %s is not a getter" m)
  | (attr, v) :: fields ->
      if Obvent.getter_of_attr m attr then v else read_getter cls m fields

let index_of haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  if nn = 0 then 0
  else begin
    let result = ref (-1) in
    (try
       for i = 0 to hn - nn do
         if String.sub haystack i nn = needle then begin
           result := i;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let str_binop op a b : Value.t =
  match (a : Value.t), (b : Value.t) with
  | Str x, Str y -> (
      match op with
      | Concat -> Str (x ^ y)
      | Index_of -> Int (index_of x y)
      | Contains -> Bool (index_of x y >= 0)
      | Starts_with ->
          Bool
            (String.length y <= String.length x
            && String.sub x 0 (String.length y) = y)
      | _ -> fail "not a string operator")
  | Null, _ | _, Null -> fail "null dereference in %s" (binop_name op)
  | _ -> fail "operator %s on %a and %a" (binop_name op) Value.pp a Value.pp b

let rec eval reg ~env ?arg e : Value.t =
  match e with
  | Const v -> v
  | Arg -> (
      match arg with
      | Some obvent -> Obvent.to_value obvent
      | None -> fail "no formal argument in scope")
  | Var x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None -> fail "unbound variable %s" x)
  | Invoke (recv, m) -> (
      match (recv, arg) with
      | Arg, Some obvent ->
          (* The formal argument's getters read its fields in place. *)
          read_getter (Obvent.cls obvent) m (Obvent.fields obvent)
      | _ -> (
          match eval reg ~env ?arg recv with
          | Obj o -> read_getter o.cls m o.fields
          | Null -> fail "null dereference invoking %s" m
          | v -> fail "cannot invoke %s on %a" m Value.pp v))
  | Unop (Not, e) -> Bool (not (as_bool (eval reg ~env ?arg e)))
  | Unop (Neg, e) -> (
      match eval reg ~env ?arg e with
      | Int i -> Int (-i)
      | Float f -> Float (-.f)
      | v -> fail "cannot negate %a" Value.pp v)
  | Unop (Length, e) -> (
      match eval reg ~env ?arg e with
      | Str s -> Int (String.length s)
      | List vs -> Int (List.length vs)
      | v -> fail "length of %a" Value.pp v)
  | Unop (Is_null, e) -> (
      match eval reg ~env ?arg e with Null -> Bool true | _ -> Bool false)
  | Binop (And, a, b) ->
      if as_bool (eval reg ~env ?arg a) then eval reg ~env ?arg b
      else Bool false
  | Binop (Or, a, b) ->
      if as_bool (eval reg ~env ?arg a) then Bool true else eval reg ~env ?arg b
  | Binop (Eq, a, b) ->
      Bool (value_eq (eval reg ~env ?arg a) (eval reg ~env ?arg b))
  | Binop (Ne, a, b) ->
      Bool (not (value_eq (eval reg ~env ?arg a) (eval reg ~env ?arg b)))
  | Binop ((Concat | Index_of | Contains | Starts_with) as op, a, b) ->
      str_binop op (eval reg ~env ?arg a) (eval reg ~env ?arg b)
  | Binop (op, a, b) -> num_binop op (eval reg ~env ?arg a) (eval reg ~env ?arg b)

(* Equality with numeric promotion, so that [getPrice() == 100] works
   whether the attribute is an int or a float. *)
and value_eq (a : Value.t) (b : Value.t) =
  match a, b with
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | _ -> Value.equal a b

let eval_bool reg ~env ?arg e = as_bool (eval reg ~env ?arg e)

(* --- simplification ---------------------------------------------------- *)

(* Fold a constant-operand operation with the evaluator's own
   semantics. [None] when evaluation would raise — [1 / 0] must stay
   unfolded so the runtime error survives simplification. *)
let fold_unop op (v : Value.t) : Value.t option =
  match
    match op, v with
    | Not, v -> Value.Bool (not (as_bool v))
    | Neg, Int i -> Value.Int (-i)
    | Neg, Float f -> Value.Float (-.f)
    | Neg, v -> fail "cannot negate %a" Value.pp v
    | Length, Str s -> Value.Int (String.length s)
    | Length, List vs -> Value.Int (List.length vs)
    | Length, v -> fail "length of %a" Value.pp v
    | Is_null, Null -> Value.Bool true
    | Is_null, _ -> Value.Bool false
  with
  | v -> Some v
  | exception Eval_error _ -> None

let fold_binop op (a : Value.t) (b : Value.t) : Value.t option =
  match
    match op with
    | And -> if as_bool a then b else Value.Bool false
    | Or -> if as_bool a then Value.Bool true else b
    | Eq -> Value.Bool (value_eq a b)
    | Ne -> Value.Bool (not (value_eq a b))
    | Concat | Index_of | Contains | Starts_with -> str_binop op a b
    | Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge -> num_binop op a b
  with
  | v -> Some v
  | exception Eval_error _ -> None

(* The boolean-identity rules ([e && true] -> [e], [!!e] -> [e]) are
   exact only when [e] evaluates to a boolean; filter bodies are
   typechecked before they reach here, so that holds. Short-circuit
   rules ([false && e] -> [false]) never look at the discarded operand,
   mirroring the evaluator, so they are exact unconditionally. *)
let rec simplify e =
  match e with
  | Const _ | Arg | Var _ -> e
  | Invoke (recv, m) -> Invoke (simplify recv, m)
  | Unop (op, e1) -> (
      match op, simplify e1 with
      | op, Const v -> (
          match fold_unop op v with
          | Some v -> Const v
          | None -> Unop (op, Const v))
      | Not, Unop (Not, inner) -> inner
      | op, e1' -> Unop (op, e1'))
  | Binop (And, a, b) -> (
      match simplify a, simplify b with
      | Const (Bool true), b' -> b'
      | (Const (Bool false) as f), _ -> f
      | a', Const (Bool true) -> a'
      | a', b' -> Binop (And, a', b'))
  | Binop (Or, a, b) -> (
      match simplify a, simplify b with
      | Const (Bool false), b' -> b'
      | (Const (Bool true) as t), _ -> t
      | a', Const (Bool false) -> a'
      | a', b' -> Binop (Or, a', b'))
  | Binop (op, a, b) -> (
      match simplify a, simplify b with
      | Const x, Const y -> (
          match fold_binop op x y with
          | Some v -> Const v
          | None -> Binop (op, Const x, Const y))
      | a', b' -> Binop (op, a', b'))

let int i = Const (Value.Int i)
let float f = Const (Value.Float f)
let str s = Const (Value.Str s)
let bool b = Const (Value.Bool b)
let getter path = List.fold_left (fun e m -> Invoke (e, m)) Arg path
let ( &&& ) a b = Binop (And, a, b)
let ( ||| ) a b = Binop (Or, a, b)
let ( <. ) a b = Binop (Lt, a, b)
let ( <=. ) a b = Binop (Le, a, b)
let ( >. ) a b = Binop (Gt, a, b)
let ( >=. ) a b = Binop (Ge, a, b)
let ( =. ) a b = Binop (Eq, a, b)
let ( <>. ) a b = Binop (Ne, a, b)
