type kind = Interface | Class
type meth = { mname : string; ret : Vtype.t }

type decl = {
  name : string;
  kind : kind;
  supers : string list;
  attrs : (string * Vtype.t) list;
  methods : meth list;
}

exception Type_error of string

let err fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(* Everything the engine asks about a type, computed once when the type
   is declared. Declarations are append-only and a type's supertypes
   must already exist, so a descriptor never needs revisiting: later
   declarations can add subtypes, never ancestors, attributes or
   methods. *)
type desc = {
  decl : decl;
  ancestors : string array;  (* every supertype incl. self, sorted *)
  fields : (string * Vtype.t) list;  (* classes: all attributes, inherited first *)
  shadows : bool;  (* [fields] names an attribute twice (re-declared) *)
  visible : meth list;  (* every method, inherited included *)
  obvent : bool;  (* widens to Obvent *)
}

(* Descriptors sorted by name. A declaration installs a fresh array, so
   a reader holding the old one still sees a consistent registry. *)
type t = { mutable table : desc array; mutable generation : int }

let getter_name attr =
  if attr = "" then invalid_arg "Registry.getter_name: empty attribute";
  "get" ^ String.capitalize_ascii attr

(* Index of [name] in the sorted array [names] (by [key]), or -1. *)
let rec search key names name lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let c = String.compare name (key names.(mid)) in
    if c = 0 then mid
    else if c < 0 then search key names name lo mid
    else search key names name (mid + 1) hi

let desc_name d = d.decl.name
let index reg name = search desc_name reg.table name 0 (Array.length reg.table)

let descriptor reg name =
  match index reg name with
  | -1 -> err "unknown type %s" name
  | i -> reg.table.(i)

(* [String.compare (String.sub s off len) name], without the copy. *)
let rec compare_sub s off len name i =
  if i = len || i = String.length name then Int.compare len (String.length name)
  else
    let c = Char.compare (String.unsafe_get s (off + i)) (String.unsafe_get name i) in
    if c <> 0 then c else compare_sub s off len name (i + 1)

let rec search_sub table s off len lo hi =
  if lo >= hi then raise Not_found
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare_sub s off len table.(mid).decl.name 0 in
    if c = 0 then table.(mid)
    else if c < 0 then search_sub table s off len lo mid
    else search_sub table s off len (mid + 1) hi

let descriptor_sub reg s ~off ~len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Registry.descriptor_sub";
  search_sub reg.table s off len 0 (Array.length reg.table)

let find reg name = (descriptor reg name).decl
let exists reg name = index reg name >= 0

let kind_is kind reg name =
  match index reg name with -1 -> false | i -> reg.table.(i).decl.kind = kind

let is_class = kind_is Class
let is_interface = kind_is Interface
let desc_subtype d b = search Fun.id d.ancestors b 0 (Array.length d.ancestors) >= 0
let subtype reg a b = desc_subtype (descriptor reg a) b
let supertypes reg name = Array.to_list (descriptor reg name).ancestors
let iter_supertypes reg name f = Array.iter f (descriptor reg name).ancestors
let generation reg = reg.generation

let subtypes reg name =
  ignore (descriptor reg name);
  Array.fold_left
    (fun acc d -> if desc_subtype d name then d.decl.name :: acc else acc)
    [] reg.table

let builtin_obvent = "Obvent"

let is_obvent_type reg name =
  match index reg name with -1 -> false | i -> reg.table.(i).obvent

let methods_of reg name = (descriptor reg name).visible

let method_ret reg name m =
  List.find_map
    (fun meth -> if meth.mname = m then Some meth.ret else None)
    (methods_of reg name)

let attrs_of reg name =
  match index reg name with
  | -1 -> []
  | i -> reg.table.(i).fields

let check_method_conflicts reg ~name ~supers own_methods =
  (* Within the new type, every visible method name must resolve to a
     single return type. *)
  let tbl = Hashtbl.create 16 in
  let add src (m : meth) =
    match Hashtbl.find_opt tbl m.mname with
    | Some (ret, src0) when not (Vtype.equal ret m.ret) ->
        err "type %s: method %s has conflicting types %a (%s) and %a (%s)"
          name m.mname Vtype.pp ret src0 Vtype.pp m.ret src
    | Some _ -> ()
    | None -> Hashtbl.add tbl m.mname (m.ret, src)
  in
  List.iter (add name) own_methods;
  List.iter
    (fun super -> List.iter (add super) (methods_of reg super))
    supers

let insert reg d =
  let ancestors =
    List.fold_left
      (fun acc super -> Array.to_list (descriptor reg super).ancestors @ acc)
      [ d.name ] d.supers
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let fields =
    match d.kind with
    | Interface -> []
    | Class -> (
        match List.find_opt (is_class reg) d.supers with
        | Some parent -> (descriptor reg parent).fields @ d.attrs
        | None -> d.attrs)
  in
  (* The methods of every supertype in [ancestors] order, first
     declaration of a name wins. *)
  let seen = Hashtbl.create 16 in
  let visible =
    List.concat_map
      (fun super ->
        let own = if super = d.name then d.methods else (find reg super).methods in
        List.filter
          (fun m ->
            if Hashtbl.mem seen m.mname then false
            else begin
              Hashtbl.add seen m.mname ();
              true
            end)
          own)
      (Array.to_list ancestors)
  in
  let names = List.map fst fields in
  let shadows = List.compare_lengths (List.sort_uniq String.compare names) names <> 0 in
  let desc =
    { decl = d; ancestors; fields; shadows; visible;
      obvent = search Fun.id ancestors builtin_obvent 0 (Array.length ancestors) >= 0 }
  in
  let n = Array.length reg.table in
  let at =
    let rec first i = if i < n && String.compare reg.table.(i).decl.name d.name < 0 then first (i + 1) else i in
    first 0
  in
  reg.table <-
    Array.init (n + 1) (fun i ->
        if i < at then reg.table.(i) else if i = at then desc else reg.table.(i - 1));
  reg.generation <- reg.generation + 1

let check_fresh reg name =
  if name = "" then err "empty type name";
  if exists reg name then err "type %s already declared" name

let declare_interface reg ~name ?(extends = []) ?(methods = []) () =
  check_fresh reg name;
  List.iter
    (fun super ->
      if not (exists reg super) then err "interface %s: unknown supertype %s" name super;
      if is_class reg super then
        err "interface %s: cannot extend class %s" name super)
    extends;
  let methods = List.map (fun (mname, ret) -> { mname; ret }) methods in
  check_method_conflicts reg ~name ~supers:extends methods;
  insert reg
    { name; kind = Interface; supers = extends; attrs = []; methods }

let declare_class reg ~name ?extends ?(implements = []) ?(attrs = []) () =
  check_fresh reg name;
  (match extends with
  | Some super ->
      if not (exists reg super) then err "class %s: unknown superclass %s" name super;
      if not (is_class reg super) then
        err "class %s: extends %s which is not a class" name super
  | None -> ());
  List.iter
    (fun itf ->
      if not (exists reg itf) then err "class %s: unknown interface %s" name itf;
      if not (is_interface reg itf) then
        err "class %s: implements %s which is not an interface" name itf)
    implements;
  let supers = (match extends with Some s -> [ s ] | None -> []) @ implements in
  (* Attribute shadowing with a different type is an error. *)
  let inherited_attrs =
    match extends with Some s -> attrs_of reg s | None -> []
  in
  List.iter
    (fun (a, ty) ->
      match List.assoc_opt a inherited_attrs with
      | Some ty' when not (Vtype.equal ty ty') ->
          err "class %s: attribute %s : %a shadows inherited %s : %a" name a
            Vtype.pp ty a Vtype.pp ty'
      | Some _ | None -> ())
    attrs;
  let own_getters =
    List.map (fun (a, ty) -> { mname = getter_name a; ret = ty }) attrs
  in
  check_method_conflicts reg ~name ~supers own_getters;
  (* Every interface method must be implemented by some (possibly
     inherited) getter. Only the superclass chain provides
     implementations; the interfaces themselves only declare. *)
  let visible =
    own_getters
    @ (match extends with Some s -> methods_of reg s | None -> [])
  in
  List.iter
    (fun itf ->
      List.iter
        (fun (m : meth) ->
          match List.find_opt (fun g -> g.mname = m.mname) visible with
          | Some g when Vtype.equal g.ret m.ret -> ()
          | Some g ->
              err "class %s: method %s : %a does not match interface %s's %a"
                name m.mname Vtype.pp g.ret itf Vtype.pp m.ret
          | None ->
              err "class %s: does not implement %s.%s" name itf m.mname)
        (methods_of reg itf))
    implements;
  insert reg { name; kind = Class; supers; attrs; methods = own_getters }

let instantiable reg name = is_class reg name

let rec conforms reg (v : Tpbs_serial.Value.t) tname =
  match v with
  | Null -> is_class reg tname || is_interface reg tname
  | Obj o -> (
      match index reg o.cls with
      | -1 -> false
      | i ->
          let d = reg.table.(i) in
          d.decl.kind = Class && desc_subtype d tname
          && List.for_all
               (fun (attr, ty) ->
                 match List.assoc_opt attr o.fields with
                 | None -> false
                 | Some fv -> conforms_vtype reg fv ty)
               d.fields)
  | Bool _ | Int _ | Float _ | Str _ | List _ | Remote _ -> false

and conforms_vtype reg (v : Tpbs_serial.Value.t) (ty : Vtype.t) =
  match ty, v with
  | Tobject cls, (Obj _ | Null) -> conforms reg v cls
  | Tremote _, (Remote _ | Null) -> true
  | Tlist elt, List vs -> List.for_all (fun x -> conforms_vtype reg x elt) vs
  | Tlist _, Null -> true
  | (Tbool | Tint | Tfloat | Tstring), _ -> Vtype.accepts ty v
  | (Tobject _ | Tremote _ | Tlist _), _ -> false

let all_types reg = Array.to_list (Array.map desc_name reg.table)

let obvent_classes reg =
  List.filter
    (fun name -> is_class reg name && is_obvent_type reg name)
    (all_types reg)

let create () =
  let reg = { table = [||]; generation = 0 } in
  (* The java.pubsub lattice (Fig. 3). *)
  declare_interface reg ~name:"Obvent" ();
  declare_interface reg ~name:"Reliable" ~extends:[ "Obvent" ] ();
  declare_interface reg ~name:"Certified" ~extends:[ "Reliable" ] ();
  declare_interface reg ~name:"TotalOrder" ~extends:[ "Reliable" ] ();
  declare_interface reg ~name:"FIFOOrder" ~extends:[ "Reliable" ] ();
  declare_interface reg ~name:"CausalOrder" ~extends:[ "FIFOOrder" ] ();
  declare_interface reg ~name:"Timely" ~extends:[ "Obvent" ]
    ~methods:[ "getTimeToLive", Vtype.Tint; "getBirth", Vtype.Tint ]
    ();
  declare_interface reg ~name:"Prioritary" ~extends:[ "Obvent" ]
    ~methods:[ "getPriority", Vtype.Tint ]
    ();
  (* Opt-out of copy-on-write clone sharing: classes implementing
     EagerClone get one private deserialization of the envelope bytes
     per subscriber instead of lightweight views over a shared decode
     (the §2.1.2 guarantee holds either way; this marker exists for
     applications that want physically disjoint structure, e.g. to
     bound worst-case sharing lifetimes). *)
  declare_interface reg ~name:"EagerClone" ~extends:[ "Obvent" ] ();
  (* DACE's reflexive control channel (§4.2): protocol messages —
     subscription and unsubscription requests — are obvents
     themselves, on their own dissemination channel. *)
  declare_interface reg ~name:"MetaObvent" ~extends:[ "Obvent" ] ();
  declare_class reg ~name:"SubscriptionActivated" ~implements:[ "MetaObvent" ]
    ~attrs:
      [ "subscriptionId", Vtype.Tint; "nodeId", Vtype.Tint;
        "subscribedType", Vtype.Tstring ]
    ();
  declare_class reg ~name:"SubscriptionDeactivated"
    ~implements:[ "MetaObvent" ]
    ~attrs:
      [ "subscriptionId", Vtype.Tint; "nodeId", Vtype.Tint;
        "subscribedType", Vtype.Tstring ]
    ();
  reg
