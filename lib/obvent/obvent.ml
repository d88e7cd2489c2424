module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Registry = Tpbs_types.Registry
module Qos = Tpbs_types.Qos

(* Copy-on-write representation: [fields] is an immutable assoc list
   that may be physically shared with other obvents (a decode shared
   by every co-located subscriber's view). The isolation guarantee
   (§2.1.2) survives sharing because a write never mutates the list —
   {!set} rebinds [fields] to a fresh spine, so every other holder of
   the old spine is untouched. [owned] is the write barrier's memory:
   it records whether this obvent has already paid for a private
   spine, and feeds the materialization accounting. *)
type t = {
  uid : int;
  cls : string;
  mutable fields : (string * Value.t) list;
  mutable owned : bool;
}

exception Invalid_obvent of string

let err fmt = Fmt.kstr (fun s -> raise (Invalid_obvent s)) fmt

let counter = ref 0

let fresh_uid () =
  incr counter;
  !counter

(* COW accounting (process-global, like the uid counter): how many
   lightweight views were minted and how many of them materialized a
   private copy on first write. *)
type cow_stats = { views : int; materializations : int }

let views_created = ref 0
let materialized = ref 0
let cow_stats () = { views = !views_created; materializations = !materialized }

let uid o = o.uid
let cls o = o.cls
let fields o = o.fields
let is_view o = not o.owned

let validate reg cls fields =
  if not (Registry.exists reg cls) then err "unknown class %s" cls;
  if not (Registry.is_class reg cls) then
    err "%s is an interface; obvents are class instances" cls;
  if not (Registry.is_obvent_type reg cls) then
    err "class %s does not widen to Obvent" cls;
  let declared = Registry.attrs_of reg cls in
  List.iter
    (fun (attr, ty) ->
      match List.assoc_opt attr fields with
      | None -> err "class %s: missing attribute %s" cls attr
      | Some v ->
          if not (Registry.conforms_vtype reg v ty) then
            err "class %s: attribute %s = %a does not conform to %a" cls attr
              Value.pp v Tpbs_types.Vtype.pp ty)
    declared;
  List.iter
    (fun (attr, _) ->
      if not (List.mem_assoc attr declared) then
        err "class %s: unexpected field %s" cls attr)
    fields;
  (* Normalize field order to declaration order so that structural
     equality and serialization are canonical. *)
  List.map (fun (attr, _) -> attr, List.assoc attr fields) declared

let make reg cls fields =
  let fields = validate reg cls fields in
  { uid = fresh_uid (); cls; fields; owned = true }

let get o attr =
  match List.assoc_opt attr o.fields with
  | Some v -> v
  | None -> err "obvent %s has no attribute %s" o.cls attr

(* A lightweight clone: fresh identity, field spine shared with the
   source. O(1) — no bytes are copied, no validation re-runs (the
   source was validated when it was made or adopted). *)
let view o =
  incr views_created;
  { uid = fresh_uid (); cls = o.cls; fields = o.fields; owned = false }

(* The write barrier: before the first mutation through a view, charge
   it for a private copy. With immutable field spines "materializing"
   is only an accounting event — the actual privatization happens in
   [set], which rebuilds the spine instead of mutating it — but it is
   the observable moment the copy-on-write contract gets exercised. *)
let materialize o =
  if not o.owned then begin
    o.owned <- true;
    incr materialized
  end

let set reg o attr v =
  (match List.assoc_opt attr (Registry.attrs_of reg o.cls) with
  | None -> err "class %s has no attribute %s" o.cls attr
  | Some ty ->
      if not (Registry.conforms_vtype reg v ty) then
        err "class %s: attribute %s = %a does not conform to %a" o.cls attr
          Value.pp v Tpbs_types.Vtype.pp ty);
  materialize o;
  o.fields <-
    List.map (fun (n, old) -> n, if String.equal n attr then v else old) o.fields

(* [m.[i + 3 ..] = attr.[i ..]] *)
let rec same_suffix m attr i =
  i = String.length attr || (m.[i + 3] = attr.[i] && same_suffix m attr (i + 1))

let getter_of_attr m attr =
  let n = String.length attr in
  String.length m = n + 3
  && n > 0
  && m.[0] = 'g' && m.[1] = 'e' && m.[2] = 't'
  && Char.lowercase_ascii m.[3] = attr.[0]
  && same_suffix m attr 1

let attr_of_getter m =
  let n = String.length m in
  if n > 3 && String.sub m 0 3 = "get" then
    Some (String.uncapitalize_ascii (String.sub m 3 (n - 3)))
  else None

let attr_of_setter m =
  let n = String.length m in
  if n > 3 && String.sub m 0 3 = "set" then
    Some (String.uncapitalize_ascii (String.sub m 3 (n - 3)))
  else None

let invoke reg o m =
  match Registry.method_ret reg o.cls m with
  | None -> err "obvent %s has no method %s" o.cls m
  | Some _ -> (
      match attr_of_getter m with
      | Some attr -> get o attr
      | None -> err "method %s is not a getter" m)

(* The generated setter path ("setPrice" etc.): the paper's obvent
   classes are plain objects with mutators; every mutator funnels
   through {!set} and therefore through the write barrier. *)
let invoke_setter reg o m v =
  match attr_of_setter m with
  | Some attr -> set reg o attr v
  | None -> err "method %s is not a setter" m

let to_value o : Value.t = Obj { cls = o.cls; fields = o.fields }

let of_value reg (v : Value.t) =
  match v with
  | Obj o ->
      if not (Registry.conforms reg v o.cls) then
        err "value does not conform to class %s" o.cls;
      if not (Registry.is_obvent_type reg o.cls) then
        err "class %s does not widen to Obvent" o.cls;
      { uid = fresh_uid (); cls = o.cls; fields = o.fields; owned = true }
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ | Remote _ ->
      err "value is not an object"

let serialize o = Codec.encode (to_value o)

let deserialize_sub reg s ~off ~len =
  match Codec.decode_sub s ~off ~len with
  | v -> of_value reg v
  | exception Codec.Decode_error msg -> err "deserialize: %s" msg

let deserialize reg s = deserialize_sub reg s ~off:0 ~len:(String.length s)

let clone reg o = deserialize reg (serialize o)

let equal_content a b =
  String.equal a.cls b.cls
  && List.equal
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
       a.fields b.fields

let pp ppf o = Fmt.pf ppf "#%d:%a" o.uid Value.pp (to_value o)
let instance_of reg o tname = Registry.subtype reg o.cls tname
let qos reg o = fst (Qos.of_type reg o.cls)

let int_getter reg o m =
  match invoke reg o m with
  | Int i -> i
  | v -> err "%s returned %a, expected int" m Value.pp v

let priority reg o =
  if Registry.subtype reg o.cls "Prioritary" then int_getter reg o "getPriority"
  else 0

let time_to_live reg o =
  if Registry.subtype reg o.cls "Timely" then
    Some (int_getter reg o "getTimeToLive")
  else None

let birth reg o =
  if Registry.subtype reg o.cls "Timely" then Some (int_getter reg o "getBirth")
  else None
