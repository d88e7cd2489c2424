module Value = Tpbs_serial.Value
module Codec = Tpbs_serial.Codec
module Wire = Tpbs_serial.Wire
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

(* [fields] has exactly the names of [layout], in the same order, each
   value conforming to its declared type. *)
let rec canonical reg layout fields =
  match (layout, fields) with
  | [], [] -> true
  | (name, ty) :: layout, (attr, v) :: fields ->
      String.equal attr name && Registry.conforms_vtype reg v ty
      && canonical reg layout fields
  | _ :: _, [] | [], _ :: _ -> false

(* Fields given in declaration order, the usual case, are adopted as
   they are: [validate] would accept them and rebuild an equal list.
   Not so where the layout names an attribute twice: [validate] gives
   both entries the first value. *)
let make reg cls fields =
  match Registry.descriptor reg cls with
  | d when d.obvent && d.decl.kind = Class && (not d.shadows) && canonical reg d.fields fields ->
      { uid = fresh_uid (); cls = d.decl.name; fields; owned = true }
  | _ | (exception Registry.Type_error _) ->
      let fields = validate reg cls fields in
      { uid = fresh_uid (); cls; fields; owned = true }

let get o attr =
  match List.assoc_opt attr o.fields with
  | Some v -> v
  | None -> err "obvent %s has no attribute %s" o.cls attr

(* A lightweight clone: fresh identity, field spine shared with the
   source. O(1) — no bytes are copied, no validation re-runs (the
   source was validated when it was made or adopted). *)
let placeholder = { uid = 0; cls = ""; fields = []; owned = true }

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

(* [String.sub s pos n = name], without the copy. *)
let rec same_from s pos name i =
  i = String.length name || (s.[pos + i] = name.[i] && same_from s pos name (i + 1))

let same_name s pos n name = n = String.length name && same_from s pos name 0

(* Schema-directed decode of a canonical encoding — an object of a
   declared obvent class whose fields are exactly the class layout, in
   order — straight into an obvent: class and field names are compared
   in place against the descriptor and never copied, and the only
   allocations are the values and the field list the obvent keeps.
   Raises [Exit] (or a codec exception) on anything else. *)
let rec layout_fields reg r s = function
  | [] -> []
  | (name, ty) :: layout ->
      let n = Wire.Reader.varint r in
      let pos = Wire.Reader.pos r in
      Wire.Reader.skip r n;
      if not (same_name s pos n name) then raise Exit;
      let v = Codec.decode_prefix r in
      if not (Registry.conforms_vtype reg v ty) then raise Exit;
      (name, v) :: layout_fields reg r s layout

let decode_canonical reg s ~off ~len =
  let r = Wire.Reader.of_substring s ~off ~len in
  if not (Codec.obj_tag r) then raise Exit;
  let n = Wire.Reader.varint r in
  let pos = Wire.Reader.pos r in
  Wire.Reader.skip r n;
  let d = Registry.descriptor_sub reg s ~off:pos ~len:n in
  if not (d.obvent && d.decl.kind = Class) then raise Exit;
  if List.compare_length_with d.fields (Wire.Reader.varint r) <> 0 then raise Exit;
  let fields = layout_fields reg r s d.fields in
  if not (Wire.Reader.at_end r) then raise Exit;
  { uid = fresh_uid (); cls = d.decl.name; fields; owned = true }

(* Any deviation from the canonical shape takes the general route —
   full decode, then [of_value] — which gives the same obvent, or the
   same error, as it always did. *)
let deserialize_sub reg s ~off ~len =
  match decode_canonical reg s ~off ~len with
  | o -> o
  | exception
      (Exit | Not_found | Codec.Decode_error _ | Wire.Truncated _ | Wire.Malformed _) -> (
      match Codec.decode_sub s ~off ~len with
      | v -> of_value reg v
      | exception Codec.Decode_error msg -> err "deserialize: %s" msg)

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
