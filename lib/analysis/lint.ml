module Registry = Tpbs_types.Registry
module Qos = Tpbs_types.Qos
module Value = Tpbs_serial.Value
module Expr = Tpbs_filter.Expr
module Rfilter = Tpbs_filter.Rfilter
module Mobility = Tpbs_filter.Mobility
module Subsume = Tpbs_filter.Subsume
module Compile = Tpbs_psc.Compile
module Jsonl = Tpbs_trace.Jsonl

type severity = Info | Warning | Error

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

type diagnostic = {
  code : string;
  severity : severity;
  where : string;
  message : string;
  hint : string option;
  witness : Value.t option;
}

let diag ?hint ?witness code severity where message =
  { code; severity; where; message; hint; witness }

(* --- pass 1: filter abstract interpretation ----------------------------- *)

(* Verdicts on the lifted formula are only sound when the filter
   captures no variables: variable-bearing filters are classified with
   placeholder bindings (see Compile), and the real constants arrive
   at subscription time — where Pubsub runs the same check on the
   actually-lifted filter. *)
let filter_pass reg (sp : Compile.sub_plan) =
  let where = sp.sp_process ^ "/" ^ sp.sp_var in
  let verdicts =
    match sp.sp_class with
    | Compile.Remote_filter rf when sp.sp_captured = [] -> (
        match Absint.filter_verdict reg ~param:sp.sp_param rf with
        | Absint.Unsat ->
            [ diag "TP001" Warning where
                (Fmt.str
                   "filter of subscription %s can never match (%a): the \
                    subscription is dead"
                   sp.sp_var Rfilter.pp_formula rf.Rfilter.formula)
                ~hint:"remove the subscription or fix the contradictory bounds"
            ]
        | Absint.Tautology ->
            (* [subscribe (T t) { return true; }] is the paper's
               subscribe-to-all idiom, not a mistake. *)
            if Expr.equal sp.sp_filter (Expr.bool true) then []
            else
              [ diag "TP002" Warning where
                  (Fmt.str
                     "filter of subscription %s always matches (%a): \
                      equivalent to a pure type-based subscription on %s"
                     sp.sp_var Rfilter.pp_formula rf.Rfilter.formula
                     sp.sp_param)
                  ~hint:
                    "write the subscribe-to-all idiom { return true; } to \
                     make the intent explicit"
              ]
        | Absint.Sat ->
            List.map
              (fun f ->
                diag "TP003" Warning where
                  (Fmt.str
                     "conjunction %a inside the filter of %s can never \
                      hold: that branch is dead"
                     Rfilter.pp_formula f sp.sp_var))
              (Absint.contradictory_conjuncts reg ~param:sp.sp_param rf))
    | _ -> []
  in
  let divisions =
    List.map
      (fun (r : Absint.div_risk) ->
        diag "TP004" Warning where
          (if r.definite then
             Fmt.str
               "filter of %s divides by the constant zero (%a): the filter \
                raises and never matches"
               sp.sp_var Expr.pp r.divisor
           else
             Fmt.str "filter of %s may divide by zero: the divisor %a can \
                      be 0"
               sp.sp_var Expr.pp r.divisor)
          ~hint:"guard the division with a non-zero check")
      (Absint.div_risks sp.sp_filter)
  in
  (* TP014: a variable-capturing filter gets no verdict above — say so
     (naming the variables), so a clean report is distinguishable from
     an unanalyzable one. *)
  let captured_note =
    match sp.sp_captured with
    | [] -> []
    | vars ->
        [ diag "TP014" Info where
            (Fmt.str
               "filter of %s captures variable%s %s: no static verdict is \
                possible here; the engine re-checks the lifted filter at \
                subscription time"
               sp.sp_var
               (if List.length vars = 1 then "" else "s")
               (String.concat ", " (List.map fst vars)))
            ~hint:
              "inline the constant if the filter should be statically \
               analyzable"
        ]
  in
  verdicts @ divisions @ captured_note

(* --- pass 2: pub/sub connectivity over the subtype lattice --------------- *)

let connectivity_pass (c : Compile.t) =
  let reg = c.registry in
  let covered_by_sub cls =
    List.exists
      (fun (sp : Compile.sub_plan) -> Registry.subtype reg cls sp.sp_param)
      c.sub_plans
  in
  let covered_by_pub param =
    List.exists
      (fun (_, cls) -> Registry.subtype reg cls param)
      c.publish_types
  in
  let seen = Hashtbl.create 8 in
  let dead_publishes =
    List.filter_map
      (fun (_, cls) ->
        if Hashtbl.mem seen cls then None
        else begin
          Hashtbl.add seen cls ();
          if covered_by_sub cls then None
          else
            let procs =
              List.sort_uniq String.compare
                (List.filter_map
                   (fun (p, c) -> if String.equal c cls then Some p else None)
                   c.publish_types)
            in
            Some
              (diag "TP005" Warning ("publish " ^ cls)
                 (Fmt.str
                    "publish %s (process %s) can never be received: no \
                     subscription covers %s or any of its supertypes"
                    cls
                    (String.concat ", " procs)
                    cls)
                 ~hint:"add a subscription or drop the publish")
        end)
      c.publish_types
  in
  let dead_subscriptions =
    List.filter_map
      (fun (sp : Compile.sub_plan) ->
        if covered_by_pub sp.sp_param then None
        else
          Some
            (diag "TP006" Warning
               (sp.sp_process ^ "/" ^ sp.sp_var)
               (Fmt.str
                  "subscription %s to %s: no publish statement produces %s \
                   or a subtype, so the handler can never run"
                  sp.sp_var sp.sp_param sp.sp_param)
               ~hint:"add a publish or drop the subscription"))
      c.sub_plans
  in
  dead_publishes @ dead_subscriptions

(* --- pass 3: mobility / factoring degradation ---------------------------- *)

let mobility_pass (sp : Compile.sub_plan) =
  let where = sp.sp_process ^ "/" ^ sp.sp_var in
  match sp.sp_class with
  | Compile.Remote_filter _ -> []
  | Compile.Mobile_tree ->
      [ diag "TP007" Warning where
          (Fmt.str
             "filter of %s is mobile but not in atom normal form: it ships \
              as an interpreted expression tree and cannot be factored with \
              other filters"
             sp.sp_var)
          ~hint:
            "rewrite the filter as a boolean combination of \
             getter-vs-constant comparisons"
      ]
  | Compile.Local_filter reasons ->
      [ diag "TP007" Warning where
          (Fmt.str
             "filter of %s cannot leave the subscriber (%a): every %s event \
              travels to the subscriber node to be filtered there"
             sp.sp_var
             Fmt.(list ~sep:(any "; ") Mobility.pp_reason)
             reasons sp.sp_param)
          ~hint:
            "capture only primitive final variables and avoid remote \
             references in filters"
      ]

(* --- pass 4: compile-time QoS conflicts ---------------------------------- *)

let qos_pass reg (ad : Compile.adapter) =
  let _, conflicts = Qos.of_type reg ad.ad_type in
  List.map
    (fun conflict ->
      let explanation =
        match conflict with
        | Qos.Timely_dropped ->
            "reliability is stronger than timeliness (Fig. 4)"
        | Qos.Priority_dropped ->
            "delivery order is stronger than priorities (Fig. 4)"
      in
      diag "TP008" Warning ad.ad_type
        (Fmt.str
           "QoS conflict on %s: %s semantics are dropped at runtime \
            because %s"
           ad.ad_type
           (Qos.conflict_label conflict)
           explanation)
        ~hint:"remove one of the conflicting marker interfaces")
    conflicts

(* --- driver -------------------------------------------------------------- *)

let compare_diag a b =
  let c = String.compare a.code b.code in
  if c <> 0 then c
  else
    let c = String.compare a.where b.where in
    if c <> 0 then c else String.compare a.message b.message

let analyze (c : Compile.t) : diagnostic list =
  let reg = c.registry in
  List.sort compare_diag
    (List.concat
       [ List.concat_map (filter_pass reg) c.sub_plans;
         connectivity_pass c;
         List.concat_map mobility_pass c.sub_plans;
         List.concat_map (qos_pass reg) c.adapters ])

(* --- deployment-wide passes (TP009–TP013) -------------------------------- *)

(* Cross-unit reasoning over a {!Deploy.t}: the merged lattice answers
   subtype questions spanning units, and {!Subsume.covers} is the
   registry-aware covering relation the broker's suppression index
   uses at runtime — the static and dynamic tiers share one core. *)

let analyzable_rf (sp : Compile.sub_plan) =
  match sp.sp_class with
  | Compile.Remote_filter rf when sp.sp_captured = [] -> Some rf
  | _ -> None

(* Per-unit passes minus connectivity: TP005/TP006 are refined by the
   deployment-wide TP010 (a publish dead in its unit may be consumed
   by a sibling unit, and vice versa). *)
let deployment_unit_passes (u : Deploy.unit_) =
  let c = u.Deploy.u_compiled in
  let reg = c.Compile.registry in
  List.concat
    [ List.concat_map (filter_pass reg) c.sub_plans;
      List.concat_map mobility_pass c.sub_plans;
      List.concat_map (qos_pass reg) c.adapters ]
  |> List.map (fun d -> { d with where = u.Deploy.u_name ^ "/" ^ d.where })

let safe_subtype reg a b =
  try Registry.subtype reg a b with Registry.Type_error _ -> false

(* TP009: a subscription covered by a sibling of the same process can
   never add a delivery — every obvent it matches already reaches the
   process through the sibling. On mutual (equivalent) coverage only
   the later subscription is reported. *)
let tp009 (d : Deploy.t) =
  let reg = d.Deploy.d_registry in
  List.concat_map
    (fun (u : Deploy.unit_) ->
      let indexed =
        List.mapi (fun i sp -> (i, sp)) u.u_compiled.Compile.sub_plans
      in
      List.filter_map
        (fun (i, (sp : Compile.sub_plan)) ->
          match analyzable_rf sp with
          | None -> None
          | Some rf ->
              let covered_by (j, (sp' : Compile.sub_plan)) =
                i <> j
                && String.equal sp'.sp_process sp.sp_process
                &&
                match analyzable_rf sp' with
                | None -> false
                | Some rf' ->
                    safe_subtype reg sp.sp_param sp'.sp_param
                    && Subsume.covers ~registry:reg ~param:sp.sp_param rf rf'
                    && not
                         (j > i
                         && safe_subtype reg sp'.sp_param sp.sp_param
                         && Subsume.covers ~registry:reg ~param:sp'.sp_param
                              rf' rf)
              in
              Option.map
                (fun (_, (sp' : Compile.sub_plan)) ->
                  diag "TP009" Warning
                    (u.u_name ^ "/" ^ sp.sp_process ^ "/" ^ sp.sp_var)
                    (Fmt.str
                       "subscription %s is redundant: sibling %s of the same \
                        process covers it, so it can never add a delivery"
                       sp.sp_var sp'.sp_var)
                    ~hint:"drop the narrower subscription or widen its filter")
                (List.find_opt covered_by indexed))
        indexed)
    d.d_units

(* TP010: deployment-dead endpoints, per broker group. Refines
   TP005/TP006: connectivity is judged against every unit sharing the
   broker, and a publish/subscription whose peer exists only in
   another group is called out as a federation gap. *)
let tp010 (d : Deploy.t) =
  let reg = d.Deploy.d_registry in
  let groups = Deploy.broker_groups d in
  let subs_of us =
    List.concat_map
      (fun (u : Deploy.unit_) ->
        List.map (fun sp -> (u, sp)) u.u_compiled.Compile.sub_plans)
      us
  in
  let pubs_of us =
    List.concat_map
      (fun (u : Deploy.unit_) ->
        List.map (fun (p, cls) -> (u, p, cls)) u.u_compiled.Compile.publish_types)
      us
  in
  List.concat_map
    (fun (broker, units) ->
      let others =
        List.concat_map
          (fun (b, us) -> if String.equal b broker then [] else us)
          groups
      in
      let local_subs = subs_of units and other_subs = subs_of others in
      let local_pubs = pubs_of units and other_pubs = pubs_of others in
      let covered_by_sub subs cls =
        List.exists
          (fun (_, (sp : Compile.sub_plan)) ->
            safe_subtype reg cls sp.sp_param)
          subs
      in
      let covered_by_pub pubs param =
        List.exists (fun (_, _, cls) -> safe_subtype reg cls param) pubs
      in
      let seen = Hashtbl.create 8 in
      let dead_pubs =
        List.filter_map
          (fun ((u : Deploy.unit_), proc, cls) ->
            if Hashtbl.mem seen (u.u_name, cls) then None
            else begin
              Hashtbl.add seen (u.u_name, cls) ();
              if covered_by_sub local_subs cls then None
              else
                let elsewhere =
                  if covered_by_sub other_subs cls then
                    " (a subscriber exists in another broker group, but \
                     broker groups do not exchange traffic)"
                  else ""
                in
                Some
                  (diag "TP010" Warning (u.u_name ^ "/publish " ^ cls)
                     (Fmt.str
                        "publish %s (unit %s, process %s) is \
                         deployment-dead: no subscription in broker group %s \
                         covers %s%s"
                        cls u.u_name proc broker cls elsewhere)
                     ~hint:"add a subscriber to the group or drop the publish")
            end)
          local_pubs
      in
      let dead_subs =
        List.filter_map
          (fun ((u : Deploy.unit_), (sp : Compile.sub_plan)) ->
            if covered_by_pub local_pubs sp.sp_param then None
            else
              let elsewhere =
                if covered_by_pub other_pubs sp.sp_param then
                  " (a publisher exists in another broker group, but broker \
                   groups do not exchange traffic)"
                else ""
              in
              Some
                (diag "TP010" Warning
                   (u.u_name ^ "/" ^ sp.sp_process ^ "/" ^ sp.sp_var)
                   (Fmt.str
                      "subscription %s to %s is deployment-dead: no unit in \
                       broker group %s publishes %s or a subtype%s"
                      sp.sp_var sp.sp_param broker sp.sp_param elsewhere)
                   ~hint:"add a publisher to the group or drop the \
                          subscription"))
          local_subs
      in
      dead_pubs @ dead_subs)
    groups

(* TP011: coverage gap — a published class some conforming obvents of
   which match no subscription of the broker group. Only claimed with
   a machine-checked witness obvent in hand; skipped when any
   subscription on the class is unanalyzable (it might cover the
   gap). *)
let tp011 (d : Deploy.t) =
  let reg = d.Deploy.d_registry in
  List.concat_map
    (fun (broker, units) ->
      let subs =
        List.concat_map
          (fun (u : Deploy.unit_) -> u.u_compiled.Compile.sub_plans)
          units
      in
      let seen = Hashtbl.create 8 in
      List.concat_map
        (fun (u : Deploy.unit_) ->
          List.filter_map
            (fun (_, cls) ->
              if Hashtbl.mem seen cls then None
              else begin
                Hashtbl.add seen cls ();
                let matching =
                  List.filter
                    (fun (sp : Compile.sub_plan) ->
                      safe_subtype reg cls sp.sp_param)
                    subs
                in
                if matching = [] then None (* TP010's business *)
                else
                  let rfs = List.map analyzable_rf matching in
                  if List.exists (fun o -> o = None) rfs then None
                  else
                    let union : Rfilter.t =
                      {
                        param = cls;
                        paths = [||];
                        formula =
                          Or
                            (List.map
                               (function
                                 | Some (rf : Rfilter.t) -> rf.Rfilter.formula
                                 | None -> Rfilter.False)
                               rfs);
                      }
                    in
                    let all : Rfilter.t =
                      { param = cls; paths = [||]; formula = True }
                    in
                    match
                      Subsume.covers_witness ~registry:reg ~cls ~param:cls
                        all union
                    with
                    | Subsume.Covered | Subsume.Unknown -> None
                    | Subsume.Not_covered w ->
                        Some
                          (diag "TP011" Warning
                             (broker ^ "/publish " ^ cls)
                             (Fmt.str
                                "coverage gap on %s in broker group %s: \
                                 conforming obvents exist that match no \
                                 subscription of the group"
                                cls broker)
                             ~witness:w
                             ~hint:
                               "widen a subscription filter or add a \
                                catch-all subscriber (--witness shows a \
                                counterexample obvent)")
              end)
            u.u_compiled.Compile.publish_types)
        units)
    (Deploy.broker_groups d)

(* TP012: a type declared differently across units, where the
   publisher side resolves weaker QoS than a remote subscriber
   assumes — the stronger guarantee silently does not hold. *)
let tp012 (d : Deploy.t) =
  let order_rank : Qos.order -> int = function
    | No_order -> 0
    | Fifo -> 1
    | Causal | Total -> 2 (* incomparable pair: same rank, no claim *)
    | Causal_total -> 3
  in
  let weaker (p : Qos.profile) (q : Qos.profile) =
    (q.reliable && not p.reliable)
    || (q.certified && not p.certified)
    || order_rank p.order < order_rank q.order
  in
  let seen = Hashtbl.create 4 in
  List.filter_map
    (fun (m : Deploy.mismatch) ->
      if Hashtbl.mem seen m.m_type then None
      else begin
        Hashtbl.add seen m.m_type ();
        let unit_named n =
          List.find_opt (fun (u : Deploy.unit_) -> String.equal u.u_name n)
            d.Deploy.d_units
        in
        match (unit_named m.m_first, unit_named m.m_other) with
        | Some ua, Some ub -> (
            let profile (u : Deploy.unit_) =
              match Qos.of_type u.u_compiled.Compile.registry m.m_type with
              | p, _ -> Some p
              | exception Registry.Type_error _ -> None
            in
            let publishes (u : Deploy.unit_) =
              List.exists
                (fun (_, cls) ->
                  safe_subtype u.u_compiled.Compile.registry cls m.m_type)
                u.u_compiled.Compile.publish_types
            in
            let subscribes (u : Deploy.unit_) =
              List.exists
                (fun (sp : Compile.sub_plan) ->
                  safe_subtype u.u_compiled.Compile.registry m.m_type
                    sp.sp_param)
                u.u_compiled.Compile.sub_plans
            in
            match (profile ua, profile ub) with
            | Some pa, Some pb when not (Qos.equal pa pb) ->
                List.find_map
                  (fun (pu, ppro, su, spro) ->
                    if publishes pu && subscribes su && weaker ppro spro then
                      Some
                        (diag "TP012" Warning m.m_type
                           (Fmt.str
                              "cross-process QoS mismatch on %s: publisher \
                               unit %s resolves [%a] but subscriber unit %s \
                               assumes [%a] — the stronger guarantee \
                               silently does not hold"
                              m.m_type pu.Deploy.u_name Qos.pp ppro
                              su.Deploy.u_name Qos.pp spro)
                           ~hint:
                             "align the marker interfaces of the shared \
                              type across units")
                    else None)
                  [ (ua, pa, ub, pb); (ub, pb, ua, pa) ]
            | _ -> None)
        | _ -> None
      end)
    d.d_mismatches

(* TP013: a Sub the broker would suppress — an earlier subscription
   forwarded from the same unit (same client session) but a different
   process already covers it, so the broker records it without
   installing new filtering state. Informational: same-process pairs
   are TP009's stronger finding. *)
let tp013 (d : Deploy.t) =
  let reg = d.Deploy.d_registry in
  List.concat_map
    (fun (u : Deploy.unit_) ->
      let indexed =
        List.mapi (fun i sp -> (i, sp)) u.u_compiled.Compile.sub_plans
      in
      List.filter_map
        (fun (i, (sp : Compile.sub_plan)) ->
          match analyzable_rf sp with
          | None -> None
          | Some rf ->
              List.find_map
                (fun (j, (sp' : Compile.sub_plan)) ->
                  if
                    j < i
                    && not (String.equal sp'.sp_process sp.sp_process)
                  then
                    match analyzable_rf sp' with
                    | Some rf'
                      when safe_subtype reg sp.sp_param sp'.sp_param
                           && Subsume.covers ~registry:reg
                                ~param:sp.sp_param rf rf' ->
                        Some
                          (diag "TP013" Info
                             (u.u_name ^ "/" ^ sp.sp_process ^ "/"
                            ^ sp.sp_var)
                             (Fmt.str
                                "the broker will suppress this Sub: %s/%s, \
                                 forwarded earlier from the same unit, \
                                 already covers it, so no new filtering \
                                 state is installed"
                                sp'.sp_process sp'.sp_var)
                             ~hint:
                               "informational — the covering index dedups \
                                it at the broker")
                    | _ -> None
                  else None)
                indexed)
        indexed)
    d.d_units

let analyze_deployment (d : Deploy.t) : diagnostic list =
  List.sort compare_diag
    (List.concat
       [ List.concat_map deployment_unit_passes d.Deploy.d_units;
         tp009 d; tp010 d; tp011 d; tp012 d; tp013 d ])

let has_error diags = List.exists (fun d -> d.severity = Error) diags

(* Info findings never gate: --werror promotes warnings only. *)
let exit_code ~werror diags =
  if has_error diags then 2
  else if werror && List.exists (fun d -> d.severity = Warning) diags then 1
  else 0

let strip_witnesses diags = List.map (fun d -> { d with witness = None }) diags

(* --- output -------------------------------------------------------------- *)

let pp_diagnostic ppf d =
  Fmt.pf ppf "%s %s %s: %s" d.code (severity_name d.severity) d.where
    d.message;
  (match d.hint with
  | Some h -> Fmt.pf ppf "@,  hint: %s" h
  | None -> ());
  match d.witness with
  | Some w -> Fmt.pf ppf "@,  witness: %a" Value.pp w
  | None -> ()

let pp_report ppf diags =
  Fmt.pf ppf "@[<v>%a@,%d finding%s@]@."
    Fmt.(list ~sep:(any "@,") pp_diagnostic)
    diags (List.length diags)
    (if List.length diags = 1 then "" else "s")

(* Witness obvents rendered as JSON: nested objects carry their class
   under a "class" key so the counterexample is reconstructible. *)
let rec json_of_value (v : Value.t) =
  match v with
  | Value.Null -> "null"
  | Value.Bool b -> if b then "true" else "false"
  | Value.Int i -> string_of_int i
  | Value.Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%.12g" f
  | Value.Str s -> Printf.sprintf "\"%s\"" (Jsonl.escape s)
  | Value.List vs ->
      Printf.sprintf "[%s]" (String.concat "," (List.map json_of_value vs))
  | Value.Obj { cls; fields } ->
      Printf.sprintf "{\"class\":\"%s\"%s}" (Jsonl.escape cls)
        (String.concat ""
           (List.map
              (fun (k, fv) ->
                Printf.sprintf ",\"%s\":%s" (Jsonl.escape k) (json_of_value fv))
              fields))
  | Value.Remote { iface; _ } ->
      Printf.sprintf "{\"remote\":\"%s\"}" (Jsonl.escape iface)

let to_json diags =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n  {";
      let fields =
        [ ("code", `Str d.code);
          ("severity", `Str (severity_name d.severity));
          ("where", `Str d.where);
          ("message", `Str d.message) ]
        @ (match d.hint with Some h -> [ ("hint", `Str h) ] | None -> [])
        @
        match d.witness with
        | Some w -> [ ("witness", `Raw (json_of_value w)) ]
        | None -> []
      in
      let n = List.length fields in
      List.iteri
        (fun j (k, v) ->
          let rendered =
            match v with
            | `Str s -> Printf.sprintf "\"%s\"" (Jsonl.escape s)
            | `Raw s -> s
          in
          Buffer.add_string buf
            (Printf.sprintf "\n    \"%s\": %s%s" k rendered
               (if j = n - 1 then "" else ",")))
        fields;
      Buffer.add_string buf "\n  }")
    diags;
  if diags <> [] then Buffer.add_string buf "\n";
  Buffer.add_string buf "]\n";
  Buffer.contents buf
