module Registry = Tpbs_types.Registry
module Vtype = Tpbs_types.Vtype
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module Expr = Tpbs_filter.Expr
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Pubsub = Tpbs_core.Pubsub
module Fspec = Tpbs_core.Fspec

type output = { time : Engine.time; process : string; text : string }

type result = {
  trace : output list;
  stats : Pubsub.Domain.stats;
  compiled : Compile.t;
}

exception Runtime_error of string

let err fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

(* Runtime bindings: values (including obvents as Obj values) and
   subscription handles. *)
type rtval = Vval of Value.t | Vsub of Pubsub.Subscription.t

type world = {
  engine : Engine.t;
  domain : Pubsub.Domain.t;
  registry : Registry.t;
  mutable outputs : output list;  (* reverse chronological *)
}

let print w ~process text =
  w.outputs <- { time = Engine.now w.engine; process; text } :: w.outputs

(* Environments are immutable assoc lists so that handler closures
   capture the bindings in scope at subscription time, like Java's
   final variables. *)
let value_env env =
  List.filter_map
    (fun (x, b) -> match b with Vval v -> Some (x, v) | Vsub _ -> None)
    env

let rec eval_pexpr w env ?arg (e : Ast.pexpr) : Value.t =
  match e with
  | Ast.Expr expr -> (
      match Expr.eval w.registry ~env:(value_env env) ?arg expr with
      | v -> v
      | exception Expr.Eval_error msg -> err "%s" msg)
  | Ast.New (cls, args) ->
      let attrs = Registry.attrs_of w.registry cls in
      let fields =
        List.map2
          (fun (attr, ty) argexpr ->
            let v = eval_pexpr w env ?arg argexpr in
            let v =
              (* Numeric widening, as the typechecker allowed. *)
              match (ty : Vtype.t), v with
              | Tfloat, Value.Int i -> Value.Float (float_of_int i)
              | _, v -> v
            in
            attr, v)
          attrs args
      in
      (match Obvent.make w.registry cls fields with
      | obvent -> Obvent.to_value obvent
      | exception Obvent.Invalid_obvent msg -> err "new %s: %s" cls msg)

let rec exec_stmt w proc ~process env ?arg (stmt : Ast.stmt) =
  match stmt with
  | Ast.Publish e -> (
      match eval_pexpr w env ?arg e with
      | Value.Obj _ as v ->
          Pubsub.Process.publish proc (Obvent.of_value w.registry v);
          env
      | v -> err "publish: %a is not an obvent" Value.pp v)
  | Ast.Print e ->
      let v = eval_pexpr w env ?arg e in
      let text =
        match v with Value.Str s -> s | v -> Value.to_string v
      in
      print w ~process text;
      env
  | Ast.If (cond, then_, else_) ->
      let branch =
        match eval_pexpr w env ?arg cond with
        | Value.Bool true -> then_
        | Value.Bool false -> else_
        | v -> err "if condition evaluated to %a" Value.pp v
      in
      ignore
        (List.fold_left
           (fun e stmt -> exec_stmt w proc ~process e ?arg stmt)
           env branch);
      env
  | Ast.Let { let_typ = _; let_var; let_value } ->
      let v = eval_pexpr w env ?arg let_value in
      (let_var, Vval v) :: env
  | Ast.Activate (var, id) -> (
      match List.assoc_opt var env with
      | Some (Vsub s) ->
          (match id with
          | None -> Pubsub.Subscription.activate s
          | Some id -> Pubsub.Subscription.activate_durable s ~id);
          env
      | _ -> err "%s is not a subscription" var)
  | Ast.Deactivate var -> (
      match List.assoc_opt var env with
      | Some (Vsub s) ->
          Pubsub.Subscription.deactivate s;
          env
      | _ -> err "%s is not a subscription" var)
  | Ast.Set_single var -> (
      match List.assoc_opt var env with
      | Some (Vsub s) ->
          Pubsub.Subscription.set_single_threading s;
          env
      | _ -> err "%s is not a subscription" var)
  | Ast.Set_multi (var, n) -> (
      match List.assoc_opt var env with
      | Some (Vsub s) ->
          Pubsub.Subscription.set_multi_threading s ~max:n;
          env
      | _ -> err "%s is not a subscription" var)
  | Ast.Subscribe sub ->
      (* The handler closes over the environment as of now, extended
         with the subscription variable itself (self-deactivation) and
         the formal argument at delivery time. *)
      let handler_env = ref env in
      let filter = Fspec.tree ~env:(value_env env) sub.filter in
      let handler obvent =
        let inner = !handler_env in
        ignore
          (List.fold_left
             (fun e stmt -> exec_stmt w proc ~process e ~arg:obvent stmt)
             inner sub.handler)
      in
      let s = Pubsub.Process.subscribe proc ~param:sub.param_type ~filter handler in
      handler_env := (sub.sub_var, Vsub s) :: env;
      (sub.sub_var, Vsub s) :: env

let run ?(seed = 42) ?(net_config = Net.default_config) ?horizon
    ?(broker = false) (compiled : Compile.t) =
  let engine = Engine.create ~seed () in
  let net = Net.create ~config:net_config engine in
  let domain = Pubsub.Domain.create compiled.Compile.registry net in
  let w =
    { engine; domain; registry = compiled.Compile.registry; outputs = [] }
  in
  let process_decls =
    List.filter_map
      (fun d ->
        match (d : Ast.decl) with
        | Ast.Process { pname; body } -> Some (pname, body)
        | Ast.Interface _ | Ast.Class _ -> None)
      compiled.Compile.program
  in
  let procs =
    List.map
      (fun (pname, body) ->
        pname, body, Pubsub.Process.create domain (Net.add_node net))
      process_decls
  in
  if broker then begin
    let broker_proc = Pubsub.Process.create domain (Net.add_node net) in
    Pubsub.add_broker domain broker_proc
  end;
  (* Program order: all process bodies start at t=0, in declaration
     order (the engine preserves scheduling order on ties). *)
  List.iter
    (fun (pname, body, proc) ->
      Engine.schedule engine ~delay:0 (fun () ->
          ignore
            (List.fold_left
               (fun env stmt -> exec_stmt w proc ~process:pname env stmt)
               [] body)))
    procs;
  (match horizon with
  | Some until -> Engine.run ~until engine
  | None -> Engine.run engine);
  {
    trace = List.rev w.outputs;
    stats = Pubsub.Domain.stats domain;
    compiled;
  }

let run_string ?seed ?net_config ?horizon ?broker src =
  run ?seed ?net_config ?horizon ?broker (Compile.compile_string src)

let pp_trace ppf trace =
  List.iter
    (fun { time; process; text } ->
      Fmt.pf ppf "[t=%6d] %-10s %s@." time process text)
    trace
