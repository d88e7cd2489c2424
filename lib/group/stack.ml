module Net = Tpbs_sim.Net
module Stable = Tpbs_sim.Stable
module Qos = Tpbs_types.Qos

type transport =
  | Best
  | Gossip_net of Gossip.config * Net.node_id list
  | Custom of Layer.t

type t = {
  layers : Layer.t list;  (* top first *)
  targeted : (dst:Net.node_id -> string -> unit) option;
  certified : Certified.t option;
}

let assemble (profile : Qos.profile) ?(transport = Best) ?storage ?retain_acked
    ~group ~me ~name ~deliver () =
  (* Bottom: the certified log is itself a (durable, reliable,
     per-publisher-FIFO) transport and needs unicast acks/sync, so it
     displaces any gossip override. Otherwise the chosen transport. *)
  let bottom, targeted_send, certified =
    if profile.Qos.certified then begin
      let storage =
        match storage with
        | Some s -> s
        | None -> invalid_arg "Stack.assemble: certified profile needs storage"
      in
      let c =
        Certified.attach group ~me ~name ~storage ?retain_acked
          ~deliver:Layer.null_deliver ()
      in
      Certified.layer c, None, Some c
    end
    else
      match transport with
      | Gossip_net (config, seed_view) ->
          let g =
            Gossip.attach ~config group ~me ~name ~seed_view
              ~deliver:Layer.null_deliver
          in
          Gossip.layer g, None, None
      | Custom l -> l, None, None
      | Best ->
          let be =
            Best_effort.attach group ~me ~name ~deliver:Layer.null_deliver
          in
          ( Best_effort.layer be,
            Some (fun ~dst payload -> Best_effort.send_to be ~dst payload),
            None )
  in
  (* Reliability: one shared flood layer, only over the plain
     transport. Certified is already reliable; gossip's epidemic
     redundancy replaces the flood (re-flooding gossip deliveries
     would break its O(fanout) traffic bound); a custom transport
     (e.g. broker routing) brings its own delivery path. *)
  let rel_needed =
    profile.Qos.reliable && not profile.Qos.certified
    && Layer.name bottom = "transport:best"
  in
  let mid =
    if rel_needed then Rbcast.layer (Rbcast.create ~me bottom) else bottom
  in
  (* Ordering: an independent sequencing layer on top. FIFO is
     subsumed by a certified bottom (its durable frontier already
     releases per-publisher contiguous runs). *)
  let top =
    match profile.Qos.order with
    | Qos.No_order -> mid
    | Qos.Fifo ->
        if profile.Qos.certified then mid else Fifo.layer (Fifo.create mid)
    | Qos.Causal -> Causal.layer (Causal.create group ~me mid)
    | Qos.Total -> Total.layer (Total.create group ~me ~name mid)
    | Qos.Causal_total ->
        Total.layer (Total.create ~causal:true group ~me ~name mid)
  in
  Layer.set_deliver top deliver;
  let layers =
    if top == mid then if mid == bottom then [ bottom ] else [ mid; bottom ]
    else if mid == bottom then [ top; bottom ]
    else [ top; mid; bottom ]
  in
  (* Targeted unicast bypasses every layer above the transport, so it
     is only sound when the transport IS the whole stack. *)
  let targeted = if List.length layers = 1 then targeted_send else None in
  { layers; targeted; certified }

let bcast t payload = Layer.send (List.hd t.layers) payload
let targeted t = t.targeted
let certified t = t.certified
let shape t = List.map Layer.name t.layers

(* Bottom-up, so a re-activated certification layer has re-requested
   sync before the layers above re-arm their own timers. *)
let resume t = List.iter Layer.resume (List.rev t.layers)

let stats t = List.concat_map Layer.stats t.layers
