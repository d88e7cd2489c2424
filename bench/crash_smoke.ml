(* CRASH — deterministic crash/recovery smoke for CI.

   A 2-member certified channel where the subscriber's frontier store
   is the on-disk segmented log, rigged to lose power after a fixed
   byte budget — the cut lands mid-record, so the reboot exercises the
   whole recovery path: torn-tail truncation, index rebuild, certified
   re-attach + resume, retransmission catch-up. The run fails hard
   unless every published message was delivered exactly once, and
   exports its trace to $TPBS_TRACE_FILE so CI can additionally assert
   (via `tpbs_report --require "store.recovered_records:value>=1"` and
   the like) that the recovery counters actually moved. *)

module Log = Tpbs_store.Log
module Stable = Tpbs_sim.Stable
module Engine = Tpbs_sim.Engine
module Net = Tpbs_sim.Net
module Membership = Tpbs_group.Membership
module Certified = Tpbs_group.Certified
module Trace = Tpbs_trace.Trace
module Report = Tpbs_trace.Report

let fresh_dir () =
  let f = Filename.temp_file "tpbs_smoke" "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let msgs = 24

let run () =
  let engine = Engine.create ~seed:2718 () in
  let tr = Trace.create ~clock:(fun () -> Engine.now engine) () in
  Trace.set_sink tr (Some (Buffer.create (1 lsl 14)));
  Trace.set_detailed tr true;
  Trace.set_ambient tr;
  let net = Net.create engine in
  let n0 = Net.add_node net in
  let n1 = Net.add_node net in
  let group = Membership.create net [ n0; n1 ] in
  let pub =
    Certified.attach group ~me:n0 ~name:"q" ~storage:(Stable.create ())
      ~retry_period:2000
      ~deliver:(fun ~origin:_ _ -> ())
      ()
  in
  let delivered = ref 0 in
  let deliver ~origin:_ _ = incr delivered in
  let dir = fresh_dir () in
  let log = ref (Log.open_ ~segment_bytes:512 ~dir ()) in
  (* Power cut after 333 appended bytes: mid-way through a frontier
     record around the 8th message. *)
  Log.set_fault !log ~after_bytes:333;
  let sub =
    ref
      (Certified.attach group ~me:n1 ~name:"q" ~storage:(Log.stable !log)
         ~retry_period:2000 ~deliver ())
  in
  for i = 1 to msgs do
    Engine.schedule engine ~delay:(i * 1000) (fun () ->
        Certified.bcast pub (Printf.sprintf "trade-%02d" i))
  done;
  let crashes = ref 0 in
  let rec drive () =
    match Engine.run ~until:1_000_000 engine with
    | () -> ()
    | exception Log.Injected_crash ->
        incr crashes;
        Net.crash net n1;
        Log.close !log;
        log := Log.open_ ~segment_bytes:512 ~dir ();
        Net.recover net n1;
        sub :=
          Certified.attach group ~me:n1 ~name:"q" ~storage:(Log.stable !log)
            ~retry_period:2000 ~deliver ();
        Certified.resume !sub;
        drive ()
  in
  drive ();
  let st = Log.stats !log in
  Log.close !log;
  rm_rf dir;
  let path = Workload.trace_path () in
  Trace.write_file tr path;
  Trace.set_ambient (Trace.create ());
  Fmt.pr "@.CRASH  certified delivery across an injected power cut@.";
  Fmt.pr
    "crashes=%d delivered=%d/%d recovered=%d torn_bytes=%d retransmits=%d@."
    !crashes !delivered msgs st.Log.recovered_records st.Log.torn_bytes
    (Certified.retransmits pub);
  Fmt.pr "trace -> %s@." path;
  if !crashes <> 1 then failwith "crash smoke: expected exactly one power cut";
  if !delivered <> msgs then
    failwith
      (Printf.sprintf "crash smoke: delivered %d of %d messages" !delivered
         msgs);
  if Certified.log_size pub <> 0 then
    failwith "crash smoke: publisher log not trimmed after full ack"
