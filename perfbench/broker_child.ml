(* The tpbsd broker in a forked child process, driven over a control
   pipe. Commands are single bytes: 'r' resets the child's trace
   registry (a phase boundary), 't' reads its CPU time, 'd' dumps its
   registry, 'q' stops the broker, dumps and exits. Every reply is a
   "cpu SECONDS" line (user+sys of the child, from Unix.times), then
   for 'd' and 'q' the registry as metrics JSONL, then "end".

   When [trace] is set the child also times its own non-idle
   Broker.poll calls: a poll counts as busy when it accepted, read or
   wrote anything, and its CPU time (which excludes the blocked select)
   is summed into the perfbench.poll_busy_cpu_ns counter. *)

module Broker = Tpbs_transport.Broker
module Trace = Tpbs_trace.Trace

type t = { pid : int; port : int; ctl : Unix.file_descr; reply : in_channel }

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let serve ~listen_fd ~ctl ~reply ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let tr = Trace.create () in
  Trace.set_ambient tr;
  let config = { Broker.default_config with warmup_ms = 0 } in
  let b = Broker.create ~config ~listen_fd ~port:0 () in
  let oc = Unix.out_channel_of_descr reply in
  let c name = Trace.counter tr name in
  let work =
    [ c "tpbsd.accepts"; c "transport.read_syscalls"; c "transport.write_syscalls" ]
  in
  let work_done () = List.fold_left (fun a x -> a + Trace.Counter.value x) 0 work in
  let busy_cpu = c "perfbench.poll_busy_cpu_ns" and busy_polls = c "perfbench.polls_busy" in
  let respond ~dump =
    Printf.fprintf oc "cpu %.9f\n" (cpu_s ());
    if dump then begin
      let buf = Buffer.create 4096 in
      Trace.metrics_to_jsonl tr buf;
      Buffer.output_buffer oc buf
    end;
    output_string oc "end\n";
    flush oc
  in
  let cmd = Bytes.create 1 in
  let quit = ref false in
  while not !quit do
    let w0 = if trace then work_done () else 0 in
    let c0 = if trace then cpu_s () else 0. in
    let ctl_ready = Broker.poll b ~extra_fds:[ ctl ] ~timeout_ms:100 () in
    if trace && work_done () <> w0 then begin
      Trace.Counter.add busy_cpu (int_of_float ((cpu_s () -. c0) *. 1e9));
      Trace.Counter.incr busy_polls
    end;
    if ctl_ready then
      match Unix.read ctl cmd 0 1 with
      | 0 -> quit := true (* the parent is gone *)
      | _ -> (
          match Bytes.get cmd 0 with
          | 'r' ->
              Trace.reset tr;
              respond ~dump:false
          | 't' -> respond ~dump:false
          | 'd' -> respond ~dump:true
          | 'q' ->
              Broker.stop b;
              respond ~dump:true;
              quit := true
          | _ -> ())
      | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let spawn ~trace =
  let listen_fd = Broker.listen_socket ~host:"127.0.0.1" ~port:0 in
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> failwith "broker: no port"
  in
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close ctl_w;
      Unix.close rep_r;
      let code =
        try
          serve ~listen_fd ~ctl:ctl_r ~reply:rep_w ~trace;
          0
        with e ->
          prerr_endline ("perfbench broker: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      Unix.close ctl_r;
      Unix.close rep_w;
      Unix.close listen_fd;
      { pid; port; ctl = ctl_w; reply = Unix.in_channel_of_descr rep_r }

(* Send one command; return (child CPU seconds, dumped JSONL lines). *)
let command t c =
  ignore (Unix.write_substring t.ctl (String.make 1 c) 0 1);
  let rec lines acc =
    match input_line t.reply with
    | "end" -> List.rev acc
    | l -> lines (l :: acc)
  in
  match lines [] with
  | cpu :: rest -> (
      match String.split_on_char ' ' cpu with
      | [ "cpu"; s ] -> (float_of_string s, rest)
      | _ -> failwith ("broker: bad reply " ^ cpu))
  | [] -> failwith "broker: empty reply"

let stop t =
  let _, dump = command t 'q' in
  ignore (Unix.waitpid [] t.pid);
  Unix.close t.ctl;
  close_in t.reply;
  dump

(* Last-resort cleanup on an error path: never leave a child behind. *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ())
