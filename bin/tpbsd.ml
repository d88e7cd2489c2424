(* tpbsd — the type-based publish/subscribe broker daemon.

   A thin CLI shell over Tpbs_transport.Broker: bind, serve until
   SIGINT/SIGTERM, then export the metrics registry (counters, queue
   gauges with peaks) as JSONL to --metrics or $TPBS_TRACE_FILE for
   tpbs_report. *)

let usage () =
  prerr_endline
    "usage: tpbsd [--host ADDR] [--port PORT] [--window N] [--metrics FILE]";
  exit 2

let () =
  let host = ref "127.0.0.1" in
  let port = ref 7411 in
  let window = ref Tpbs_transport.Broker.default_config.pub_window in
  let metrics = ref (Sys.getenv_opt "TPBS_TRACE_FILE") in
  let rec parse = function
    | [] -> ()
    | "--host" :: v :: rest ->
        host := v;
        parse rest
    | "--port" :: v :: rest -> (
        match int_of_string_opt v with
        | Some p -> port := p; parse rest
        | None -> usage ())
    | "--window" :: v :: rest -> (
        match int_of_string_opt v with
        | Some w when w > 0 -> window := w; parse rest
        | _ -> usage ())
    | "--metrics" :: v :: rest ->
        metrics := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let stop = ref false in
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  (* a dying client must not kill the daemon with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let config =
    { Tpbs_transport.Broker.default_config with pub_window = !window }
  in
  let b =
    try
      Tpbs_transport.Broker.create ~config ~host:!host ~port:!port ()
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "tpbsd: cannot listen on %s:%d: %s\n" !host !port
        (Unix.error_message e);
      exit 1
  in
  Printf.printf "tpbsd: listening on %s:%d\n%!" !host
    (Tpbs_transport.Broker.port b);
  while not !stop do
    ignore (Tpbs_transport.Broker.poll b ~timeout_ms:200 ())
  done;
  Tpbs_transport.Broker.stop b;
  (match !metrics with
  | None -> ()
  | Some path ->
      Tpbs_trace.Trace.write_file (Tpbs_trace.Trace.ambient ()) path;
      Printf.printf "tpbsd: metrics written to %s\n%!" path);
  prerr_endline "tpbsd: bye"
