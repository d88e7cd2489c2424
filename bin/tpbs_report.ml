(* Summarize (or validate with --check) a JSONL trace/metrics file
   produced by the tpbs_trace exporter. Reads stdin when no file (or
   "-") is given. --require "NAME:FIELD OP BOUND" (repeatable; OP one
   of <=, >=, ==) fails unless the final exported FIELD of metric NAME
   satisfies the bound — CI gates use it, e.g.
   "store.recovered_records:value>=1" to assert a scenario actually
   exercised a path, "tpbsd.qdepth:peak<=256" for an SLO. *)

module Report = Tpbs_trace.Report

let usage () =
  prerr_endline
    "usage: tpbs_report [--check] [--require NAME:FIELD(<=|>=|==)BOUND]... \
     [FILE|-]";
  exit 2

let () =
  let check_mode = ref false in
  let required = ref [] in
  let file = ref None in
  let rec parse = function
    | [] -> ()
    | "--check" :: rest ->
        check_mode := true;
        parse rest
    | "--require" :: spec :: rest -> (
        match Report.parse_requirement spec with
        | Some r ->
            required := r :: !required;
            parse rest
        | None ->
            Printf.eprintf
              "tpbs_report: bad --require spec %S (want NAME:FIELD OP BOUND, \
               OP one of <= >= ==)\n"
              spec;
            exit 2)
    | "-" :: rest ->
        file := None;
        parse rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
    | arg :: rest ->
        file := Some arg;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let lines =
    match !file with
    | None -> In_channel.input_lines stdin
    | Some path ->
        if not (Sys.file_exists path) then begin
          Printf.eprintf "tpbs_report: no such file: %s\n" path;
          exit 2
        end;
        In_channel.with_open_text path In_channel.input_lines
  in
  match Report.check lines with
  | Error (lineno, msg) ->
      Printf.eprintf "tpbs_report: line %d: %s\n" lineno msg;
      exit 1
  | Ok n -> (
      match Report.unmet lines (List.rev !required) with
      | _ :: _ as failed ->
          List.iter (Printf.eprintf "tpbs_report: required %s\n") failed;
          exit 1
      | [] ->
          if !check_mode then Printf.printf "ok: %d valid lines\n" n
          else if !required = [] then print_string (Report.summarize lines)
          else
            Printf.printf "ok: %d requirements satisfied\n"
              (List.length !required))
