(* The instrumented-run wrapper shared by cnfet_tool and bench/main.exe:
   tracing collector, metrics dump, file writer and Assess.Run save, each
   written once. *)

type t = { trace : string option; metrics : bool }

let program () = Filename.remove_extension (Filename.basename Sys.executable_name)

(* Close explicitly so a failed final flush (a full disk) is a
   [Sys_error] too, not a silently truncated file. *)
let write ?(report = stdout) ~what path render =
  match path with
  | None -> true
  | Some path -> (
    match
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (render ());
          close_out oc)
    with
    | () ->
      Printf.fprintf report "%s written to %s\n%!" what path;
      true
    | exception Sys_error msg ->
      Printf.eprintf "%s: cannot write %s: %s\n%!" (program ()) what msg;
      false)

let save_run dir arun =
  match dir with
  | None -> true
  | Some dir -> (
    match Assess.Run.save ~dir arun with
    | Ok path ->
      Printf.printf "assess run: %s\n%!" path;
      true
    | Error e ->
      Printf.eprintf "%s: cannot write assess run: %s\n%!" (program ())
        (Assess.Run.error_to_string e);
      false)

(* Uninstall the collector, then report on [report] and write the Chrome
   JSON; [false] iff the file could not be written. *)
let flush_trace report t path =
  Obs.Trace.uninstall ();
  let events = Obs.Trace.events t in
  Printf.fprintf report "trace: %d events on %d track(s), %d dropped; subsystems: %s\n"
    (List.length events) (Obs.Trace.tracks t) (Obs.Trace.dropped t)
    (String.concat ", " (Obs.Export.subsystems events));
  let ok = write ~report ~what:"trace" (Some path) (fun () -> Obs.Export.to_chrome_json events) in
  output_string report (Obs.Export.text_profile events);
  flush report;
  ok

let run ?(report = stdout) opts body =
  let body () =
    let code = body () in
    if opts.metrics then begin
      output_string report "--- metrics ---\n";
      output_string report (Metrics.dump Metrics.global);
      flush report
    end;
    code
  in
  match opts.trace with
  | None -> body ()
  | Some path ->
    let t = Obs.Trace.create () in
    Obs.Trace.set_observer t (Metrics.span_observer Metrics.global);
    Obs.Trace.install t;
    let trace_ok = ref true in
    let code = Fun.protect ~finally:(fun () -> trace_ok := flush_trace report t path) body in
    if code = 0 && not !trace_ok then 1 else code
