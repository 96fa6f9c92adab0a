(** The one instrumented-run path of the measured front ends: every
    [cnfet_tool] command that takes [--trace] or [--metrics], and
    [bench/main.exe --trace], run their body through {!run}, write their
    output files through {!write} and their [--run-out] artifacts
    through {!save_run}. *)

type t = {
  trace : string option;  (** Chrome trace-event JSON path ([--trace]) *)
  metrics : bool;  (** dump {!Metrics.global} after the run ([--metrics]) *)
}

val run : ?report:out_channel -> t -> (unit -> int) -> int
(** [run opts body] runs [body], which returns an exit code.
    - With [opts.trace = Some path], a tracing collector is installed
      for the run, and every span's duration feeds the [span.<name>]
      histogram of {!Metrics.global}. The collector is removed and the
      trace written whether [body] returns or raises; a summary line,
      the written path and the text profile follow on [report].
    - With [opts.metrics], {!Metrics.global} is dumped on [report] under
      one [--- metrics ---] header once [body] returns.

    [report] defaults to stdout; a command whose stdout is a wire
    passes stderr. The result is [body]'s code, or 1 if that was 0 and
    the trace file could not be written. *)

val write : ?report:out_channel -> what:string -> string option -> (unit -> string) -> bool
(** [write ~what path render] writes [render ()] to [path] and prints
    [<what> written to <path>] on [report] (default stdout). [None] does
    nothing. A [Sys_error] prints [<program>: cannot write <what>: <reason>]
    on stderr instead. [true] iff nothing failed; a caller turns [false]
    into exit code 1. *)

val save_run : string option -> Assess.Run.t -> bool
(** [save_run dir run] saves [run] under the [--run-out] directory and
    prints [assess run: <run dir>] on stdout (CI reads the path from that
    line). [None] does nothing. A failed save is reported on stderr.
    [true] iff nothing failed. *)
