(** Trace renderers: Chrome trace-event JSON, a hierarchical self/total
    text profile, and a schema validator for the exported JSON. *)

val to_chrome_json : Event.t list -> string
(** Chrome trace-event format (object form, one event per line, sorted
    by (track, seq)), loadable by chrome://tracing and Perfetto.
    Byte-for-byte deterministic for a given event list. *)

val text_profile : Event.t list -> string
(** Spans merged by call path into a tree; per node: invocation count,
    total wall time, and self time (total minus children). Children print
    indented under their parents, sorted by total time. Unmatched events
    (e.g. after ring-buffer drops) are skipped. *)

val validate_chrome_json : string -> (int, string) result
(** Re-parse exported JSON (through {!Assess.Json.parse}) and check the
    trace schema: a [traceEvents] array whose entries carry
    name/ph/ts/pid/tid, phases limited to B/E/i, per-tid Begin/End
    balance and monotone timestamps. Returns the event count. *)

val subsystems : Event.t list -> string list
(** Sorted distinct span-name prefixes (text before the first ['.']) of
    the Begin events — e.g. [["batch"; "espresso"; "sim"]]. *)
