(** Span tracing with Chrome [trace_event] JSON export.

    Spans record into per-domain buffers — only the owning domain ever
    writes its buffer, so recording inside {!Xtwig_util.Pool} workers
    is lock-free and each span is tagged with its domain id (the trace
    [tid]). Disabled (the default), {!with_span} is a single atomic
    load plus the closure call; the instrumented hot paths (XBUILD
    scoring, embedding enumeration, engine queries) cost nothing
    measurable.

    Load a dump in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}: one track per domain, spans nested by B/E pairing. *)

val enable : ?cap:int -> unit -> unit
(** Start recording. [cap] (default 1_000_000) bounds the events kept
    per domain: beyond it, new spans are dropped whole — a recorded
    "B" always gets its "E", so pairing survives saturation. *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded events (buffers are kept). *)

val dropped : unit -> int
(** Spans dropped due to the cap since the last {!reset}. *)

val with_span : ?args:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** [with_span ~name f] brackets [f] with "B"/"E" events on the
    calling domain's track, also on exception. [args] become the
    span's Chrome args. The caller evaluates them before the call,
    also when tracing is disabled and they are dropped, so a hot path
    builds them only under {!enabled} (one more atomic load). *)

val instant : ?args:(string * string) list -> string -> unit
(** A zero-duration marker event. *)

val now_ns : unit -> int64
(** The trace clock (monotonic nanoseconds) — pair with {!complete} to
    record a span retrospectively. *)

val complete :
  ?args:(string * string) list -> name:string -> start_ns:int64 -> dur_ns:int64 -> unit -> unit
(** [complete ~name ~start_ns ~dur_ns ()] records a Chrome "X"
    (complete) event: a span with explicit start and duration. X
    events carry no nesting obligation, so a phase measured across
    event-loop ticks (queue wait, response write) can be booked from
    whichever domain observed its end. Negative durations clamp to 0. *)

(** {1 Trace-context propagation} *)

val with_trace_id : int -> (unit -> 'a) -> 'a
(** [with_trace_id id f] makes [id] the ambient trace id of the
    calling domain for the duration of [f]: every span, instant and
    complete event recorded within (that does not already carry one)
    gains a ["trace_id"] arg. Nests; restores the previous id on exit,
    also on exception. Cheap enough to call unconditionally — one DLS
    access — whether or not tracing is enabled. *)

val current_trace_id : unit -> int option
(** The ambient trace id installed by the innermost {!with_trace_id}
    on this domain, if any. *)

(** {1 Export} *)

val to_json_string : unit -> string
(** Chrome trace_event "JSON Array Format": [{"traceEvents": [...]}],
    one event per line, with [thread_name] metadata per domain. *)

val dump : string -> unit
(** Write {!to_json_string} to a file. *)

(** {1 Validation} *)

val validate_string : string -> (int, string) result
(** Check a dump produced by this module: every "B" is closed by a
    matching "E" on the same tid in stack (nesting) order, with a
    non-negative duration; "X" events must carry a non-negative [dur].
    [Ok n] is the number of well-formed spans (B/E pairs plus X
    events); an event-free trace is an error. *)

val validate_file : string -> (int, string) result
