(** Process-wide metrics registry: counters, gauges and fixed-bucket
    histograms, optionally labeled.

    Cells are registered once — typically at module initialization,
    before domains spawn — and updated from any domain: counters and
    histogram buckets are {!Atomic.t} increments, gauge sets are atomic
    stores, histogram sums are CAS loops. Registration under a name
    that already holds a different metric kind raises
    [Invalid_argument].

    Metric names follow the [subsystem.verb.unit] scheme documented in
    DESIGN.md (e.g. [xbuild.round.seconds], [engine.timeouts]).
    Variants of one logical metric are distinguished by labels, e.g.
    [xbuild.ops_applied{op.kind="f-stabilize"}]. *)

type counter
type gauge
type histogram

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
(** Registered under [(name, labels)]; two calls with the same pair
    share one cell. [help] sets the family's [# HELP] line in
    {!render} (first writer wins; shared across all label sets). *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val time_ns : counter -> (unit -> 'a) -> 'a
(** [time_ns c f] runs [f] and adds its elapsed monotonic nanoseconds
    to [c], also on exception. Such counters are named with an [.ns]
    suffix ([estimator.ns], [plan.compile_ns]). *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val exponential : start:float -> factor:float -> n:int -> float array
(** [n] exponentially growing bucket upper bounds from [start]. *)

val default_bounds : float array
(** [exponential ~start:1e-6 ~factor:2.0 ~n:28] — 1us to ~134s, for
    latencies in seconds. *)

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  ?bounds:float array ->
  string ->
  histogram
(** Fixed-bucket histogram: [bounds] are strictly increasing upper
    bounds, plus an implicit overflow bucket. *)

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its elapsed monotonic time in seconds,
    also on exception. *)

(** {1 Snapshots} *)

type hview = {
  bounds : float array;
  counts : int array;  (** per bucket, [length bounds + 1] (overflow last) *)
  count : int;  (** total observations *)
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of hview

type entry = { name : string; labels : (string * string) list; value : value }

type snapshot = entry list
(** Sorted by (name, labels). *)

val histogram_view : histogram -> hview
(** Live read of one histogram (consistent per bucket). *)

val snapshot : unit -> snapshot
(** Consistent per cell, not across cells. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff before after]: counters and histograms become deltas (cells
    registered after [before] count from zero); gauges keep their
    [after] value. This is how the bench harness isolates one run's
    activity without resetting the registry. *)

val reset_all : unit -> unit
(** Zero every registered cell (registration is kept). *)

val find : snapshot -> string -> value option
(** Unlabeled entry under this exact name. *)

val counter_of : snapshot -> string -> int
(** Value of the named unlabeled counter; 0 when absent. *)

val percentile_of : hview -> float -> float
(** Histogram-backed percentile (p in [0..100]): linear interpolation
    inside the selected bucket; observations in the overflow bucket
    report the largest finite bound; [nan] on an empty histogram. *)

(** {1 Exposition} *)

val render : snapshot -> string
(** Prometheus exposition text: [# HELP]/[# TYPE] emitted exactly once
    per metric family (labeled series of one family are adjacent in a
    snapshot), [_bucket{le=...}] cumulative bucket lines,
    [_sum]/[_count]. Dots in names are sanitized to underscores; label
    values escape backslash, double quote and newline per the
    exposition format. *)

val to_json : snapshot -> string

val json_number : float -> string
(** A float as a JSON number token; non-finite values (e.g. the [nan]
    an empty histogram's percentile reports) render as [null], keeping
    emitted documents parseable. *)

val dump_json : string -> snapshot -> unit
(** Write {!to_json} to a file. *)

(**/**)

val json_escape : string -> string
(** Shared with {!Trace}'s exporter. *)
