(** Lightweight global performance counters and monotonic timers.

    Counters are registered once (typically at module initialization)
    and incremented from anywhere — including worker domains: cells are
    {!Atomic.t}, so concurrent increments from XBUILD's parallel
    candidate scoring are safe. The benchmark harness snapshots them
    around a run and reports the delta, which is how the perf
    trajectory of the build inner loop is tracked across PRs
    (see DESIGN.md "Performance").

    This module is a compatibility view over the generalized
    {!Xtwig_obs.Metrics} registry: a counter registered here is the
    unlabeled [Metrics] counter of the same name, and {!snapshot} /
    {!reset} iterate the shared registry. New code that needs gauges,
    histograms or labels should use [Metrics] directly.

    Timers are counters accumulating monotonic nanoseconds. *)

type t
(** A named counter. *)

val counter : string -> t
(** [counter name] returns the counter registered under [name],
    creating it on first use. Names are global; two calls with the
    same name share one cell. *)

val incr : ?by:int -> t -> unit
(** Atomic increment (default [by] = 1). *)

val value : t -> int

val name : t -> string

(** {1 Timers} *)

val timer : string -> t
(** A counter meant to accumulate elapsed monotonic nanoseconds.
    Conventionally named with an [.ns] suffix. *)

val now_ns : unit -> int64
(** Monotonic clock ([CLOCK_MONOTONIC]), nanoseconds from an arbitrary
    origin. *)

val time : t -> (unit -> 'a) -> 'a
(** [time t f] runs [f] and adds its elapsed monotonic nanoseconds to
    [t], also on exception. *)

(** {1 Registry} *)

val reset : unit -> unit
(** Zero every registered cell of the shared metrics registry —
    including gauges and histograms (values only; registration is
    kept). *)

val snapshot : unit -> (string * int) list
(** Every registered counter cell with its current value, sorted by
    name; labeled [Metrics] counters appear as [name{k=v,...}].
    Prefer {!Xtwig_obs.Metrics.snapshot}/[diff] for before/after
    deltas — it also carries gauges and histograms. *)

val get : string -> int
(** Current value of the named counter; 0 when never registered. *)
