(** Compiled estimation plans (see DESIGN.md §12, "Plan compilation").

    A plan is the compilation of one factored embedding against one
    sketch: the TREEPARSE-style analysis of the recursive evaluator
    (which histograms to enumerate, which kid alternatives are
    bucket-dependent, which environment entries exist at each program
    point, the scratch-cell layout) together with the bucket tables
    and float constants it reads from that sketch.

    {!run} interprets the plan as a flat numeric kernel over a
    per-domain [Bigarray] float64 arena and the plan's int32 slab,
    allocating zero words on the OCaml heap in steady state (held by a
    [Gc.minor_words] delta over {!run_batch} in test/test_plan.ml).

    Compiling pays off only when a plan runs many times, so plans are
    compiled in one place: an engine session's {!cache}. Every other
    estimate (XBUILD's candidate scoring, the optimizer's costing, the
    CLI) runs the recursive evaluator {!Estimator.estimate}.

    {b Byte-identity:} a plan compiled from [e] replays the recursive
    evaluator's floating-point operations in the exact same order, so
    its {!run} equals [Estimator.estimate_embedding sk e] bit-for-bit.
    Held by test/test_plan.ml. *)

type t

val compile_roots : Sketch.t -> Embed.enode list -> t array
(** Compile every embedding of one query against one sketch, in
    enumeration order, sharing one compile context. Each plan is
    counted under [plan.compiles] and timed under [plan.compile_ns]. *)

val run : t -> float
(** Evaluate a compiled plan (the estimate of its embedding). Counted
    under [plan.runs]. The returned float is boxed by the caller's
    binding (we compile without flambda); the interpreter itself does
    not allocate. *)

val run_batch : t array -> float array -> unit
(** [run_batch ts out] stores [run ts.(i)] into [out.(i)] for every
    plan, without boxing any intermediate result — the zero-allocation
    entry point ([Invalid_argument] when [out] is shorter than
    [ts]). *)

(** {1 Session table}

    An engine session's one table: an entry per query under its exact
    identity ({!Xtwig_path.Path_types.Twig_tbl}) holding the query's
    plans (none for a guarded query) and its guard facts (embedding
    count, embedding node count). A query compiles on its first lookup
    and its plans run as they are from then on: the sketch is
    immutable, so no entry is ever revalidated, and a new sketch gets
    a new table. Embeddings are dropped once compiled, so a warm
    lookup is one hash and one equality check. The owner domain does
    every lookup; the returned plans are immutable and may be run on
    any domain. *)

type cache

val create_cache :
  max_embeddings:int -> max_embed_nodes:int -> Sketch.t -> cache
(** An empty table over one sketch. A query with more than
    [max_embeddings] embeddings or [max_embed_nodes] embedding nodes
    (every alternative counted) is guarded: it compiles nothing. *)

type found = {
  plans : t array;  (** one per embedding, in enumeration order *)
  guarded : bool;  (** the query exceeds a guard; [plans] is empty *)
  compiled : bool;  (** this lookup compiled [plans] *)
  compile_ns : int;  (** monotonic nanoseconds this lookup compiled for *)
}

val lookup : cache -> Xtwig_path.Path_types.twig -> found
(** The query's entry, filled on its first sighting. A hit counts
    under [plan.cache_hits] and does nothing else. A miss counts under
    [plan.cache_misses], passes the [embed.fill] fault point,
    enumerates with the table's chains memo and checks the guards; an
    unguarded query then passes [plan.fill] and compiles every root.
    A miss that raises stores nothing, and after a raising [plan.fill]
    the retried lookup of the same query reuses its enumeration. *)
