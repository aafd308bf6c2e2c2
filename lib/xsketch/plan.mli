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

    {b Byte-identity:} [run (compile sk e)] replays the recursive
    evaluator's floating-point operations in the exact same order, so
    it equals [Estimator.estimate_embedding sk e] bit-for-bit. Held by
    test/test_plan.ml. *)

type t

val compile : Sketch.t -> Embed.enode -> t
(** Compile one embedding against one sketch. Counted under
    [plan.compiles], timed under [plan.compile_ns]. *)

val compile_roots : Sketch.t -> Embed.enode list -> t array
(** Compile every embedding of one query, in enumeration order,
    sharing one compile context. *)

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

(** {1 Session plan cache}

    One sketch's compiled plans, keyed by {!Embed.cache_key}. A query
    compiles on its first lookup and its plans are run as they are
    from then on: the sketch is immutable, so no entry ever needs
    revalidating, and a session that swaps its sketch starts a new
    cache. The cache has a single owner (the engine session's owning
    domain), which does every lookup; the returned plans are immutable
    and may be run on any domain. *)

type cache

val create_cache : Sketch.t -> cache

val find_or_compile : cache -> key:string -> Embed.enode list -> t array * bool
(** The plans of one query ([key] is its {!Embed.cache_key}, [roots]
    its embeddings for the cache's sketch), and whether this lookup
    compiled them. A hit counts under [plan.cache_hits]; a miss counts
    under [plan.cache_misses], passes the [plan.fill] fault point, and
    compiles every root. A miss that raises leaves the cache as it
    was. *)
