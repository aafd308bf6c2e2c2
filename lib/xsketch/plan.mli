(** Compiled estimation plans: the one estimation kernel (see
    DESIGN.md §12, "Plan compilation").

    A plan is the compilation of one factored embedding against one
    sketch: the TREEPARSE analysis of the paper's estimate (which
    histograms to enumerate, which kid alternatives are
    bucket-dependent, which environment entries exist at each program
    point, the scratch-cell layout) together with the edge histograms
    and float constants it reads from that sketch. A node's branching
    predicates are one compile-time constant: every histogram
    dimension is an F-stable edge, so a bucket never changes a branch's
    existence fraction.

    A plan is three flat arrays: an int32 slab of node blocks and
    dimension tables, its float constants, and the edge histograms it
    enumerates. {!run} interprets it as a flat numeric kernel over a
    [Bigarray] float64 arena, allocating zero words on the OCaml heap
    in steady state (held by a [Gc.minor_words] delta over
    {!run_batch} in test/test_plan.ml).

    The compiler and the kernel work in one scratch record per domain
    (the arena, the plan under construction and every working array
    of the compiler), {e borrowed, never shared}: a call takes it from
    its domain's slot with [Atomic.exchange] and puts it back when
    done, and a call that finds the slot empty (a second systhread of
    the domain, a reentrant call) works in a fresh record. Plans are
    immutable and may be run on any domain, by any thread.

    Every estimate compiles and runs plans. A one-shot estimate
    ({!estimate_roots}, behind {!Estimator.estimate}: XBUILD's
    candidate scoring, the optimizer's costing, the engine's coarse
    fallback, the CLI) compiles each embedding into the scratch, runs
    it there and drops it, so in steady state a compile allocates only
    the few boxed floats the sketch's accessors return (at most 250
    words per plan, held by test/test_plan.ml). A plan that outlives
    its call ({!compile_roots}, an engine session's {!cache}) is the
    same layout copied out into arrays it owns. A session compiles a
    query's plans on its first sighting, runs them until they answer
    clean once and keeps only their sum from then on.

    {b Byte-identity:} a plan compiled from [e] replays the recursive
    reference evaluator's floating-point operations in the exact same
    order, so its {!run} equals that evaluator's estimate of [e]
    (test/estimate_reference.ml) bit-for-bit. Held by
    test/test_plan.ml. *)

type t

val compile_roots : Sketch.t -> Embed.enode list -> t array
(** Compile every embedding of one query (one enumeration) against one
    sketch, in enumeration order, each into arrays of its own. Each
    plan is counted under [plan.compiles], timed under
    [plan.compile_ns] and, while a trace records, spanned as
    [plan.compile]. *)

val estimate_roots : Sketch.t -> Embed.enode list -> float
(** The one-shot estimate of one query from its embeddings (one
    enumeration): each embedding in turn is compiled into the borrowed
    scratch, run there and dropped before the next is compiled, and
    the runs are summed in enumeration order. Counts one
    [plan.compiles] and one [plan.runs] per embedding; keeps
    nothing. *)

val branch_frac : Sketch.t -> int -> Embed.ebranch list -> float
(** [branch_frac t u alts]: the existence fraction of one branching
    predicate below an element of node [u] — the expected number of
    children matching one of its alternatives, capped at 1. A plan's
    branch factor is the product of these over a node's predicates. *)

val run : t -> float
(** Evaluate a compiled plan (the estimate of its embedding) in the
    borrowed scratch's arena. Counted under [plan.runs]. The returned
    float is boxed by the caller's binding (we compile without
    flambda); the interpreter itself does not allocate. *)

val run_batch : t array -> float array -> unit
(** [run_batch ts out] stores [run ts.(i)] into [out.(i)] for every
    plan, without boxing any intermediate result — the zero-allocation
    entry point ([Invalid_argument] when [out] is shorter than
    [ts]). *)

(** {1 Session table}

    An engine session's one table: an entry per query under its exact
    identity ({!Xtwig_path.Path_types.Twig_tbl}) holding the query's
    guard facts (embedding count, embedding node count) and one of two
    things: its plans (none for a guarded query), until they have run
    clean once, then their sum. A query compiles on its first lookup;
    the engine runs the plans and {!record}s the sum, and every later
    lookup hands out that sum and runs nothing. The sketch is
    immutable, so no entry is ever revalidated, and a new sketch gets
    a new table. Embeddings are dropped once compiled, so a warm lookup
    is one hash and one equality check. The owner domain does every
    lookup and every {!record}; the returned plans are immutable and
    may be run on any domain. *)

type cache

val create_cache :
  max_embeddings:int -> max_embed_nodes:int -> Sketch.t -> cache
(** An empty table over one sketch. A query with more than
    [max_embeddings] embeddings or [max_embed_nodes] embedding nodes
    (every alternative counted) is guarded: it compiles nothing. *)

type held =
  | Plans of t array
      (** one per embedding, in enumeration order; empty for a guarded
          query *)
  | Answer of float
      (** the plans' sum, bit for bit, recorded once they ran clean *)

type found = {
  held : held;  (** what the entry holds *)
  embeddings : int;  (** the query's embedding count, a guard fact *)
  guarded : bool;  (** the query exceeds a guard; [held] is [Plans [||]] *)
  compiled : bool;  (** this lookup compiled the plans *)
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

val record : cache -> Xtwig_path.Path_types.twig -> float -> unit
(** [record c q v] replaces the plans of [q]'s entry by [v], the sum
    of a clean run of the plans a {!lookup} of [q] handed out, and
    drops them. Only a clean sum may be recorded: a degraded answer
    would be served for the sketch's lifetime. *)
