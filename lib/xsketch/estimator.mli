(** Selectivity estimation for twig queries over Twig XSKETCHes
    (Section 4).

    The estimate of a query is the sum of the estimates of its
    embeddings. Each embedding is compiled into a plan ({!Plan}) that
    evaluates a top-down traversal mirroring the TREEPARSE
    decomposition; sums over each twig child's alternative
    assignments are distributed through the product over children (per
    bucket), which evaluates the full cross product of assignments
    without materializing it:

    - at each embedding node, histogram dimensions matching edges
      already expanded upstream form the correlation set [D] and
      condition the bucket enumeration ({b Correlation-Scope
      Independence}: distributions are independent of counts outside
      the histogram's scope, so conditioning reduces to a ratio of
      histogram marginals — realized here by renormalizing the
      context-compatible buckets);
    - child edges covered by a histogram contribute their per-bucket
      mean counts multiplicatively (the expansion set [E]);
    - child edges not covered by any histogram contribute their exact
      average fanout [count(u->v)/|u|] ({b Forward Uniformity}),
      independently of everything else ({b Forward Independence} —
      also embodied by treating distinct histograms at one node as
      independent);
    - value predicates contribute fractions from the node's value
      histogram, independent of structure (the prototype configuration
      of Section 6.1);
    - branching predicates contribute existence fractions: the
      expected number of matching children, capped at 1, estimated
      from the covering histogram when one exists and from average
      fanout otherwise.

    On a fully-refined synopsis with exact histograms covering every
    queried edge, the estimate equals the true selectivity (the
    zero-error property the paper derives for full distribution
    information). *)

val estimate :
  ?cache:Embed.cache ->
  Sketch.t ->
  Xtwig_path.Path_types.twig ->
  float
(** Sum over all embeddings of the query, in enumeration order, each
    compiled into a plan, run and dropped ({!Plan.estimate_roots});
    timed under [estimator.ns]. When [cache] is given and keyed to
    this sketch's synopsis, the embedding enumeration is shared across
    calls (and across the sketches of one XBUILD scoring step, which
    differ only in histograms). Estimates are identical with or
    without it. Keeps no plan: an engine session keeps a query's
    plans until they answer clean and then only their sum
    (DESIGN.md §12). *)

val estimate_path : Sketch.t -> Xtwig_path.Path_types.path -> float
(** Single-path-expression cardinality (a chain twig). *)

val existence_frac : Sketch.t -> int -> Embed.ebranch list -> float
(** [existence_frac t u alts]: estimated fraction of node [u]'s
    elements with at least one match of a branching predicate, given
    the predicate's alternative embeddings ({!Plan.branch_frac}).
    Exposed for tests. *)
