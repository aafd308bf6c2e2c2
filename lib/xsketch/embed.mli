(** Expansion of twig queries into maximal twig embeddings (Section 4).

    A twig query is first rewritten into its {e maximal} forms — every
    multi-step path becomes a chain of single-step twig nodes and
    every ['//'] is expanded with valid synopsis paths — and each
    maximal form is matched onto concrete synopsis nodes. The
    selectivity of the query is the sum of the selectivities of its
    unique embeddings.

    Materializing the full cross product of per-child node assignments
    is exponential, so embeddings are kept {e factored}: each twig
    child carries the list of its alternative embedded chains, and the
    estimator distributes the sum over alternatives through the
    product over children (sound because different children's
    assignments are independent choices and binding-tuple sets of
    distinct assignments are disjoint). Only the root's alternative
    chains are returned as separate embeddings. Branching predicates
    are existential: their alternatives are combined into one
    existence fraction rather than summed as disjoint embeddings. *)

type ebranch = {
  bnode : int;  (** synopsis node *)
  bvpred : Xtwig_path.Path_types.value_pred option;
  bsubs : ebranch list list;
      (** one entry per existential predicate below this node (nested
          branching predicates and the chain continuation); each entry
          lists its alternative embeddings *)
}

type enode = {
  eid : int;
      (** dense id, unique within one {!embeddings} result — the
          estimator keys its per-traversal memo tables on it instead
          of hashing enode structure *)
  snode : int;  (** synopsis node *)
  vpred : Xtwig_path.Path_types.value_pred option;
  branches : ebranch list list;
      (** as [bsubs]: one alternatives-list per branching predicate *)
  kids : enode list list;
      (** one entry per twig child (chain intermediates have exactly
          one); each entry lists the child's alternative embedded
          chains — at least one, or the node would not exist *)
}

type chains_memo
(** Memo of per-step synopsis chain expansions, valid for one synopsis
    graph: queries against one synopsis share most of their step
    expansions. Owned by an embedding {!cache} or by an engine
    session's plan table ({!Plan.cache}), and used by its owner's
    domain only. *)

val chains_memo : unit -> chains_memo
(** An empty memo. *)

val embeddings :
  ?chains:chains_memo ->
  ?max_alternatives:int ->
  Xtwig_synopsis.Graph_synopsis.t ->
  Xtwig_path.Path_types.twig ->
  enode list
(** The factored embeddings of the query: one per alternative chain of
    the root path, each rooted at a node matching the first step
    (anchored at the synopsis root for child-axis roots). Descendant
    steps are expanded with synopsis paths of length bounded by the
    document depth. [max_alternatives] (default 64) bounds the
    alternative chains kept per path expansion; overflow is reported
    by {!last_truncated}. A node one of whose twig children (or
    branching predicates) cannot be embedded at all is dropped
    (selectivity 0). *)

val last_truncated : unit -> bool
(** Whether the calling domain's most recent {!embeddings} call hit a
    cap. The flag is domain-local, so concurrent enumerations on pool
    workers do not clobber each other's truncation status. *)

(** {1 Embedding cache}

    Embeddings depend only on the synopsis {e graph} and the query —
    not on histograms — so every non-structural refinement candidate
    scored by XBUILD shares one enumeration. A cache is keyed to one
    synopsis by physical identity (queries against any other synopsis
    bypass it) and holds one entry per query under its exact identity
    ({!Xtwig_path.Path_types.Twig_tbl}), enumerated with the default
    [max_alternatives]. Hits and misses are counted under
    [embed.cache_hits] / [embed.cache_misses] in
    {!Xtwig_util.Counters}. Engine sessions keep no embedding cache:
    their plan table drops a query's embeddings once its plans are
    compiled. *)

type cache

val create_cache : Xtwig_synopsis.Graph_synopsis.t -> cache

val cache_synopsis : cache -> Xtwig_synopsis.Graph_synopsis.t
(** The synopsis the cache is keyed to. *)

val freeze : cache -> unit
(** Stop accepting insertions. The ownership rule for XBUILD's
    domain-parallel scoring fan-out: exactly one domain warms the
    cache, freezes it, and only then shares it — worker domains read
    it lock-free and never insert. *)

val thaw : cache -> unit
(** Re-enable insertions. Only the owning domain may thaw, and only
    while no other domain holds the cache. *)

val embeddings_cached :
  cache ->
  Xtwig_synopsis.Graph_synopsis.t ->
  Xtwig_path.Path_types.twig ->
  enode list
(** As {!embeddings}, consulting the cache when the given synopsis is
    the cache's. Also restores the {!last_truncated} flag of the
    cached enumeration. Insertions happen only while the cache is
    thawed (and are lock-protected as a second line of defence);
    lookups are lock-free under the {!freeze} ownership rule. *)

val visited_nodes : enode list -> int list
(** Sorted distinct synopsis nodes referenced anywhere in the given
    embeddings — chain nodes, alternatives and branching-predicate
    nodes. An estimate reads sketch data only at these nodes, which is
    what lets XBUILD reuse a base estimate for refinement candidates
    that change none of them. *)

val size : enode -> int
(** Number of embedding nodes, counting each alternative (branch
    nodes excluded). *)
