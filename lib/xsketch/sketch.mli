(** Twig XSKETCH synopses (Definition 3.1).

    A Twig XSKETCH couples a {!Xtwig_synopsis.Graph_synopsis.t} with
    localized distribution information:

    - per synopsis node, a set of {e edge histograms}, each
      approximating the joint distribution of a tuple of edge counts
      drawn from the node's twig stable neighborhood (forward counts
      to F-stable children; backward counts to F-stable children of
      B-stable ancestors);
    - per synopsis node with numeric leaf values, a one-dimensional
      {e value histogram} (the configuration of the paper's prototype).

    Keeping a {e set} of histograms per node (rather than exactly one)
    lets the initial coarse synopsis carry the paper's
    "single-dimensional edge-histograms ... to forward-stable children
    only", with the edge-expand refinement merging histograms into
    higher-dimensional ones as the budget grows. Dimensions of
    distinct histograms at one node are treated as independent — the
    Forward Independence assumption made structural. *)

type dim_kind = Forward | Backward

type dim = { src : int; dst : int; kind : dim_kind }
(** One histogram dimension: the count of synopsis edge [src -> dst].
    [Forward] dims have [src] = the owning node; [Backward] dims have
    [src] = a B-stable ancestor of the owning node. *)

type hist_spec = { dims : dim list; budget : int }
(** Configuration of one histogram: which edges it covers and its
    bucket budget. *)

type config = {
  especs : hist_spec list array;  (** per synopsis node *)
  vbudgets : int array;
      (** per synopsis node; 0 = no value histogram *)
}

type t

(** {1 Construction} *)

val build : ?prev:t -> Xtwig_synopsis.Graph_synopsis.t -> config -> t
(** Computes every configured histogram from the document. Histogram
    dimensions whose edges are not scope-eligible for the owning node
    (per {!Xtwig_synopsis.Tsn}) are dropped silently — this is what
    keeps configurations valid across structural refinements.

    When [prev] is given, built histograms and value summaries are
    reused at per-histogram granularity whenever they are provably
    identical:

    - [prev] over the {e same} (physically equal) synopsis: a
      histogram is reused when its valid dimensions and bucket budget
      are unchanged — non-structural refinements rebuild only the one
      histogram they touch;
    - [prev] over {e another synopsis of the same document} (after a
      structural split): each node is matched to the previous node
      with the elementwise-identical extent (an extent array shared
      with [prev]'s synopsis, as {!Xtwig_synopsis.Graph_synopsis.split}
      leaves every untouched node's, matches without a scan), and a
      histogram is reused when the owning node and every dimension
      endpoint have such a match (edge distributions depend only on
      those extents). Only the split images and their scope neighbours
      rebuild.

    Reuse is observable through the [sketch.*] counters of
    {!Xtwig_obs.Metrics}. *)

val build_with :
  ?prev:t ->
  node_map:(int -> int) ->
  Xtwig_synopsis.Graph_synopsis.t ->
  config ->
  t
(** [build] with an explicit node correspondence: [node_map n] is the
    node of [prev] whose extent is elementwise identical to [n]'s
    under the caller's element correspondence, or [-1]. This is the
    construction {!apply_delta} runs after a splice, where the
    documents differ and {!build}'s same-document matching cannot
    apply. Callers must uphold the elementwise-extent invariant — it
    is exactly what makes histogram and value-summary reuse sound. *)

(** {1 Incremental maintenance} *)

type delta =
  | Insert of { parent : Xtwig_xml.Doc.node; fragment : Xtwig_xml.Doc.t }
      (** graft [fragment] (a parsed document) as a new last child of
          [parent] *)
  | Delete of Xtwig_xml.Doc.node
      (** remove the subtree rooted at a (non-root) node *)

val apply_delta : ?reuse:bool -> t -> delta -> t
(** Incrementally maintain the sketch under a subtree insert or
    delete, without re-running XBUILD:

    - the document is spliced ({!Xtwig_xml.Doc.splice_insert} /
      [splice_delete]);
    - the partition is carried across — surviving groups persist,
      inserted elements of a known tag join that tag's smallest node,
      fresh tags get fresh nodes;
    - the configuration follows its nodes (dimensions whose endpoint
      vanished are dropped); fresh nodes start with the coarsest
      defaults;
    - every histogram and value summary whose owning node and
      dimension endpoints have elementwise-identical extents across
      the splice is reused in place; only the neighbourhood of the
      edit recomputes.

    Differential contract: the result equals
    [build (synopsis result) (config result)] — a from-scratch build
    over the same synopsis and configuration — bucket for bucket.
    [~reuse:false] forces that from-scratch path (the differential
    harness in [bench ingest] compares the two). Raises
    [Invalid_argument] on an out-of-range node (or deleting the
    root). Runs through the [sketch.delta] fault point. Reuse is
    observable via the [sketch.delta*] counters. *)

val coarsest :
  ?ebudget:int -> ?vbudget:int -> Xtwig_synopsis.Graph_synopsis.t -> t
(** The initial synopsis of XBUILD: one 1-d histogram per F-stable
    child edge ([ebudget] buckets each, default 1) and a [vbudget]-
    bucket value histogram on every node with numeric values
    (default 2). *)

val default_of_doc : ?ebudget:int -> ?vbudget:int -> Xtwig_xml.Doc.t -> t
(** [coarsest] over the label-split synopsis. *)

(** {1 Accessors} *)

val synopsis : t -> Xtwig_synopsis.Graph_synopsis.t
val doc : t -> Xtwig_xml.Doc.t
val config : t -> config

val changed_nodes : t -> int list option
(** For a sketch built with [~prev]: the nodes of [prev] (in [prev]'s
    numbering, sorted) whose summary data is not provably carried over
    unchanged — split images, scope neighbours whose histograms were
    rebuilt, and any node whose reuse failed. An estimate over [prev]
    whose embeddings avoid all of these equals the estimate over this
    sketch (provided the embedding enumeration was not truncated), so
    XBUILD reuses the base estimate instead of recomputing. [None]
    when the sketch was built from scratch. *)


val hists : t -> int -> (dim array * Xtwig_hist.Edge_hist.t) list
(** The built histograms of one node, paired with their dimension
    scopes. *)

val vhist : t -> int -> Xtwig_hist.Hist1d.t option
(** Numeric value histogram of a node, when its elements carry numeric
    values. *)

val vcat : t -> int -> Xtwig_hist.Mcv.t option
(** Most-common-value summary of a node's categorical (text) values —
    the extension beyond the paper's numeric-only prototype that
    serves string-equality predicates (see DESIGN.md §5). *)

val node_count : t -> int

val covering_hist :
  t -> int -> dim -> (dim array * Xtwig_hist.Edge_hist.t * int) option
(** [covering_hist t n d] finds the histogram at node [n] containing
    dimension [d], returning (scope, histogram, dim index). *)

val avg_fanout : t -> src:int -> dst:int -> float
(** [count(src -> dst) / |src|] — the Forward Uniformity estimate for
    uncovered edges; 0 for absent edges. *)

val exist_frac : t -> src:int -> dst:int -> float
(** Fraction of [src] elements with at least one child in [dst],
    straight from the synopsis edge record — the exact unconditioned
    existence probability for single-step branching predicates
    (1.0 when the edge is F-stable, 0 when absent). *)

val value_frac : t -> int -> Xtwig_path.Path_types.value_pred -> float
(** Estimated fraction of node elements satisfying a value predicate,
    from the node's value histogram. Falls back to 0.1 when the node
    has no histogram (a predicate on an unsummarized node). *)

(** {1 Size accounting} *)

val size_bytes : t -> int
(** Structure + edge histograms (buckets plus 8 bytes per scope
    dimension) + value histograms. This is the x-axis of Figure 9. *)

val pp_stats : Format.formatter -> t -> unit

(** {1 Exact references (tests / reference summaries)} *)

val exact_for_scopes : Xtwig_synopsis.Graph_synopsis.t -> dim list list array -> t
(** Builds with unbounded bucket budgets (exact histograms) for the
    given per-node histogram groupings, and exact-budget value
    histograms; the zero-error configuration used by tests. *)

val dim_edges_of_node : t -> int -> (int * int) list
(** All scope-eligible edges of a node (delegates to Tsn). *)

val distribution : t -> int -> dim array -> Xtwig_hist.Sparse_dist.t
(** The exact edge distribution of one node over the given dimensions,
    recomputed from the document — used by refinement scoring and by
    tests. *)
