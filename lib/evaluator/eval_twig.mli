(** Exact twig-query evaluation: the number of binding tuples.

    The selectivity [s(T_Q)] of a twig query is the number of binding
    tuples it generates (Section 2 of the paper): each tuple assigns
    one document element to every twig node such that every
    parent/child pair of twig nodes is connected by the child's path
    expression. *)

val selectivity : Xtwig_xml.Doc.t -> Xtwig_path.Path_types.twig -> int
(** Exact binding-tuple count; linear-ish in (matched elements x twig
    nodes). Paths are compiled once per call ({!Eval_path.compile}) and
    leaf branches are counted, not visited. Sub-twig counts are
    memoized per (element, twig node) only when some non-root path has
    a descendant step: with child steps only, a match's context is its
    unique ancestor that many levels up, so no pair is reached twice. *)

val selectivity_ordered :
  Xtwig_xml.Doc.t ->
  orders:int array array ->
  Xtwig_path.Path_types.twig ->
  int
(** As {!selectivity}, but each twig node's branches are evaluated in
    the order given by [orders.(tn)] (pre-order twig-node numbering —
    the numbering {!Xtwig_opt.Opt} plans against). Entries that are
    missing, empty or not a permutation of the node's branch count
    fall back to the syntactic order, so a degraded or mismatched plan
    can never change the evaluation. The count returned is bit-equal
    to {!selectivity} for every order: branch counts combine with the
    commutative, associative saturating product and the early zero
    exit never changes a value — order only moves the work. *)

(** {1 Saturating counters}

    Counts saturate at [1 lsl 55] — far above any real selectivity but
    well below [max_int] — so degenerate queries stay ordered instead
    of wrapping. Exposed for the edge-case tests. *)

val saturation : int

val sat_add : int -> int -> int
(** [min saturation (a + b)] for non-negative operands. *)

val sat_mul : int -> int -> int
(** [0] when either operand is 0, else [min saturation (a * b)] —
    commutative and associative on non-negatives, which is what makes
    branch reordering answer-preserving. *)

val bindings :
  ?limit:int -> Xtwig_xml.Doc.t -> Xtwig_path.Path_types.twig ->
  Xtwig_xml.Doc.node array list
(** Materializes binding tuples (pre-order twig-node order), up to
    [limit] (default 1000) — used by tests and the examples, not by
    the benchmarks. *)

val node_matches : Xtwig_xml.Doc.t -> Xtwig_path.Path_types.twig -> int
(** Number of elements matched by the root twig node alone (its
    per-node result cardinality). *)
