(** Workload generation (Section 6.1).

    Generates "positive" twig queries (non-zero selectivity) by
    sampling witness elements from the document and growing the query
    tree along the witness's actual structure, so positivity holds by
    construction. Configurations mirror the paper's workloads:

    - {!paper_p}: 4-8 twig nodes, branching predicates, no value
      predicates (the P workload);
    - {!paper_pv}: P plus value predicates on half the queries, each a
      random 10% range of the value domain (the P+V workload);
    - {!simple_paths}: twigs of simple child-axis paths, no predicates
      (the CST-comparison workload). *)

type spec = {
  n_queries : int;
  min_nodes : int;
  max_nodes : int;  (** twig nodes per query, uniform *)
  branch_prob : float;
      (** probability a grown edge becomes a branching predicate
          instead of a twig child *)
  value_pred_frac : float;
      (** fraction of queries receiving 1-2 value predicates *)
  value_range_frac : float;  (** width of a range predicate, as a
      fraction of the tag's value domain (the paper uses 0.1) *)
  descendant_root_prob : float;
      (** probability the root path is ['//']-anchored *)
  max_path_steps : int;  (** steps per twig-node path (1-2 typical) *)
  leaf_roots : bool;
      (** root the twig at the sampled element itself (possibly a
          value-carrying leaf) instead of ascending to a structurally
          rich ancestor — used by single-path workloads, where the one
          node must be able to end on a leaf for value predicates to
          exist *)
}

val paper_p : spec
val paper_pv : spec
val simple_paths : spec
(** 500 queries, as in the Section 6.2 CST comparison. *)

val generate :
  ?focus:string list ->
  spec ->
  Xtwig_util.Prng.t ->
  Xtwig_xml.Doc.t ->
  Xtwig_path.Path_types.twig list
(** Non-zero-selectivity queries. [focus] biases witness sampling
    toward elements whose tag is listed (used by XBUILD's
    region-focused scoring workloads).

    The per-document tables the generator consults (numeric value
    domains, child-tag optionality) are built on the first call for a
    document and kept for the calls that follow on the same
    (physically equal) document; they draw nothing from [prng], so
    the queries do not depend on whether the tables were cached. Safe
    to call from several domains at once. *)

val generate_negative :
  spec -> Xtwig_util.Prng.t -> Xtwig_xml.Doc.t -> Xtwig_path.Path_types.twig list
(** Zero-selectivity variants (a positive query with one label
    replaced by a label that never occurs in that context). *)

val characteristics :
  Xtwig_xml.Doc.t -> Xtwig_path.Path_types.twig list -> float * float
(** (average true result cardinality, average internal-node fanout) —
    the two rows of Table 2. *)
