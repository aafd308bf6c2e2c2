(** Cost-based ordering of twig branch evaluation.

    The paper motivates selectivity estimation as optimizer input but
    never builds the optimizer. This module closes that loop for the
    one degree of freedom the exact evaluator exposes: at every twig
    node with [k] branch sub-twigs, {!Xtwig_eval.Eval_twig} multiplies
    the branches' counts left to right and stops as soon as the
    running product hits zero — so the {e order} of branches decides
    how much work a non-matching element costs. Branch sub-twigs play
    the role of relations in a join orderer; a plan assigns every
    multi-branch node a permutation.

    The orderer is a Selinger-style dynamic program over
    bitset-encoded branch subsets (best cost and best order memoized
    per subset), costed from the caller's selectivity estimates.
    Because the estimator only sees structure and 1-d value summaries,
    value predicates are handled by an Axiom-style constraint
    propagation pass first: each predicate's range is intersected with
    the histogram's domain, the narrowed interval is priced as a
    [trueFraction], and the fractions scale the structural cardinality
    estimates before the DP runs. Propagation only ever {e narrows}:
    intervals shrink and fractions fall monotonically — the property
    suite pins this.

    Plans are advisory: applying one reorders branch evaluation but
    never changes the answer (order-invariance is the differential
    oracle in the tests). Planning itself is total — on any internal
    failure, including an injected [opt.plan] fault, it degrades to
    the identity plan, never to a wrong or raised answer. *)

(** {1 Constraint propagation} *)

type interval = { lo : float; hi : float }
(** A closed value interval; either bound may be infinite. Empty when
    [lo > hi]. *)

type refined = { itv : interval; frac : float }
(** A value constraint under propagation: the narrowed interval and
    the estimated fraction of values satisfying every predicate seen
    so far ([trueFraction], in [\[0, 1\]]). *)

val top : ?hist:Xtwig_hist.Hist1d.t -> unit -> refined
(** The unconstrained starting point: the histogram's domain (its
    min/max are the column constraints) when one is known, else
    [(-inf, +inf)]; fraction 1. *)

val constrain :
  ?hist:Xtwig_hist.Hist1d.t -> refined -> Xtwig_path.Path_types.value_pred ->
  refined
(** Intersect one predicate into a constraint. Guarantees
    [result.itv] is contained in the input interval and
    [result.frac <= frac] — propagation never widens. With a
    histogram the fraction is read off the narrowed interval
    ([frac_range] / [frac_cmp]); without one, textbook default
    selectivities apply multiplicatively. *)

val path_frac :
  (string -> Xtwig_hist.Hist1d.t option) -> Xtwig_path.Path_types.path -> float
(** Product of propagated fractions over every value predicate in a
    path (steps and nested branching predicates), looking histograms
    up by step label. 1 for predicate-free paths. *)

(** {1 The subset DP} *)

val subset_prob : float array -> int -> float
(** [subset_prob probs s]: product of [probs.(i)] over the set bits of
    [s], multiplied in increasing index order — the canonical prefix
    probability both {!order_cost} and {!best_order} use, so their
    float arithmetic agrees bit for bit (the oracle test compares them
    with [=]). *)

val order_cost : costs:float array -> probs:float array -> int array -> float
(** Modeled cost of evaluating branches in the given order:
    [sum_j costs.(o_j) * subset_prob probs (set of o_0..o_{j-1})] —
    branch [i] costs [costs.(i)] but is only reached when every
    earlier branch found a match (probability [probs.(j)] each,
    independence assumed). *)

val best_order : costs:float array -> probs:float array -> int array * float
(** The Selinger DP: subsets of branches encoded as bitsets, best
    cost/last-branch memoized per subset, order reconstructed from the
    memo. Returns an order whose {!order_cost} equals the exact
    minimum over all [k!] permutations (ties broken toward the
    identity). Arrays must have equal length [k <= 16]; beyond that a
    greedy rank order (provably optimal under the independence model)
    is used instead. *)

(** {1 Plans} *)

type node_model = { costs : float array; probs : float array }
(** The per-branch cost model the DP ran on at one twig node — kept on
    the plan so tests can replay the exhaustive oracle against it. *)

type plan = {
  orders : int array array;
      (** per pre-order twig node (same numbering as
          {!Xtwig_eval.Eval_twig}), the branch evaluation order; [[||]]
          means default order *)
  models : node_model array;  (** per node; empty arrays below 2 branches *)
  cost : float;  (** modeled cost of the chosen orders *)
  default_cost : float;  (** modeled cost of the input (syntactic) order *)
  changed : bool;  (** some order differs from the identity *)
  fallback : bool;  (** planning failed and degraded to the default order *)
}

val identity_plan : twig:Xtwig_path.Path_types.twig -> fallback:bool -> plan
(** The default-order plan (all orders empty, zero costs). *)

val plan :
  estimate:(Xtwig_path.Path_types.twig -> float) ->
  ?vhist:(string -> Xtwig_hist.Hist1d.t option) ->
  Xtwig_path.Path_types.twig ->
  plan
(** Cost and order a twig. [estimate] prices structural sub-twigs
    (typically [Estimator_backend.estimate] of a built instance);
    [vhist] resolves a step label to a value histogram for the
    propagation pass (default: none known). Total: any exception from
    the estimator — and the [opt.plan] fault point — degrades to
    {!identity_plan} with [fallback = true] (counted in
    [opt.fallbacks], and logged as a [Warn] {!Xtwig_obs.Log} event
    [opt.fallback] whose [error] field is the exception, while logging
    is enabled). Metrics: [opt.plans], [opt.order_changed],
    [opt.fallbacks], [opt.plan_ns]; span [opt.plan]. *)

val apply : plan -> Xtwig_path.Path_types.twig -> Xtwig_path.Path_types.twig
(** Reorder the twig's sub-lists according to the plan (pre-order
    node numbering). Malformed or missing permutations leave the
    affected node's order unchanged, so [apply] is total and safe on
    any twig/plan pairing. *)

val to_lines : plan -> string list
(** Stable one-line-per-fact rendering ([cost], [default_cost],
    [changed], [fallback], one [order <node> <i...>] per reordered
    node) — shared by the CLI and the wire protocol. *)
