(** The XBUILD construction algorithm (Figure 8).

    Starting from the coarsest synopsis (label-split graph with 1-d
    edge histograms on forward-stable child edges), XBUILD repeatedly:

    + samples a pool of candidate refinements (nodes drawn with
      probability proportional to extent size x unstable degree);
    + samples a scoring workload of twig queries focused on the
      regions the candidates touch;
    + scores every candidate by the {e marginal gain} criterion —
      reduction of average estimation error on the workload per byte
      of extra space — and applies the best one;

    until the space budget is exhausted. True selectivities for the
    scoring workload come from a caller-supplied [truth] oracle (this
    repository uses the exact evaluator with memoization, where the
    paper used a large reference summary — see DESIGN.md). *)

type step_info = {
  step : int;
  op : Refinement.op;
  description : string;
      (** human-readable form of [op], rendered against the sketch it
          was generated from (node ids shift across splits, so callers
          cannot render it themselves afterwards) *)
  size : int;  (** bytes after applying the op *)
  workload_error : float;  (** scoring-workload error after the op *)
}

val build :
  ?pool:Xtwig_util.Pool.t ->
  ?seed:int ->
  ?candidates:int ->
  ?max_steps:int ->
  ?ebudget0:int ->
  ?vbudget0:int ->
  ?on_step:(Sketch.t -> step_info -> unit) ->
  ?workload:
    (Xtwig_util.Prng.t -> focus:string list -> Xtwig_path.Path_types.twig list) ->
  ?truth:(Xtwig_path.Path_types.twig -> float) ->
  budget:int ->
  Xtwig_xml.Doc.t ->
  Sketch.t
(** [candidates] is the per-step candidate-pool size (default 8);
    [max_steps] bounds the loop (default 400); [ebudget0]/[vbudget0]
    configure the coarsest synopsis. [on_step] observes every applied
    refinement — the benchmark harness uses it to snapshot
    error-vs-size curves in a single build.

    [workload] samples the scoring queries (default: ten
    {!Xtwig_workload.Wgen.paper_p} queries per draw) and [truth]
    answers them (default: {!Xtwig_eval.Eval_twig.selectivity} over
    [doc], memoized per exact twig, so repeated refinement scoring
    pays one evaluation per query). The defaults are the library's one
    XBUILD recipe: [Xtwig.build_sketch] and the XSKETCH backend build
    with them.

    [pool] fans candidate scoring out across the given worker domains.
    Candidate generation, workload sampling and truth resolution stay
    on the calling domain (they consume the PRNG and the caller's
    [truth] closure, which need not be thread-safe); workers receive a
    frozen embedding cache and immutable sketches. The applied
    refinement is chosen by deterministic (gain, candidate-index)
    reduction, so the resulting synopsis is {e bit-identical} to the
    sequential build — parallelism changes wall-clock time only.

    Every estimate is one-shot ({!Estimator.estimate}): each candidate
    sketch is scored once per workload query, so each embedding's plan
    is compiled, run once and dropped. Over a build [plan.runs] moves
    exactly as [plan.compiles] does, and no session table is looked up
    ([plan.cache_hits] and [plan.cache_misses] do not move). With
    [pool], workers compile their own plans against their domain's
    scratch arena.

    Each step's base pass estimates the scoring workload on the current
    sketch. The fixed anchor queries were already estimated on that
    sketch when it was scored as the previous step's candidate, and
    those estimates are reused bit for bit; after a structural step the
    applied candidate's embedding cache also becomes the step's cache. *)

val workload_error :
  Sketch.t -> truth:(Xtwig_path.Path_types.twig -> float) ->
  Xtwig_path.Path_types.twig list -> float
(** Average absolute relative error with the paper's sanity bound (the
    10th percentile of the true counts of the evaluated workload). *)
