(** The public facade of the repository: every entry point an
    application — the [xtwig] CLI, the [xtwigd] service, a test
    harness — needs, and nothing that can raise.

    The internal libraries grew one layer per paper section (parsing,
    synopses, XBUILD, the hardened engine); each kept its own partial
    functions for its own tests. This module is the single audited
    surface over them: every function here either is total or returns
    [(_, Xerror.t) result], so a caller that types against [Xtwig]
    cannot be surprised by an exception. The raising variants are gone
    from the public signatures ({!Xtwig_sketch.Sketch_io},
    {!Xtwig_xml.Xml_parser}, {!Xtwig_path.Path_parser} export only
    [_res] entry points); this facade is the supported way in.

    Every estimator session opens through one door,
    {!open_backend_session} over a registered {!Backend.instance};
    {!open_sketch_session} wraps a concrete XSKETCH ({!sketch}) in its
    instance first. An instance that carries a sketch gets the
    compiled path with plan caching — the one the paper benchmarks
    and [xtwigd] serves by default; any other backend ([--backend
    cst], future estimators) gets the same hardening fabric around
    opaque evaluation. Both return an {!Engine.t}; batches, stats,
    breaker state and close are uniform from there. *)

module Xerror = Xtwig_util.Xerror
module Backend = Xtwig_backend.Estimator_backend
module Engine = Xtwig_engine.Engine

type doc = Xtwig_xml.Doc.t
type twig = Xtwig_path.Path_types.twig
type path = Xtwig_path.Path_types.path
type sketch = Xtwig_sketch.Sketch.t

(** {1 Documents} *)

val doc_of_string : string -> (doc, Xerror.t) result
(** Parse an XML document. Errors are [Xerror.Parse (Xml, _)]. *)

val doc_of_file : string -> (doc, Xerror.t) result
(** As {!doc_of_string}; file-system failures are [Xerror.Io]. *)

val doc_to_file : string -> doc -> (unit, Xerror.t) result
val doc_size : doc -> int

val sketch_doc : sketch -> doc
(** The document a sketch summarizes — after {!update_session} this is
    how a caller observes the updated document. Total. *)

(** {1 Queries} *)

val twig_of_string : string -> (twig, Xerror.t) result
(** Errors are [Xerror.Parse (Twig, _)]. *)

val path_of_string : string -> (path, Xerror.t) result
(** Errors are [Xerror.Parse (Path, _)]. *)

val twig_to_string : twig -> string
(** Canonical concrete syntax; [twig_of_string] round-trips it. *)

val selectivity : doc -> twig -> int
(** The exact answer, by full evaluation — the ground truth every
    estimate is judged against. Total. *)

(** {1 Cost-based optimization}

    The first consumer of the estimates: a Selinger-style subset DP
    ({!Xtwig_opt.Opt}) orders each twig node's branches by modeled
    cost, so cheap/selective branches run first and the evaluator's
    early zero-exit skips the expensive ones. Plans are advisory —
    ordered evaluation returns counts bit-equal to {!selectivity} for
    any plan, and planning itself degrades to the default order on any
    failure, so neither function can produce a wrong answer. *)

module Opt = Xtwig_opt.Opt

val optimize : sketch -> twig -> Opt.plan
(** Plan a twig's branch evaluation order, costed by the sketch's
    estimates through the {!Backend} registry, with constraint
    propagation over the sketch's 1-d value histograms
    ({!value_histogram}) refining value-predicate selectivities before
    costing.

    The structural estimates of the stripped sub-twigs go through one
    memo per sketch, keyed by exact sub-twig identity
    ({!Xtwig_path.Path_types.Twig_tbl}): a sketch is immutable, so
    a repeated sub-twig costs a table lookup instead of an embedding
    enumeration and a one-shot estimate
    ({!Xtwig_sketch.Estimator.estimate} through {!Backend}: costing
    compiles, runs and drops a plan per embedding and keeps none), and
    plans are bit-equal to those priced afresh. The memo is held weakly (dropping or replacing the
    sketch frees it), is safe to share between domains, and is cleared
    whenever it reaches 4,096 entries. Counters [opt.memo_hits] and
    [opt.memo_misses] count its lookups.

    Total: failures (including an injected [opt.plan] fault, which
    fires once per call before any memo lookup, and an estimate that
    raises, which is never memoized) yield the identity plan with
    [fallback = true]. *)

val value_histogram : sketch -> string -> Xtwig_hist.Hist1d.t option
(** The column statistics {!optimize} propagates value predicates
    through: the 1-d value histogram of the largest synopsis node with
    this label, if any node with the label carries one. *)

val optimize_backend : Backend.instance -> twig -> Opt.plan
(** As {!optimize} over any registered backend. No histogram access,
    so propagation falls back to default predicate selectivities. *)

val selectivity_ordered : doc -> Opt.plan -> twig -> int
(** Exact evaluation under the plan's branch orders
    ({!Xtwig_eval.Eval_twig.selectivity_ordered}). Bit-equal to
    {!selectivity} always. Total. *)

(** {1 XSKETCH synopses} *)

val build_sketch :
  ?budget:int ->
  ?seed:int ->
  ?candidates:int ->
  ?max_steps:int ->
  ?jobs:int ->
  ?on_step:(step:int -> description:string -> size:int -> unit) ->
  doc ->
  (sketch, Xerror.t) result
(** Run XBUILD (defaults: budget 8192, seed 42, the library's
    candidate/step defaults and scoring recipe, [jobs] = 1 — candidate
    scoring fans out to a domain pool when [jobs] > 1). [on_step]
    observes every applied refinement (the CLI prints progress with
    it). Errors are [Xerror.Usage] (non-positive budget/jobs) or
    [Xerror.Engine] (a fault-injection point fired during the
    build). *)

(** {1 Incremental updates} *)

type delta = Xtwig_sketch.Sketch.delta =
  | Insert of { parent : int; fragment : doc }
      (** graft [fragment] as a new last child of node [parent] *)
  | Delete of int  (** remove the subtree rooted at a non-root node *)

val update_sketch : ?reuse:bool -> sketch -> delta -> (sketch, Xerror.t) result
(** Incrementally maintain a sketch under a subtree insert/delete
    ({!Xtwig_sketch.Sketch.apply_delta}): the document is spliced and
    only the summaries in the edit's neighbourhood recompute — the
    result is bucket-for-bucket identical to rebuilding over the
    updated document with the carried-over configuration.
    [~reuse:false] forces that from-scratch path (the differential
    check of [bench ingest]). Errors: [Xerror.Usage] on an
    out-of-range node or deleting the root, [Xerror.Engine] on an
    injected [sketch.delta] fault. *)

val update_session : Engine.t -> delta -> (unit, Xerror.t) result
(** {!update_sketch} inside a live session: swaps the maintained
    sketch in and starts a fresh session table, so each query
    compiles again on its first sighting; the coarse floor is rebuilt
    only if a later answer degrades. Owner-domain only, between
    batches — see {!Engine.update}. *)

val save_sketch :
  ?budget:int -> ?seed:int -> sketch -> string -> (unit, Xerror.t) result
(** Crash-safe persistence: temp file + fsync + atomic rename, so the
    destination never holds a partial file — the hot-reload path of
    [xtwigd] depends on this. Errors are [Xerror.Io]. *)

val load_sketch : doc -> string -> (sketch, Xerror.t) result
(** Rebuild a saved sketch against [doc]. Errors: [Xerror.Io],
    [Xerror.Corrupt] (the damaged file is quarantined first),
    [Xerror.Sketch_format]. *)

(** {1 Estimator backends} *)

val backends : unit -> string list
(** Registered backend names (["xsketch"], ["cst"], ...). *)

val build_backend :
  backend:string ->
  ?budget:int ->
  ?seed:int ->
  doc ->
  (Backend.instance, Xerror.t) result
(** Resolve [backend] in the registry (case-insensitive;
    [Xerror.Usage] names the known backends on a miss) and build its
    summary of [doc]. *)

val load_backend :
  backend:string -> doc -> string -> (Backend.instance, Xerror.t) result
(** Backends without a persistent format return
    [Xerror.Sketch_format]. *)

(** {1 Estimation sessions} *)

val open_sketch_session :
  ?name:string ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_s:float ->
  sketch ->
  (Engine.t, Xerror.t) result
(** {!open_backend_session} over [Backend.of_sketch sk]: the compiled
    XSKETCH path (one session table keyed by exact twig: a query
    compiles and runs once, then its answer is recorded; pool
    fan-out). [name] labels the session's metrics with a [tenant]
    label — see {!Engine.of_backend}. *)

val open_backend_session :
  ?name:string ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_s:float ->
  Backend.instance ->
  (Engine.t, Xerror.t) result
(** Any registered backend behind the same hardening fabric — see
    {!Engine.of_backend}; an instance that carries a sketch takes the
    compiled path. *)

val estimate :
  ?timeout_s:float ->
  ?trace_id:int ->
  Engine.t ->
  twig ->
  (Engine.answer, Xerror.t) result
(** One query's estimate with its provenance ({!Engine.provenance}:
    plan tier — [cache_hit] when the session had the query's plans or
    its recorded answer,
    [fresh_compile] when this request compiled them, [backend] on a
    session whose backend has no sketch — embedding count, compile and
    run time). *)

val estimate_batch :
  ?timeout_s:float ->
  ?trace_id:int ->
  Engine.t ->
  twig list ->
  (Engine.answer list, Xerror.t) result
(** Never raises; answers in query order. [trace_id] propagates a
    client-supplied trace context into the batch's spans. See
    {!Engine.estimate_batch}. *)

val close_session : Engine.t -> unit

(** {1 Observability} *)

val metrics_render : unit -> string
(** Prometheus text-format snapshot of every metric in the process —
    what [xtwigd]'s [metrics] verb and the CLI's [--metrics] flag
    serve. *)

val version : string
(** The facade/protocol version ("1"): bumped when the wire protocol
    or this signature changes incompatibly. *)
