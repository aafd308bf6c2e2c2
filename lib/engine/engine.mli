(** A long-lived, concurrent, crash-safe estimation session over one
    built synopsis.

    The paper treats estimation as a one-shot computation; a serving
    system treats it as a session: build (or load) a synopsis once,
    then answer batches of twig queries against it for the lifetime of
    the process. [Engine.t] packages exactly that — one
    {!Xtwig_backend.Estimator_backend.instance}, which supplies the
    coarse floor, the backend name and the size; when the instance
    carries an XSKETCH sketch, one session table of that sketch's
    compiled plans and recorded answers ({!Xtwig_sketch.Plan.cache});
    and an optional {!Xtwig_util.Pool} of worker domains that
    evaluates the queries of a batch concurrently. Every session is
    opened through {!of_backend}; {!of_sketch} wraps a sketch in an
    instance first.

    A session is the one place plans are kept
    ({!Xtwig_sketch.Plan}). An estimate is a pure function of the
    sketch and the twig, so each distinct query compiles and runs
    once: a query compiles on its first sighting, its plans run until
    they answer clean, and the table then keeps that answer instead of
    the plans. The table keys each query by its exact identity
    ({!Xtwig_path.Path_types.Twig_tbl}), so a warm call costs one hash
    and one equality check and runs no plan. The coarse floor is a
    one-shot {!Xtwig_sketch.Estimator.estimate} over the label-split
    synopsis, which compiles, runs and drops its plans and keeps
    nothing; the instance builds that synopsis on the session's first
    degraded answer, not at open or at {!update}. A backend without a
    sketch answers through its own [estimate] and has no table.

    {2 Concurrency model}

    One domain owns the session (creates it, submits batches, reads
    stats, closes it). Within a batch, the table lookups — and so
    embedding enumeration and plan compilation — run on the owner,
    the table's only reader and writer, and per-query evaluation fans
    out to the pool; results return in query order, so a batch's
    answers are identical whatever [jobs] is. After the batch's jobs
    join, the owner records each clean answer that ran plans in the
    table, in query order; workers never write it. A query repeated
    within one batch therefore runs its plans at each sighting.

    {2 Timeouts and graceful degradation}

    Estimation cost is query-dependent (embedding counts multiply
    along branching paths), and a serving layer must bound tail
    latency. Each query's deadline starts when its compilation starts
    — compile time spends the same budget evaluation does — and the
    evaluation checks it between embedding contributions (cooperative
    — a single embedding's traversal is never interrupted). On expiry
    the engine degrades to the {e coarse label-split estimate}: cheap,
    always available, and the starting point of XBUILD — the
    same-shaped answer at the accuracy floor rather than no answer.

    {2 Hardening}

    {!estimate_batch} {b never raises}: every failure becomes either a
    degraded answer (flagged with its {!fallback_reason}) or a typed
    [Error _]. The failure paths, in the order they engage:

    - {b Retry}: an exception out of a table fill ([embed.fill],
      [plan.fill]), a query evaluation ([engine.query]) or a pool job
      ([pool.task]) is retried up to [retries] times with capped
      exponential backoff before degrading with reason [Fault].
    - {b Circuit breaker}: [breaker_threshold] consecutive
      fault-degraded answers trip the breaker; while open, queries
      degrade immediately with reason [Circuit_open] (no work
      submitted). After [breaker_cooldown_s] one probe query is let
      through (half-open); its outcome closes or re-opens the breaker.
    - {b Guards}: a query whose embedding enumeration exceeds
      [max_embeddings] embeddings or [max_embed_nodes] total nodes
      degrades with reason [Guard] instead of exhausting memory. Its
      table entry keeps the guard facts and no plans, so later
      sightings degrade without enumerating again.

    A degraded answer is the coarse floor, never the query's estimate,
    so it is never recorded: the query's next sighting runs its kept
    plans again without recompiling. A recorded answer still passes
    the [engine.query] fault point and the deadline check, so fault
    scenarios fire at the same queries and the breaker counts the
    same outcomes whether an answer ran plans or was recorded.

    Degradations are counted per reason in
    [engine.fallback{reason=...}], retries in [engine.retries]; a
    [Fault] degradation also names what raised out of its last attempt
    in a [Warn] {!Xtwig_obs.Log} event [engine.fallback] (fields
    [stage], ["compile"] or ["run"], [error] and, for a named session,
    [tenant]) while logging is enabled; and
    the breaker state is exported as the [engine.circuit_state] gauge
    (0 closed, 1 open, 2 half-open) — see {!Xtwig_obs.Metrics}. *)

type t

type fallback_reason =
  | Timeout  (** the per-query deadline expired (compile or eval) *)
  | Fault  (** retries exhausted on a raising evaluation or fill *)
  | Circuit_open  (** the breaker was open; no work was attempted *)
  | Guard  (** embedding enumeration exceeded the cardinality guards *)

(** {2 Estimate provenance}

    Every answer carries the facts of its own table lookup and plan
    runs, as the code path that produced them returned them, so
    compiles in other sessions or on other domains never leak into
    them. *)

type plan_tier =
  | Cache_hit
      (** the query's compiled plans or its recorded answer were
          served from the session table; also the tier of an answer
          that ran no plans *)
  | Fresh_compile  (** this request compiled the query's plans *)
  | Backend_opaque
      (** a session over a backend without a sketch (CST) — no plans *)

val tier_label : plan_tier -> string
(** Stable lowercase token, e.g. ["cache_hit"] — the wire encoding of
    the serving layer's [explain] verb. *)

type provenance = {
  pv_tier : plan_tier;
  pv_embeddings : int;
      (** the query's embedding count (= compiled plans), from its
          table entry's guard facts, so a recorded answer reports it
          too; 0 when the compile phase degraded or on a backend
          session *)
  pv_compile_ns : int;  (** time this request spent compiling plans *)
  pv_run_ns : int;
      (** time spent running the plans (one clock pair per query, also
          booked under [plan.run_ns]); 0 for a recorded answer, which
          ran none, and on a backend session *)
}

type answer = {
  query : Xtwig_path.Path_types.twig;
  estimate : float;
  fallback : bool;
      (** [estimate] is the coarse label-split estimate, not the full
          sketch's; [reason] says why *)
  reason : fallback_reason option;  (** [None] iff [fallback = false] *)
  retries : int;  (** retry attempts this answer consumed *)
  elapsed_s : float;  (** evaluation wall time of this query *)
  trace_id : int;
      (** the batch's trace id — unique per {!estimate_batch} call
          across every session of the process, and attached to the
          batch's [engine.query] trace spans so an answer can be
          correlated with its spans in a {!Xtwig_obs.Trace} dump *)
  provenance : provenance;
}

type stats = {
  name : string;  (** the session's tenant label ([""] if unnamed) *)
  backend : string;
      (** which estimator answers: the instance's registry name
          (["xsketch"] for {!of_sketch} sessions) *)
  jobs : int;  (** worker domains serving this session (1 = inline) *)
  sketch_bytes : int;
  queries_served : int;
  batches : int;
  timeouts : int;  (** answers degraded with reason [Timeout] *)
  retries : int;  (** total retry attempts across all batches *)
  degraded : int;
      (** answers degraded with reason [Fault], [Circuit_open] or
          [Guard] *)
  breaker_trips : int;  (** times the circuit breaker opened *)
  estimate_s : float;  (** cumulative batch evaluation wall time *)
}

val check_session_args :
  ?jobs:int -> ?retries:int -> ?timeout_s:float -> unit -> (unit, Xtwig_util.Xerror.t) result
(** The one rule {!of_backend} applies to its arguments, for a caller
    that should refuse them before the work a session needs (reading
    the document, building its sketch): [jobs >= 1], [retries >= 0]
    and a positive [timeout_s] ([infinity] means none), each a
    [Usage] error otherwise. An omitted argument passes. *)

val of_backend :
  ?name:string ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_s:float ->
  ?max_embeddings:int ->
  ?max_embed_nodes:int ->
  ?on_embedding:(Xtwig_path.Path_types.twig -> unit) ->
  Xtwig_backend.Estimator_backend.instance ->
  (t, Xtwig_util.Xerror.t) result
(** Open a session over any registered estimator backend (see
    {!Xtwig_backend.Estimator_backend}). [jobs] (default 1) is the
    worker-domain count; [timeout_s] (default 5.0) the per-query
    deadline. Hardening knobs (see the module preamble): [retries]
    (default 2), [backoff_s] (base backoff, default 1 ms, doubling,
    capped at 50 ms), [breaker_threshold] (default 8),
    [breaker_cooldown_s] (default 0.25). [name] is the session's
    tenant label: when given, the session's [engine.query.seconds]
    histogram and [engine.fallback] counters carry a [tenant] label,
    so a multi-sketch catalog (the [xtwigd] service, the CLI's
    per-tenant stats) reports each sketch separately instead of one
    global blob.

    When the instance carries an XSKETCH sketch
    ({!Xtwig_backend.Estimator_backend.sketch}), the session compiles
    and records through its own table, and the embedding guards apply:
    [max_embeddings] (default 100_000) and [max_embed_nodes] (default
    1_000_000). Otherwise evaluation is the backend's [estimate], one
    uninterruptible step (the deadline is checked before and after,
    never inside), and the guards do not apply (no embedding
    enumeration happens here). Either way a degraded answer is the
    instance's [coarse] floor, built lazily by the instance.

    Errors: [Xerror.Usage] unless [jobs >= 1], [retries >= 0] and
    [timeout_s > 0.0], so NaN is refused too ([infinity] is valid and
    means no deadline).

    [on_embedding] is a fault-injection/observability hook invoked on
    the evaluating domain before each embedding's contribution (before
    the one estimate of a backend without a sketch) — the timeout
    tests hang a chosen query with it; a tracing caller can count
    embedding visits. A recorded answer runs no plan and does not call
    it. *)

val of_sketch :
  ?name:string ->
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_s:float ->
  ?max_embeddings:int ->
  ?max_embed_nodes:int ->
  ?on_embedding:(Xtwig_path.Path_types.twig -> unit) ->
  Xtwig_sketch.Sketch.t ->
  (t, Xtwig_util.Xerror.t) result
(** [of_backend] over [Estimator_backend.of_sketch sk]: a session over
    an already-built (or loaded) sketch. Opening builds nothing; the
    label-split floor waits for the first degraded answer. *)

val estimate_batch :
  ?timeout_s:float -> ?trace_id:int -> t -> Xtwig_path.Path_types.twig list ->
  (answer list, Xtwig_util.Xerror.t) result
(** Evaluate a batch concurrently; answers come back in query order
    and are bit-identical to [jobs = 1] evaluation (absent timeouts).
    [timeout_s] overrides the session default for this batch.
    [trace_id] replaces the minted batch trace id with a
    client-propagated one (the serving layer threads the protocol's
    request id here), making it the ambient
    {!Xtwig_obs.Trace.with_trace_id} for the compile phase — the
    batch's [engine.*] and [plan.*] spans then share the caller's id
    end to end.

    Never raises, under any fault scenario: failures degrade
    individual answers (see the module preamble), and anything that
    slips every per-query net returns [Error (Xerror.Engine _)].
    Errors: [Xerror.Engine] on a closed session; [Xerror.Usage] unless
    the batch's deadline ([timeout_s], else the session's) is > 0.0.

    Each query runs under the fault scope of its batch index
    ({!Xtwig_fault.Fault.with_scope}), so injected fault sequences are
    byte-identical across runs and across [jobs] counts. *)

val estimate :
  ?timeout_s:float -> ?trace_id:int -> t -> Xtwig_path.Path_types.twig ->
  (answer, Xtwig_util.Xerror.t) result
(** One-query batch. The serving layer's [explain] verb is this call
    plus printing of the answer's {!provenance}. *)

val update :
  t -> Xtwig_sketch.Sketch.delta -> (unit, Xtwig_util.Xerror.t) result
(** Apply a subtree insert/delete to the session's document and swap
    in the incrementally maintained sketch
    ({!Xtwig_sketch.Sketch.apply_delta}) in a new XSKETCH instance:
    summaries untouched by the edit are reused in place, and the
    session table starts fresh (it is keyed to the old sketch), so
    each query compiles again on its first sighting after the update
    and no recorded answer outlives the sketch it was computed on. The
    new instance's coarse floor is built over the new document on the
    first degraded answer after the update, not here.

    Owner-domain only, between batches — the same single-writer
    discipline as {!stats} and {!close}; a batch in flight keeps the
    core it captured. Errors: [Xerror.Usage] on a session whose
    backend carries no sketch or on an out-of-range node,
    [Xerror.Engine] on a closed session or an injected [sketch.delta]
    fault. *)

val sketch : t -> Xtwig_sketch.Sketch.t
(** The session's current sketch (after {!update}, the maintained
    one). Raises [Invalid_argument] when the session's backend carries
    no sketch. *)

val backend_name : t -> string
(** The instance's registry name (["xsketch"] for {!of_sketch}
    sessions). *)

val name : t -> string option
(** The tenant label the session was opened with. *)

val stats : t -> stats

val breaker_state : t -> [ `Closed | `Open | `Half_open ]
(** Owner-domain view of the circuit breaker, for tests and the CLI's
    stats output. *)

val close : t -> unit
(** Shut the pool down and mark the session closed (idempotent);
    subsequent batches return [Xerror.Engine]. *)
