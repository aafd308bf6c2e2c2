(** The common signature every selectivity estimator serves behind.

    The paper builds one estimator (the Twig XSKETCH) and compares it
    against one baseline (the CST); a serving system wants both — and
    future ones (Bayesian networks, sampling — see PAPERS.md) — behind
    a single audited surface, so the engine, the wire protocol and the
    CLI never grow a per-estimator code path. {!S} is that surface:
    Result-typed construction, a total [estimate], and a cheap
    [coarse] floor the engine degrades to when the full estimate is
    unavailable (timeout, fault, breaker).

    Implementations register themselves in a process-global registry
    keyed by {!S.name}; {!find} is how [--backend NAME] and the
    service catalog resolve one. XSKETCH and CST are registered at
    module initialization. *)

type doc = Xtwig_xml.Doc.t
type twig = Xtwig_path.Path_types.twig

module type S = sig
  type t

  val name : string
  (** Registry key, lowercase (["xsketch"], ["cst"]). *)

  val build :
    ?budget:int -> ?seed:int -> doc -> (t, Xtwig_util.Xerror.t) result
  (** Construct a summary of [doc] within [budget] bytes (default
      8192). Never raises. *)

  val load : doc -> string -> (t, Xtwig_util.Xerror.t) result
  (** Rebuild a persisted summary against [doc]. Backends without a
      persistent format return [Xerror.Sketch_format]. *)

  val estimate : t -> twig -> float
  (** The backend's full-fidelity selectivity estimate. Total for
      well-formed twigs (exceptions are treated as faults by the
      engine and retried/degraded, never propagated). *)

  val coarse : t -> twig -> float
  (** A cheap degradation floor: the same-shaped answer at the
      accuracy floor. Must be O(query) — the engine calls it on the
      failure path where no further budget exists. *)

  val size_bytes : t -> int

  val sketch : t -> Xtwig_sketch.Sketch.t option
  (** The XSKETCH synopsis this summary is, if it is one. An engine
      session over such an instance answers from its own session
      table of that sketch's plans ({!Xtwig_sketch.Plan.cache}) and
      can apply document updates to it; every other backend answers
      through [estimate]. *)
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance
(** A backend packaged with a built value — what the engine and the
    service catalog actually hold. *)

val name_of : instance -> string
val estimate : instance -> twig -> float
val coarse : instance -> twig -> float
val size_bytes : instance -> int
val sketch : instance -> Xtwig_sketch.Sketch.t option

(** {1 Built-in backends} *)

module Xsketch : S
(** The paper's estimator: XBUILD construction (the library's default
    recipe, {!Xtwig_sketch.Xbuild.build}), TREEPARSE estimation,
    [Sketch_io] persistence. [estimate] is one-shot: it enumerates the
    twig's embeddings, compiles and runs a plan for each and keeps
    none ({!Xtwig_sketch.Estimator.estimate}) — this is the path
    [Xtwig.optimize]'s costing takes; an engine session answers from
    its own plan table instead ([sketch] is [Some]). [coarse] is the
    label-split estimate, its synopsis built on first use, once per
    instance, under the instance's mutex: a pooled session may degrade
    on several domains at once. It is the only label-split floor an
    engine session has. *)

module Cst : S
(** The correlated-suffix-tree baseline. No persistent format;
    [coarse] reuses [estimate] (already cheap); [sketch] is [None]. *)

(** {1 Registry} *)

val register : (module S) -> unit
(** Replaces any previous backend with the same [name]. *)

val backends : unit -> (module S) list
val names : unit -> string list

val find : string -> ((module S), Xtwig_util.Xerror.t) result
(** Case-insensitive; [Xerror.Usage] names the known backends on a
    miss. *)

(** {1 Instance helpers} *)

val build :
  (module S) ->
  ?budget:int ->
  ?seed:int ->
  doc ->
  (instance, Xtwig_util.Xerror.t) result

val load :
  (module S) -> doc -> string -> (instance, Xtwig_util.Xerror.t) result

val of_sketch : Xtwig_sketch.Sketch.t -> instance
(** Wrap an already-built XSKETCH (e.g. one loaded through
    [Sketch_io]) as an {!Xsketch} instance. *)
