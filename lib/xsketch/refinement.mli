(** Refinement operations (Section 5).

    Localized transformations that grow a Twig XSKETCH:

    - {e structural}: [b-stabilize] / [f-stabilize] split a node to
      create an additional backward- or forward-stable edge;
    - {e edge}: [edge-refine] allocates more buckets to one edge
      histogram; [edge-expand] inserts an additional dimension into a
      histogram's scope, lifting the independence assumption across
      that edge;
    - {e value}: [value-refine] allocates more buckets to a value
      histogram. ([value-expand] — multidimensional value histograms —
      is outside the prototype configuration, exactly as in the
      paper's Section 6.1 prototype.)

    Operations reference node ids of the sketch they were generated
    from and must be applied to that sketch. *)

type op =
  | B_stabilize of { src : int; dst : int }
      (** split [dst] by parent node, making every incoming edge
          B-stable *)
  | F_stabilize of { src : int; dst : int }
      (** split [src] into elements with / without a child in [dst] *)
  | Edge_refine of { node : int; hist : int; extra_buckets : int }
  | Edge_expand of { node : int; dim : Sketch.dim; into : int option }
      (** add [dim] to histogram [into] at [node] (absorbing it from
          any other histogram that covered it); [None] starts a new
          1-bucket histogram *)
  | Value_refine of { node : int; extra_buckets : int }
  | Value_split of { node : int; ways : int }
      (** {e Extension beyond the paper}: split a node with
          categorical values by its [ways] most common values (plus an
          "other" group). The resulting per-value nodes make string-equality
          branch predicates exact through plain edge statistics, and
          follow-up f-stabilize refinements can then capture
          value-to-structure correlations (e.g. genre-driven actor
          counts) that the prototype's independence assumption
          misses. *)

val apply : Sketch.t -> op -> Sketch.t
(** Returns the refined sketch. Structural operations split one
    synopsis node ({!Xtwig_synopsis.Graph_synopsis.split}) and remap
    every histogram configuration onto the new nodes (an old dimension
    maps to every new edge its endpoints split into; ineligible
    dimensions are dropped by the build). A
    no-op refinement (e.g. splitting an already-stable edge) returns
    an equivalent sketch. *)

val touched_labels : Sketch.t -> op -> string list
(** Tag names around the transformed region — used to focus the
    scoring workload. *)

val gen_candidates : ?count:int -> Sketch.t -> Xtwig_util.Prng.t -> op list
(** Samples a candidate pool (default size 8): structural candidates
    on nodes drawn with probability proportional to extent size times
    unstable degree (as in the paper), edge-refine / edge-expand /
    value-refine candidates on nodes drawn by extent size.
    [Edge_expand] proposes the scope-eligible dimension most
    correlated with the histogram's current dimensions. *)

val describe : Sketch.t -> op -> string

val kind_name : op -> string
(** The op's kind as a stable label ("b-stabilize", "f-stabilize",
    "edge-refine", "edge-expand", "value-refine", "value-split") —
    used as the [op.kind] metric label and trace-span argument. *)

val all_kinds : string list
(** Every {!kind_name}, in declaration order. *)
