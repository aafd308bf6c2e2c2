(** The shared property-test toolkit: QCheck2 generators for the
    repository's core values — documents, paths, twigs, sketches and
    fault scenarios — so every suite draws from the same distributions
    and QCheck2's integrated shrinking works uniformly.

    All generators are sized where the value has a natural size knob
    ({!doc} caps node count by the QCheck size parameter, {!twig}
    bounds branch depth), which keeps shrunk counterexamples small and
    readable. Equality/structural helpers the properties need ride
    along ({!doc_equal}). *)

(** {1 Documents} *)

val label : string QCheck2.Gen.t
(** A tag name from a small fixed vocabulary — collisions are the
    point (twig matching needs repeated labels). *)

val value : Xtwig_xml.Value.t QCheck2.Gen.t
(** Null, small ints, or short lowercase text. *)

val doc : Xtwig_xml.Doc.t QCheck2.Gen.t
(** A random rooted document of 1–41 nodes (sized): node [k]'s parent
    is drawn among the nodes built before it, so every tree shape is
    reachable and shrinking drops subtrees from the end. *)

val deep_doc : Xtwig_xml.Doc.t QCheck2.Gen.t
(** As {!doc}, rooted at an [a], but node [k] hangs under one of the
    three nodes built just before it: deep chains where same-tag
    elements nest inside each other. *)

val doc_equal : Xtwig_xml.Doc.t -> Xtwig_xml.Doc.t -> bool
(** Structural equality from the roots: tags, values, child counts
    and child order. *)

(** {1 Paths and twigs} *)

val path : Xtwig_path.Path_types.path QCheck2.Gen.t
(** 1–3 steps, child/descendant axes, optional range predicates, no
    branches (branch structure belongs to {!twig}). *)

val twig : ?depth:int -> unit -> Xtwig_path.Path_types.twig QCheck2.Gen.t
(** A twig of nested sub-twigs bounded by [depth] (default 2), each
    node carrying a {!path}. *)

val twig_in : Xtwig_xml.Doc.t -> Xtwig_path.Path_types.twig QCheck2.Gen.t
(** A twig grown along the document's own edges, so that its count is
    usually non-zero. Each twig node's path follows a random downward
    chain of 1–3 elements from its parent's witness element. A chain
    element may be skipped, and the next step then takes the
    descendant axis. A child step may take the descendant axis anyway.
    A step may carry a value predicate built from the element's own
    value or a branching predicate grown the same way. Rarely, a step
    gets the label [zz], which the document lacks. The root path is
    the witness's absolute label path or a ['//']-anchored suffix of
    it, and twigs nest up to two levels below the root. *)

(** {1 Sketches} *)

val doc_with_sketch :
  (Xtwig_xml.Doc.t * Xtwig_sketch.Sketch.t) QCheck2.Gen.t
(** A generated {!doc} with its label-split sketch
    ([Sketch.default_of_doc]) — the cheap way to a serializable
    sketch whose partition varies with the document. *)

(** {1 Fault scenarios} *)

val fault_points : string list
(** The failure points production code declares, as patterns —
    including a prefix-glob entry. Scenario generators draw patterns
    from this list so every generated scenario targets real points. *)

val fault_trigger : Xtwig_fault.Fault.trigger QCheck2.Gen.t
(** Any of the five trigger shapes, with small parameters (hit
    indices 1–20, probabilities 0–0.5). *)

val fault_spec : ?points:string list -> unit -> Xtwig_fault.Fault.spec QCheck2.Gen.t
(** A scenario of 0–4 rules over [points] (default {!fault_points})
    and a small seed. Round-trips through
    [Fault.parse_spec (Fault.spec_to_string s)]. *)
