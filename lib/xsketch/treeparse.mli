(** The TREEPARSE decomposition (Figure 7 of the paper).

    Given a twig embedding over a sketch, computes for every internal
    embedding node [t_i] the three count sets that shape the
    selectivity expression:

    - the {e expansion set} [E_i]: dimensions of the node's histograms
      not yet covered upstream — these are summed over jointly;
    - the {e uncovered set} [U_i]: edges to embedding children not
      covered by any histogram — these contribute Forward-Uniformity
      average-fanout factors;
    - the {e correlation set} [D_i]: dimensions of the node's
      histograms already covered upstream — these condition the
      node's distribution on its ancestors' expansion.

    {!Plan} compiles the same decomposition into the estimation
    kernel; this module exposes it declaratively, mainly for tests and
    inspection. *)

type sets = {
  expansion : (int * int) list;  (** E_i, as synopsis edges *)
  uncovered : (int * int) list;  (** U_i *)
  correlation : (int * int) list;  (** D_i *)
}

val parse : Sketch.t -> Embed.enode -> (Embed.enode * sets) list
(** Depth-first (pre-order) traversal; leaf embedding nodes are
    skipped, as in the paper's pseudo-code. *)

val pp :
  Xtwig_synopsis.Graph_synopsis.t ->
  Format.formatter ->
  (Embed.enode * sets) list ->
  unit
