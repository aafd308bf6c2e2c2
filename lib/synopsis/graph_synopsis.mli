(** Graph synopses of XML documents (Section 3.1).

    A synopsis is a partition of the document's elements into nodes of
    equal tag; synopsis edges connect two nodes when some document
    edge connects their extents. Each edge carries localized
    backward- and forward-stability flags:

    - [u -> v] is {b B-stable} when every element of [v] has a parent
      in [u] (in a tree: its unique parent lies in [u]);
    - [u -> v] is {b F-stable} when every element of [u] has at least
      one child in [v].

    The synopsis is a value: refinement operations return new
    synopses. {!of_partition} derives all structure (extents, edges,
    stabilities) from an element-to-group array in one document pass;
    {!split} derives it from its input, sharing what the split leaves
    untouched, and yields exactly what [of_partition] would give for
    the refined partition. *)

type edge = {
  src : int;
  dst : int;
  count : int;  (** number of document edges between the extents *)
  src_with_child : int;  (** elements of [src] with >= 1 child in [dst] *)
  b_stable : bool;
  f_stable : bool;
}

type t

(** {1 Construction} *)

val of_partition : Xtwig_xml.Doc.t -> int array -> t
(** [of_partition doc node_of] builds a synopsis from an
    element-to-group assignment. Group ids are renumbered densely in
    order of first appearance. Raises [Invalid_argument] if two
    elements of one group carry different tags or the array length
    differs from the document size. *)

val label_split : Xtwig_xml.Doc.t -> t
(** The coarsest synopsis: one node per tag (the starting point
    [S_0(G)] of XBUILD and the "coarsest synopsis" of Table 1). *)

val perfect : Xtwig_xml.Doc.t -> t
(** One synopsis node per document element — the zero-error reference
    summary (exponentially large; tests only). *)

(** {1 Accessors} *)

val doc : t -> Xtwig_xml.Doc.t
val node_count : t -> int
val edge_count : t -> int
val extent : t -> int -> int array
(** Do not mutate. *)

val extent_size : t -> int -> int
val node_tag : t -> int -> Xtwig_xml.Doc.tag
val tag_name : t -> int -> string
val node_of_elem : t -> int -> int
val nodes_with_tag : t -> Xtwig_xml.Doc.tag -> int list
val nodes_with_label : t -> string -> int list
(** Nodes whose tag has the given name ([] for unknown labels). *)

val child_count : t -> int -> int -> int
(** [child_count t e z]: number of children of document element [e]
    lying in synopsis node [z] — the forward-count primitive of edge
    distributions, a scan of [e]'s children in [O(deg e)]. *)

val edge : t -> src:int -> dst:int -> edge option
(** A scan of [src]'s out-edges. *)

val out_edges : t -> int -> edge list
(** Edges leaving a node, ordered by destination id. *)

val in_edges : t -> int -> edge list
(** Edges entering a node, ordered by source id. *)

val edges : t -> edge list
(** Every edge, ordered by [(src, dst)]. *)

val root_node : t -> int
(** The node whose extent holds the document root. *)

(** {1 Refinement support} *)

val split : t -> node:int -> group_of:(int -> int) -> t
(** [split t ~node ~group_of] partitions [node]'s extent by
    [group_of] (arbitrary small non-negative group keys). If only one
    group is non-empty the synopsis is returned unchanged (physically
    equal). Otherwise the result equals [of_partition] of the refined
    partition, field for field, so nodes stay numbered by their first
    element:

    - the group holding [node]'s first element keeps [node]'s id;
    - every other node moves up by the number of new groups whose
      first element precedes its own (the other groups take the ids
      in between, in first-element order);
    - every node outside [node] keeps its extent array physically
      ([extent (split t ..) v' == extent t v]), which is how callers
      map per-node state across the split: a new node whose extent is
      [==] to an old node's is that node, and the remaining new nodes
      are [node]'s images.

    Only the images' out-edges and those of the sources with an edge
    into [node] are tallied again; the work is proportional to that
    neighbourhood plus one pass over the element-to-node array. *)

val b_stabilize_groups : t -> int -> int
(** Grouping function for the b-stabilize refinement on an edge into
    the split node: [b_stabilize_groups t] maps each element to the
    synopsis node of its parent, so splitting separates elements by
    parent node and every resulting incoming edge is B-stable.
    (Returns the parent node id as the group key; the document root
    maps to a reserved fresh key.) *)

val f_stabilize_groups : t -> dst:int -> int -> int
(** Grouping function for the f-stabilize refinement on edge
    [src -> dst], to be applied to node [src]: elements with at least
    one child in [dst] map to 0, others to 1. *)

(** {1 Inspection} *)

val structure_bytes : t -> int
(** Storage charge for the structural part: 8 bytes per node (tag +
    extent count) + 9 bytes per edge (endpoints, count, stability
    bits). *)

val pp_stats : Format.formatter -> t -> unit
val pp : Format.formatter -> t -> unit
(** Full dump (small synopses only). *)
