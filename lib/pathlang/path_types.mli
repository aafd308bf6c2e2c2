(** Abstract syntax of the XPath fragment and of twig queries.

    The paper's path expressions have the form
    [l1{s1}\[b1\]/.../ln{sn}\[bn\]] where [li] is a label, [{si}] an
    optional value predicate and [\[bi\]] an optional branching
    predicate (itself a path that must have at least one match). The
    leading step may also use the descendant axis ['//'].

    A twig query is a node-labeled tree where each node carries the
    path expression that relates its bindings to its parent's
    bindings. *)

type comparison = Lt | Le | Eq | Ne | Ge | Gt

type value_pred =
  | Cmp of comparison * Xtwig_xml.Value.t
      (** [. op v] — numeric comparison when both sides are numeric,
          string comparison otherwise. *)
  | Range of float * float
      (** [. in lo .. hi], inclusive on both ends — the paper's P+V
          workloads use random 10% ranges of the value domain. *)

type axis = Child | Descendant

type step = {
  axis : axis;
  label : string;
  vpred : value_pred option;
  branches : path list;
      (** Branching predicates: each must have at least one match
          below the element bound at this step. *)
}

and path = step list
(** Non-empty list of navigation steps. *)

type twig = { path : path; subs : twig list }
(** A twig node: [path] is evaluated from the parent node's bindings
    (from the document root for the query root). *)

(** {1 Constructors} *)

val step :
  ?axis:axis -> ?vpred:value_pred -> ?branches:path list -> string -> step
(** [step l] is a child-axis step across label [l]. *)

val twig : path -> twig list -> twig

(** {1 Shape accessors} *)

val twig_size : twig -> int
(** Number of twig nodes. *)

val twig_fanouts : twig -> int list
(** Fanout of every internal (non-leaf) twig node — the "Avg. Fanout"
    statistic of Table 2. *)

val twig_fold : twig -> init:'a -> f:('a -> twig -> 'a) -> 'a
(** Pre-order fold over twig nodes. *)

val path_has_value_pred : path -> bool
val twig_has_value_pred : twig -> bool
val twig_has_branches : twig -> bool

val twig_labels : twig -> string list
(** All labels mentioned anywhere in the query (steps and branches),
    without duplicates. *)

(** {1 Exact identity} *)

val equal_twig : twig -> twig -> bool
(** Structural equality that is exact: float constants compare by
    [Int64.bits_of_float] (so [-0.0] and [0.0] differ), labels and
    [Text] values by [String.equal]. Two twigs whose printed texts
    coincide ([%.6g] bounds) can still differ here. *)

val hash_twig : twig -> int
(** A hash over every node, step, label and constant of the twig;
    [equal_twig a b] implies [hash_twig a = hash_twig b]. *)

module Twig_tbl : Hashtbl.S with type key = twig
(** Tables keyed by exact twig identity ({!equal_twig}, {!hash_twig}):
    every cache of per-query results uses it. *)
