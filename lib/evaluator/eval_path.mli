(** Exact evaluation of single path expressions over a document.

    These are the reference semantics: every estimate in the synopsis
    layer is judged against the numbers produced here. *)

val value_pred_holds : Xtwig_path.Path_types.value_pred -> Xtwig_xml.Value.t -> bool
(** Truth of a value predicate on a concrete leaf value. Numeric
    comparisons require a numeric value; [Cmp] against text compares
    strings; a [Null] value satisfies nothing. *)

(** {1 Compiled paths}

    A path compiled against one document: step labels resolved to tag
    codes once, a dedupe table only on descendant steps after the
    first (the only steps whose results can repeat). Every function
    below compiles its path and runs it through this matcher. *)

type compiled

val compile : Xtwig_xml.Doc.t -> Xtwig_path.Path_types.path -> compiled
(** Labels absent from the document compile to steps that never match. *)

val fold :
  compiled ->
  Xtwig_xml.Doc.node option ->
  ('x -> 'a -> Xtwig_xml.Doc.node -> 'a) ->
  'x ->
  'a ->
  'a
(** [fold c from f x acc] folds [f x] over the path's result set from a
    context ([None] = the virtual root above the document root), each
    node once, in the order {!eval} lists them. Builds no intermediate
    lists; passing a closure's state as [x] instead of capturing it
    lets a hot caller fold without allocating. *)

val iter_from :
  compiled -> Xtwig_xml.Doc.node option -> (Xtwig_xml.Doc.node -> unit) -> unit

val count_from : compiled -> Xtwig_xml.Doc.node option -> int

(** {1 One-shot evaluation} *)

val eval :
  Xtwig_xml.Doc.t ->
  from:Xtwig_xml.Doc.node option ->
  Xtwig_path.Path_types.path ->
  Xtwig_xml.Doc.node list
(** [eval doc ~from p] is the result set of [p] evaluated from [from]
    ([None] = the virtual root above the document root, for absolute
    paths). Results are distinct, in document order. *)

val count : Xtwig_xml.Doc.t -> from:Xtwig_xml.Doc.node option -> Xtwig_path.Path_types.path -> int
(** [List.length (eval ...)] without building the list. *)

val exists : Xtwig_xml.Doc.t -> from:Xtwig_xml.Doc.node -> Xtwig_path.Path_types.path -> bool
(** Branching-predicate semantics: at least one match. *)
