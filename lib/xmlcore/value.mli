(** Leaf values attached to document nodes.

    Following the paper's data model, leaf elements (and attributes)
    carry values; interior elements carry [Null]. Numeric values are
    the ones value predicates range over. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Text of string

val is_null : t -> bool

val as_float : t -> float option
(** Numeric view: [Int] and [Float] convert; [Text] parses if it is a
    number; [Null] and non-numeric text are [None]. *)

val to_string : t -> string
(** Rendering used by the serializer; [Null] renders as [""]. *)

val of_string : string -> t
(** Inverse of {!to_string} modulo numeric canonicalization: integers
    parse to [Int], other finite numbers to [Float], everything else
    to [Text] — including the non-finite literals OCaml's grammar
    accepts ([nan], [inf], [infinity] in any case and with any sign,
    and exponents that overflow); [""] parses to [Null]. *)

val of_slice : Bytes.t -> pos:int -> len:int -> t
(** [of_string] over a byte slice, allocating the string only when the
    result is [Text] or the shape needs the full parser. Agrees with
    [of_string (Bytes.sub_string b pos len)] exactly — the streaming
    parser's value classification ({!Sax}). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
