(** A small XML parser for the subset the repository produces and the
    paper's data model needs.

    Supported: elements, attributes (turned into leaf child nodes, per
    the paper's convention that attributes are containment children),
    text content (attached as the element's value; surrounding
    whitespace trimmed), character entities, comments, XML
    declarations, CDATA. Not supported: namespaces, DTDs, processing
    instructions other than the declaration.

    Round-trip property: [parse_string (Xml_writer.to_string d)] is
    structurally equal to [d] for any document built by this
    repository. *)

val parse_string_res : string -> (Doc.t, Xtwig_util.Xerror.t) result
(** Errors are [Xerror.Parse (Xml, _)] with message and position. This
    is the supported entry point. Runs through the [xml.parse] fault
    point; an injected fault surfaces as [Xerror.Io]. *)

val parse_file_res : string -> (Doc.t, Xtwig_util.Xerror.t) result
(** As {!parse_string_res}; file-system failures are [Xerror.Io].
    Streams the file through a bounded window ({!Sax.parse_channel})
    instead of materialising it. *)
