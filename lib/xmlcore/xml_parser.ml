(* The Result-typed entry points, routed through the chunked streaming
   parser ({!Sax}). All failures funnel into Xerror values; Sax errors
   carry the same message format the recursive reference parser in
   test/xml_reference.ml uses. *)

let parse_string_res src =
  match
    Xtwig_fault.Fault.point "xml.parse";
    Sax.parse_string src
  with
  | doc -> Ok doc
  | exception Sax.Error msg -> Error (Xtwig_util.Xerror.Parse (Xml, msg))
  | exception Xtwig_fault.Fault.Injected { point; _ } ->
      Error (Xtwig_util.Xerror.Io (Printf.sprintf "injected fault at %s" point))

let parse_file_res path =
  match
    Xtwig_fault.Fault.point "xml.parse";
    (let ic = open_in_bin path in
     Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Sax.parse_channel ic))
  with
  | doc -> Ok doc
  | exception Sax.Error msg -> Error (Xtwig_util.Xerror.Parse (Xml, msg))
  | exception Sys_error msg -> Error (Xtwig_util.Xerror.Io msg)
  | exception Xtwig_fault.Fault.Injected { point; _ } ->
      Error (Xtwig_util.Xerror.Io (Printf.sprintf "injected fault at %s" point))
