(* The whole-string recursive XML parser the streaming parser
   (lib/xmlcore/sax.ml) replaced, kept as its differential oracle:
   test_ingest checks the two produce traversal-identical documents and
   the same typed errors, and bench [ingest] reports the streaming
   parser's speedup over it. Not on any production path; no fault
   point. *)

module Doc = Xtwig_xml.Doc
module Value = Xtwig_xml.Value

exception Parse_error of string

type state = { src : string; mutable pos : int; mutable line : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "line %d (offset %d): %s" st.line st.pos msg))

let eof st = st.pos >= String.length st.src

let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then st.line <- st.line + 1;
    st.pos <- st.pos + 1
  end

let skip_ws st =
  while (not (eof st)) && (match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
    advance st
  done

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then
    for _ = 1 to String.length s do
      advance st
    done
  else fail st (Printf.sprintf "expected %S" s)

let skip_until st marker =
  let n = String.length marker in
  let limit = String.length st.src - n in
  let rec loop () =
    if st.pos > limit then fail st (Printf.sprintf "unterminated, expected %S" marker)
    else if looking_at st marker then
      for _ = 1 to n do
        advance st
      done
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' | '@' -> true
  | _ -> false

let read_name st =
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  if st.pos = start then fail st "expected a name";
  String.sub st.src start (st.pos - start)

let decode_entity st =
  (* called just past '&' *)
  let start = st.pos in
  while (not (eof st)) && peek st <> ';' do
    advance st
  done;
  if eof st then fail st "unterminated entity";
  let ent = String.sub st.src start (st.pos - start) in
  advance st;
  match ent with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
      if String.length ent > 1 && ent.[0] = '#' then
        let code =
          if ent.[1] = 'x' || ent.[1] = 'X' then
            int_of_string_opt ("0x" ^ String.sub ent 2 (String.length ent - 2))
          else int_of_string_opt (String.sub ent 1 (String.length ent - 1))
        in
        match code with
        | Some c when c < 128 -> String.make 1 (Char.chr c)
        | Some _ -> "?"
        | None -> fail st (Printf.sprintf "bad character reference &%s;" ent)
      else fail st (Printf.sprintf "unknown entity &%s;" ent)

let read_text st =
  let buf = Buffer.create 32 in
  let rec loop () =
    if eof st then ()
    else
      match peek st with
      | '<' ->
          if looking_at st "<![CDATA[" then begin
            expect st "<![CDATA[";
            let start = st.pos in
            while (not (looking_at st "]]>")) && not (eof st) do
              advance st
            done;
            Buffer.add_string buf (String.sub st.src start (st.pos - start));
            expect st "]]>";
            loop ()
          end
          else ()
      | '&' ->
          advance st;
          Buffer.add_string buf (decode_entity st);
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          loop ()
  in
  loop ();
  String.trim (Buffer.contents buf)

let read_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected a quoted attribute value";
  advance st;
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof st then fail st "unterminated attribute value"
    else if peek st = quote then advance st
    else if peek st = '&' then begin
      advance st;
      Buffer.add_string buf (decode_entity st);
      loop ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let skip_misc st =
  let rec loop () =
    skip_ws st;
    if looking_at st "<!--" then begin
      skip_until st "-->";
      loop ()
    end
    else if looking_at st "<?" then begin
      skip_until st "?>";
      loop ()
    end
    else if looking_at st "<!DOCTYPE" then begin
      skip_until st ">";
      loop ()
    end
  in
  loop ()

(* Parses one element; [parent < 0] means this is the root. *)
let rec parse_element st builder parent =
  expect st "<";
  let name = read_name st in
  let node =
    if parent < 0 then Doc.Builder.root builder name
    else Doc.Builder.child builder parent name
  in
  (* attributes become leaf children *)
  let rec attrs () =
    skip_ws st;
    match peek st with
    | '>' | '/' -> ()
    | _ ->
        let aname = read_name st in
        skip_ws st;
        expect st "=";
        skip_ws st;
        let v = read_attr_value st in
        ignore (Doc.Builder.child builder node ~value:(Value.of_string v) aname);
        attrs ()
  in
  attrs ();
  if looking_at st "/>" then expect st "/>"
  else begin
    expect st ">";
    let text = Buffer.create 16 in
    let rec content () =
      let t = read_text st in
      if t <> "" then begin
        if Buffer.length text > 0 then Buffer.add_char text ' ';
        Buffer.add_string text t
      end;
      if eof st then fail st (Printf.sprintf "unterminated element <%s>" name)
      else if looking_at st "</" then begin
        expect st "</";
        let close = read_name st in
        if close <> name then
          fail st (Printf.sprintf "mismatched close tag </%s> for <%s>" close name);
        skip_ws st;
        expect st ">"
      end
      else if looking_at st "<!--" then begin
        skip_until st "-->";
        content ()
      end
      else begin
        parse_element st builder node;
        content ()
      end
    in
    content ();
    let t = Buffer.contents text in
    if t <> "" then Doc.Builder.set_value builder node (Value.of_string t)
  end

let parse_string src =
  let st = { src; pos = 0; line = 1 } in
  let builder = Doc.Builder.create ~hint:(1 + (String.length src / 32)) () in
  skip_misc st;
  if eof st then fail st "empty document";
  parse_element st builder (-1);
  skip_misc st;
  if not (eof st) then fail st "trailing content after the root element";
  Doc.Builder.finish builder

let parse_string_res src =
  match parse_string src with
  | doc -> Ok doc
  | exception Parse_error msg -> Error (Xtwig_util.Xerror.Parse (Xml, msg))
