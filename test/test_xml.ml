module Doc = Xtwig_xml.Doc
module Value = Xtwig_xml.Value
module Parser = Xtwig_xml.Xml_parser
module Writer = Xtwig_xml.Xml_writer
module Xerror = Xtwig_util.Xerror

let parse_string s =
  match Parser.parse_string_res s with
  | Ok d -> d
  | Error e -> failwith (Xerror.to_string e)

let sample () =
  let b = Doc.Builder.create () in
  let root = Doc.Builder.root b "lib" in
  let a = Doc.Builder.child b root "author" in
  ignore (Doc.Builder.child b a ~value:(Value.Text "Ada") "name");
  let p = Doc.Builder.child b a "paper" in
  ignore (Doc.Builder.child b p ~value:(Value.Int 2001) "year");
  ignore (Doc.Builder.child b p ~value:(Value.Text "k1") "keyword");
  ignore (Doc.Builder.child b p ~value:(Value.Text "k2") "keyword");
  Doc.Builder.finish b

(* ---------------- Value ---------------- *)

let test_value_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        "of_string (to_string v) = v" true
        (Value.equal v (Value.of_string (Value.to_string v))))
    [ Value.Null; Value.Int 42; Value.Int (-7); Value.Float 2.5; Value.Text "abc" ]

(* OCaml's float grammar reads these words as non-finite floats; as
   element text they must stay text, through both classifiers *)
let test_value_non_finite_text () =
  List.iter
    (fun s ->
      let expect = Value.Text s in
      Alcotest.(check bool)
        (Printf.sprintf "of_string %S is Text" s)
        true
        (Value.equal expect (Value.of_string s));
      Alcotest.(check bool)
        (Printf.sprintf "of_slice %S is Text" s)
        true
        (let b = Bytes.of_string ("<" ^ s ^ ">") in
         Value.equal expect (Value.of_slice b ~pos:1 ~len:(String.length s))))
    [ "nan"; "NaN"; "inf"; "-inf"; "+infinity"; "Infinity"; "1e999" ]

let test_value_as_float () =
  Alcotest.(check (option (float 1e-9))) "int" (Some 3.0) (Value.as_float (Int 3));
  Alcotest.(check (option (float 1e-9))) "float" (Some 2.5) (Value.as_float (Float 2.5));
  Alcotest.(check (option (float 1e-9))) "numeric text" (Some 7.0) (Value.as_float (Text "7"));
  Alcotest.(check (option (float 1e-9))) "text" None (Value.as_float (Text "abc"));
  Alcotest.(check (option (float 1e-9))) "null" None (Value.as_float Null)

let test_value_compare () =
  Alcotest.(check bool) "int < float" true (Value.compare (Int 1) (Float 2.0) < 0);
  Alcotest.(check bool) "null smallest" true (Value.compare Null (Int (-100)) < 0);
  Alcotest.(check bool) "text order" true (Value.compare (Text "a") (Text "b") < 0);
  Alcotest.(check bool) "int/float equal" true (Value.equal (Int 2) (Float 2.0))

(* ---------------- Doc ---------------- *)

let test_builder_structure () =
  let d = sample () in
  Alcotest.(check int) "size" 7 (Doc.size d);
  Alcotest.(check string) "root tag" "lib" (Doc.tag_name d (Doc.root d));
  Alcotest.(check (option int)) "root has no parent" None (Doc.parent d (Doc.root d));
  let authors = Doc.nodes_with_tag d (Option.get (Doc.tag_of_string d "author")) in
  Alcotest.(check int) "one author" 1 (Array.length authors);
  let a = authors.(0) in
  Alcotest.(check int) "author kids" 2 (Array.length (Doc.children d a));
  Alcotest.(check (option int)) "author parent is root" (Some (Doc.root d)) (Doc.parent d a)

let test_children_order () =
  let d = sample () in
  let p = (Doc.nodes_with_tag d (Option.get (Doc.tag_of_string d "paper"))).(0) in
  let kid_tags = Array.to_list (Array.map (Doc.tag_name d) (Doc.children d p)) in
  Alcotest.(check (list string)) "document order" [ "year"; "keyword"; "keyword" ] kid_tags

let test_children_with_tag () =
  let d = sample () in
  let p = (Doc.nodes_with_tag d (Option.get (Doc.tag_of_string d "paper"))).(0) in
  let kw = Option.get (Doc.tag_of_string d "keyword") in
  Alcotest.(check int) "2 keywords" 2 (Doc.children_with_tag d p kw)

let test_depth () =
  let d = sample () in
  Alcotest.(check int) "root depth" 0 (Doc.depth d (Doc.root d));
  Alcotest.(check int) "max depth" 3 (Doc.max_depth d)

let test_label_path () =
  let d = sample () in
  let y = (Doc.nodes_with_tag d (Option.get (Doc.tag_of_string d "year"))).(0) in
  Alcotest.(check (list string)) "path" [ "lib"; "author"; "paper"; "year" ]
    (Doc.label_path d y)

let test_leaf_count () =
  let d = sample () in
  Alcotest.(check int) "leaves" 4 (Doc.leaf_count d)

let test_fold_iter_agree () =
  let d = sample () in
  let n1 = Doc.fold d ~init:0 ~f:(fun acc _ -> acc + 1) in
  let n2 = ref 0 in
  Doc.iter d (fun _ -> incr n2);
  Alcotest.(check int) "fold = iter count" n1 !n2;
  Alcotest.(check int) "equals size" (Doc.size d) n1

let test_unknown_tag () =
  let d = sample () in
  Alcotest.(check (option int)) "unknown tag" None (Doc.tag_of_string d "nope")

(* ---------------- Parser / Writer ---------------- *)

let test_parse_basic () =
  let d = parse_string "<a><b>1</b><c x=\"2\"><d/></c></a>" in
  Alcotest.(check int) "5 nodes (attr becomes child)" 5 (Doc.size d);
  let b = (Doc.nodes_with_tag d (Option.get (Doc.tag_of_string d "b"))).(0) in
  Alcotest.(check bool) "b value is 1" true (Value.equal (Int 1) (Doc.value d b));
  let c = (Doc.nodes_with_tag d (Option.get (Doc.tag_of_string d "c"))).(0) in
  Alcotest.(check int) "c has attr child + d" 2 (Array.length (Doc.children d c))

let test_parse_entities () =
  let d = parse_string "<a>x &amp; y &lt;z&gt; &#65;</a>" in
  Alcotest.(check bool) "entities decoded" true
    (Value.equal (Text "x & y <z> A") (Doc.value d (Doc.root d)))

let test_parse_comments_decl () =
  let d =
    parse_string
      "<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b/></a><!-- bye -->"
  in
  Alcotest.(check int) "2 nodes" 2 (Doc.size d)

let test_parse_cdata () =
  let d = parse_string "<a><![CDATA[<not-a-tag>]]></a>" in
  Alcotest.(check bool) "cdata verbatim" true
    (Value.equal (Text "<not-a-tag>") (Doc.value d (Doc.root d)))

let test_parse_errors () =
  let fails s =
    match Parser.parse_string_res s with
    | Error (Xerror.Parse (Xerror.Xml, _)) -> true
    | _ -> false
  in
  Alcotest.(check bool) "mismatched close" true (fails "<a><b></a></b>");
  Alcotest.(check bool) "unterminated" true (fails "<a><b>");
  Alcotest.(check bool) "empty" true (fails "   ");
  Alcotest.(check bool) "trailing garbage" true (fails "<a/><b/>");
  Alcotest.(check bool) "bad entity" true (fails "<a>&nosuch;</a>")

let rec doc_equal d1 d2 n1 n2 =
  Doc.tag_name d1 n1 = Doc.tag_name d2 n2
  && Value.equal (Doc.value d1 n1) (Doc.value d2 n2)
  && Array.length (Doc.children d1 n1) = Array.length (Doc.children d2 n2)
  && Array.for_all2
       (fun a b -> doc_equal d1 d2 a b)
       (Doc.children d1 n1) (Doc.children d2 n2)

let test_write_parse_roundtrip () =
  let d = sample () in
  let d2 = parse_string (Writer.to_string d) in
  Alcotest.(check bool) "structurally equal" true
    (doc_equal d d2 (Doc.root d) (Doc.root d2))

let test_roundtrip_fixture () =
  let d = Xtwig_fixtures.Fixtures.bibliography () in
  let d2 = parse_string (Writer.to_string d) in
  Alcotest.(check int) "same size" (Doc.size d) (Doc.size d2);
  Alcotest.(check bool) "structurally equal" true
    (doc_equal d d2 (Doc.root d) (Doc.root d2))

let test_escape () =
  Alcotest.(check string) "escape" "&lt;a&gt; &amp; &quot;b&quot;"
    (Writer.escape "<a> & \"b\"")

let test_text_size () =
  let d = sample () in
  Alcotest.(check int) "text_size = |to_string|"
    (String.length (Writer.to_string d))
    (Writer.text_size d)

(* qcheck: random documents round-trip through write + parse. The
   generator lives in the shared toolkit (test/gen) so every suite
   draws documents from the same distribution. *)
let gen_doc = Xtwig_testgen.Testgen.doc

let prop_roundtrip =
  QCheck2.Test.make ~name:"write/parse roundtrip" ~count:100 gen_doc (fun d ->
      let d2 = parse_string (Writer.to_string d) in
      doc_equal d d2 (Doc.root d) (Doc.root d2))

let prop_depth_le_size =
  QCheck2.Test.make ~name:"max_depth < size" ~count:100 gen_doc (fun d ->
      Doc.max_depth d < Doc.size d)

let prop_children_partition =
  QCheck2.Test.make ~name:"every non-root node is some node's child" ~count:100
    gen_doc (fun d ->
      let counted = Doc.fold d ~init:0 ~f:(fun a n -> a + Array.length (Doc.children d n)) in
      counted = Doc.size d - 1)

let () =
  Alcotest.run "xml"
    [
      ( "value",
        [
          Alcotest.test_case "string roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "as_float" `Quick test_value_as_float;
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "non-finite literals stay text" `Quick
            test_value_non_finite_text;
        ] );
      ( "doc",
        [
          Alcotest.test_case "builder structure" `Quick test_builder_structure;
          Alcotest.test_case "children order" `Quick test_children_order;
          Alcotest.test_case "children_with_tag" `Quick test_children_with_tag;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "label path" `Quick test_label_path;
          Alcotest.test_case "leaf count" `Quick test_leaf_count;
          Alcotest.test_case "fold/iter agree" `Quick test_fold_iter_agree;
          Alcotest.test_case "unknown tag" `Quick test_unknown_tag;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "comments and declaration" `Quick test_parse_comments_decl;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "writer",
        [
          Alcotest.test_case "write/parse roundtrip" `Quick test_write_parse_roundtrip;
          Alcotest.test_case "fixture roundtrip" `Quick test_roundtrip_fixture;
          Alcotest.test_case "escape" `Quick test_escape;
          Alcotest.test_case "text size" `Quick test_text_size;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_depth_le_size; prop_children_partition ] );
    ]
