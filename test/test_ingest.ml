(* The streaming-ingestion path of PR 9.

   Claims under test:
   - the chunked SAX parser produces documents identical to the
     retained PR-8 reference parser — same node ids, tag codes,
     parents, values — on canned corner cases, fixtures and generated
     datasets, at every window size down to 1 byte;
   - parse errors keep the reference parser's class and message;
   - Sketch.apply_delta upholds its differential contract: the
     delta-maintained sketch re-serializes byte-identical to a
     from-scratch build over the same synopsis + configuration, with
     and without summary reuse, for inserts of known tags, inserts of
     fresh tags, and subtree deletes;
   - value summaries survive the edge inputs (empty text nodes,
     duplicate values straddling bucket boundaries, all-equal
     columns) under both the build and the delta paths;
   - Engine.update swaps a live session onto the maintained sketch
     (answers bitwise equal to a fresh session over the same sketch)
     and fails typed on backend sessions and closed sessions. *)

module Doc = Xtwig_xml.Doc
module Value = Xtwig_xml.Value
module P = Xtwig_xml.Xml_parser
module Sax = Xtwig_xml.Sax
module W = Xtwig_xml.Xml_writer
module Sketch = Xtwig_sketch.Sketch
module Sketch_io = Xtwig_sketch.Sketch_io
module Est = Xtwig_sketch.Estimator
module Xerror = Xtwig_util.Xerror
module Counters = Xtwig_util.Counters

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Xerror.to_string e)

let parse s = ok_exn (P.parse_string_res s)

(* index-wise document equality: the parsers promise identical node
   numbering, not just structural equivalence *)
let check_docs_identical msg a b =
  Alcotest.(check int) (msg ^ ": size") (Doc.size a) (Doc.size b);
  for e = 0 to Doc.size a - 1 do
    if
      not
        (String.equal (Doc.tag_name a e) (Doc.tag_name b e)
        && Doc.tag a e = Doc.tag b e
        && Doc.parent a e = Doc.parent b e
        && Value.equal (Doc.value a e) (Doc.value b e)
        && Doc.children a e = Doc.children b e)
    then Alcotest.failf "%s: node %d differs" msg e
  done

(* ------------------------------------------------------------------ *)
(* Streaming parser vs reference parser *)

let corner_cases =
  [
    "<a><b>1</b><c x=\"2\"><d/></c></a>";
    "<a>x &amp; y &lt;z&gt; &#65;</a>";
    "<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b/></a><!-- bye -->";
    "<a><![CDATA[<not-a-tag>]]></a>";
    "<a>  one <b/> two  <b>3.5</b>tail</a>";
    "<r a='1' b=\"t&quot;x\">mid<child k=\"\"><gc/>deep</child> end </r>";
  ]

let test_differential_corner_cases () =
  List.iter
    (fun s ->
      let a = parse s in
      let b = ok_exn (Xml_reference.parse_string_res s) in
      check_docs_identical s a b)
    corner_cases

let test_differential_chunk_sizes () =
  (* every refill/compaction boundary: windows far smaller than any
     token force mid-name, mid-text and mid-entity refills *)
  List.iter
    (fun s ->
      let b = ok_exn (Xml_reference.parse_string_res s) in
      List.iter
        (fun chunk ->
          let a = Sax.parse_string ~chunk s in
          check_docs_identical (Printf.sprintf "%s (chunk %d)" s chunk) a b)
        [ 1; 2; 3; 7; 16 ])
    corner_cases

let test_differential_fixtures_and_datasets () =
  List.iter
    (fun doc ->
      let s = W.to_string doc in
      let a = parse s in
      let b = ok_exn (Xml_reference.parse_string_res s) in
      check_docs_identical "fixture/dataset" a b;
      (* a bounded window on a realistic input exercises many refills *)
      check_docs_identical "chunk 997" (Sax.parse_string ~chunk:997 s) b;
      (* re-serialization closes the roundtrip *)
      Alcotest.(check string) "re-serialization" s (W.to_string a))
    [
      Xtwig_fixtures.Fixtures.bibliography ();
      Xtwig_fixtures.Fixtures.figure_4_doc_a ();
      Xtwig_datagen.Imdb.generate ~scale:0.02 ();
      Xtwig_datagen.Xmark.generate ~scale:0.02 ();
    ]

let test_error_parity () =
  List.iter
    (fun s ->
      match (P.parse_string_res s, Xml_reference.parse_string_res s) with
      | Error (Xerror.Parse (Xml, m1)), Error (Xerror.Parse (Xml, m2)) ->
          Alcotest.(check string) ("error message for " ^ s) m2 m1
      | Ok _, Ok _ -> Alcotest.failf "both parsers accepted %s" s
      | r, _ ->
          Alcotest.failf "parsers disagree on %s: %s" s
            (match r with
            | Ok _ -> "stream accepted, reference rejected"
            | Error e -> "stream: " ^ Xerror.to_string e))
    [
      "<a><b></a></b>";
      "<a><b>";
      "   ";
      "<a/><b/>";
      "<a>&nosuch;</a>";
      "<a x=3></a>";
      "<a><![CDATA[x]]</a>";
    ]

(* ------------------------------------------------------------------ *)
(* Delta maintenance: the differential contract *)

let sketch_bytes = Sketch_io.to_string

(* the contract of apply_delta, checked to the byte: the maintained
   sketch equals a from-scratch build over its synopsis + config, and
   the reuse path equals the no-reuse path *)
let check_delta_contract msg sk delta =
  let maintained = Sketch.apply_delta ~reuse:true sk delta in
  let rebuilt =
    Sketch.build (Sketch.synopsis maintained) (Sketch.config maintained)
  in
  let no_reuse = Sketch.apply_delta ~reuse:false sk delta in
  Alcotest.(check string)
    (msg ^ ": delta = rebuild-from-scratch")
    (sketch_bytes rebuilt) (sketch_bytes maintained);
  Alcotest.(check string)
    (msg ^ ": reuse = no-reuse")
    (sketch_bytes no_reuse) (sketch_bytes maintained);
  maintained

let lib_doc =
  lazy
    (parse
       "<lib><book><title>t1</title><year>1999</year></book><book><title>t2</\
        title><year>2001</year></book><book><title>t3</title><year>2003</\
        year></book></lib>")

let book_query =
  lazy (ok_exn (Xtwig_path.Path_parser.parse_twig_res "for t0 in //book, t1 in t0/year"))

let test_delta_insert_known_tag () =
  let doc = Lazy.force lib_doc in
  let sk = Sketch.default_of_doc doc in
  let fragment = parse "<book><title>t4</title><year>2007</year></book>" in
  let kept0 = Counters.get "sketch.delta_nodes_kept" in
  let sk' =
    check_delta_contract "insert book" sk
      (Sketch.Insert { parent = Doc.root doc; fragment })
  in
  Alcotest.(check int) "document grew by the fragment"
    (Doc.size doc + Doc.size fragment)
    (Doc.size (Sketch.doc sk'));
  Alcotest.(check bool) "summaries were reused" true
    (Counters.get "sketch.delta_nodes_kept" > kept0);
  (* the estimate over the maintained sketch sees the new subtree *)
  let q = Lazy.force book_query in
  Alcotest.(check (float 0.0)) "estimate counts the insert" 4.0
    (Est.estimate sk' q)

let test_delta_insert_fresh_tag () =
  let doc = Lazy.force lib_doc in
  let sk = Sketch.default_of_doc doc in
  let fragment = parse "<dvd><runtime>120</runtime></dvd>" in
  let sk' =
    check_delta_contract "insert fresh tags" sk
      (Sketch.Insert { parent = Doc.root doc; fragment })
  in
  (* the fresh tags got their own synopsis nodes *)
  let syn = Sketch.synopsis sk' in
  List.iter
    (fun tag ->
      Alcotest.(check int)
        (tag ^ " has one synopsis node")
        1
        (List.length (Xtwig_synopsis.Graph_synopsis.nodes_with_label syn tag)))
    [ "dvd"; "runtime" ]

let test_delta_delete () =
  let doc = Lazy.force lib_doc in
  let sk = Sketch.default_of_doc doc in
  let victim = (Doc.children doc (Doc.root doc)).(1) in
  let sk' = check_delta_contract "delete book" sk (Sketch.Delete victim) in
  Alcotest.(check int) "subtree removed" (Doc.size doc - 3)
    (Doc.size (Sketch.doc sk'));
  Alcotest.(check (float 0.0)) "estimate counts the delete" 2.0
    (Est.estimate sk' (Lazy.force book_query))

let test_delta_chain_and_xbuild_config () =
  (* deltas over an XBUILD-refined sketch (multi-dim histograms, value
     summaries), chained insert-then-delete *)
  let doc = Xtwig_datagen.Imdb.generate ~scale:0.02 () in
  let sk = ok_exn (Xtwig.build_sketch ~budget:4000 ~seed:7 doc) in
  let fragment =
    parse "<movie><title>Delta</title><year>1999</year><actor>A</actor></movie>"
  in
  let sk' =
    check_delta_contract "insert over refined sketch" sk
      (Sketch.Insert { parent = Doc.root doc; fragment })
  in
  let doc' = Sketch.doc sk' in
  let victim =
    let tag = Option.get (Doc.tag_of_string doc' "movie") in
    (Doc.nodes_with_tag doc' tag).(0)
  in
  ignore (check_delta_contract "delete after insert" sk' (Sketch.Delete victim))

let test_delta_invalid_arguments () =
  let doc = Lazy.force lib_doc in
  let sk = Sketch.default_of_doc doc in
  let fragment = parse "<x/>" in
  let expect_invalid msg f =
    match f () with
    | (_ : Sketch.t) -> Alcotest.fail (msg ^ ": no exception")
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "delete root" (fun () ->
      Sketch.apply_delta sk (Sketch.Delete (Doc.root doc)));
  expect_invalid "delete out of range" (fun () ->
      Sketch.apply_delta sk (Sketch.Delete 99999));
  expect_invalid "insert under out-of-range parent" (fun () ->
      Sketch.apply_delta sk (Sketch.Insert { parent = 99999; fragment }))

(* ------------------------------------------------------------------ *)
(* Value summaries on edge inputs, build and delta paths *)

let items values =
  "<r>" ^ String.concat "" (List.map (fun v -> "<i>" ^ v ^ "</i>") values) ^ "</r>"

let test_values_empty_text () =
  (* empty and whitespace-only text nodes carry no value; a mixed
     column still summarizes, and inserting more empties maintains *)
  let doc = parse (items [ ""; ""; "  "; "3"; ""; "5" ]) in
  let sk = Sketch.default_of_doc doc in
  let fragment = parse "<i></i>" in
  ignore
    (check_delta_contract "insert empty-text node" sk
       (Sketch.Insert { parent = Doc.root doc; fragment }))

let test_values_duplicates_straddling_buckets () =
  (* ten values, heavy duplicate runs, 2 buckets: some boundary must
     fall inside a duplicate run; the summary and its delta
     maintenance must agree with the from-scratch build regardless *)
  let doc =
    parse (items [ "1"; "1"; "1"; "1"; "2"; "2"; "2"; "3"; "3"; "4" ])
  in
  let sk = Sketch.default_of_doc ~vbudget:2 doc in
  let inode =
    List.hd
      (Xtwig_synopsis.Graph_synopsis.nodes_with_label (Sketch.synopsis sk) "i")
  in
  Alcotest.(check bool) "numeric column has a value histogram" true
    (Sketch.vhist sk inode <> None);
  let fragment = parse "<i>2</i>" in
  ignore
    (check_delta_contract "insert duplicate value" sk
       (Sketch.Insert { parent = Doc.root doc; fragment }))

let test_values_all_equal_column () =
  let doc = parse (items (List.init 12 (fun _ -> "7"))) in
  let sk = Sketch.default_of_doc doc in
  let inode =
    List.hd
      (Xtwig_synopsis.Graph_synopsis.nodes_with_label (Sketch.synopsis sk) "i")
  in
  Alcotest.(check bool) "all-equal column has a value histogram" true
    (Sketch.vhist sk inode <> None);
  let victim = (Doc.children doc (Doc.root doc)).(3) in
  ignore (check_delta_contract "delete from all-equal column" sk (Sketch.Delete victim))

(* ------------------------------------------------------------------ *)
(* Session updates through the facade *)

let test_session_update_swaps_live () =
  let doc = Lazy.force lib_doc in
  let sk = ok_exn (Xtwig.build_sketch ~budget:2000 ~seed:3 doc) in
  let session = ok_exn (Xtwig.open_sketch_session sk) in
  Fun.protect
    ~finally:(fun () -> Xtwig.close_session session)
    (fun () ->
      let q = Lazy.force book_query in
      let before = (ok_exn (Xtwig.estimate session q)).Xtwig.Engine.estimate in
      let fragment = parse "<book><title>t4</title><year>2007</year></book>" in
      let delta = Xtwig.Insert { parent = Doc.root doc; fragment } in
      ok_exn (Xtwig.update_session session delta);
      let after = (ok_exn (Xtwig.estimate session q)).Xtwig.Engine.estimate in
      (* bitwise equal to a fresh session over the same maintained sketch *)
      let sk' = ok_exn (Xtwig.update_sketch sk delta) in
      let fresh = ok_exn (Xtwig.open_sketch_session sk') in
      Fun.protect
        ~finally:(fun () -> Xtwig.close_session fresh)
        (fun () ->
          let expect = (ok_exn (Xtwig.estimate fresh q)).Xtwig.Engine.estimate in
          Alcotest.(check bool) "update visible in the estimate" true
            (after <> before);
          Alcotest.(check bool) "equal to a fresh session" true
            (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float after))))

let test_session_update_backend_rejected () =
  let doc = Lazy.force lib_doc in
  let inst = ok_exn (Xtwig.build_backend ~backend:"cst" ~budget:2000 doc) in
  let session = ok_exn (Xtwig.open_backend_session inst) in
  Fun.protect
    ~finally:(fun () -> Xtwig.close_session session)
    (fun () ->
      match
        Xtwig.update_session session (Xtwig.Delete 1)
      with
      | Error (Xerror.Usage _) -> ()
      | Ok () -> Alcotest.fail "backend session accepted an update"
      | Error e -> Alcotest.failf "expected Usage, got %s" (Xerror.to_string e))

let test_session_update_closed_rejected () =
  let doc = Lazy.force lib_doc in
  let sk = Sketch.default_of_doc doc in
  let session = ok_exn (Xtwig.open_sketch_session sk) in
  Xtwig.close_session session;
  match Xtwig.update_session session (Xtwig.Delete 1) with
  | Error (Xerror.Engine _) -> ()
  | Ok () -> Alcotest.fail "closed session accepted an update"
  | Error e -> Alcotest.failf "expected Engine, got %s" (Xerror.to_string e)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ingest"
    [
      ( "streaming parser",
        [
          Alcotest.test_case "differential: corner cases" `Quick
            test_differential_corner_cases;
          Alcotest.test_case "differential: chunk sizes 1..16" `Quick
            test_differential_chunk_sizes;
          Alcotest.test_case "differential: fixtures and datasets" `Quick
            test_differential_fixtures_and_datasets;
          Alcotest.test_case "error parity with the reference parser" `Quick
            test_error_parity;
        ] );
      ( "delta maintenance",
        [
          Alcotest.test_case "insert of a known tag" `Quick
            test_delta_insert_known_tag;
          Alcotest.test_case "insert of fresh tags" `Quick
            test_delta_insert_fresh_tag;
          Alcotest.test_case "subtree delete" `Quick test_delta_delete;
          Alcotest.test_case "chained deltas over an XBUILD sketch" `Quick
            test_delta_chain_and_xbuild_config;
          Alcotest.test_case "invalid arguments" `Quick
            test_delta_invalid_arguments;
        ] );
      ( "value summaries",
        [
          Alcotest.test_case "empty text nodes" `Quick test_values_empty_text;
          Alcotest.test_case "duplicates straddling buckets" `Quick
            test_values_duplicates_straddling_buckets;
          Alcotest.test_case "all-equal column" `Quick
            test_values_all_equal_column;
        ] );
      ( "session updates",
        [
          Alcotest.test_case "update swaps the live session" `Quick
            test_session_update_swaps_live;
          Alcotest.test_case "backend session rejects updates" `Quick
            test_session_update_backend_rejected;
          Alcotest.test_case "closed session rejects updates" `Quick
            test_session_update_closed_rejected;
        ] );
    ]
