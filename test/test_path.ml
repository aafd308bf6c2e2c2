open Xtwig_path.Path_types
module Parser = Xtwig_path.Path_parser
module Printer = Xtwig_path.Path_printer
module Xerror = Xtwig_util.Xerror

let path_of_string s =
  match Parser.parse_path_res s with
  | Ok p -> p
  | Error e -> failwith (Xerror.to_string e)

let twig_of_string s =
  match Parser.parse_twig_res s with
  | Ok t -> t
  | Error e -> failwith (Xerror.to_string e)

let path = Alcotest.testable Printer.pp_path (fun a b -> a = b)
let twig_t = Alcotest.testable Printer.pp_twig equal_twig

(* ---------------- parsing paths ---------------- *)

let test_parse_simple () =
  Alcotest.check path "a/b/c"
    [ step "a"; step "b"; step "c" ]
    (path_of_string "/a/b/c")

let test_parse_descendant () =
  Alcotest.check path "//a/b"
    [ step ~axis:Descendant "a"; step "b" ]
    (path_of_string "//a/b");
  Alcotest.check path "interior //"
    [ step "a"; step ~axis:Descendant "b" ]
    (path_of_string "/a//b")

let test_parse_relative_default_child () =
  Alcotest.check path "bare label" [ step "a" ] (path_of_string "a")

let test_parse_value_preds () =
  Alcotest.check path "range"
    [ step ~vpred:(Range (3.0, 7.0)) "a" ]
    (path_of_string "/a[. in 3 .. 7]");
  Alcotest.check path "cmp int"
    [ step ~vpred:(Cmp (Gt, Xtwig_xml.Value.Int 2000)) "y" ]
    (path_of_string "/y[. > 2000]");
  Alcotest.check path "cmp string"
    [ step ~vpred:(Cmp (Eq, Xtwig_xml.Value.Text "ok")) "s" ]
    (path_of_string "/s[. = \"ok\"]")

let test_parse_branches () =
  let p = path_of_string "/a[b/c][d]/e" in
  match p with
  | [ s1; s2 ] ->
      Alcotest.(check string) "first label" "a" s1.label;
      Alcotest.(check int) "two branches" 2 (List.length s1.branches);
      Alcotest.(check string) "second label" "e" s2.label;
      Alcotest.check path "first branch" [ step "b"; step "c" ] (List.nth s1.branches 0)
  | _ -> Alcotest.fail "expected two steps"

let test_parse_nested_branch_with_pred () =
  let p = path_of_string "/paper[year[. > 2000]]" in
  match p with
  | [ s ] -> (
      match s.branches with
      | [ [ b ] ] ->
          Alcotest.(check string) "branch label" "year" b.label;
          Alcotest.(check bool) "has vpred" true (b.vpred <> None)
      | _ -> Alcotest.fail "expected one single-step branch")
  | _ -> Alcotest.fail "expected one step"

let test_parse_errors () =
  let fails s =
    match Parser.parse_path_res s with
    | Error (Xerror.Parse (Xerror.Path, _)) -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty" true (fails "");
  Alcotest.(check bool) "trailing" true (fails "/a/");
  Alcotest.(check bool) "bad range" true (fails "/a[. in 7 .. 3]");
  Alcotest.(check bool) "unclosed bracket" true (fails "/a[b");
  Alcotest.(check bool) "duplicate vpred" true (fails "/a[. > 1][. < 5]")

(* ---------------- twigs ---------------- *)

let test_twig_parse () =
  let t = twig_of_string "for t0 in //m, t1 in t0/a, t2 in t0/b, t3 in t1/c" in
  Alcotest.(check int) "size" 4 (twig_size t);
  Alcotest.(check int) "root fanout" 2 (List.length t.subs);
  Alcotest.(check (list int)) "fanouts" [ 2; 1 ] (twig_fanouts t)

let test_twig_parse_no_for () =
  let t = twig_of_string "x in //m, y in x/a" in
  Alcotest.(check int) "size" 2 (twig_size t)

let test_twig_parse_return_ignored () =
  let t = twig_of_string "for t0 in //m, t1 in t0/a return t1" in
  Alcotest.(check int) "size" 2 (twig_size t)

let test_twig_errors () =
  let fails s =
    match Parser.parse_twig_res s with
    | Error (Xerror.Parse (Xerror.Twig, _)) -> true
    | _ -> false
  in
  Alcotest.(check bool) "unbound var" true (fails "for t0 in //m, t1 in tX/a");
  Alcotest.(check bool) "rebound var" true (fails "for t0 in //m, t0 in t0/a");
  Alcotest.(check bool) "second absolute" true (fails "for t0 in //m, t1 in //n");
  Alcotest.(check bool) "relative first" true (fails "for t0 in t1/a")

let test_twig_labels () =
  let t = twig_of_string "for t0 in //m[x/y], t1 in t0/a, t2 in t0/m" in
  Alcotest.(check (list string)) "labels, deduped, in order" [ "m"; "x"; "y"; "a" ]
    (twig_labels t)

let test_twig_predicates_flags () =
  let t1 = twig_of_string "for t0 in //m, t1 in t0/a" in
  Alcotest.(check bool) "no preds" false (twig_has_value_pred t1 || twig_has_branches t1);
  let t2 = twig_of_string "for t0 in //m[a], t1 in t0/b" in
  Alcotest.(check bool) "branches" true (twig_has_branches t2);
  let t3 = twig_of_string "for t0 in //m, t1 in t0/y[. > 3]" in
  Alcotest.(check bool) "value pred" true (twig_has_value_pred t3)

let test_twig_fold () =
  let t = twig_of_string "for t0 in //m, t1 in t0/a, t2 in t1/b" in
  let n = twig_fold t ~init:0 ~f:(fun acc _ -> acc + 1) in
  Alcotest.(check int) "fold visits all" 3 n

(* ---------------- round trips ---------------- *)

let test_roundtrip_printer_parser () =
  List.iter
    (fun s ->
      let p = path_of_string s in
      let p2 = path_of_string (Printer.path_to_string p) in
      Alcotest.check path ("roundtrip " ^ s) p p2)
    [
      "/a/b/c";
      "//a/b";
      "/a//b";
      "/a[. in 1 .. 2]/b";
      "/a[b/c][d]/e";
      "/p[y[. > 2000]]/k";
      "//site/regions//item[mailbox/mail]/name";
    ]

let test_twig_roundtrip () =
  List.iter
    (fun s ->
      let t = twig_of_string s in
      let t2 = twig_of_string (Printer.twig_to_string t) in
      Alcotest.check twig_t ("roundtrip " ^ s) t t2)
    [
      "for t0 in //movie, t1 in t0/actor, t2 in t0/producer";
      "for t0 in /a/b[c], t1 in t0/d[. in 0 .. 1], t2 in t1/e, t3 in t0/f";
      "for t0 in //a, t1 in t0//b/c";
    ]

(* qcheck: generated twigs round-trip. Generators live in the shared
   toolkit (test/gen). *)
let gen_path = Xtwig_testgen.Testgen.path
let gen_twig depth = Xtwig_testgen.Testgen.twig ~depth ()

let prop_twig_roundtrip =
  QCheck2.Test.make ~name:"twig print/parse roundtrip" ~count:200 (gen_twig 2)
    (fun t ->
      let t2 = twig_of_string (Printer.twig_to_string t) in
      equal_twig t t2)

let prop_path_roundtrip =
  QCheck2.Test.make ~name:"path print/parse roundtrip" ~count:200 gen_path
    (fun p ->
      let p2 = path_of_string (Printer.path_to_string p) in
      p = p2)

let prop_size_positive =
  QCheck2.Test.make ~name:"twig_size >= 1 and = |fold|" ~count:100 (gen_twig 3)
    (fun t ->
      twig_size t = twig_fold t ~init:0 ~f:(fun a _ -> a + 1) && twig_size t >= 1)

(* ---------------- exact identity ---------------- *)

(* [twig] with its [n]-th float constant (pre-order) mapped by [f], and
   the number of float constants it holds; [n < 0] maps none *)
let map_nth_float n f t =
  let i = ref 0 in
  let g x =
    let x' = if !i = n then f x else x in
    incr i;
    x'
  in
  let vpred = function
    | Range (lo, hi) ->
        let lo = g lo in
        let hi = g hi in
        Range (lo, hi)
    | Cmp (op, Xtwig_xml.Value.Float x) -> Cmp (op, Float (g x))
    | Cmp _ as c -> c
  in
  let copy s = Bytes.to_string (Bytes.of_string s) in
  let rec step s =
    let vpred = Option.map vpred s.vpred in
    let branches = List.map path s.branches in
    { s with label = copy s.label; vpred; branches }
  and path p = List.map step p in
  let rec twig t =
    let path = path t.path in
    { path; subs = List.map twig t.subs }
  in
  let t' = twig t in
  (t', !i)

(* a deep copy: fresh nodes, strings and float boxes throughout *)
let deep_copy t = fst (map_nth_float (-1) Fun.id t)

(* Testgen's free-standing twigs and twigs grown in documents (value
   predicates from element values, branching predicates) *)
let gen_any_twig =
  QCheck2.Gen.(
    oneof [ gen_twig 2; Xtwig_testgen.Testgen.doc >>= Xtwig_testgen.Testgen.twig_in ])

let prop_equal_implies_hash =
  QCheck2.Test.make ~name:"equal_twig implies equal hash_twig" ~count:300
    QCheck2.Gen.(pair gen_any_twig gen_any_twig)
    (fun (a, b) ->
      let c = deep_copy a in
      equal_twig a c
      && hash_twig a = hash_twig c
      && ((not (equal_twig a b)) || hash_twig a = hash_twig b))

let prop_deep_copy_equal =
  QCheck2.Test.make ~name:"a deep copy is equal" ~count:300 gen_any_twig (fun t ->
      let c = deep_copy t in
      c != t && equal_twig t c && equal_twig c t)

let prop_float_succ_unequal =
  QCheck2.Test.make ~name:"moving one float constant by Float.succ makes it unequal"
    ~count:300 gen_any_twig (fun t ->
      let _, n = map_nth_float (-1) Fun.id t in
      List.for_all
        (fun k ->
          let t', _ = map_nth_float k Float.succ t in
          (not (equal_twig t t')) && not (equal_twig t' t))
        (List.init n Fun.id))

(* printed text is not an identity: [%.6g] maps both twins to one
   string, the exact key tells them apart, and so does the hash *)
let test_twins_differ () =
  List.iter
    (fun (a, b) ->
      let ta = twig_of_string a and tb = twig_of_string b in
      Alcotest.(check string)
        ("same printed text: " ^ a)
        (Printer.twig_to_string ta) (Printer.twig_to_string tb);
      Alcotest.(check bool) ("unequal: " ^ b) false (equal_twig ta tb);
      Alcotest.(check bool) ("hashes differ: " ^ b) true (hash_twig ta <> hash_twig tb);
      let tbl = Twig_tbl.create 4 in
      Twig_tbl.replace tbl ta 1;
      Twig_tbl.replace tbl tb 2;
      Alcotest.(check (option int)) "first twin keeps its entry" (Some 1)
        (Twig_tbl.find_opt tbl (twig_of_string a)))
    [
      ( "for t0 in //movie, t1 in t0/year[. in 1980.1 .. 1990]",
        "for t0 in //movie, t1 in t0/year[. in 1980.1000001 .. 1990]" );
      ( "for t0 in //movie, t1 in t0/box_office[. in 306046000 .. 345046000]",
        "for t0 in //movie, t1 in t0/box_office[. in 306046400 .. 345046000]" );
    ]

let test_signed_zero_differs () =
  let t lo = twig [ step ~vpred:(Range (lo, 1.0)) "a" ] [] in
  Alcotest.(check bool) "0.0 = 0.0" true (equal_twig (t 0.0) (t 0.0));
  Alcotest.(check bool) "-0.0 <> 0.0" false (equal_twig (t (-0.0)) (t 0.0));
  Alcotest.(check bool) "Text compares by content" true
    (equal_twig
       (twig [ step ~vpred:(Cmp (Eq, Text "ab")) "a" ] [])
       (twig [ step ~vpred:(Cmp (Eq, Text ("a" ^ "b"))) "a" ] []))

let () =
  Alcotest.run "pathlang"
    [
      ( "parse-paths",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "descendant" `Quick test_parse_descendant;
          Alcotest.test_case "relative default child" `Quick
            test_parse_relative_default_child;
          Alcotest.test_case "value predicates" `Quick test_parse_value_preds;
          Alcotest.test_case "branches" `Quick test_parse_branches;
          Alcotest.test_case "nested branch with pred" `Quick
            test_parse_nested_branch_with_pred;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "twigs",
        [
          Alcotest.test_case "parse" `Quick test_twig_parse;
          Alcotest.test_case "parse without for" `Quick test_twig_parse_no_for;
          Alcotest.test_case "return ignored" `Quick test_twig_parse_return_ignored;
          Alcotest.test_case "errors" `Quick test_twig_errors;
          Alcotest.test_case "labels" `Quick test_twig_labels;
          Alcotest.test_case "predicate flags" `Quick test_twig_predicates_flags;
          Alcotest.test_case "fold" `Quick test_twig_fold;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "paths" `Quick test_roundtrip_printer_parser;
          Alcotest.test_case "twigs" `Quick test_twig_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_twig_roundtrip; prop_path_roundtrip; prop_size_positive ] );
      ( "exact identity",
        [
          Alcotest.test_case "printed twins differ" `Quick test_twins_differ;
          Alcotest.test_case "signed zero, text" `Quick test_signed_zero_differs;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_equal_implies_hash; prop_deep_copy_equal; prop_float_succ_unequal;
            ] );
    ]
