(* Differential oracle for the compiled exact evaluator: every count,
   result list and binding tuple of [Eval_path] / [Eval_twig] must equal
   the interpretive reference ([Eval_reference]) — on generated
   documents and twigs (nested same-tag elements, descendant steps after
   the first, branching and value predicates, labels absent from the
   document) and on the IMDB / XMark P and P+V workload pools. Ordered
   evaluation is checked under random branch permutations, invalid ones
   included, which both evaluators must ignore. *)

module Doc = Xtwig_xml.Doc
module Eval_path = Xtwig_eval.Eval_path
module Eval_twig = Xtwig_eval.Eval_twig
module Ref = Eval_reference
module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng
module Printer = Xtwig_path.Path_printer
open Xtwig_path.Path_types

let rec paths_of t = t.path :: List.concat_map paths_of t.subs

(* branch counts per twig node, in the evaluator's pre-order numbering *)
let rec branch_counts t = List.length t.subs :: List.concat_map branch_counts t.subs

(* a random order for every multi-branch node; one in six is not a
   permutation and must fall back to the syntactic order *)
let random_orders st t =
  Array.of_list
    (List.map
       (fun k ->
         if k < 2 then [||]
         else if Random.State.int st 6 = 0 then Array.make k 0
         else begin
           let a = Array.init k Fun.id in
           for i = k - 1 downto 1 do
             let j = Random.State.int st (i + 1) in
             let x = a.(i) in
             a.(i) <- a.(j);
             a.(j) <- x
           done;
           a
         end)
       (branch_counts t))

(* twig-level agreement: counts, ordered counts, materialized tuples *)
let twig_agrees ?(perms = 3) st doc t =
  let expect = Ref.Twig.selectivity doc t in
  let ordered_ok () =
    List.for_all
      (fun orders ->
        Eval_twig.selectivity_ordered doc ~orders t = expect
        && Ref.Twig.selectivity_ordered doc ~orders t = expect)
      (List.init perms (fun _ -> random_orders st t))
  in
  Eval_twig.selectivity doc t = expect
  && ordered_ok ()
  && Eval_twig.bindings ~limit:200 doc t = Ref.Twig.bindings ~limit:200 doc t

(* path-level agreement from the virtual root and the given contexts *)
let path_agrees doc ~contexts p =
  Eval_path.eval doc ~from:None p = Ref.Path.eval doc ~from:None p
  && Eval_path.count doc ~from:None p = Ref.Path.count doc ~from:None p
  && List.for_all
       (fun n ->
         Eval_path.eval doc ~from:(Some n) p = Ref.Path.eval doc ~from:(Some n) p
         && Eval_path.count doc ~from:(Some n) p = Ref.Path.count doc ~from:(Some n) p
         && Eval_path.exists doc ~from:n p = Ref.Path.exists doc ~from:n p)
       contexts

(* ------------------------------------------------------------------ *)
(* generated documents and twigs                                       *)

let print_case (doc, t, seed) =
  Printf.sprintf "doc: %s\ntwig: %s\nseed: %d"
    (Xtwig_xml.Xml_writer.to_string doc)
    (Printer.twig_to_string t) seed

(* twigs grown along the document's edges, so counts are usually
   non-zero; some steps carry labels the document lacks *)
let case doc_gen =
  let open QCheck2.Gen in
  let* doc = doc_gen in
  let* t = Xtwig_testgen.Testgen.twig_in doc in
  let* seed = 0 -- 1_000_000 in
  return (doc, t, seed)

let agrees (doc, t, seed) =
  let st = Random.State.make [| seed |] in
  let contexts = List.init (Doc.size doc) Fun.id in
  twig_agrees st doc t && List.for_all (path_agrees doc ~contexts) (paths_of t)

let prop_generated =
  QCheck2.Test.make ~name:"compiled = reference on generated docs" ~count:1000
    ~print:print_case (case Xtwig_testgen.Testgen.doc) agrees

let prop_nested =
  QCheck2.Test.make ~name:"compiled = reference on nested same-tag docs"
    ~count:1000 ~print:print_case (case Xtwig_testgen.Testgen.deep_doc) agrees

(* the shapes the properties should reach, pinned on one document:
   descendant steps after the first over nested same-tag elements,
   branching predicates with descendant steps, absent labels *)
let test_pinned_shapes () =
  let doc =
    match
      Xtwig.doc_of_string
        "<a><a><b>1</b><a><b>2</b><c/></a></a><b>3</b><c><a><b>4</b></a></c></a>"
    with
    | Ok d -> d
    | Error e -> Alcotest.fail (Xtwig.Xerror.to_string e)
  in
  let twig s =
    match Xtwig.twig_of_string s with
    | Ok t -> t
    | Error e -> Alcotest.fail (Xtwig.Xerror.to_string e)
  in
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun s ->
      let t = twig s in
      Alcotest.(check bool) s true
        (twig_agrees st doc t
        && List.for_all
             (path_agrees doc ~contexts:(List.init (Doc.size doc) Fun.id))
             (paths_of t)))
    [
      "for t0 in //a, t1 in t0//b";
      "for t0 in //a//a, t1 in t0//b";
      "for t0 in //a, t1 in t0//a//b, t2 in t0/c";
      "for t0 in /a//a[//b], t1 in t0/b[. > 1]";
      "for t0 in //a[a//b][c], t1 in t0//a[b[. = 2]]";
      "for t0 in //a[c], t1 in t0//b, t2 in t0//zz";
      "for t0 in //zz, t1 in t0/b";
      "for t0 in //a, t1 in t0//b[. in 2 .. 4], t2 in t0/a, t3 in t2//b";
    ]

(* ------------------------------------------------------------------ *)
(* workload pools                                                      *)

let datasets =
  lazy
    [
      ("imdb", Xtwig_datagen.Imdb.generate ~scale:0.03 ());
      ("xmark", Xtwig_datagen.Xmark.generate ~scale:0.03 ());
    ]

let pools doc =
  [
    ("P", Wgen.generate { Wgen.paper_p with Wgen.n_queries = 100 } (Prng.create 11) doc);
    ("P+V", Wgen.generate { Wgen.paper_pv with Wgen.n_queries = 100 } (Prng.create 12) doc);
  ]

let test_pools () =
  List.iter
    (fun (name, doc) ->
      let sk = Xtwig_sketch.Sketch.default_of_doc doc in
      let st = Random.State.make [| 3 |] in
      List.iter
        (fun (pool, qs) ->
          List.iteri
            (fun i q ->
              let label = Printf.sprintf "%s %s q%d" name pool i in
              Alcotest.(check bool) (label ^ " twig") true (twig_agrees st doc q);
              (* the optimizer's own plan, as xtwigd and the CLI run it *)
              Alcotest.(check int) (label ^ " planned order")
                (Ref.Twig.selectivity doc q)
                (Xtwig.selectivity_ordered doc (Xtwig.optimize sk q) q);
              List.iter
                (fun p ->
                  Alcotest.(check bool) (label ^ " paths") true
                    (path_agrees doc ~contexts:[] p))
                (paths_of q))
            qs)
        (pools doc))
    (Lazy.force datasets)

let () =
  Alcotest.run "eval-oracle"
    [
      ( "generated",
        [
          QCheck_alcotest.to_alcotest prop_generated;
          QCheck_alcotest.to_alcotest prop_nested;
          Alcotest.test_case "pinned shapes" `Quick test_pinned_shapes;
        ] );
      ("pools", [ Alcotest.test_case "IMDB/XMark P and P+V" `Quick test_pools ]);
    ]
