(* The compiled plans against the recursive reference evaluator
   (test/estimate_reference.ml) at benchmark size. test_plan checks
   them at scale 0.03 over short builds; here the sketches are the
   benchmark's estimate recipe ([Xtwig.build_sketch ~budget:16000
   ~seed:7]) on IMDB at scale 0.3 and XMark at scale 0.1, and 1,000
   P+V queries on each must estimate bit-equal to the oracle. Run by
   CI as its own step: dune exec test/test_plan_scale.exe *)

module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng
module Est = Xtwig_sketch.Estimator

let n_queries = 1_000

let differential doc () =
  let doc = Lazy.force doc in
  let sk =
    match Xtwig.build_sketch ~budget:16_000 ~seed:7 doc with
    | Ok sk -> sk
    | Error e -> Alcotest.fail (Xtwig.Xerror.to_string e)
  in
  let qs =
    Wgen.generate { Wgen.paper_pv with Wgen.n_queries } (Prng.create 23) doc
  in
  Alcotest.(check bool) "enough queries" true (List.length qs >= n_queries);
  let mismatches =
    List.filter
      (fun q ->
        not (Float.equal (Est.estimate sk q) (Estimate_reference.estimate sk q)))
      qs
  in
  match mismatches with
  | [] -> ()
  | q :: _ ->
      Alcotest.failf "%d of %d estimates differ from the oracle, first: %s (%h vs %h)"
        (List.length mismatches) (List.length qs)
        (Xtwig_path.Path_printer.twig_to_string q)
        (Est.estimate sk q) (Estimate_reference.estimate sk q)

let () =
  Alcotest.run "plan_scale"
    [
      ( "bit-equal to the oracle",
        [
          Alcotest.test_case "imdb 0.3" `Slow
            (differential (lazy (Xtwig_datagen.Imdb.generate ~scale:0.3 ())));
          Alcotest.test_case "xmark 0.1" `Slow
            (differential (lazy (Xtwig_datagen.Xmark.generate ~scale:0.1 ())));
        ] );
    ]
