(* Property test for compiled plans over refinement candidates: for
   every refinement-op kind XBUILD samples, plans compiled against the
   refined sketch are bit-equal to the recursive reference evaluator
   (test/estimate_reference.ml) on it. *)

module Testgen = Xtwig_testgen.Testgen
module Sketch = Xtwig_sketch.Sketch
module Refinement = Xtwig_sketch.Refinement
module Embed = Xtwig_sketch.Embed
module Plan = Xtwig_sketch.Plan
module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng

(* One generated document with its default sketch, a small workload,
   and one sampled candidate pool: every candidate's compiled plans
   must agree with the evaluator on every query. *)
let prop_refined_candidates =
  QCheck2.Test.make
    ~name:"plans compiled per refined candidate == evaluator" ~count:40
    QCheck2.Gen.(pair Testgen.doc_with_sketch (0 -- 10_000))
    (fun ((doc, sk), seed) ->
      let prng = Prng.create seed in
      let queries =
        Wgen.generate { Wgen.paper_p with Wgen.n_queries = 5 } prng doc
      in
      let cands = Refinement.gen_candidates ~count:6 sk prng in
      List.for_all
        (fun op ->
          let refined = Refinement.apply sk op in
          let syn = Sketch.synopsis refined in
          List.for_all
            (fun q ->
              let compiled =
                Array.fold_left
                  (fun acc p -> acc +. Plan.run p)
                  0.0
                  (Plan.compile_roots refined (Embed.embeddings syn q))
              in
              Float.equal compiled (Estimate_reference.estimate refined q)
              || QCheck2.Test.fail_reportf "estimates diverge under %s"
                   (Refinement.kind_name op))
            queries)
        cands)

let () =
  Alcotest.run "plan_props"
    [
      ( "refined-candidates",
        List.map QCheck_alcotest.to_alcotest [ prop_refined_candidates ] );
    ]
