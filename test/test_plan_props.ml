(* Property tests for compiled plans over refinement candidates: for
   every refinement-op kind XBUILD samples, plans compiled against the
   refined sketch are bit-equal to the recursive reference evaluator
   (test/estimate_reference.ml) on it, and every sketch keeps
   the invariant that lets a plan fold a node's branching predicates
   into one constant. *)

module Testgen = Xtwig_testgen.Testgen
module G = Xtwig_synopsis.Graph_synopsis
module Doc = Xtwig_xml.Doc
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

(* Every dimension of every edge histogram is an F-stable synopsis
   edge, so its existence fraction is 1.0 and every bucket's lower bound
   on it is at least 1: the bucket-conditioned P(count >= 1) the
   reference evaluator reads for a branch always equals the constant
   the plan holds. *)
let check_dims what sk =
  let syn = Sketch.synopsis sk in
  for n = 0 to Sketch.node_count sk - 1 do
    List.iter
      (fun ((dims : Sketch.dim array), h) ->
        let buckets = Hist_view.buckets h in
        Array.iteri
          (fun d (dim : Sketch.dim) ->
            let fail fact =
              QCheck2.Test.fail_reportf "%s: node %d, dimension %d->%d: %s"
                what n dim.src dim.dst fact
            in
            (match G.edge syn ~src:dim.src ~dst:dim.dst with
            | Some e when e.G.f_stable -> ()
            | _ -> fail "not an F-stable synopsis edge");
            if not (Float.equal (Sketch.exist_frac sk ~src:dim.src ~dst:dim.dst) 1.0)
            then fail "existence fraction below 1";
            List.iter
              (fun (b : Hist_view.bucket) ->
                if b.lo.(d) < 1 then fail "a bucket's lower bound below 1")
              buckets)
          dims)
      (Sketch.hists sk n)
  done

(* The generated sketch, every sampled candidate, and the last
   candidate after one insert (a generated fragment under a random
   element) and one delete (a random non-root element). *)
let prop_dims_f_stable =
  QCheck2.Test.make ~name:"histogram dimensions are F-stable edges" ~count:40
    QCheck2.Gen.(triple Testgen.doc_with_sketch Testgen.doc (0 -- 10_000))
    (fun ((doc, sk), fragment, seed) ->
      let prng = Prng.create seed in
      check_dims "generated" sk;
      let refined =
        List.map
          (fun op ->
            let r = Refinement.apply sk op in
            check_dims (Refinement.kind_name op) r;
            r)
          (Refinement.gen_candidates ~count:6 sk prng)
      in
      let base = List.fold_left (fun _ r -> r) sk refined in
      let parent = seed mod Doc.size doc in
      let inserted =
        Sketch.apply_delta base (Sketch.Insert { parent; fragment })
      in
      check_dims "after insert" inserted;
      let size = Doc.size (Sketch.doc inserted) in
      if size > 1 then
        check_dims "after delete"
          (Sketch.apply_delta inserted (Sketch.Delete (1 + (seed mod (size - 1)))));
      true)

let () =
  Alcotest.run "plan_props"
    [
      ( "refined-candidates",
        List.map QCheck_alcotest.to_alcotest
          [ prop_refined_candidates; prop_dims_f_stable ] );
    ]
