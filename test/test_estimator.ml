module G = Xtwig_synopsis.Graph_synopsis
module Tsn = Xtwig_synopsis.Tsn
module Sketch = Xtwig_sketch.Sketch
module Est = Xtwig_sketch.Estimator
module Embed = Xtwig_sketch.Embed
module Spath = Xtwig_sketch.Spath
module Eval = Xtwig_eval.Eval_twig
module Fx = Xtwig_fixtures.Fixtures

let checkf = Alcotest.(check (float 1e-6))
let parse_t s =
  match Xtwig_path.Path_parser.parse_twig_res s with
  | Ok t -> t
  | Error e -> failwith (Xtwig_util.Xerror.to_string e)

let parse_p s =
  match Xtwig_path.Path_parser.parse_path_res s with
  | Ok p -> p
  | Error e -> failwith (Xtwig_util.Xerror.to_string e)

(* exact sketch over the full eligible scope of every node *)
let exact_full doc =
  let syn = G.label_split doc in
  let groupings =
    Array.init (G.node_count syn) (fun n ->
        match Tsn.scope_edges syn n with
        | [] -> []
        | edges ->
            [
              List.map
                (fun (src, dst) ->
                  let kind = if src = n then Sketch.Forward else Sketch.Backward in
                  { Sketch.src; dst; kind })
                edges;
            ])
  in
  Sketch.exact_for_scopes syn groupings

let bib = Fx.bibliography ()
let bib_full = exact_full bib
let bib_coarse = Sketch.default_of_doc bib

(* ---------------- the paper's discriminating example ---------------- *)

let test_figure_4_exact_with_full_info () =
  let q = Fx.figure_4_query () in
  let da = Fx.figure_4_doc_a () and db = Fx.figure_4_doc_b () in
  checkf "doc (a) exact" 2000.0 (Est.estimate (exact_full da) q);
  checkf "doc (b) exact" 10100.0 (Est.estimate (exact_full db) q)

let test_figure_4_coarse_cannot_discriminate () =
  let q = Fx.figure_4_query () in
  let ea = Est.estimate (Sketch.default_of_doc (Fx.figure_4_doc_a ())) q in
  let eb = Est.estimate (Sketch.default_of_doc (Fx.figure_4_doc_b ())) q in
  (* the single-path information is identical: estimates must agree,
     and (per Section 3.2) cannot match both true values *)
  checkf "same estimate on both documents" ea eb;
  checkf "independence product |a|*E[b]*E[c]" 6050.0 ea

let test_example_2_1_exact () =
  checkf "Example 2.1 estimate" 3.0 (Est.estimate bib_full (Fx.example_2_1_query ()))

(* ---------------- zero-error on full information ---------------- *)

let queries_bib =
  [
    "for t0 in //author";
    "for t0 in //paper, t1 in t0/keyword";
    "for t0 in //author, t1 in t0/name, t2 in t0/paper";
    "for t0 in //author, t1 in t0/paper, t2 in t1/keyword, t3 in t1/year";
    "for t0 in //paper, t1 in t0/keyword, t2 in t0/keyword";
    "for t0 in //author, t1 in t0/paper, t2 in t0/paper";
    "for t0 in /bibliography/author/paper, t1 in t0/title";
    "for t0 in //title";
  ]

let test_zero_error_structure_only () =
  List.iter
    (fun s ->
      let q = parse_t s in
      checkf s (float_of_int (Eval.selectivity bib q)) (Est.estimate bib_full q))
    queries_bib

let test_zero_error_movie_fragment () =
  let doc = Fx.movie_fragment () in
  let sk = exact_full doc in
  List.iter
    (fun s ->
      let q = parse_t s in
      checkf s (float_of_int (Eval.selectivity doc q)) (Est.estimate sk q))
    [
      "for t0 in //movie, t1 in t0/actor, t2 in t0/producer";
      "for t0 in //movie, t1 in t0/actor, t2 in t0/actor";
      "for t0 in //movie, t1 in t0/type, t2 in t0/actor, t3 in t0/producer";
    ]

(* ---------------- assumptions in action ---------------- *)

let test_forward_uniformity_on_uncovered () =
  (* coarse sketch: author->book uncovered; estimate uses avg fanout *)
  let q = parse_t "for t0 in //author, t1 in t0/book" in
  checkf "|author| * (1/3)" 1.0 (Est.estimate bib_coarse q)

let test_branch_existence_stable () =
  (* paper->year is F-stable: [year] branch costs nothing *)
  let q = parse_t "for t0 in //paper[year]" in
  checkf "all papers" 4.0 (Est.estimate bib_coarse q)

let test_branch_existence_partial () =
  (* author[book]: 1 of 3 authors; avg fanout 1/3 capped at 1 *)
  let q = parse_t "for t0 in //author[book]" in
  checkf "one third of authors" 1.0 (Est.estimate bib_coarse q)

let test_value_pred_estimate () =
  let q = parse_t "for t0 in //year[. > 2000]" in
  checkf "half the years (exact hist)" 2.0 (Est.estimate bib_full q)

let test_existence_frac_bounds () =
  let syn = Sketch.synopsis bib_coarse in
  let a = List.hd (G.nodes_with_label syn "author") in
  let b = List.hd (G.nodes_with_label syn "book") in
  let alt = { Embed.bnode = b; bvpred = None; bsubs = [] } in
  let f = Est.existence_frac bib_coarse a [ alt ] in
  Alcotest.(check bool) "in [0,1]" true (f >= 0.0 && f <= 1.0);
  (* duplicated alternatives stay capped *)
  let f2 = Est.existence_frac bib_coarse a [ alt; alt; alt; alt ] in
  Alcotest.(check bool) "capped at 1" true (f2 <= 1.0)

let test_estimate_path_equals_chain () =
  let p = parse_p "/bibliography/author/paper/keyword" in
  checkf "path = chain twig" 6.0 (Est.estimate_path bib_full p)

let test_categorical_predicate () =
  (* the movie fragment: 2 of 5 movies have type "Action"; the MCV
     summary makes the equality branch exact on the coarse sketch *)
  let doc = Fx.movie_fragment () in
  (* vbudget 4 retains all three genres; an unseen value then gets the
     empty "other" mass, i.e. estimate 0 *)
  let sk = Sketch.coarsest ~vbudget:4 (G.label_split doc) in
  let q = parse_t "for t0 in //movie[type[. = \"Action\"]]" in
  checkf "two action movies" 2.0 (Est.estimate sk q);
  let q2 = parse_t "for t0 in //movie[type[. = \"Documentary\"]]" in
  checkf "two documentaries" 2.0 (Est.estimate sk q2);
  let q3 = parse_t "for t0 in //movie[type[. = \"Western\"]]" in
  checkf "no westerns" 0.0 (Est.estimate sk q3);
  (* at budget 2 the dropped genre shares the "other" mass: a standard,
     deliberately conservative MCV answer *)
  let sk2 = Sketch.default_of_doc doc in
  Alcotest.(check bool) "unretained value gets other-mass estimate" true
    (Est.estimate sk2 q3 > 0.0)

let test_embed_truncation_flag () =
  (* a pathological alternative explosion trips the cap but still
     returns some embeddings *)
  let doc = Fx.bibliography () in
  let syn = G.label_split doc in
  let q = parse_t "for t0 in //title" in
  let es = Xtwig_sketch.Embed.embeddings ~max_alternatives:1 syn q in
  Alcotest.(check bool) "truncated reported" true
    (Xtwig_sketch.Embed.last_truncated ());
  Alcotest.(check int) "kept within the cap" 1 (List.length es)

(* ---------------- spath baseline ---------------- *)

let test_spath_strips_hists () =
  let stripped = Spath.strip_edge_hists bib_full in
  for n = 0 to Sketch.node_count stripped - 1 do
    Alcotest.(check int) "no edge hists" 0 (List.length (Sketch.hists stripped n))
  done;
  (* value hists survive *)
  let syn = Sketch.synopsis stripped in
  let y = List.hd (G.nodes_with_label syn "year") in
  Alcotest.(check bool) "value hist kept" true (Sketch.vhist stripped y <> None)

let test_spath_single_path_accuracy () =
  (* simple paths only need counts: the structural baseline is exact on
     B-stable chains *)
  checkf "authors" 3.0 (Spath.estimate_path bib_full (parse_p "//author"));
  checkf "papers" 4.0 (Spath.estimate_path bib_full (parse_p "//author/paper"));
  checkf "keywords" 6.0
    (Spath.estimate_path bib_full (parse_p "/bibliography/author/paper/keyword"))

let test_spath_twig_independence () =
  (* the structural baseline cannot see the fig-4 correlation either *)
  let q = Fx.figure_4_query () in
  let ea = Spath.estimate (exact_full (Fx.figure_4_doc_a ())) q in
  checkf "independence estimate" 6050.0 ea

(* ---------------- properties ---------------- *)

(* On random small documents, the estimator with full-scope exact
   histograms over a fully stabilized synopsis is exact for
   structure-only star twigs: every queried edge is F-stable there and
   hence coverable. (Over a label-split synopsis the guarantee does not
   hold — optional children are not scope-eligible, by Definition 3.1.) *)
let exact_full_stabilized doc =
  let syn = Stabilize.fixpoint ~max_rounds:500 (G.label_split doc) in
  let groupings =
    Array.init (G.node_count syn) (fun n ->
        match Tsn.scope_edges syn n with
        | [] -> []
        | edges ->
            [
              List.map
                (fun (src, dst) ->
                  let kind = if src = n then Sketch.Forward else Sketch.Backward in
                  { Sketch.src; dst; kind })
                edges;
            ])
  in
  Sketch.exact_for_scopes syn groupings

let prop_full_info_zero_error =
  QCheck2.Test.make ~name:"full info => zero error (star twigs)" ~count:25
    QCheck2.Gen.(0 -- 10_000)
    (fun seed ->
      let doc = Xtwig_datagen.Imdb.generate ~seed ~scale:0.003 () in
      let sk = exact_full_stabilized doc in
      let queries =
        [
          "for t0 in //movie, t1 in t0/actor, t2 in t0/producer";
          "for t0 in //movie, t1 in t0/actor, t2 in t0/keyword, t3 in t0/producer";
          "for t0 in //movie, t1 in t0/director, t2 in t0/actor";
        ]
      in
      List.for_all
        (fun s ->
          let q = parse_t s in
          let truth = float_of_int (Eval.selectivity doc q) in
          let est = Est.estimate sk q in
          Float.abs (est -. truth) <= 1e-6 +. (1e-9 *. truth))
        queries)

(* Stronger form: zero error on randomly *generated* structure-only
   twigs (random shapes, descendant roots, 2-step paths, branching
   predicates), not just fixed stars. *)
let prop_full_info_zero_error_generated =
  QCheck2.Test.make ~name:"full info => zero error (generated twigs)" ~count:12
    QCheck2.Gen.(0 -- 10_000)
    (fun seed ->
      let doc =
        if seed mod 2 = 0 then Xtwig_datagen.Sprot.generate ~seed ~scale:0.004 ()
        else Xtwig_datagen.Imdb.generate ~seed ~scale:0.004 ()
      in
      let sk = exact_full_stabilized doc in
      let spec =
        { Xtwig_workload.Wgen.paper_p with n_queries = 5; min_nodes = 3; max_nodes = 5 }
      in
      let qs =
        Xtwig_workload.Wgen.generate spec (Xtwig_util.Prng.create seed) doc
      in
      List.for_all
        (fun q ->
          let truth = float_of_int (Eval.selectivity doc q) in
          let est = Est.estimate sk q in
          Float.abs (est -. truth) <= 1e-6 +. (1e-6 *. truth))
        qs)

let prop_estimates_nonnegative =
  QCheck2.Test.make ~name:"estimates are non-negative" ~count:25
    QCheck2.Gen.(pair (0 -- 1000) (1 -- 6))
    (fun (seed, budget) ->
      let doc = Xtwig_datagen.Sprot.generate ~seed ~scale:0.01 () in
      let sk = Sketch.default_of_doc ~ebudget:budget doc in
      let prng = Xtwig_util.Prng.create seed in
      let spec = { Xtwig_workload.Wgen.paper_p with n_queries = 5 } in
      let qs = Xtwig_workload.Wgen.generate spec prng doc in
      List.for_all (fun q -> Est.estimate sk q >= 0.0) qs)

let () =
  Alcotest.run "estimator"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "Figure 4 exact with full info" `Quick
            test_figure_4_exact_with_full_info;
          Alcotest.test_case "Figure 4 coarse cannot discriminate" `Quick
            test_figure_4_coarse_cannot_discriminate;
          Alcotest.test_case "Example 2.1 exact" `Quick test_example_2_1_exact;
        ] );
      ( "zero-error",
        [
          Alcotest.test_case "bibliography structure twigs" `Quick
            test_zero_error_structure_only;
          Alcotest.test_case "movie fragment" `Quick test_zero_error_movie_fragment;
        ] );
      ( "assumptions",
        [
          Alcotest.test_case "forward uniformity" `Quick
            test_forward_uniformity_on_uncovered;
          Alcotest.test_case "stable branch is free" `Quick test_branch_existence_stable;
          Alcotest.test_case "partial branch fraction" `Quick
            test_branch_existence_partial;
          Alcotest.test_case "value predicate" `Quick test_value_pred_estimate;
          Alcotest.test_case "existence fraction bounds" `Quick
            test_existence_frac_bounds;
          Alcotest.test_case "estimate_path" `Quick test_estimate_path_equals_chain;
          Alcotest.test_case "categorical predicate (MCV)" `Quick
            test_categorical_predicate;
          Alcotest.test_case "embed truncation" `Quick test_embed_truncation_flag;
        ] );
      ( "spath-baseline",
        [
          Alcotest.test_case "strip" `Quick test_spath_strips_hists;
          Alcotest.test_case "single-path accuracy" `Quick
            test_spath_single_path_accuracy;
          Alcotest.test_case "twig independence" `Quick test_spath_twig_independence;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_full_info_zero_error;
            prop_full_info_zero_error_generated;
            prop_estimates_nonnegative;
          ] );
    ]
