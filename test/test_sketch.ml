module G = Xtwig_synopsis.Graph_synopsis
module Tsn = Xtwig_synopsis.Tsn
module Sketch = Xtwig_sketch.Sketch
module Embed = Xtwig_sketch.Embed
module Treeparse = Xtwig_sketch.Treeparse
module HV = Hist_view
module Fx = Xtwig_fixtures.Fixtures

let checkf = Alcotest.(check (float 1e-9))

let bib = Fx.bibliography ()
let syn = G.label_split bib

let node label =
  match G.nodes_with_label syn label with
  | [ n ] -> n
  | _ -> Alcotest.failf "expected one %s node" label

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
  (syn, Sketch.exact_for_scopes syn groupings)

(* ---------------- distributions ---------------- *)

let test_distribution_forward () =
  let sk = Sketch.coarsest syn in
  let a = node "author" and p = node "paper" in
  let d =
    Sketch.distribution sk a [| { Sketch.src = a; dst = p; kind = Forward } |]
  in
  (* authors have 2, 1, 1 papers *)
  checkf "frac 2 papers" (1.0 /. 3.0) (Xtwig_hist.Sparse_dist.frac d [| 2 |]);
  checkf "frac 1 paper" (2.0 /. 3.0) (Xtwig_hist.Sparse_dist.frac d [| 1 |])

let test_distribution_backward () =
  let sk = Sketch.coarsest syn in
  let a = node "author" and p = node "paper" in
  (* per paper: how many papers does its author have? p4,p5 -> 2; p8,p9 -> 1 *)
  let d =
    Sketch.distribution sk p [| { Sketch.src = a; dst = p; kind = Backward } |]
  in
  checkf "half under 2-paper authors" 0.5 (Xtwig_hist.Sparse_dist.frac d [| 2 |]);
  checkf "half under 1-paper authors" 0.5 (Xtwig_hist.Sparse_dist.frac d [| 1 |])

let test_distribution_example_3_1 () =
  (* the joint f_P(C_K, C_Y, C_P) of Example 3.1 computed on our
     fixture: keywords, years, and the author's paper count *)
  let sk = Sketch.coarsest syn in
  let a = node "author" and p = node "paper" in
  let k = node "keyword" and y = node "year" in
  let d =
    Sketch.distribution sk p
      [|
        { Sketch.src = p; dst = k; kind = Forward };
        { Sketch.src = p; dst = y; kind = Forward };
        { Sketch.src = a; dst = p; kind = Backward };
      |]
  in
  (* p4: (2,1,2); p5: (2,1,2); p8: (1,1,1); p9: (1,1,1) *)
  checkf "(2,1,2)" 0.5 (Xtwig_hist.Sparse_dist.frac d [| 2; 1; 2 |]);
  checkf "(1,1,1)" 0.5 (Xtwig_hist.Sparse_dist.frac d [| 1; 1; 1 |])

(* ---------------- build and config ---------------- *)

let test_coarsest_structure () =
  let sk = Sketch.coarsest syn in
  (* paper -> title/year/keyword are F-stable: three 1-d histograms *)
  let hs = Sketch.hists sk (node "paper") in
  Alcotest.(check int) "3 forward histograms" 3 (List.length hs);
  List.iter
    (fun (dims, h) ->
      Alcotest.(check int) "1-d" 1 (Array.length dims);
      Alcotest.(check bool) "1 bucket" true (HV.bucket_count h <= 1))
    hs

let test_coarsest_drops_unstable () =
  let sk = Sketch.coarsest syn in
  (* author -> book is not F-stable: no histogram may cover it *)
  let a = node "author" and b = node "book" in
  Alcotest.(check (option unit)) "book edge uncovered" None
    (Option.map
       (fun _ -> ())
       (Sketch.covering_hist sk a { Sketch.src = a; dst = b; kind = Forward }))

let test_invalid_dims_dropped () =
  (* a config naming an ineligible edge builds, dropping the dim *)
  let a = node "author" and b = node "book" in
  let especs = Array.make (G.node_count syn) [] in
  especs.(a) <-
    [ { Sketch.dims = [ { Sketch.src = a; dst = b; kind = Forward } ]; budget = 4 } ];
  let sk = Sketch.build syn { especs; vbudgets = Array.make (G.node_count syn) 0 } in
  Alcotest.(check int) "no histograms" 0 (List.length (Sketch.hists sk a))

let test_value_hists () =
  let sk = Sketch.coarsest syn in
  Alcotest.(check bool) "year node has a value hist" true
    (Sketch.vhist sk (node "year") <> None);
  (* 'paper' has no values *)
  Alcotest.(check bool) "paper node has none" true
    (Sketch.vhist sk (node "paper") = None)

let test_value_frac () =
  let _, sk = exact_full bib in
  let y = node "year" in
  checkf "years > 2000" 0.5
    (Sketch.value_frac sk y (Xtwig_path.Path_types.Cmp (Gt, Xtwig_xml.Value.Int 2000)));
  checkf "range 1998-1999" 0.5
    (Sketch.value_frac sk y (Xtwig_path.Path_types.Range (1998.0, 1999.0)))

let test_avg_fanout () =
  let sk = Sketch.coarsest syn in
  checkf "papers per author" (4.0 /. 3.0)
    (Sketch.avg_fanout sk ~src:(node "author") ~dst:(node "paper"));
  checkf "absent edge" 0.0 (Sketch.avg_fanout sk ~src:(node "keyword") ~dst:(node "author"))

let test_size_bytes_monotone () =
  let sk0 = Sketch.coarsest ~ebudget:1 syn in
  let sk1 = Sketch.coarsest ~ebudget:8 ~vbudget:16 syn in
  Alcotest.(check bool) "bigger budgets, bigger size" true
    (Sketch.size_bytes sk1 >= Sketch.size_bytes sk0);
  Alcotest.(check bool) "includes structure" true
    (Sketch.size_bytes sk0 >= G.structure_bytes syn)

let test_build_reuse () =
  let sk = Sketch.coarsest syn in
  let cfg = Sketch.config sk in
  let sk2 = Sketch.build ~prev:sk syn cfg in
  (* identical config: all histograms physically reused *)
  for n = 0 to G.node_count syn - 1 do
    Alcotest.(check bool) "hists shared" true (Sketch.hists sk n == Sketch.hists sk2 n)
  done

(* ---------------- embeddings ---------------- *)

let parse_t s =
  match Xtwig_path.Path_parser.parse_twig_res s with
  | Ok t -> t
  | Error e -> failwith (Xtwig_util.Xerror.to_string e)

(* descend a chain of single-alternative embedding nodes to the first
   node with the given tag *)
let rec find_node label (e : Embed.enode) =
  if G.tag_name syn e.Embed.snode = label then Some e
  else
    List.fold_left
      (fun acc alts ->
        match acc with
        | Some _ -> acc
        | None -> (
            match alts with [ k ] -> find_node label k | _ -> None))
      None e.Embed.kids

let test_embed_simple () =
  (* '//' expands from the synopsis root: the maximal twig is the chain
     bibliography/author/paper with the keyword child at its end *)
  let q = parse_t "for t0 in //paper, t1 in t0/keyword" in
  match Embed.embeddings syn q with
  | [ e ] -> (
      Alcotest.(check string) "rooted at the document root" "bibliography"
        (G.tag_name syn e.Embed.snode);
      match find_node "paper" e with
      | Some p -> (
          match p.Embed.kids with
          | [ [ k ] ] ->
              Alcotest.(check string) "kid is keyword" "keyword"
                (G.tag_name syn k.Embed.snode)
          | _ -> Alcotest.fail "expected one kid with one alternative")
      | None -> Alcotest.fail "paper node not found in the chain")
  | l -> Alcotest.failf "expected 1 embedding, got %d" (List.length l)

let test_embed_descendant_chains () =
  (* //title reaches titles under paper and under book: two root chains
     through the synopsis *)
  let q = parse_t "for t0 in //title" in
  let es = Embed.embeddings syn q in
  Alcotest.(check int) "two embeddings" 2 (List.length es);
  List.iter
    (fun (e : Embed.enode) ->
      Alcotest.(check string) "rooted at bibliography" "bibliography"
        (G.tag_name syn e.snode))
    es

let test_embed_absolute_anchoring () =
  let q = parse_t "for t0 in /bibliography/author" in
  Alcotest.(check int) "one embedding" 1 (List.length (Embed.embeddings syn q));
  let q2 = parse_t "for t0 in /author" in
  Alcotest.(check int) "author is not the root" 0 (List.length (Embed.embeddings syn q2))

let test_embed_unsatisfiable_branch () =
  let q = parse_t "for t0 in //paper[movie]" in
  Alcotest.(check int) "no embeddings" 0 (List.length (Embed.embeddings syn q))

let test_embed_branch_alternatives () =
  let q = parse_t "for t0 in //author[book]" in
  match Embed.embeddings syn q with
  | [ e ] -> (
      match find_node "author" e with
      | Some a -> (
          Alcotest.(check bool) "no kids" true (a.Embed.kids = []);
          match a.Embed.branches with
          | [ [ b ] ] ->
              Alcotest.(check string) "branch node is book" "book"
                (G.tag_name syn b.Embed.bnode)
          | _ -> Alcotest.fail "expected one branch predicate with one alternative")
      | None -> Alcotest.fail "author not found")
  | l -> Alcotest.failf "expected 1 embedding, got %d" (List.length l)

let test_embed_unknown_label () =
  let q = parse_t "for t0 in //nonexistent" in
  Alcotest.(check int) "nothing" 0 (List.length (Embed.embeddings syn q));
  Alcotest.(check bool) "not truncated" false (Embed.last_truncated ())

let test_embed_size () =
  (* chain bibliography/author/paper + keyword + year = 5 nodes *)
  let q = parse_t "for t0 in //paper, t1 in t0/keyword, t2 in t0/year" in
  match Embed.embeddings syn q with
  | [ e ] -> Alcotest.(check int) "5 nodes" 5 (Embed.size e)
  | _ -> Alcotest.fail "expected one embedding"

(* ---------------- TREEPARSE ---------------- *)

let sets_of parsed label =
  match
    List.find_opt
      (fun ((e : Embed.enode), _) -> G.tag_name syn e.snode = label)
      parsed
  with
  | Some (_, s) -> s
  | None -> Alcotest.failf "no TREEPARSE entry for %s" label

let test_treeparse_sets () =
  let _, sk = exact_full bib in
  let q = parse_t "for t0 in //author, t1 in t0/name, t2 in t0/paper, t3 in t2/keyword" in
  match Embed.embeddings (Sketch.synopsis sk) q with
  | [ e ] ->
      let parsed = Treeparse.parse sk e in
      (* internal nodes: the bibliography chain head, author, paper *)
      Alcotest.(check int) "three internal nodes" 3 (List.length parsed);
      let sa = sets_of parsed "author" and sp = sets_of parsed "paper" in
      let a = node "author" and p = node "paper" in
      Alcotest.(check bool) "author expansion covers name edge" true
        (List.mem (a, node "name") sa.Treeparse.expansion);
      Alcotest.(check bool) "author expansion covers paper edge" true
        (List.mem (a, p) sa.Treeparse.expansion);
      Alcotest.(check (list (pair int int))) "author: nothing uncovered" []
        sa.Treeparse.uncovered;
      (* at paper, the author->paper backward count was already covered *)
      Alcotest.(check bool) "paper correlates on author->paper" true
        (List.mem (a, p) sp.Treeparse.correlation)
  | _ -> Alcotest.fail "expected one embedding"

let test_treeparse_uncovered () =
  let sk = Sketch.coarsest syn in
  (* author->book is not covered by any histogram *)
  let q = parse_t "for t0 in //author, t1 in t0/book" in
  match Embed.embeddings (Sketch.synopsis sk) q with
  | [ e ] ->
      let parsed = Treeparse.parse sk e in
      let sa = sets_of parsed "author" in
      Alcotest.(check (list (pair int int))) "book edge uncovered"
        [ (node "author", node "book") ]
        sa.Treeparse.uncovered
  | _ -> Alcotest.fail "expected one embedding"

(* property: histograms built at any budget have total fraction 1 on
   non-empty nodes of generated documents *)
let prop_built_hists_normalized =
  QCheck2.Test.make ~name:"built histograms are normalized" ~count:20
    QCheck2.Gen.(pair (0 -- 500) (1 -- 8))
    (fun (seed, budget) ->
      let doc = Xtwig_datagen.Imdb.generate ~seed ~scale:0.005 () in
      let syn = G.label_split doc in
      let sk = Sketch.coarsest ~ebudget:budget syn in
      List.for_all
        (fun n ->
          List.for_all
            (fun (_, h) -> Float.abs (HV.total_frac h -. 1.0) < 1e-9)
            (Sketch.hists sk n))
        (List.init (G.node_count syn) Fun.id))

let () =
  Alcotest.run "sketch"
    [
      ( "distributions",
        [
          Alcotest.test_case "forward counts" `Quick test_distribution_forward;
          Alcotest.test_case "backward counts" `Quick test_distribution_backward;
          Alcotest.test_case "paper Example 3.1" `Quick test_distribution_example_3_1;
        ] );
      ( "build",
        [
          Alcotest.test_case "coarsest structure" `Quick test_coarsest_structure;
          Alcotest.test_case "unstable edges dropped" `Quick test_coarsest_drops_unstable;
          Alcotest.test_case "invalid dims dropped" `Quick test_invalid_dims_dropped;
          Alcotest.test_case "value hists placement" `Quick test_value_hists;
          Alcotest.test_case "value fractions" `Quick test_value_frac;
          Alcotest.test_case "avg fanout" `Quick test_avg_fanout;
          Alcotest.test_case "size monotone" `Quick test_size_bytes_monotone;
          Alcotest.test_case "incremental reuse" `Quick test_build_reuse;
        ] );
      ( "embed",
        [
          Alcotest.test_case "simple" `Quick test_embed_simple;
          Alcotest.test_case "descendant chains" `Quick test_embed_descendant_chains;
          Alcotest.test_case "absolute anchoring" `Quick test_embed_absolute_anchoring;
          Alcotest.test_case "unsatisfiable branch" `Quick test_embed_unsatisfiable_branch;
          Alcotest.test_case "branch alternatives" `Quick test_embed_branch_alternatives;
          Alcotest.test_case "unknown label" `Quick test_embed_unknown_label;
          Alcotest.test_case "size" `Quick test_embed_size;
        ] );
      ( "treeparse",
        [
          Alcotest.test_case "E/U/D sets" `Quick test_treeparse_sets;
          Alcotest.test_case "uncovered edges" `Quick test_treeparse_uncovered;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_built_hists_normalized ] );
    ]
