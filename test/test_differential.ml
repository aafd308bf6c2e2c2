(* Differential tests: every estimator in the repository cross-checked
   against exact computation on documents from all three generators.
   These are the "does the whole pipeline tell the truth" checks that
   unit tests on hand-built fixtures cannot provide. *)

module G = Xtwig_synopsis.Graph_synopsis
module Tsn = Xtwig_synopsis.Tsn
module Sketch = Xtwig_sketch.Sketch
module Est = Xtwig_sketch.Estimator
module Cst = Xtwig_cst.Cst
module Wgen = Xtwig_workload.Wgen
module EM = Xtwig_workload.Error_metric
module Prng = Xtwig_util.Prng
module Doc = Xtwig_xml.Doc

let docs =
  lazy
    [
      ("xmark", Xtwig_datagen.Xmark.generate ~scale:0.03 ());
      ("imdb", Xtwig_datagen.Imdb.generate ~scale:0.03 ());
      ("sprot", Xtwig_datagen.Sprot.generate ~scale:0.03 ());
    ]

let exact doc q = float_of_int (Xtwig_eval.Eval_twig.selectivity doc q)

(* 1. Path counts: estimator path estimates on a stabilized synopsis
   equal exact path counts for every root-to-leaf label path. *)
let test_stabilized_path_counts () =
  List.iter
    (fun (name, doc) ->
      let syn = Stabilize.fixpoint ~max_rounds:2000 (G.label_split doc) in
      let sk = Sketch.coarsest syn in
      (* every distinct root path in the document *)
      let paths = Hashtbl.create 64 in
      Doc.iter doc (fun e ->
          Hashtbl.replace paths (Doc.label_path doc e) ());
      Hashtbl.iter
        (fun labels () ->
          let p = List.map (fun l -> Xtwig_path.Path_types.step l) labels in
          let truth = float_of_int (Xtwig_eval.Eval_path.count doc ~from:None p) in
          let est = Est.estimate_path sk p in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s: /%s" name (String.concat "/" labels))
            truth est)
        paths)
    (Lazy.force docs)

(* 2. CST: unpruned trie path counts equal exact counts for every
   distinct label path, absolute and suffix forms. *)
let test_cst_path_counts () =
  List.iter
    (fun (name, doc) ->
      let cst = Cst.build doc in
      let paths = Hashtbl.create 64 in
      Doc.iter doc (fun e -> Hashtbl.replace paths (Doc.label_path doc e) ());
      Hashtbl.iter
        (fun labels () ->
          let p = List.map (fun l -> Xtwig_path.Path_types.step l) labels in
          let truth = float_of_int (Xtwig_eval.Eval_path.count doc ~from:None p) in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s anchored /%s" name (String.concat "/" labels))
            truth
            (Cst.path_count cst ~anchored:true labels);
          (* suffix form: //l_k for the last label alone *)
          match List.rev labels with
          | last :: _ ->
              let suffix_truth =
                float_of_int
                  (Xtwig_eval.Eval_path.count doc ~from:None
                     [ Xtwig_path.Path_types.step ~axis:Descendant last ])
              in
              Alcotest.(check (float 1e-6))
                (Printf.sprintf "%s //%s" name last)
                suffix_truth
                (Cst.path_count cst ~anchored:false [ last ])
          | [] -> ())
        paths)
    (Lazy.force docs)

(* 3. Value histograms: estimator value fractions vs exact fractions
   for range predicates on every numeric tag. *)
let test_value_fractions () =
  List.iter
    (fun (name, doc) ->
      let syn = G.label_split doc in
      let sk = Sketch.coarsest ~vbudget:64 syn in
      for t = 0 to Doc.tag_count doc - 1 do
        let elems = Doc.nodes_with_tag doc t in
        let values =
          Array.to_list elems
          |> List.filter_map (fun e -> Xtwig_xml.Value.as_float (Doc.value doc e))
        in
        if List.length values = Array.length elems && values <> [] then begin
          let lo = List.fold_left Stdlib.min infinity values in
          let hi = List.fold_left Stdlib.max neg_infinity values in
          let mid = (lo +. hi) /. 2.0 in
          let truth =
            float_of_int (List.length (List.filter (fun v -> v <= mid) values))
            /. float_of_int (List.length values)
          in
          match G.nodes_with_label syn (Doc.tag_to_string doc t) with
          | [ n ] ->
              let est =
                Sketch.value_frac sk n
                  (Xtwig_path.Path_types.Cmp (Le, Xtwig_xml.Value.Float mid))
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s <= mid: |%.3f - %.3f| < 0.08" name
                   (Doc.tag_to_string doc t) truth est)
                true
                (Float.abs (truth -. est) < 0.08)
          | _ -> ()
        end
      done)
    (Lazy.force docs)

(* 4. Existence fractions: Sketch.exist_frac equals the exact fraction
   for every synopsis edge. *)
let test_exist_fracs () =
  List.iter
    (fun (name, doc) ->
      let syn = G.label_split doc in
      let sk = Sketch.coarsest syn in
      List.iter
        (fun (e : G.edge) ->
          let exact_frac =
            let src_elems = G.extent syn e.src in
            let with_child =
              Array.to_list src_elems
              |> List.filter (fun el ->
                     Array.exists
                       (fun k -> G.node_of_elem syn k = e.dst)
                       (Doc.children doc el))
              |> List.length
            in
            float_of_int with_child /. float_of_int (Array.length src_elems)
          in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s edge %d->%d" name e.src e.dst)
            exact_frac
            (Sketch.exist_frac sk ~src:e.src ~dst:e.dst))
        (G.edges syn))
    (Lazy.force docs)

(* 5. Estimation is an unbiased-ish mass estimate on single-node
   queries: //tag estimates equal exact tag counts on any synopsis. *)
let test_tag_count_queries () =
  List.iter
    (fun (name, doc) ->
      let sk = Sketch.default_of_doc doc in
      for t = 0 to Doc.tag_count doc - 1 do
        let label = Doc.tag_to_string doc t in
        let q =
          {
            Xtwig_path.Path_types.path =
              [ Xtwig_path.Path_types.step ~axis:Descendant label ];
            subs = [];
          }
        in
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "%s //%s" name label)
          (float_of_int (Array.length (Doc.nodes_with_tag doc t)))
          (Est.estimate sk q)
      done)
    (Lazy.force docs)

(* 6. Monotonicity of the whole stack: on every generator, the XBUILD
   result never does worse than the coarse synopsis on a held-out
   workload. *)
let test_xbuild_never_worse () =
  List.iter
    (fun (name, doc) ->
      let truth_tbl = Hashtbl.create 128 in
      let truth q =
        let k = Xtwig_path.Path_printer.twig_to_string q in
        match Hashtbl.find_opt truth_tbl k with
        | Some v -> v
        | None ->
            let v = exact doc q in
            Hashtbl.add truth_tbl k v;
            v
      in
      let queries = Wgen.generate { Wgen.paper_p with n_queries = 40 } (Prng.create 5) doc in
      let truths = Array.of_list (List.map truth queries) in
      let err sk =
        EM.average_error ~truths
          ~estimates:(Array.of_list (List.map (fun q -> Est.estimate sk q) queries))
      in
      let coarse = Sketch.default_of_doc doc in
      let workload prng ~focus =
        Wgen.generate ~focus { Wgen.paper_p with n_queries = 8 } prng doc
      in
      let built =
        Xtwig_sketch.Xbuild.build ~seed:13 ~max_steps:40 ~budget:4096 ~workload
          ~truth doc
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: built %.3f <= coarse %.3f + eps" name (err built)
           (err coarse))
        true
        (err built <= err coarse +. 0.02))
    (Lazy.force docs)

let () =
  Alcotest.run "differential"
    [
      ( "cross-checks",
        [
          Alcotest.test_case "stabilized path counts exact" `Slow
            test_stabilized_path_counts;
          Alcotest.test_case "CST path counts exact" `Slow test_cst_path_counts;
          Alcotest.test_case "value fractions" `Slow test_value_fractions;
          Alcotest.test_case "existence fractions exact" `Slow test_exist_fracs;
          Alcotest.test_case "tag count queries exact" `Slow test_tag_count_queries;
          Alcotest.test_case "xbuild never worse" `Slow test_xbuild_never_worse;
        ] );
    ]
