module Wgen = Xtwig_workload.Wgen
module EM = Xtwig_workload.Error_metric
module Prng = Xtwig_util.Prng
module Doc = Xtwig_xml.Doc
open Xtwig_path.Path_types

let doc = Xtwig_datagen.Imdb.generate ~scale:0.05 ()

let gen ?focus spec seed = Wgen.generate ?focus spec (Prng.create seed) doc

(* ---------------- positivity and shape ---------------- *)

let test_positive_by_construction () =
  let qs = gen { Wgen.paper_p with n_queries = 40 } 1 in
  Alcotest.(check int) "40 queries" 40 (List.length qs);
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Xtwig_path.Path_printer.twig_to_string q ^ " positive")
        true
        (Xtwig_eval.Eval_twig.selectivity doc q > 0))
    qs

let test_node_count_range () =
  let spec = { Wgen.paper_p with n_queries = 60 } in
  List.iter
    (fun q ->
      let n = twig_size q in
      Alcotest.(check bool) "4-8 twig nodes" true
        (n >= spec.Wgen.min_nodes && n <= spec.Wgen.max_nodes))
    (gen spec 2)

let test_p_workload_no_value_preds () =
  List.iter
    (fun q ->
      Alcotest.(check bool) "no value predicate" false (twig_has_value_pred q))
    (gen { Wgen.paper_p with n_queries = 40 } 3)

let test_p_workload_has_branches () =
  let qs = gen { Wgen.paper_p with n_queries = 40 } 4 in
  let branchy = List.length (List.filter twig_has_branches qs) in
  Alcotest.(check bool) "a good share of queries branch" true (branchy >= 10)

let test_pv_workload_value_preds () =
  let qs = gen { Wgen.paper_pv with n_queries = 60 } 5 in
  let with_preds = List.length (List.filter twig_has_value_pred qs) in
  (* around half, as in the paper *)
  Alcotest.(check bool) "roughly half carry value predicates" true
    (with_preds > 15 && with_preds < 50);
  (* and they remain positive *)
  List.iter
    (fun q ->
      Alcotest.(check bool) "positive with predicate" true
        (Xtwig_eval.Eval_twig.selectivity doc q > 0))
    qs

let test_simple_paths_workload () =
  let qs = gen { Wgen.simple_paths with n_queries = 40 } 6 in
  List.iter
    (fun q ->
      Alcotest.(check bool) "no branches" false (twig_has_branches q);
      Alcotest.(check bool) "no value preds" false (twig_has_value_pred q))
    qs

let test_determinism () =
  let a = gen { Wgen.paper_p with n_queries = 10 } 7 in
  let b = gen { Wgen.paper_p with n_queries = 10 } 7 in
  Alcotest.(check (list string)) "same queries"
    (List.map Xtwig_path.Path_printer.twig_to_string a)
    (List.map Xtwig_path.Path_printer.twig_to_string b)

let test_focus_bias () =
  let spec = { Wgen.paper_p with n_queries = 30 } in
  let qs = gen ~focus:[ "review" ] spec 8 in
  let mentioning =
    List.length (List.filter (fun q -> List.mem "review" (twig_labels q)) qs)
  in
  Alcotest.(check bool) "most queries touch the focus label" true
    (mentioning * 2 > List.length qs)

let test_negative_workload () =
  let qs = Wgen.generate_negative { Wgen.paper_p with n_queries = 20 } (Prng.create 9) doc in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Xtwig_path.Path_printer.twig_to_string q)
        0
        (Xtwig_eval.Eval_twig.selectivity doc q))
    qs

let test_characteristics () =
  let qs = gen { Wgen.paper_p with n_queries = 30 } 10 in
  let avg_card, avg_fanout = Wgen.characteristics doc qs in
  Alcotest.(check bool) "positive avg cardinality" true (avg_card > 0.0);
  (* internal fanout sits in the paper's 1.5-2 territory *)
  Alcotest.(check bool) "fanout plausible" true (avg_fanout >= 1.0 && avg_fanout <= 4.0)

(* ---------------- per-document tables ---------------- *)

let other = Xtwig_datagen.Xmark.generate ~scale:0.01 ()

(* P+V with focus: the draws consult both per-document tables (child
   optionality for branches, numeric domains for value predicates) *)
let draw d =
  List.map Xtwig_path.Path_printer.twig_to_string
    (Wgen.generate ~focus:[ "movie"; "person"; "item" ]
       { Wgen.paper_pv with n_queries = 30 }
       (Prng.create 17) d)

(* md5 of [draw] on each document, recorded from a generator that
   rebuilt the tables on every call *)
let recorded =
  let path = Filename.concat "fixtures" "wgen_draws.md5" in
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun l -> Scanf.sscanf l "%s %s" (fun name md5 -> (name, md5)))

let check_draw name qs =
  Alcotest.(check string) name (List.assoc name recorded)
    (Digest.to_hex (Digest.string (String.concat "\n" qs)))

(* the same elements in the same id order, in a new document *)
let copy_of d =
  let b = Doc.Builder.create () in
  let ids = Array.make (Doc.size d) (-1) in
  for e = 0 to Doc.size d - 1 do
    let value = Doc.value d e and tag = Doc.tag_name d e in
    ids.(e) <-
      (match Doc.parent d e with
      | None -> Doc.Builder.root b ~value tag
      | Some p -> Doc.Builder.child b ids.(p) ~value tag)
  done;
  Doc.Builder.finish b

let test_tables_cold_warm () =
  ignore (draw other);
  check_draw "imdb" (draw doc);
  check_draw "imdb" (draw doc)

let test_tables_alternating () =
  for _ = 1 to 3 do
    check_draw "imdb" (draw doc);
    check_draw "xmark" (draw other)
  done

let test_tables_copy () =
  ignore (draw doc);
  check_draw "imdb" (draw (copy_of doc));
  check_draw "imdb" (draw doc)

let test_tables_two_domains () =
  ignore (draw other);
  let worker () = List.init 3 (fun _ -> (draw doc, draw other)) in
  let ds = List.init 2 (fun _ -> Domain.spawn worker) in
  List.iter
    (fun dom ->
      List.iter
        (fun (d, o) ->
          check_draw "imdb" d;
          check_draw "xmark" o)
        (Domain.join dom))
    ds

(* ---------------- error metric ---------------- *)

let checkf = Alcotest.(check (float 1e-9))

let test_metric_perfect () =
  let truths = [| 10.0; 100.0; 50.0 |] in
  checkf "zero error" 0.0 (EM.average_error ~truths ~estimates:truths)

let test_metric_sanity_bound () =
  (* c=0 (negative query) doesn't divide by zero: uses the bound *)
  let truths = [| 0.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0 |] in
  let estimates = [| 50.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0 |] in
  let m = EM.evaluate ~truths ~estimates in
  checkf "sanity = p10 of positives" 100.0 m.EM.sanity;
  checkf "error on the negative query" 0.5 m.EM.per_query.(0)

let test_metric_low_count_damping () =
  (* a tiny true count with a modest absolute error is not blown up:
     with 20 queries the 10th percentile sits above the 1.0 outlier *)
  let truths = Array.init 20 (fun i -> if i = 0 then 1.0 else float_of_int (i * 100)) in
  let estimates = Array.copy truths in
  estimates.(0) <- 10.0;
  let m = EM.evaluate ~truths ~estimates in
  Alcotest.(check (float 1e-9)) "sanity is the second-smallest" 100.0 m.EM.sanity;
  Alcotest.(check bool) "damped by sanity bound" true (m.EM.per_query.(0) <= 0.1)

let test_metric_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Error_metric.evaluate: length mismatch") (fun () ->
      ignore (EM.evaluate ~truths:[| 1.0 |] ~estimates:[||]))

let prop_metric_nonnegative =
  QCheck2.Test.make ~name:"errors are non-negative" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (1 -- 20) (map float_of_int (0 -- 1000)))
        (array_size (1 -- 20) (map float_of_int (0 -- 1000))))
    (fun (a, b) ->
      let n = Stdlib.min (Array.length a) (Array.length b) in
      let truths = Array.sub a 0 n and estimates = Array.sub b 0 n in
      let m = EM.evaluate ~truths ~estimates in
      m.EM.average >= 0.0 && Array.for_all (fun e -> e >= 0.0) m.EM.per_query)

let () =
  Alcotest.run "workload"
    [
      ( "generation",
        [
          Alcotest.test_case "positive by construction" `Quick
            test_positive_by_construction;
          Alcotest.test_case "node count range" `Quick test_node_count_range;
          Alcotest.test_case "P: no value predicates" `Quick
            test_p_workload_no_value_preds;
          Alcotest.test_case "P: branches present" `Quick test_p_workload_has_branches;
          Alcotest.test_case "P+V: value predicates" `Quick test_pv_workload_value_preds;
          Alcotest.test_case "simple paths" `Quick test_simple_paths_workload;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "focus bias" `Quick test_focus_bias;
          Alcotest.test_case "negative workload" `Quick test_negative_workload;
          Alcotest.test_case "characteristics (Table 2)" `Quick test_characteristics;
        ] );
      ( "tables",
        [
          Alcotest.test_case "cold and warm" `Quick test_tables_cold_warm;
          Alcotest.test_case "alternating documents" `Quick test_tables_alternating;
          Alcotest.test_case "distinct copy" `Quick test_tables_copy;
          Alcotest.test_case "two domains" `Quick test_tables_two_domains;
        ] );
      ( "error-metric",
        [
          Alcotest.test_case "perfect estimates" `Quick test_metric_perfect;
          Alcotest.test_case "sanity bound" `Quick test_metric_sanity_bound;
          Alcotest.test_case "low-count damping" `Quick test_metric_low_count_damping;
          Alcotest.test_case "length mismatch" `Quick test_metric_mismatch;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_metric_nonnegative ] );
    ]
