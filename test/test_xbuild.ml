module G = Xtwig_synopsis.Graph_synopsis
module Sketch = Xtwig_sketch.Sketch
module Embed = Xtwig_sketch.Embed
module Est = Xtwig_sketch.Estimator
module Plan = Xtwig_sketch.Plan
module Xbuild = Xtwig_sketch.Xbuild
module Wgen = Xtwig_workload.Wgen
module EM = Xtwig_workload.Error_metric
module Prng = Xtwig_util.Prng
module Counters = Xtwig_util.Counters

let doc = Xtwig_datagen.Imdb.generate ~scale:0.05 ()

let truth_cache : (string, float) Hashtbl.t = Hashtbl.create 512

let truth q =
  let key = Xtwig_path.Path_printer.twig_to_string q in
  match Hashtbl.find_opt truth_cache key with
  | Some v -> v
  | None ->
      let v = float_of_int (Xtwig_eval.Eval_twig.selectivity doc q) in
      Hashtbl.add truth_cache key v;
      v

let workload prng ~focus =
  Wgen.generate ~focus { Wgen.paper_p with n_queries = 8 } prng doc

let build ?(budget = 3000) ?(max_steps = 40) ?(seed = 11) () =
  Xbuild.build ~seed ~candidates:6 ~max_steps ~workload ~truth ~budget doc

(* evaluation workload, distinct from the scoring workload *)
let eval_queries =
  Wgen.generate { Wgen.paper_p with n_queries = 60 } (Prng.create 99) doc

let eval_error sk =
  let truths = Array.of_list (List.map truth eval_queries) in
  let estimates =
    Array.of_list (List.map (fun q -> Est.estimate sk q) eval_queries)
  in
  EM.average_error ~truths ~estimates

let test_respects_budget () =
  let sk = build ~budget:2500 () in
  (* one step may overshoot by the size of a single refinement; the
     loop must stop right after crossing *)
  Alcotest.(check bool) "near budget" true (Sketch.size_bytes sk <= 2500 + 2000)

let test_reduces_error () =
  let coarse = Sketch.default_of_doc doc in
  let sk = build ~budget:4000 ~max_steps:60 () in
  let e0 = eval_error coarse and e1 = eval_error sk in
  Alcotest.(check bool)
    (Printf.sprintf "error improved (%.3f -> %.3f)" e0 e1)
    true (e1 < e0)

let test_on_step_reporting () =
  let sizes = ref [] in
  let _ =
    Xbuild.build ~seed:3 ~candidates:4 ~max_steps:10 ~workload ~truth ~budget:2000
      ~on_step:(fun sk info ->
        Alcotest.(check int) "size matches sketch" (Sketch.size_bytes sk)
          info.Xbuild.size;
        sizes := info.Xbuild.size :: !sizes)
      doc
  in
  let sizes = List.rev !sizes in
  Alcotest.(check bool) "steps happened" true (List.length sizes > 0);
  (* sizes increase monotonically *)
  let rec mono = function
    | a :: (b :: _ as rest) -> a < b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone growth" true (mono sizes)

let test_determinism () =
  let a = build ~seed:21 ~budget:2000 ~max_steps:15 () in
  let b = build ~seed:21 ~budget:2000 ~max_steps:15 () in
  Alcotest.(check int) "same size" (Sketch.size_bytes a) (Sketch.size_bytes b);
  let q = List.hd eval_queries in
  Alcotest.(check (float 1e-9)) "same estimates" (Est.estimate a q) (Est.estimate b q)

let test_max_steps () =
  let steps = ref 0 in
  let _ =
    Xbuild.build ~seed:2 ~candidates:4 ~max_steps:5 ~workload ~truth
      ~budget:1_000_000
      ~on_step:(fun _ _ -> incr steps)
      doc
  in
  Alcotest.(check bool) "stopped at max_steps" true (!steps <= 5)

let test_workload_error_helper () =
  let coarse = Sketch.default_of_doc doc in
  let qs = Wgen.generate { Wgen.paper_p with n_queries = 10 } (Prng.create 5) doc in
  let e = Xbuild.workload_error coarse ~truth qs in
  Alcotest.(check bool) "finite, non-negative" true (Float.is_finite e && e >= 0.0);
  Alcotest.(check (float 1e-9)) "empty workload" 0.0
    (Xbuild.workload_error coarse ~truth [])

(* Only engine sessions compile plans: XBUILD scores each candidate once
   per query through the recursive evaluator, so a build moves neither
   plan counter. The compile afterwards is the control showing the
   counters are live in this process. *)
let test_build_compiles_no_plans () =
  let compiles () = Counters.get "plan.compiles" in
  let runs () = Counters.get "plan.runs" in
  let c0 = compiles () and r0 = runs () in
  let sk = build ~budget:2500 ~max_steps:10 () in
  Alcotest.(check int) "plan.compiles over Xbuild.build" 0 (compiles () - c0);
  Alcotest.(check int) "plan.runs over Xbuild.build" 0 (runs () - r0);
  let plans =
    Array.concat
      (List.map
         (fun q -> Plan.compile_roots sk (Embed.embeddings (Sketch.synopsis sk) q))
         eval_queries)
  in
  Alcotest.(check bool) "control: some plans compiled" true (Array.length plans > 0);
  Alcotest.(check int) "control: the compile counter is live" (Array.length plans)
    (compiles () - c0)

let () =
  Alcotest.run "xbuild"
    [
      ( "construction",
        [
          Alcotest.test_case "respects budget" `Slow test_respects_budget;
          Alcotest.test_case "reduces error" `Slow test_reduces_error;
          Alcotest.test_case "on_step reporting" `Slow test_on_step_reporting;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "max steps" `Slow test_max_steps;
          Alcotest.test_case "workload_error helper" `Quick test_workload_error_helper;
          Alcotest.test_case "build compiles no plans" `Slow
            test_build_compiles_no_plans;
        ] );
    ]
