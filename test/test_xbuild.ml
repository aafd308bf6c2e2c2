module G = Xtwig_synopsis.Graph_synopsis
module Sketch = Xtwig_sketch.Sketch
module Embed = Xtwig_sketch.Embed
module Est = Xtwig_sketch.Estimator
module Plan = Xtwig_sketch.Plan
module Xbuild = Xtwig_sketch.Xbuild
module Wgen = Xtwig_workload.Wgen
module EM = Xtwig_workload.Error_metric
module Prng = Xtwig_util.Prng
module Metrics = Xtwig_obs.Metrics

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

(* XBUILD scores each candidate once per query through one-shot
   estimates: every plan a build compiles runs exactly once and is
   dropped, and no session table is looked up. The compile afterwards
   is the control showing the counters are live in this process. *)
let test_build_plans_run_once () =
  let counter name = Metrics.counter_value (Metrics.counter name) in
  let compiles () = counter "plan.compiles" in
  let runs () = counter "plan.runs" in
  let lookups () = (counter "plan.cache_hits", counter "plan.cache_misses") in
  let c0 = compiles () and r0 = runs () and l0 = lookups () in
  let sk = build ~budget:2500 ~max_steps:10 () in
  let compiled = compiles () - c0 in
  Alcotest.(check bool) "Xbuild.build compiles plans" true (compiled > 0);
  Alcotest.(check int) "plan.runs = plan.compiles over Xbuild.build" compiled
    (runs () - r0);
  Alcotest.(check (pair int int))
    "plan.cache_hits and plan.cache_misses over Xbuild.build" l0 (lookups ());
  let c1 = compiles () in
  let plans =
    Array.concat
      (List.map
         (fun q -> Plan.compile_roots sk (Embed.embeddings (Sketch.synopsis sk) q))
         eval_queries)
  in
  Alcotest.(check bool) "control: some plans compiled" true (Array.length plans > 0);
  Alcotest.(check int) "control: the compile counter is live" (Array.length plans)
    (compiles () - c1)

(* ---------------- golden builds ---------------- *)

module Sketch_io = Xtwig_sketch.Sketch_io

let fixture name =
  let path = Filename.concat "fixtures" name in
  if Sys.file_exists path then path else Filename.concat "test" path

(* One build with the benchmark's recipe: seed 7, 8 candidates, a
   budget of 16x the coarsest sketch, a 14-query P scoring workload and
   memoized exact truth. Rendered as the md5 of the sketch's Sketch_io
   bytes, then one line per applied step with its workload error as
   IEEE bits. The fixtures were recorded from a build that estimated
   every base-pass query afresh and rebuilt the workload generator's
   tables on every call.

   With [recompute], each step's reported error is also recomputed
   from scratch over that step's scoring workload (the anchor queries,
   then the focused ones): XBUILD keeps the applied candidate's
   per-query estimates and carries the anchor ones into the next
   step's base pass, so every kept estimate must equal, bit for bit, a
   fresh estimate on the sketch it belongs to. *)
let golden_run ?pool ~recompute doc =
  let memo = Hashtbl.create 1024 in
  let truth q =
    let key = Xtwig_path.Path_printer.twig_to_string q in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        let v = float_of_int (Xtwig_eval.Eval_twig.selectivity doc q) in
        Hashtbl.add memo key v;
        v
  in
  let scoring = { Wgen.paper_p with n_queries = 14 } in
  let anchor = ref None and focused = ref [] in
  let workload prng ~focus =
    let qs = Wgen.generate ~focus scoring prng doc in
    (match !anchor with None -> anchor := Some qs | Some _ -> focused := qs);
    qs
  in
  let budget = 16 * Sketch.size_bytes (Sketch.default_of_doc doc) in
  let lines = ref [] in
  let on_step sk (i : Xbuild.step_info) =
    if recompute then begin
      let queries = Option.get !anchor @ !focused in
      let recomputed = Xbuild.workload_error sk ~truth queries in
      if Int64.bits_of_float recomputed <> Int64.bits_of_float i.workload_error then
        Alcotest.failf "step %d: reported error %h, recomputed %h" i.step
          i.workload_error recomputed
    end;
    lines :=
      Printf.sprintf "step %d %d %Lx %s" i.step i.size
        (Int64.bits_of_float i.workload_error)
        i.description
      :: !lines
  in
  let sk =
    Xbuild.build ?pool ~seed:7 ~candidates:8 ~max_steps:300 ~on_step ~workload ~truth
      ~budget doc
  in
  let bytes = Sketch_io.to_string ~budget ~seed:7 sk in
  let header = "sketch " ^ Digest.to_hex (Digest.string bytes) in
  String.concat "\n" (header :: List.rev !lines) ^ "\n"

let golden_docs =
  [
    ("imdb", "xbuild_imdb.golden", lazy doc);
    ("xmark", "xbuild_xmark.golden", 
      lazy (Xtwig_datagen.Xmark.generate ~scale:0.01 ()));
  ]

let check_golden ?pool ~recompute () =
  List.iter
    (fun (name, file, doc) ->
      let expected = In_channel.with_open_bin (fixture file) In_channel.input_all in
      Alcotest.(check string) (name ^ " sketch and trajectory") expected
        (golden_run ?pool ~recompute (Lazy.force doc)))
    golden_docs

let test_golden () = check_golden ~recompute:true ()

let test_golden_pooled () =
  Xtwig_util.Pool.with_pool ~domains:2 (fun pool ->
      check_golden ~pool ~recompute:false ())

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
          Alcotest.test_case "build runs each plan once, no table" `Slow
            test_build_plans_run_once;
        ] );
      ( "golden",
        [
          Alcotest.test_case "sequential" `Slow test_golden;
          Alcotest.test_case "2-domain pool" `Slow test_golden_pooled;
        ] );
    ]
