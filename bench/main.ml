(* Reproduction benchmark harness: regenerates every table and figure
   of the paper's evaluation (Section 6) plus ablations and bechamel
   micro-benchmarks. See EXPERIMENTS.md for the paper-vs-measured
   record produced from this output.

   Usage: main.exe
   [table1|table2|fig9a|fig9b|fig9c|singlepath|negative|ablation|micro|
    xbuild|fault-audit|scaling|ingest|optimize|serve|all]
   [--trace FILE]
   (default: all). [xbuild] times one full greedy construction and
   writes its wall time, steps/sec and reuse/cache counters to
   BENCH_xbuild.json. [ingest] times the streaming parser against the
   recursive reference parser (test/xml_reference.ml) and
   Sketch.apply_delta against a full re-XBUILD, runs the delta
   differential, and writes BENCH_ingest.json (exits 1 on any mismatch
   or throughput-floor breach). [scaling] runs the pooled build once
   per XTWIG_SCALING_JOBS value and checks every synopsis is
   byte-identical to the jobs = 1 one (BENCH_scaling.json).
   [fault-audit] drives a 200-query batch on XTWIG_JOBS worker domains
   (default 4) under a 1% chaos scenario (XTWIG_FAULT_SPEC overrides)
   and writes the injected/retried/degraded counts to
   BENCH_fault.json.

   Environment knobs (XTWIG_SCALE, XTWIG_JOBS, ...) are parsed
   strictly: a malformed value exits 2 naming the variable
   ([Harness.env]).

   Every mode additionally writes the run's metrics delta to
   BENCH_metrics.json, and [--trace FILE] records a Chrome
   trace-event JSON of the run (open in Perfetto / chrome://tracing;
   see DESIGN.md "Observability"). *)

open Harness
module Path_printer = Xtwig_path.Path_printer
module Spath = Xtwig_sketch.Spath
module Trace = Xtwig_obs.Trace
module Accuracy = Xtwig_obs.Accuracy

let eval_queries_n = env_int "XTWIG_EVAL_QUERIES" 500 ~valid:(at_least 1)

(* ------------------------------------------------------------------ *)
(* Table 1: dataset characteristics                                    *)

let table1 () =
  print_header "Table 1. Data Sets";
  print_row "%-8s %14s %14s %22s" "" "Element Count" "Text Size (MB)"
    "Coarsest Synopsis (KB)";
  List.iter
    (fun d ->
      let doc = Lazy.force d.doc in
      let coarse = Sketch.default_of_doc doc in
      print_row "%-8s %14d %14.2f %22.2f" d.name (Doc.size doc)
        (float_of_int (Xtwig_xml.Xml_writer.text_size doc) /. 1_048_576.0)
        (kb (Sketch.size_bytes coarse)))
    datasets

(* ------------------------------------------------------------------ *)
(* Table 2: workload characteristics                                   *)

let workload_for doc spec seed = Wgen.generate spec (Prng.create seed) doc

let table2 () =
  print_header "Table 2. Workload Characteristics";
  print_row "%-8s %6s %14s %12s" "" "Kind" "Avg. Result" "Avg. Fanout";
  List.iter
    (fun d ->
      let doc = Lazy.force d.doc in
      let kinds =
        if d.name = "SProt" then [ ("P", Wgen.paper_p) ]
        else [ ("P", Wgen.paper_p); ("P+V", Wgen.paper_pv) ]
      in
      List.iter
        (fun (kind, spec) ->
          let qs = workload_for doc { spec with Wgen.n_queries = 1000 } 17 in
          let avg_card, avg_fanout = Wgen.characteristics doc qs in
          print_row "%-8s %6s %14.0f %12.2f" d.name kind avg_card avg_fanout)
        kinds)
    datasets

(* ------------------------------------------------------------------ *)
(* Figure 9 (a,b): error vs synopsis size                              *)

let figure_curves ~title ~spec names =
  print_header title;
  print_row "%-8s %12s %10s" "dataset" "size (KB)" "avg error";
  List.iter
    (fun name ->
      let d = dataset name in
      let doc = Lazy.force d.doc in
      log "%s: generating evaluation workload (%d queries)" d.name eval_queries_n;
      let eval_queries =
        workload_for doc { spec with Wgen.n_queries = eval_queries_n } 101
      in
      let scoring = { spec with Wgen.n_queries = 14 } in
      let t0 = now () in
      let curve, _ =
        error_curve ~seed:7 ~scoring_spec:scoring ~eval_queries
          ~grid:(grid_of doc default_multiples) doc
      in
      log "%s curve done in %.0fs" d.name (now () -. t0);
      List.iter
        (fun p -> print_row "%-8s %12.2f %10.3f" d.name (kb p.size_bytes) p.error)
        curve)
    names

let fig9a () =
  figure_curves
    ~title:"Figure 9(a). Branching Predicates (P workload): error vs size"
    ~spec:Wgen.paper_p [ "IMDB"; "XMark" ]

let fig9b () =
  figure_curves
    ~title:"Figure 9(b). Branching and Value Predicates (P+V): error vs size"
    ~spec:Wgen.paper_pv [ "IMDB"; "XMark" ]

(* ------------------------------------------------------------------ *)
(* Figure 9 (c): CST vs XSKETCH error ratio                            *)

let fig9c () =
  print_header "Figure 9(c). Simple Paths: CST error / XSKETCH error vs size";
  print_row "%-8s %12s %10s %10s %10s %9s" "dataset" "size (KB)" "err CST"
    "err XSK" "ratio" "outliers";
  List.iter
    (fun d ->
      let doc = Lazy.force d.doc in
      let truth = truth_oracle doc in
      let eval_queries =
        workload_for doc { Wgen.simple_paths with n_queries = eval_queries_n } 103
      in
      let truths = truths_of truth eval_queries in
      let scoring = { Wgen.simple_paths with Wgen.n_queries = 14 } in
      let t0 = now () in
      let curve_points = ref [] in
      let grid = grid_of doc default_multiples in
      let _, _ =
        let remaining = ref (List.sort compare grid) in
        let take sk size =
          match !remaining with
          | g :: rest when size >= g ->
              remaining := rest;
              curve_points := (size, sk) :: !curve_points
          | _ -> ()
        in
        let coarse = Sketch.default_of_doc doc in
        take coarse (Sketch.size_bytes coarse);
        let workload prng ~focus = Wgen.generate ~focus scoring prng doc in
        let final =
          Xbuild.build ~seed:7 ~candidates:8 ~max_steps:700 ~workload ~truth
            ~budget:(List.fold_left Stdlib.max 0 grid)
            ~on_step:(fun sk info -> take sk info.Xtwig_sketch.Xbuild.size)
            doc
        in
        ((), ignore final)
      in
      log "%s builds done in %.0fs" d.name (now () -. t0);
      List.iter
        (fun (size, sk) ->
          let cst = Cst.build ~budget_bytes:size doc in
          let cst_est =
            Array.of_list (List.map (fun q -> Cst.estimate cst q) eval_queries)
          in
          let xsk_est = estimates_of sk eval_queries in
          (* the paper excludes CST outliers (>1000% error) to keep the
             ratio meaningful; we do the same and report how many *)
          let m_cst = EM.evaluate ~truths ~estimates:cst_est in
          let keep = Array.map (fun e -> e <= 10.0) m_cst.EM.per_query in
          let filter arr =
            Array.of_list
              (List.filteri
                 (fun i _ -> keep.(i))
                 (Array.to_list arr))
          in
          let truths_f = filter truths in
          let e_cst =
            EM.average_error ~truths:truths_f ~estimates:(filter cst_est)
          in
          let e_xsk =
            EM.average_error ~truths:truths_f ~estimates:(filter xsk_est)
          in
          let outliers =
            Array.length keep - Array.fold_left (fun a k -> if k then a + 1 else a) 0 keep
          in
          print_row "%-8s %12.2f %10.3f %10.3f %10.2f %9d" d.name (kb size) e_cst
            e_xsk
            (e_cst /. Stdlib.max 1e-6 e_xsk)
            outliers)
        (List.rev !curve_points))
    datasets

(* ------------------------------------------------------------------ *)
(* Single-path comparison: Twig XSKETCH vs Structural XSKETCH          *)

(* single XPath expressions with branching and value predicates: the
   structure-only part is pinned exactly by the stored edge counts in
   both models, so the interesting differences come from predicates *)
let single_path_spec =
  {
    Wgen.paper_p with
    Wgen.n_queries = eval_queries_n;
    min_nodes = 1;
    max_nodes = 1;
    branch_prob = 0.35;
    value_pred_frac = 0.5;
    max_path_steps = 3;
    leaf_roots = true;
  }

let singlepath () =
  print_header
    "Single XPath expressions: Twig XSKETCH vs Structural (single-path) XSKETCH";
  print_row "%-8s %12s %12s %12s" "dataset" "size (KB)" "err twig" "err struct";
  List.iter
    (fun d ->
      let doc = Lazy.force d.doc in
      let truth = truth_oracle doc in
      let eval_queries = workload_for doc single_path_spec 107 in
      let truths = truths_of truth eval_queries in
      let scoring = { single_path_spec with Wgen.n_queries = 14 } in
      let workload prng ~focus = Wgen.generate ~focus scoring prng doc in
      let budget = List.nth (grid_of doc [ 8.0 ]) 0 in
      let sk =
        Xbuild.build ~seed:7 ~candidates:8 ~max_steps:250 ~workload ~truth ~budget
          doc
      in
      let e_twig =
        EM.average_error ~truths ~estimates:(estimates_of sk eval_queries)
      in
      let stripped = Spath.strip_edge_hists sk in
      let e_struct =
        EM.average_error ~truths ~estimates:(estimates_of stripped eval_queries)
      in
      print_row "%-8s %12.2f %12.3f %12.3f" d.name
        (kb (Sketch.size_bytes sk))
        e_twig e_struct)
    datasets

(* ------------------------------------------------------------------ *)
(* Negative workloads (Section 6.1, in-text claim)                     *)

let negative () =
  print_header "Negative workloads: estimates on zero-selectivity queries";
  print_row "%-8s %10s %14s %14s" "dataset" "queries" "mean estimate"
    "max estimate";
  List.iter
    (fun d ->
      let doc = Lazy.force d.doc in
      let negs =
        Wgen.generate_negative
          { Wgen.paper_p with Wgen.n_queries = 200 }
          (Prng.create 113) doc
      in
      let coarse = Sketch.default_of_doc doc in
      let ests = List.map (fun q -> Est.estimate coarse q) negs in
      print_row "%-8s %10d %14.3f %14.3f" d.name (List.length negs)
        (Xtwig_util.Stats.mean (Array.of_list ests))
        (List.fold_left Stdlib.max 0.0 ests))
    datasets

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation () =
  print_header "Ablation 1. Edge-histogram budget on the IMDB movie node";
  print_row "%-10s %12s" "buckets" "avg error";
  let doc = Lazy.force (dataset "imdb").doc in
  let truth = truth_oracle doc in
  let eval_queries =
    workload_for doc { Wgen.paper_p with Wgen.n_queries = 200 } 109
  in
  let truths = truths_of truth eval_queries in
  let syn = Xtwig_synopsis.Graph_synopsis.label_split doc in
  List.iter
    (fun budget ->
      let sk = Sketch.coarsest ~ebudget:budget syn in
      let e = EM.average_error ~truths ~estimates:(estimates_of sk eval_queries) in
      print_row "%-10d %12.3f" budget e)
    [ 1; 2; 4; 8; 16; 32 ];
  print_header "Ablation 2. Cluster histogram vs Haar wavelet (1-d compression)";
  print_row "%-10s %16s %16s" "budget" "hist L1 error" "wavelet L1 error";
  (* the actor-count distribution of IMDB movies, as a frequency vector *)
  let sk = Sketch.coarsest syn in
  let movie = List.hd (Xtwig_synopsis.Graph_synopsis.nodes_with_label syn "movie") in
  let actor = List.hd (Xtwig_synopsis.Graph_synopsis.nodes_with_label syn "actor") in
  let dist =
    Sketch.distribution sk movie
      [| { Xtwig_sketch.Sketch.src = movie; dst = actor; kind = Forward } |]
  in
  let max_count =
    Xtwig_hist.Sparse_dist.fold dist ~init:0 ~f:(fun a v _ -> Stdlib.max a v.(0))
  in
  let freq = Array.make (max_count + 1) 0.0 in
  Xtwig_hist.Sparse_dist.fold dist ~init:() ~f:(fun () v f -> freq.(v.(0)) <- f);
  List.iter
    (fun budget ->
      (* same byte budget for both: hist bucket = 12B, coeff = 8B *)
      let bytes = budget * 12 in
      let h = Xtwig_hist.Edge_hist.build ~budget dist in
      let hist_err =
        (* L1 distance between true frequencies and bucket-uniform mass *)
        let approx = Array.make (max_count + 1) 0.0 in
        for b = 0 to h.n - 1 do
          (* one dimension; the bounds carry the ±0.5 slack *)
          let lo = int_of_float (h.lo.(b) +. 0.5) in
          let hi = int_of_float (h.hi.(b) -. 0.5) in
          let span = hi - lo + 1 in
          for c = lo to hi do
            approx.(c) <- approx.(c) +. (h.frac.(b) /. float_of_int span)
          done
        done;
        Array.fold_left ( +. ) 0.0
          (Array.mapi (fun i f -> Float.abs (f -. approx.(i))) freq)
      in
      let w = Xtwig_hist.Wavelet.build ~budget:(bytes / 8) freq in
      let rec_ = Xtwig_hist.Wavelet.reconstruct w in
      let wav_err =
        Array.fold_left ( +. ) 0.0
          (Array.mapi (fun i f -> Float.abs (f -. rec_.(i))) freq)
      in
      print_row "%-10d %16.4f %16.4f" budget hist_err wav_err)
    [ 2; 4; 8; 16 ];
  print_header "Ablation 3. Estimation assumptions (IMDB, 200 P queries)";
  print_row "%-44s %10s" "configuration" "avg error";
  let full_sk =
    (* full eligible scope, exact histograms: upper bound of the model *)
    let groupings =
      Array.init (Xtwig_synopsis.Graph_synopsis.node_count syn) (fun n ->
          match Xtwig_synopsis.Tsn.scope_edges syn n with
          | [] -> []
          | edges ->
              [
                List.map
                  (fun (src, dst) ->
                    let kind =
                      if src = n then Xtwig_sketch.Sketch.Forward
                      else Xtwig_sketch.Sketch.Backward
                    in
                    { Xtwig_sketch.Sketch.src; dst; kind })
                  edges;
              ])
    in
    Sketch.exact_for_scopes syn groupings
  in
  let forward_only_sk =
    (* the paper's prototype restriction: forward counts only, and one
       histogram per edge (full independence across edges) *)
    Sketch.coarsest ~ebudget:64 syn
  in
  let none_sk = Spath.strip_edge_hists forward_only_sk in
  List.iter
    (fun (name, sk) ->
      let e = EM.average_error ~truths ~estimates:(estimates_of sk eval_queries) in
      print_row "%-44s %10.3f" name e)
    [
      ("full scope, exact joint histograms", full_sk);
      ("forward-only 1-d histograms (prototype)", forward_only_sk);
      ("no edge histograms (structural only)", none_sk);
    ]

(* ------------------------------------------------------------------ *)
(* XBUILD inner-loop benchmark: wall time, steps/sec and the reuse /
   cache counters of one full greedy construction, recorded to
   BENCH_xbuild.json so the perf trajectory is tracked across PRs.    *)

let xbuild_bench () =
  print_header "XBUILD inner-loop benchmark (IMDB)";
  let doc = Lazy.force (dataset "imdb").doc in
  let truth = truth_oracle doc in
  let scoring = { Wgen.paper_p with Wgen.n_queries = 14 } in
  let workload prng ~focus = Wgen.generate ~focus scoring prng doc in
  let coarse_bytes = Sketch.size_bytes (Sketch.default_of_doc doc) in
  let budget = coarse_bytes * 16 in
  let max_steps = 300 and seed = 7 and candidates = 8 in
  (* resolve the dataset and force the generators out of the timing *)
  let m0 = Metrics.snapshot () in
  let steps = ref 0 and last_err = ref Float.nan in
  let t0 = now () in
  let final =
    Xbuild.build ~seed ~candidates ~max_steps ~workload ~truth ~budget
      ~on_step:(fun _ info ->
        incr steps;
        last_err := info.Xtwig_sketch.Xbuild.workload_error)
      doc
  in
  let wall = now () -. t0 in
  let steps_per_s = float_of_int !steps /. Stdlib.max 1e-9 wall in
  let counters = counters_of (Metrics.diff m0 (Metrics.snapshot ())) in
  print_row "%-28s %12.3f" "wall time (s)" wall;
  print_row "%-28s %12d" "steps" !steps;
  print_row "%-28s %12.2f" "steps/s" steps_per_s;
  print_row "%-28s %12d" "final size (bytes)" (Sketch.size_bytes final);
  List.iter (fun (n, v) -> print_row "%-40s %12d" n v) counters;
  (* design gate: XBUILD scores each candidate once per query through
     one-shot estimates, so every plan it compiles runs exactly once
     and is dropped, and it touches no session table (DESIGN.md §12) *)
  let cval n = Option.value ~default:0 (List.assoc_opt n counters) in
  let gate_run_once =
    cval "plan.compiles" > 0
    && cval "plan.compiles" = cval "plan.runs"
    && cval "plan.cache_hits" = 0
    && cval "plan.cache_misses" = 0
  in
  print_row "%-40s %12s" "gate: build plans run once, no table"
    (if gate_run_once then "PASS" else "FAIL");
  if not gate_run_once then
    log "ERROR: XBUILD plans not run exactly once (compiles=%d runs=%d hits=%d misses=%d)"
      (cval "plan.compiles") (cval "plan.runs") (cval "plan.cache_hits")
      (cval "plan.cache_misses");
  (* accuracy telemetry on a held-out workload: absolute and relative
     error stream into the Accuracy histograms, reported as p50/p90/p99
     (the build's own scoring error above is a mean over 14 queries;
     percentiles need the wider evaluation set) *)
  let eval_qs =
    Wgen.generate { Wgen.paper_p with Wgen.n_queries = 200 } (Prng.create 101)
      doc
  in
  let truths = truths_of truth eval_qs in
  let sanity = EM.sanity_bound truths in
  let acc = Accuracy.create ~sanity ~name:"bench.xbuild" () in
  List.iteri
    (fun i q -> Accuracy.observe acc ~truth:truths.(i) ~estimate:(Est.estimate final q))
    eval_qs;
  print_row "%s" (Accuracy.report acc);
  let p q = Accuracy.percentile acc q in
  let oc = open_out "BENCH_xbuild.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"xbuild\",\n";
  fprint_provenance oc;
  Printf.fprintf oc "  \"dataset\": \"IMDB\",\n";
  Printf.fprintf oc "  \"scale\": %g,\n" scale;
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"candidates\": %d,\n" candidates;
  Printf.fprintf oc "  \"max_steps\": %d,\n" max_steps;
  Printf.fprintf oc "  \"budget_bytes\": %d,\n" budget;
  Printf.fprintf oc "  \"wall_s\": %.3f,\n" wall;
  Printf.fprintf oc "  \"steps\": %d,\n" !steps;
  Printf.fprintf oc "  \"steps_per_s\": %.3f,\n" steps_per_s;
  Printf.fprintf oc "  \"final_size_bytes\": %d,\n" (Sketch.size_bytes final);
  (* Metrics.json_number: an empty accuracy stream yields NaN
     percentiles, which must become null, not bare NaN tokens *)
  Printf.fprintf oc "  \"final_workload_error\": %s,\n"
    (Metrics.json_number !last_err);
  Printf.fprintf oc "  \"eval_queries\": %d,\n" (List.length eval_qs);
  Printf.fprintf oc "  \"rel_error_p50\": %s,\n" (Metrics.json_number (p 50.0));
  Printf.fprintf oc "  \"rel_error_p90\": %s,\n" (Metrics.json_number (p 90.0));
  Printf.fprintf oc "  \"rel_error_p99\": %s,\n" (Metrics.json_number (p 99.0));
  Printf.fprintf oc "  \"gate_build_plans_run_once\": %b,\n" gate_run_once;
  Printf.fprintf oc "  \"counters\": {\n";
  List.iteri
    (fun i (n, v) ->
      Printf.fprintf oc "    \"%s\": %d%s\n" n v
        (if i = List.length counters - 1 then "" else ","))
    counters;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  log "wrote BENCH_xbuild.json"

(* ------------------------------------------------------------------ *)
(* The shared IMDB build of the modes below (fault-audit, scaling,
   ingest, optimize): a 14-query scoring workload, 16x the coarsest
   synopsis, candidate scoring on a pool when one is given.            *)

module Pool = Xtwig_util.Pool
module Sketch_io = Xtwig_sketch.Sketch_io
module Engine = Xtwig_engine.Engine

let bench_jobs = env_int "XTWIG_JOBS" 4 ~valid:(at_least 1)

let par_budget doc = Sketch.size_bytes (Sketch.default_of_doc doc) * 16

let par_build ?pool doc =
  let truth = truth_oracle doc in
  let scoring = { Wgen.paper_p with Wgen.n_queries = 14 } in
  let workload prng ~focus = Wgen.generate ~focus scoring prng doc in
  Xbuild.build ?pool ~seed:7 ~candidates:8 ~max_steps:300 ~workload ~truth
    ~budget:(par_budget doc) doc

(* ------------------------------------------------------------------ *)
(* Fault audit: a 1%-everything chaos scenario over a 200-query Engine
   batch. The engine must never raise: every query yields an answer,
   degraded at worst, and the run records how many faults fired, how
   many queries retried and how many degraded to BENCH_fault.json.
   XTWIG_FAULT_SPEC overrides the canned scenario.                     *)

module Fault = Xtwig_fault.Fault

let fault_audit () =
  print_header "Fault audit (IMDB, 200-query batch under injection)";
  let doc = Lazy.force (dataset "imdb").doc in
  let sk = par_build doc in
  let qs =
    Wgen.generate { Wgen.paper_p with Wgen.n_queries = 200 } (Prng.create 99) doc
  in
  let sp =
    let canned =
      "seed=7;engine.query:p0.01;plan.fill:p0.01;embed.fill:p0.01;pool.task:p0.01"
    in
    match Fault.env_spec () with
    | Ok (Some sp) -> sp
    | Error e -> failwith ("XTWIG_FAULT_SPEC: " ^ e)
    | Ok None -> (
        match Fault.parse_spec canned with
        | Ok sp -> sp
        | Error e -> failwith e)
  in
  log "scenario: %s" (Fault.spec_to_string sp);
  Fault.install sp;
  let outcome =
    Fun.protect ~finally:Fault.disable @@ fun () ->
    match Engine.of_sketch ~jobs:bench_jobs sk with
    | Error e -> Error (Xtwig_util.Xerror.to_string e)
    | Ok eng -> (
        Fun.protect
          ~finally:(fun () -> Engine.close eng)
          (fun () ->
            match Engine.estimate_batch eng qs with
            | Ok answers -> Ok (answers, Engine.stats eng, Fault.injected_count ())
            | Error e -> Error (Xtwig_util.Xerror.to_string e)
            | exception e ->
                Error ("UNCAUGHT " ^ Printexc.to_string e)))
  in
  let queries = List.length qs in
  let injected, retried_queries, retries_total, degraded, uncaught, err =
    match outcome with
    | Ok (answers, st, injected) ->
        let retried =
          List.length
            (List.filter (fun (a : Engine.answer) -> a.Engine.retries > 0) answers)
        in
        let degraded =
          List.length
            (List.filter (fun (a : Engine.answer) -> a.Engine.fallback) answers)
        in
        (injected, retried, st.Engine.retries, degraded, false, "")
    | Error msg ->
        let uncaught = String.length msg >= 8 && String.sub msg 0 8 = "UNCAUGHT" in
        (Fault.injected_count (), 0, 0, queries, uncaught, msg)
  in
  let served = float_of_int (queries - degraded) /. float_of_int queries *. 100.0 in
  print_row "%-28s %12d" "queries" queries;
  print_row "%-28s %12d" "faults injected" injected;
  print_row "%-28s %12d" "queries retried" retried_queries;
  print_row "%-28s %12d" "retries total" retries_total;
  print_row "%-28s %12d" "degraded (fallback)" degraded;
  print_row "%-28s %11.1f%%" "served at full fidelity" served;
  if err <> "" then log "ERROR: batch failed: %s" err;
  if uncaught then log "ERROR: engine let an exception escape!";
  let oc = open_out "BENCH_fault.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"fault-audit\",\n";
  fprint_provenance oc;
  Printf.fprintf oc "  \"dataset\": \"IMDB\",\n";
  Printf.fprintf oc "  \"scale\": %g,\n" scale;
  Printf.fprintf oc "  \"jobs\": %d,\n" bench_jobs;
  Printf.fprintf oc "  \"spec\": %S,\n" (Fault.spec_to_string sp);
  Printf.fprintf oc "  \"queries\": %d,\n" queries;
  Printf.fprintf oc "  \"injected\": %d,\n" injected;
  Printf.fprintf oc "  \"retried_queries\": %d,\n" retried_queries;
  Printf.fprintf oc "  \"retries_total\": %d,\n" retries_total;
  Printf.fprintf oc "  \"degraded\": %d,\n" degraded;
  Printf.fprintf oc "  \"served_full_fidelity_pct\": %.1f,\n" served;
  Printf.fprintf oc "  \"uncaught_exceptions\": %b\n" uncaught;
  Printf.fprintf oc "}\n";
  close_out oc;
  log "wrote BENCH_fault.json";
  if uncaught then exit 1

(* ------------------------------------------------------------------ *)
(* XBUILD scaling benchmark: run the full XBUILD construction once per
   worker-domain count and record, for each jobs value, the wall time
   and the estimator time, so the efficiency curve is tracked across
   PRs in BENCH_scaling.json; the plan counters stay in the rows to
   show every plan the build compiles runs once, at any jobs value.
   Every run goes through a pool (jobs = 1 exercises the inline
   bypass) and must produce a synopsis byte-identical to the jobs = 1
   baseline.                                                          *)

(* a comma-separated list of positive job counts *)
let scaling_jobs =
  env "XTWIG_SCALING_JOBS" [ 1; 2; 4; 8 ]
    ~parse:(fun s ->
      List.fold_right
        (fun p acc ->
          match (int_of_string_opt (String.trim p), acc) with
          | Some j, Some js when j >= 1 -> Some (j :: js)
          | _ -> None)
        (String.split_on_char ',' s) (Some []))

(* the counter subset that matters for the scaling story, in report
   order; anything absent in a run's delta reads as 0 *)
let scaling_keys =
  [ "plan.compiles"; "plan.runs"; "plan.compile_ns"; "estimator.ns" ]

let scaling_bench () =
  print_header "XBUILD scaling benchmark (IMDB, jobs sweep)";
  let doc = Lazy.force (dataset "imdb").doc in
  let cores = Domain.recommended_domain_count () in
  log "available cores: %d, sweeping jobs = %s" cores
    (String.concat ", " (List.map string_of_int scaling_jobs));
  if cores < 2 then
    log
      "NOTE: this machine exposes a single core; jobs > 1 measures \
       scheduling overhead, not speedup (see EXPERIMENTS.md).";
  let run_one jobs =
    let m0 = Metrics.snapshot () in
    let t0 = now () in
    let sk = Pool.with_pool ~domains:jobs (fun p -> par_build ~pool:p doc) in
    let wall = now () -. t0 in
    let counters = counters_of (Metrics.diff m0 (Metrics.snapshot ())) in
    let cval n = Option.value ~default:0 (List.assoc_opt n counters) in
    (wall, Sketch_io.to_string sk, List.map (fun k -> (k, cval k)) scaling_keys)
  in
  let runs = List.map (fun jobs -> (jobs, run_one jobs)) scaling_jobs in
  let base_wall, base_bytes =
    match runs with
    | (_, (w, b, _)) :: _ -> (w, b)
    | [] -> (Float.nan, "")
  in
  print_row "%4s %9s %8s %13s %9s %9s" "jobs" "wall(s)" "speedup"
    "estimator(ms)" "compiles" "runs";
  let all_identical = ref true in
  List.iter
    (fun (jobs, (wall, bytes, cs)) ->
      let cval k = List.assoc k cs in
      let ms k = float_of_int (cval k) /. 1e6 in
      if not (String.equal bytes base_bytes) then all_identical := false;
      print_row "%4d %9.3f %8.2f %13.1f %9d %9d" jobs wall
        (base_wall /. Stdlib.max 1e-9 wall)
        (ms "estimator.ns") (cval "plan.compiles") (cval "plan.runs"))
    runs;
  print_row "%-28s %12b" "synopses byte-identical" !all_identical;
  if not !all_identical then
    log "ERROR: synopsis differs across jobs values!";
  let oc = open_out "BENCH_scaling.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"scaling\",\n";
  fprint_provenance oc;
  Printf.fprintf oc "  \"dataset\": \"IMDB\",\n";
  Printf.fprintf oc "  \"scale\": %g,\n" scale;
  Printf.fprintf oc "  \"seed\": 7,\n";
  Printf.fprintf oc "  \"candidates\": 8,\n";
  Printf.fprintf oc "  \"max_steps\": 300,\n";
  Printf.fprintf oc "  \"cores\": %d,\n" cores;
  Printf.fprintf oc "  \"synopses_identical\": %b,\n" !all_identical;
  Printf.fprintf oc "  \"runs\": [\n";
  List.iteri
    (fun i (jobs, (wall, _, cs)) ->
      let speedup = base_wall /. Stdlib.max 1e-9 wall in
      Printf.fprintf oc "    {\n";
      Printf.fprintf oc "      \"jobs\": %d,\n" jobs;
      Printf.fprintf oc "      \"wall_s\": %.3f,\n" wall;
      Printf.fprintf oc "      \"speedup\": %.3f,\n" speedup;
      Printf.fprintf oc "      \"efficiency\": %.3f,\n"
        (speedup /. float_of_int jobs);
      Printf.fprintf oc "      \"counters\": {\n";
      List.iteri
        (fun j (k, v) ->
          Printf.fprintf oc "        \"%s\": %d%s\n" k v
            (if j = List.length cs - 1 then "" else ","))
        cs;
      Printf.fprintf oc "      }\n";
      Printf.fprintf oc "    }%s\n" (if i = List.length runs - 1 then "" else ","))
    runs;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  log "wrote BENCH_scaling.json"

(* ------------------------------------------------------------------ *)
(* Streaming-ingestion benchmark: the PR-9 tentpole's evidence.

   Part 1 times the chunked SAX parser against the retained PR-8
   whole-string parser (test/xml_reference.ml) on the IMDB and
   XMark texts, interleaved best-of-N, and asserts the two documents
   are traversal-identical (every tag, parent, child order and value)
   — which pins the fig9a trajectory, double-checked by comparing the
   coarsest synopses byte-for-byte.

   Part 2 times Sketch.apply_delta for a single-subtree insert and
   delete against a full re-XBUILD over the updated document, and runs
   the differential contract: delta-maintained sketch vs
   rebuild-from-scratch over the same synopsis+config must be
   byte-identical (and the reuse path must equal the no-reuse path).

   Results go to BENCH_ingest.json. Exit code 1 if any differential
   mismatches, if a traversal differs, or if the streaming throughput
   falls below XTWIG_INGEST_FLOOR_MBS (default 0 = no floor) — the CI
   ingest-smoke job gates on that exit code.                          *)

module Xml_parser = Xtwig_xml.Xml_parser
module Value = Xtwig_xml.Value

let ingest_reps = env_int "XTWIG_INGEST_REPS" 15 ~valid:(at_least 3)

let ingest_floor_mbs =
  env_float "XTWIG_INGEST_FLOOR_MBS" 0.0 ~valid:(fun f ->
      Float.is_finite f && f >= 0.0)

(* exhaustive structural comparison: same node numbering, tags,
   parents, child order and values *)
let docs_equal a b =
  Doc.size a = Doc.size b
  && begin
       let ok = ref true in
       for e = 0 to Doc.size a - 1 do
         if
           not
             (String.equal (Doc.tag_name a e) (Doc.tag_name b e)
             && Doc.parent a e = Doc.parent b e
             && Value.equal (Doc.value a e) (Doc.value b e)
             && Doc.children a e = Doc.children b e)
         then ok := false
       done;
       !ok
     end

type parse_run = {
  p_dataset : string;
  p_bytes : int;
  p_stream_s : float;
  p_reference_s : float;
  p_traversal_identical : bool;
  p_coarse_identical : bool;
}

let mbs bytes secs = float_of_int bytes /. 1_048_576.0 /. Stdlib.max 1e-9 secs

let ingest_parse_one name =
  let doc0 = Lazy.force (dataset name).doc in
  let xml = Xtwig_xml.Xml_writer.to_string doc0 in
  let bytes = String.length xml in
  let force = function
    | Ok d -> d
    | Error e -> failwith (Xtwig_util.Xerror.to_string e)
  in
  (* one untimed pass of each parser first (page cache, interner and
     GC warm), then interleaved best-of-N: alternating the two parsers
     inside each rep cancels slow drift out of the ratio *)
  let ds = force (Xml_parser.parse_string_res xml) in
  let dr = force (Xml_reference.parse_string_res xml) in
  (* start each dataset from a compacted heap: garbage left by the
     previous dataset's reps would tax the two parsers unevenly *)
  Gc.compact ();
  let best_stream = ref Float.max_float and best_ref = ref Float.max_float in
  for _ = 1 to ingest_reps do
    let t0 = now () in
    ignore (Sys.opaque_identity (force (Xml_parser.parse_string_res xml)));
    let ts = now () -. t0 in
    let t0 = now () in
    ignore
      (Sys.opaque_identity (force (Xml_reference.parse_string_res xml)));
    let tr = now () -. t0 in
    if ts < !best_stream then best_stream := ts;
    if tr < !best_ref then best_ref := tr
  done;
  (* the generators do not number nodes in document order, so the
     re-serialization, not index-wise equality, is the roundtrip
     check against the source text; the two parsers must agree
     index-wise *)
  let identical =
    docs_equal ds dr && String.equal (Xtwig_xml.Xml_writer.to_string ds) xml
  in
  let coarse_identical =
    String.equal
      (Sketch_io.to_string (Sketch.default_of_doc ds))
      (Sketch_io.to_string (Sketch.default_of_doc dr))
  in
  let r =
    {
      p_dataset = name;
      p_bytes = bytes;
      p_stream_s = !best_stream;
      p_reference_s = !best_ref;
      p_traversal_identical = identical;
      p_coarse_identical = coarse_identical;
    }
  in
  print_row "%-8s %10.2f MB %9.1f MB/s stream %9.1f MB/s reference %7.2fx %s"
    name
    (float_of_int bytes /. 1_048_576.0)
    (mbs bytes r.p_stream_s) (mbs bytes r.p_reference_s)
    (r.p_reference_s /. Stdlib.max 1e-9 r.p_stream_s)
    (if identical && coarse_identical then "identical" else "MISMATCH");
  r

type delta_run = {
  d_budget : int;
  d_xbuild_s : float;
  d_rexbuild_s : float;
  d_insert_s : float;
  d_delete_s : float;
  d_mismatches : int;
  d_kept_nodes : int;
  d_deltas : int;
}

let ingest_delta () =
  let doc = Lazy.force (dataset "imdb").doc in
  let budget = par_budget doc in
  let t0 = now () in
  let sk = par_build doc in
  let xbuild_s = now () -. t0 in
  let fragment =
    match
      Xtwig_xml.Xml_parser.parse_string_res
        "<movie><title>Delta Test</title><year>1999</year><actor>A. \
         Actor</actor><genre>drama</genre></movie>"
    with
    | Ok d -> d
    | Error e -> failwith (Xtwig_util.Xerror.to_string e)
  in
  let parent = Doc.root doc in
  let victim =
    (* a real single-subtree edit: drop one whole movie element *)
    match Doc.tag_of_string doc "movie" with
    | Some tag -> (Doc.nodes_with_tag doc tag).(0)
    | None -> failwith "IMDB document has no movie elements"
  in
  let insert = Sketch.Insert { parent; fragment } and delete = Sketch.Delete victim in
  (* apply_delta is functional, so the same base sketch serves every
     timing rep; best-of-N for the same reason as the parse loop *)
  let time_delta d =
    let best = ref Float.max_float in
    for _ = 1 to ingest_reps do
      let t0 = now () in
      ignore (Sketch.apply_delta sk d);
      let t = now () -. t0 in
      if t < !best then best := t
    done;
    !best
  in
  let insert_s = time_delta insert and delete_s = time_delta delete in
  (* differential contract, counted as mismatches (gate: zero):
     1. delta result = rebuild-from-scratch over its synopsis+config
     2. reuse path = no-reuse path *)
  let m0 = Metrics.snapshot () in
  let mismatches = ref 0 in
  let check d =
    let maintained = Sketch.apply_delta ~reuse:true sk d in
    let rebuilt =
      Sketch.build (Sketch.synopsis maintained) (Sketch.config maintained)
    in
    let no_reuse = Sketch.apply_delta ~reuse:false sk d in
    let b = Sketch_io.to_string maintained in
    if not (String.equal b (Sketch_io.to_string rebuilt)) then incr mismatches;
    if not (String.equal b (Sketch_io.to_string no_reuse)) then incr mismatches
  in
  check insert;
  check delete;
  let counters = counters_of (Metrics.diff m0 (Metrics.snapshot ())) in
  let cval n = Option.value ~default:0 (List.assoc_opt n counters) in
  (* the honest re-XBUILD comparator: a from-scratch greedy build over
     the post-insert document, same knobs as the initial build *)
  let doc' = Sketch.doc (Sketch.apply_delta sk insert) in
  let t0 = now () in
  ignore (par_build doc');
  let rexbuild_s = now () -. t0 in
  print_row "%-28s %12.3f" "initial XBUILD wall (s)" xbuild_s;
  print_row "%-28s %12.3f" "re-XBUILD wall (s)" rexbuild_s;
  print_row "%-28s %12.2f" "insert delta (ms)" (insert_s *. 1e3);
  print_row "%-28s %12.2f" "delete delta (ms)" (delete_s *. 1e3);
  print_row "%-28s %12.0fx" "speedup vs re-XBUILD"
    (rexbuild_s /. Stdlib.max 1e-9 (Stdlib.max insert_s delete_s));
  print_row "%-28s %12d" "differential mismatches" !mismatches;
  {
    d_budget = budget;
    d_xbuild_s = xbuild_s;
    d_rexbuild_s = rexbuild_s;
    d_insert_s = insert_s;
    d_delete_s = delete_s;
    d_mismatches = !mismatches;
    d_kept_nodes = cval "sketch.delta_nodes_kept";
    d_deltas = cval "sketch.deltas";
  }

let ingest () =
  print_header "Streaming ingestion benchmark (parse + delta maintenance)";
  log "reps: %d (XTWIG_INGEST_REPS), floor: %.1f MB/s (XTWIG_INGEST_FLOOR_MBS)"
    ingest_reps ingest_floor_mbs;
  let parses = List.map ingest_parse_one [ "IMDB"; "XMark" ] in
  print_header "Delta maintenance vs re-XBUILD (IMDB, single-subtree edits)";
  let d = ingest_delta () in
  let worst_delta = Stdlib.max d.d_insert_s d.d_delete_s in
  let delta_speedup = d.d_rexbuild_s /. Stdlib.max 1e-9 worst_delta in
  let gate_parse =
    List.for_all
      (fun p -> p.p_reference_s /. Stdlib.max 1e-9 p.p_stream_s >= 3.0)
      parses
  in
  let gate_traversal =
    List.for_all
      (fun p -> p.p_traversal_identical && p.p_coarse_identical)
      parses
  in
  let gate_floor =
    List.for_all (fun p -> mbs p.p_bytes p.p_stream_s >= ingest_floor_mbs) parses
  in
  let gate_delta = delta_speedup >= 10.0 in
  let gate_diff = d.d_mismatches = 0 in
  List.iter
    (fun (name, pass) ->
      print_row "%-44s %12s" name (if pass then "PASS" else "FAIL"))
    [
      ("gate: streaming >= 3x reference", gate_parse);
      ("gate: traversal + coarse synopsis identical", gate_traversal);
      ("gate: streaming above recorded floor", gate_floor);
      ("gate: delta >= 10x below re-XBUILD", gate_delta);
      ("gate: differential mismatches = 0", gate_diff);
    ];
  let oc = open_out "BENCH_ingest.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"ingest\",\n";
  fprint_provenance oc;
  Printf.fprintf oc "  \"scale\": %g,\n" scale;
  Printf.fprintf oc "  \"reps\": %d,\n" ingest_reps;
  Printf.fprintf oc "  \"floor_mb_s\": %g,\n" ingest_floor_mbs;
  Printf.fprintf oc "  \"parse\": [\n";
  List.iteri
    (fun i p ->
      Printf.fprintf oc "    {\n";
      Printf.fprintf oc "      \"dataset\": %S,\n" p.p_dataset;
      Printf.fprintf oc "      \"bytes\": %d,\n" p.p_bytes;
      Printf.fprintf oc "      \"stream_s\": %.6f,\n" p.p_stream_s;
      Printf.fprintf oc "      \"reference_s\": %.6f,\n" p.p_reference_s;
      Printf.fprintf oc "      \"stream_mb_s\": %.1f,\n" (mbs p.p_bytes p.p_stream_s);
      Printf.fprintf oc "      \"reference_mb_s\": %.1f,\n"
        (mbs p.p_bytes p.p_reference_s);
      Printf.fprintf oc "      \"speedup\": %.3f,\n"
        (p.p_reference_s /. Stdlib.max 1e-9 p.p_stream_s);
      Printf.fprintf oc "      \"traversal_identical\": %b,\n"
        p.p_traversal_identical;
      Printf.fprintf oc "      \"coarse_synopsis_identical\": %b\n"
        p.p_coarse_identical;
      Printf.fprintf oc "    }%s\n" (if i = List.length parses - 1 then "" else ","))
    parses;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"delta\": {\n";
  Printf.fprintf oc "    \"dataset\": \"IMDB\",\n";
  Printf.fprintf oc "    \"budget_bytes\": %d,\n" d.d_budget;
  Printf.fprintf oc "    \"xbuild_wall_s\": %.3f,\n" d.d_xbuild_s;
  Printf.fprintf oc "    \"rexbuild_wall_s\": %.3f,\n" d.d_rexbuild_s;
  Printf.fprintf oc "    \"insert_s\": %.6f,\n" d.d_insert_s;
  Printf.fprintf oc "    \"delete_s\": %.6f,\n" d.d_delete_s;
  Printf.fprintf oc "    \"speedup_vs_rexbuild\": %.1f,\n" delta_speedup;
  Printf.fprintf oc "    \"differential_mismatches\": %d,\n" d.d_mismatches;
  Printf.fprintf oc "    \"delta_calls\": %d,\n" d.d_deltas;
  Printf.fprintf oc "    \"summary_nodes_reused\": %d\n" d.d_kept_nodes;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"gates\": {\n";
  Printf.fprintf oc "    \"parse_speedup_ge_3\": %b,\n" gate_parse;
  Printf.fprintf oc "    \"traversal_identical\": %b,\n" gate_traversal;
  Printf.fprintf oc "    \"stream_above_floor\": %b,\n" gate_floor;
  Printf.fprintf oc "    \"delta_ge_10x\": %b,\n" gate_delta;
  Printf.fprintf oc "    \"differential_zero_mismatch\": %b\n" gate_diff;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  log "wrote BENCH_ingest.json";
  if not (gate_traversal && gate_floor && gate_diff) then exit 1

(* ------------------------------------------------------------------ *)
(* Cost-based optimizer closed loop: plan every workload query from    *)
(* the sketch's estimates (the xtwig optimize path), evaluate exactly  *)
(* under the default and the chosen branch orders, gate                *)
(* order-invariance (counts bit-equal) and record per-query            *)
(* order/cost/wall-time to BENCH_optimize.json — the end-to-end demo   *)
(* that estimator accuracy buys execution speed, not just error        *)
(* numbers.                                                            *)

let opt_reps = env_int "XTWIG_OPT_REPS" 3 ~valid:(at_least 1)
let opt_queries_n = env_int "XTWIG_OPT_QUERIES" 60 ~valid:(at_least 1)

type opt_query = {
  oq_twig : string;
  oq_orders : string;  (** semicolon-joined [node:i,j,...] tokens *)
  oq_cost : float;
  oq_default_cost : float;
  oq_changed : bool;
  oq_count : int;
  oq_match : bool;
  oq_plan_s : float;
  oq_wall_default_s : float;
  oq_wall_opt_s : float;
}

type opt_result = {
  o_dataset : string;
  o_queries : opt_query list;
  o_mismatches : int;
  o_changed : int;
  o_wall_default_s : float;
  o_wall_opt_s : float;
  o_plan_s : float;
}

let optimize_one name =
  let doc = Lazy.force (dataset name).doc in
  let t0 = now () in
  let sk = par_build doc in
  log "%s: sketch built in %.1fs (%d bytes)" name (now () -. t0)
    (Sketch.size_bytes sk);
  let queries =
    Wgen.generate
      { Wgen.paper_pv with Wgen.n_queries = opt_queries_n }
      (Prng.create 23) doc
  in
  let best_of f =
    let best = ref infinity and out = ref 0 in
    for _ = 1 to opt_reps do
      let t0 = now () in
      out := f ();
      best := Float.min !best (now () -. t0)
    done;
    (!out, !best)
  in
  let rows =
    List.map
      (fun q ->
        let t0 = now () in
        let plan = Xtwig.optimize sk q in
        let plan_s = now () -. t0 in
        let n_def, s_def = best_of (fun () -> Xtwig_eval.Eval_twig.selectivity doc q) in
        let n_opt, s_opt =
          best_of (fun () -> Xtwig.selectivity_ordered doc plan q)
        in
        let orders =
          String.concat ";"
            (List.filter_map
               (fun (tn, perm) ->
                 if Array.length perm >= 2 then
                   Some
                     (Printf.sprintf "%d:%s" tn
                        (String.concat ","
                           (Array.to_list (Array.map string_of_int perm))))
                 else None)
               (Array.to_list
                  (Array.mapi (fun i p -> (i, p)) plan.Xtwig.Opt.orders)))
        in
        {
          oq_twig = Path_printer.twig_to_string q;
          oq_orders = orders;
          oq_cost = plan.Xtwig.Opt.cost;
          oq_default_cost = plan.Xtwig.Opt.default_cost;
          oq_changed = plan.Xtwig.Opt.changed;
          oq_count = n_def;
          oq_match = n_def = n_opt;
          oq_plan_s = plan_s;
          oq_wall_default_s = s_def;
          oq_wall_opt_s = s_opt;
        })
      queries
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  {
    o_dataset = name;
    o_queries = rows;
    o_mismatches = List.length (List.filter (fun r -> not r.oq_match) rows);
    o_changed = List.length (List.filter (fun r -> r.oq_changed) rows);
    o_wall_default_s = sum (fun r -> r.oq_wall_default_s);
    o_wall_opt_s = sum (fun r -> r.oq_wall_opt_s);
    o_plan_s = sum (fun r -> r.oq_plan_s);
  }

(* the headline counts planning: default-order wall time over planning
   plus optimized-order wall time; the execute-only ratio rides along *)
let speedup r = r.o_wall_default_s /. Stdlib.max 1e-9 (r.o_plan_s +. r.o_wall_opt_s)
let execute_speedup r = r.o_wall_default_s /. Stdlib.max 1e-9 r.o_wall_opt_s

let optimize_bench () =
  print_header "Cost-based branch ordering (estimator-costed vs default order)";
  log "queries: %d (XTWIG_OPT_QUERIES), reps: %d (XTWIG_OPT_REPS)" opt_queries_n
    opt_reps;
  let results = List.map optimize_one [ "IMDB"; "XMark" ] in
  print_row "%-8s %8s %9s %9s %11s %16s %16s %9s %9s" "" "queries" "reordered"
    "mismatch" "plan (s)" "wall default (s)" "wall optimized" "speedup"
    "execute";
  List.iter
    (fun r ->
      print_row "%-8s %8d %9d %9d %11.4f %16.4f %16.4f %9.2f %9.2f" r.o_dataset
        (List.length r.o_queries) r.o_changed r.o_mismatches r.o_plan_s
        r.o_wall_default_s r.o_wall_opt_s (speedup r) (execute_speedup r))
    results;
  (* a dataset where planning costs more than reordering saves is
     reported as such, in the table's notes and in the artifact *)
  let notes =
    List.filter_map
      (fun r ->
        if speedup r >= 1.0 then None
        else
          Some
            (Printf.sprintf
               "%s: below 1.0 end to end (%.2fx): planning (%.4f s) costs more \
                than the reordered execution saves (%.4f s)"
               r.o_dataset (speedup r) r.o_plan_s
               (r.o_wall_default_s -. r.o_wall_opt_s)))
      results
  in
  List.iter (print_row "note: %s") notes;
  let gate_invariance = List.for_all (fun r -> r.o_mismatches = 0) results in
  let gate_speedup =
    List.exists (fun r -> r.o_wall_opt_s < r.o_wall_default_s) results
  in
  let gate_reordered = List.exists (fun r -> r.o_changed > 0) results in
  List.iter
    (fun (name, pass) ->
      print_row "%-44s %12s" name (if pass then "PASS" else "FAIL"))
    [
      ("gate: order-invariance mismatches = 0", gate_invariance);
      ("gate: optimized order beats default somewhere", gate_speedup);
      ("gate: at least one plan reorders", gate_reordered);
    ];
  let oc = open_out "BENCH_optimize.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"optimize\",\n";
  fprint_provenance oc;
  Printf.fprintf oc "  \"scale\": %g,\n" scale;
  Printf.fprintf oc "  \"reps\": %d,\n" opt_reps;
  Printf.fprintf oc "  \"datasets\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    {\n";
      Printf.fprintf oc "      \"dataset\": %S,\n" r.o_dataset;
      Printf.fprintf oc "      \"queries\": %d,\n" (List.length r.o_queries);
      Printf.fprintf oc "      \"reordered\": %d,\n" r.o_changed;
      Printf.fprintf oc "      \"mismatches\": %d,\n" r.o_mismatches;
      Printf.fprintf oc "      \"plan_wall_s\": %.6f,\n" r.o_plan_s;
      Printf.fprintf oc "      \"wall_default_s\": %.6f,\n" r.o_wall_default_s;
      Printf.fprintf oc "      \"wall_optimized_s\": %.6f,\n" r.o_wall_opt_s;
      Printf.fprintf oc "      \"speedup\": %.3f,\n" (speedup r);
      Printf.fprintf oc "      \"execute_speedup\": %.3f,\n" (execute_speedup r);
      Printf.fprintf oc "      \"per_query\": [\n";
      let nq = List.length r.o_queries in
      List.iteri
        (fun j q ->
          Printf.fprintf oc "        {\n";
          Printf.fprintf oc "          \"twig\": %S,\n" q.oq_twig;
          Printf.fprintf oc "          \"orders\": %S,\n" q.oq_orders;
          Printf.fprintf oc "          \"est_cost\": %.6g,\n" q.oq_cost;
          Printf.fprintf oc "          \"est_cost_default\": %.6g,\n"
            q.oq_default_cost;
          Printf.fprintf oc "          \"changed\": %b,\n" q.oq_changed;
          Printf.fprintf oc "          \"count\": %d,\n" q.oq_count;
          Printf.fprintf oc "          \"count_match\": %b,\n" q.oq_match;
          Printf.fprintf oc "          \"plan_s\": %.6f,\n" q.oq_plan_s;
          Printf.fprintf oc "          \"wall_default_s\": %.6f,\n"
            q.oq_wall_default_s;
          Printf.fprintf oc "          \"wall_optimized_s\": %.6f\n"
            q.oq_wall_opt_s;
          Printf.fprintf oc "        }%s\n" (if j = nq - 1 then "" else ","))
        r.o_queries;
      Printf.fprintf oc "      ]\n";
      Printf.fprintf oc "    }%s\n"
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"notes\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") notes));
  Printf.fprintf oc "  \"gates\": {\n";
  Printf.fprintf oc "    \"order_invariance_zero_mismatch\": %b,\n"
    gate_invariance;
  Printf.fprintf oc "    \"optimized_beats_default_somewhere\": %b,\n"
    gate_speedup;
  Printf.fprintf oc "    \"some_plan_reorders\": %b\n" gate_reordered;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  log "wrote BENCH_optimize.json";
  if not gate_invariance then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)

let micro () =
  let open Bechamel in
  print_header "Micro-benchmarks (bechamel, monotonic clock)";
  let imdb = Lazy.force (dataset "imdb").doc in
  let coarse = Sketch.default_of_doc imdb in
  let q =
    match
      Xtwig_path.Path_parser.parse_twig_res
        "for t0 in //movie, t1 in t0/actor, t2 in t0/producer, t3 in t0/keyword"
    with
    | Ok t -> t
    | Error e -> failwith (Xtwig_util.Xerror.to_string e)
  in
  let small = Xtwig_datagen.Imdb.generate ~scale:0.02 () in
  let cst = Cst.build imdb in
  let tests =
    [
      (* Table 1: dataset statistics = coarsest synopsis construction *)
      Test.make ~name:"table1-coarsest-synopsis"
        (Staged.stage (fun () -> ignore (Sketch.default_of_doc small)));
      (* Table 2: workload truth = exact twig evaluation *)
      Test.make ~name:"table2-exact-selectivity"
        (Staged.stage (fun () -> ignore (Xtwig_eval.Eval_twig.selectivity imdb q)));
      (* Figures 9(a,b): XSKETCH estimation *)
      Test.make ~name:"fig9ab-xsketch-estimate"
        (Staged.stage (fun () -> ignore (Est.estimate coarse q)));
      (* Figure 9(c): CST estimation *)
      Test.make ~name:"fig9c-cst-estimate"
        (Staged.stage (fun () -> ignore (Cst.estimate cst q)));
      (* One XBUILD scoring step: apply + score a full candidate pool *)
      (let step_sk = Sketch.default_of_doc small in
       let step_truth = truth_oracle small in
       let step_queries =
         Wgen.generate { Wgen.paper_p with Wgen.n_queries = 14 }
           (Prng.create 23) small
       in
       List.iter (fun sq -> ignore (step_truth sq)) step_queries;
       let step_pool =
         Xtwig_sketch.Refinement.gen_candidates ~count:8 step_sk
           (Prng.create 29)
       in
       Test.make ~name:"xbuild-step-score-candidates"
         (Staged.stage (fun () ->
              List.iter
                (fun op ->
                  let refined = Xtwig_sketch.Refinement.apply step_sk op in
                  ignore
                    (Xbuild.workload_error refined ~truth:step_truth
                       step_queries))
                step_pool)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> print_row "%-32s %12.2f ns/run" name t
          | _ -> print_row "%-32s %12s" name "(no estimate)")
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

let all () =
  table1 ();
  table2 ();
  fig9a ();
  fig9b ();
  fig9c ();
  singlepath ();
  negative ();
  ablation ();
  micro ()

let () =
  let t0 = now () in
  (* [mode] [--trace FILE] in either order; mode defaults to "all" *)
  let cmd, trace_file =
    let mode = ref None and trace = ref None in
    let i = ref 1 in
    let n = Array.length Sys.argv in
    while !i < n do
      (match Sys.argv.(!i) with
      | "--trace" when !i + 1 < n ->
          incr i;
          trace := Some Sys.argv.(!i)
      | "--trace" ->
          prerr_endline "--trace requires a FILE argument";
          exit 1
      | m -> mode := Some m);
      incr i
    done;
    (Option.value ~default:"all" !mode, !trace)
  in
  if trace_file <> None then Trace.enable ();
  let m0 = Metrics.snapshot () in
  (match cmd with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "fig9a" -> fig9a ()
  | "fig9b" -> fig9b ()
  | "fig9c" -> fig9c ()
  | "singlepath" -> singlepath ()
  | "negative" -> negative ()
  | "ablation" -> ablation ()
  | "micro" -> micro ()
  | "xbuild" -> xbuild_bench ()
  | "fault-audit" -> fault_audit ()
  | "scaling" -> scaling_bench ()
  | "ingest" -> ingest ()
  | "optimize" -> optimize_bench ()
  | "serve" -> Serve_bench.run ()
  | "all" -> all ()
  | other ->
      Printf.eprintf
        "unknown benchmark %S (expected \
         table1|table2|fig9a|fig9b|fig9c|singlepath|negative|ablation|micro|\
         xbuild|fault-audit|scaling|ingest|optimize|serve|all)\n"
        other;
      exit 1);
  (match trace_file with
  | Some path ->
      Trace.dump path;
      let dropped = Trace.dropped () in
      if dropped > 0 then log "trace buffer full: dropped %d events" dropped;
      log "wrote %s" path
  | None -> ());
  write_metrics_json ~since:m0 "BENCH_metrics.json";
  report_metrics ~since:m0;
  log "total wall time %.0fs" (now () -. t0)
