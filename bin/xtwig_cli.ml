(* The xtwig command-line tool: generate datasets, inspect documents,
   build Twig XSKETCH synopses and estimate twig queries.

     xtwig generate --dataset imdb --scale 0.1 -o imdb.xml
     xtwig inspect imdb.xml
     xtwig estimate imdb.xml "for t0 in //movie, t1 in t0/actor" --budget 8192
     xtwig estimate imdb.xml "..." --jobs 4 --sketch imdb.sketch
     xtwig estimate imdb.xml "..." --backend cst
     xtwig workload imdb.xml --queries 20 --kind pv
     xtwig compare imdb.xml --budget 8192 --queries 100
     xtwig bench-batch imdb.xml --queries 200 --jobs 4
     xtwig stats imdb.xml --tenant a=a.sketch --tenant b=b.sketch

   Estimation paths go through the public Xtwig facade (the same
   surface xtwigd serves); every failure funnels through
   Xtwig_util.Xerror and maps to a stable exit code: 0 = ok, 2 =
   usage, 3 = parse (document or query), 4 = io/sketch-format, 1 =
   engine/runtime. *)

open Cmdliner
module Doc = Xtwig_xml.Doc
module Sketch = Xtwig_sketch.Sketch
module Est = Xtwig_sketch.Estimator
module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng
module Pool = Xtwig_util.Pool
module Xerror = Xtwig_util.Xerror
module Engine = Xtwig_engine.Engine
module Fault = Xtwig_fault.Fault
module Metrics = Xtwig_obs.Metrics
module Trace = Xtwig_obs.Trace
module Accuracy = Xtwig_obs.Accuracy
module Slo = Xtwig_obs.Slo

let ( let* ) = Result.bind

(* Shared observability plumbing: [--trace FILE] records spans for the
   whole command and dumps Chrome trace-event JSON; [--metrics] prints
   a Prometheus-style snapshot of the command's activity to stderr.
   Both run in the [finally] path so failures still produce output. *)
let with_obs ~trace ~metrics body =
  (match trace with Some _ -> Trace.enable () | None -> ());
  let before = Metrics.snapshot () in
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | Some path ->
          Trace.dump path;
          Printf.eprintf "xtwig: wrote trace (%s)\n%!" path
      | None -> ());
      if metrics then
        prerr_string (Metrics.render (Metrics.diff before (Metrics.snapshot ()))))
    body

let load = Xtwig.doc_of_file

(* Every command body returns (unit, Xerror.t) result; this turns it
   into the documented exit code. *)
let code_of = function
  | Ok () -> 0
  | Error e ->
      Printf.eprintf "xtwig: %s\n" (Xerror.to_string e);
      Xerror.exit_code e

let build_sketch ?(quiet = false) ?(jobs = 1) doc ~budget ~seed =
  Xtwig.build_sketch ~budget ~seed ~jobs
    ~on_step:(fun ~step ~description ~size ->
      if not quiet then
        Printf.eprintf "step %3d: %-46s -> %d bytes\n%!" step description size)
    doc

(* ---------------- shared args ---------------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"XML document.")

let budget_arg =
  Arg.(value & opt int 8192 & info [ "budget" ] ~docv:"BYTES" ~doc:"Synopsis budget.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for candidate scoring and batch estimation \
           (1 = sequential; results are identical either way).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record trace spans for the whole command and write a Chrome \
           trace-event JSON dump to $(docv) (open in chrome://tracing or \
           ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print a Prometheus-style snapshot of the command's metrics \
           (counters, gauges, histograms) to stderr on exit.")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-spec" ] ~docv:"SPEC"
        ~doc:
          "Install a deterministic fault-injection scenario for the whole \
           command, e.g. 'seed=7;io.*:p0.01;engine.query:n3'. Overrides the \
           XTWIG_FAULT_SPEC environment variable. The injected-fault count \
           is reported on stderr at exit.")

(* Resolve --fault-spec (flag wins over XTWIG_FAULT_SPEC), install it
   around [body], and report what actually fired. Failures to parse
   are usage errors, not injection. *)
let with_fault spec body =
  let* installed =
    match spec with
    | Some s -> (
        match Fault.parse_spec s with
        | Ok sp -> Ok (Some sp)
        | Error e -> Error (Xerror.Usage ("--fault-spec: " ^ e)))
    | None -> (
        match Fault.env_spec () with
        | Ok sp -> Ok sp
        | Error e -> Error (Xerror.Usage ("XTWIG_FAULT_SPEC: " ^ e)))
  in
  match installed with
  | None -> body ()
  | Some sp ->
      Fault.install sp;
      Fun.protect
        ~finally:(fun () ->
          Printf.eprintf "xtwig: %d fault(s) injected under %S\n%!"
            (Fault.injected_count ())
            (Fault.spec_to_string sp);
          Fault.disable ())
        body

(* ---------------- generate ---------------- *)

let generate_cmd =
  let dataset =
    Arg.(
      required
      & opt (some (enum [ ("xmark", `Xmark); ("imdb", `Imdb); ("sprot", `Sprot) ])) None
      & info [ "dataset"; "d" ] ~docv:"NAME" ~doc:"Dataset: xmark, imdb or sprot.")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"Size multiplier.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output XML file.")
  in
  let run dataset scale seed output =
    code_of
      (let doc =
         match dataset with
         | `Xmark -> Xtwig_datagen.Xmark.generate ~seed ~scale ()
         | `Imdb -> Xtwig_datagen.Imdb.generate ~seed ~scale ()
         | `Sprot -> Xtwig_datagen.Sprot.generate ~seed ~scale ()
       in
       match Xtwig_xml.Xml_writer.to_file output doc with
       | () ->
           Printf.printf "wrote %s: %d elements\n" output (Doc.size doc);
           Ok ()
       | exception Sys_error msg -> Error (Xerror.Io msg))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic XML dataset.")
    Term.(const run $ dataset $ scale $ seed $ output)

(* ---------------- inspect ---------------- *)

let inspect_cmd =
  let run file =
    code_of
      (let* doc = load file in
       let syn = Xtwig_synopsis.Graph_synopsis.label_split doc in
       let coarse = Sketch.coarsest syn in
       Format.printf "%a@." Doc.pp_summary doc;
       Format.printf "text size: %.2f MB@."
         (float_of_int (Xtwig_xml.Xml_writer.text_size doc) /. 1_048_576.0);
       Format.printf "label-split synopsis: %d nodes, %d edges, coarsest sketch %d bytes@."
         (Xtwig_synopsis.Graph_synopsis.node_count syn)
         (Xtwig_synopsis.Graph_synopsis.edge_count syn)
         (Sketch.size_bytes coarse);
       Format.printf "@.%-20s %10s %8s@." "tag" "count" "depth";
       for t = 0 to Doc.tag_count doc - 1 do
         let nodes = Doc.nodes_with_tag doc t in
         if Array.length nodes > 0 then
           Format.printf "%-20s %10d %8d@." (Doc.tag_to_string doc t)
             (Array.length nodes)
             (Doc.depth doc nodes.(0))
       done;
       Ok ())
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show document and synopsis statistics.")
    Term.(const run $ file_arg)

(* ---------------- build ---------------- *)

let build_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .sketch file.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:
            "Print document statistics after the parse (node count, max \
             depth, text bytes, parse throughput) and XBUILD step progress \
             to stderr.")
  in
  let run file budget seed jobs output verbose trace metrics fault =
    code_of
      (with_obs ~trace ~metrics @@ fun () ->
       with_fault fault @@ fun () ->
       let t0 = Unix.gettimeofday () in
       let* doc = load file in
       let parse_s = Unix.gettimeofday () -. t0 in
       if verbose then begin
         let file_bytes =
           try (Unix.stat file).Unix.st_size with Unix.Unix_error _ -> 0
         in
         Printf.eprintf
           "parsed %s: %d nodes, max depth %d, %d text bytes, %.1f MB/s\n%!"
           file (Doc.size doc) (Doc.max_depth doc)
           (Xtwig_xml.Xml_writer.text_size doc)
           (if parse_s > 0.0 then
              float_of_int file_bytes /. 1_048_576.0 /. parse_s
            else 0.0)
       end;
       let* sketch = build_sketch ~quiet:(not verbose) ~jobs doc ~budget ~seed in
       let* () = Xtwig.save_sketch ~budget ~seed sketch output in
       Printf.printf "wrote %s: %d bytes of synopsis for %d elements\n" output
         (Sketch.size_bytes sketch) (Doc.size doc);
       Ok ())
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Run XBUILD on a document and persist the synopsis configuration.")
    Term.(
      const run $ file_arg $ budget_arg $ seed_arg $ jobs_arg $ output
      $ verbose $ trace_arg $ metrics_arg $ fault_arg)

(* ---------------- estimate ---------------- *)

let timeout_arg =
  Arg.(
    value & opt float 5.0
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-query deadline; on expiry the answer degrades to the coarse \
           label-split estimate.")

let estimate_cmd =
  let query =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:"Twig query, e.g. 'for t0 in //movie, t1 in t0/actor'.")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also compute the exact selectivity.")
  in
  let sketch_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "sketch" ] ~docv:"FILE"
          ~doc:"Reuse a synopsis saved by $(b,xtwig build) instead of rebuilding.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:
            "Also print the query's evaluation wall time, timeout-fallback \
             flag and trace id.")
  in
  let backend_arg =
    Arg.(
      value & opt string "xsketch"
      & info [ "backend" ] ~docv:"NAME"
          ~doc:
            "Estimator backend (see $(b,xtwig backends)): 'xsketch' (the \
             default; the compiled engine path, supports $(b,--sketch)) or \
             'cst'.")
  in
  let explain_flag =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the estimate's provenance: plan tier taken (cache_hit \
             when the session already had the query's plans or its \
             recorded answer, fresh_compile when this request compiled \
             them, backend on a non-XSKETCH backend), embedding count, \
             retries and fallback reason — the same record the xtwigd \
             $(b,explain) verb serves.")
  in
  let optimize_flag =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:
            "Also run the cost-based branch orderer and print its plan; \
             with $(b,--exact), the exact evaluation follows the optimized \
             order (the count is identical by construction).")
  in
  let run file query budget seed exact sketch_file backend jobs timeout verbose
      explain optimize trace metrics fault =
    code_of
      (with_obs ~trace ~metrics @@ fun () ->
       with_fault fault @@ fun () ->
       let* () = Engine.check_session_args ~jobs ~timeout_s:timeout () in
       let* doc = load file in
       let* q = Xtwig.twig_of_string query in
       let* engine, planner =
         match String.lowercase_ascii backend with
         | "xsketch" ->
             let* sk =
               match sketch_file with
               | Some path -> Xtwig.load_sketch doc path
               | None -> build_sketch ~quiet:true ~jobs doc ~budget ~seed
             in
             let* e = Xtwig.open_sketch_session ~jobs ~timeout_s:timeout sk in
             Ok (e, fun () -> Xtwig.optimize sk q)
         | name ->
             let* () =
               match sketch_file with
               | Some _ ->
                   Error (Xerror.Usage "--sketch applies only to --backend xsketch")
               | None -> Ok ()
             in
             let* inst = Xtwig.build_backend ~backend:name ~budget ~seed doc in
             let* e = Xtwig.open_backend_session ~jobs ~timeout_s:timeout inst in
             Ok (e, fun () -> Xtwig.optimize_backend inst q)
       in
       Fun.protect
         ~finally:(fun () -> Xtwig.close_session engine)
         (fun () ->
           let* a = Xtwig.estimate engine q in
           let st = Engine.stats engine in
           Format.printf "backend:  %s, synopsis %d bytes@." st.Engine.backend
             st.Engine.sketch_bytes;
           Format.printf "estimate: %.2f%s@." a.Engine.estimate
             (if a.Engine.fallback then "  (timeout: coarse fallback)" else "");
           if explain then begin
             let p = a.Engine.provenance in
             Format.printf "tier:     %s@." (Engine.tier_label p.Engine.pv_tier);
             Format.printf "embeddings: %d@." p.Engine.pv_embeddings;
             Format.printf "retries:  %d@." a.Engine.retries;
             Format.printf "fallback reason: %s@."
               (match a.Engine.reason with
               | None -> "-"
               | Some Engine.Timeout -> "timeout"
               | Some Engine.Fault -> "fault"
               | Some Engine.Circuit_open -> "circuit-open"
               | Some Engine.Guard -> "guard")
           end;
           if verbose then begin
             Format.printf "elapsed:  %.6f s@." a.Engine.elapsed_s;
             Format.printf "fallback: %b@." a.Engine.fallback;
             Format.printf "trace id: %d@." a.Engine.trace_id
           end;
           let plan = if optimize then Some (planner ()) else None in
           (match plan with
           | None -> ()
           | Some p ->
               List.iter
                 (fun l -> Format.printf "plan %s@." l)
                 (Xtwig.Opt.to_lines p));
           if exact then begin
             let n =
               match plan with
               | Some p -> Xtwig.selectivity_ordered doc p q
               | None -> Xtwig.selectivity doc q
             in
             Format.printf "exact:    %d@." n
           end;
           Ok ()))
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate a twig query's selectivity over a (built or loaded) synopsis.")
    Term.(
      const run $ file_arg $ query $ budget_arg $ seed_arg $ exact $ sketch_file
      $ backend_arg $ jobs_arg $ timeout_arg $ verbose $ explain_flag
      $ optimize_flag $ trace_arg $ metrics_arg $ fault_arg)

(* ---------------- optimize ---------------- *)

let optimize_cmd =
  let query =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY" ~doc:"Twig query to plan.")
  in
  let sketch_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "sketch" ] ~docv:"FILE"
          ~doc:"Reuse a synopsis saved by $(b,xtwig build) instead of rebuilding.")
  in
  let execute =
    Arg.(
      value & flag
      & info [ "execute" ]
          ~doc:
            "Evaluate the query exactly under both the default and the \
             optimized branch order and report wall times; the counts must \
             match bit for bit (they do by construction).")
  in
  let reps =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~docv:"N"
          ~doc:"Repetitions per order when $(b,--execute) times them (best-of).")
  in
  let run file query budget seed sketch_file jobs execute reps trace metrics
      fault =
    code_of
      (with_obs ~trace ~metrics @@ fun () ->
       with_fault fault @@ fun () ->
       let* doc = load file in
       let* q = Xtwig.twig_of_string query in
       let* sk =
         match sketch_file with
         | Some path -> Xtwig.load_sketch doc path
         | None -> build_sketch ~quiet:true ~jobs doc ~budget ~seed
       in
       let plan = Xtwig.optimize sk q in
       List.iter (fun l -> Format.printf "%s@." l) (Xtwig.Opt.to_lines plan);
       if not execute then Ok ()
       else begin
         let time f =
           let best = ref infinity in
           let out = ref 0 in
           for _ = 1 to max 1 reps do
             let t0 = Unix.gettimeofday () in
             out := f ();
             best := Float.min !best (Unix.gettimeofday () -. t0)
           done;
           (!out, !best)
         in
         let n_def, s_def = time (fun () -> Xtwig.selectivity doc q) in
         let n_opt, s_opt =
           time (fun () -> Xtwig.selectivity_ordered doc plan q)
         in
         Format.printf "exact %d@." n_def;
         Format.printf "wall_default %.6f s@." s_def;
         Format.printf "wall_optimized %.6f s@." s_opt;
         if n_def <> n_opt then
           Error
             (Xerror.Engine
                (Printf.sprintf "order-invariance violated: %d <> %d" n_def
                   n_opt))
         else Ok ()
       end)
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Plan a twig query's branch evaluation order from the synopsis's \
          cost estimates (the same plan the xtwigd $(b,optimize) verb \
          serves); optionally execute and time both orders.")
    Term.(
      const run $ file_arg $ query $ budget_arg $ seed_arg $ sketch_file
      $ jobs_arg $ execute $ reps $ trace_arg $ metrics_arg $ fault_arg)

(* ---------------- workload ---------------- *)

let workload_cmd =
  let n =
    Arg.(value & opt int 20 & info [ "queries"; "n" ] ~docv:"N" ~doc:"Query count.")
  in
  let kind =
    Arg.(
      value
      & opt (enum [ ("p", `P); ("pv", `Pv); ("simple", `Simple) ]) `P
      & info [ "kind" ] ~docv:"KIND" ~doc:"Workload kind: p, pv or simple.")
  in
  let run file n kind seed =
    code_of
      (let* doc = load file in
       let spec =
         match kind with
         | `P -> Wgen.paper_p
         | `Pv -> Wgen.paper_pv
         | `Simple -> Wgen.simple_paths
       in
       let qs = Wgen.generate { spec with Wgen.n_queries = n } (Prng.create seed) doc in
       List.iter
         (fun q ->
           Format.printf "%8d  %s@."
             (Xtwig_eval.Eval_twig.selectivity doc q)
             (Xtwig_path.Path_printer.twig_to_string q))
         qs;
       Ok ())
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Generate a positive twig workload with true selectivities.")
    Term.(const run $ file_arg $ n $ kind $ seed_arg)

(* ---------------- compare ---------------- *)

let compare_cmd =
  let n =
    Arg.(value & opt int 100 & info [ "queries"; "n" ] ~docv:"N" ~doc:"Query count.")
  in
  let run file budget n seed jobs =
    code_of
      (let* doc = load file in
       let qs =
         Wgen.generate { Wgen.paper_p with Wgen.n_queries = n } (Prng.create 99) doc
       in
       let truths =
         Array.of_list
           (List.map (fun q -> float_of_int (Xtwig_eval.Eval_twig.selectivity doc q)) qs)
       in
       let err name estimates =
         Format.printf "%-24s %.3f@." name
           (Xtwig_workload.Error_metric.average_error ~truths
              ~estimates:(Array.of_list estimates))
       in
       Format.printf "average absolute relative error on %d twig queries:@." n;
       let coarse = Sketch.default_of_doc doc in
       err "coarse xsketch" (List.map (fun q -> Est.estimate coarse q) qs);
       let* sketch = build_sketch ~quiet:true ~jobs doc ~budget ~seed in
       err
         (Printf.sprintf "xsketch (%d B)" (Sketch.size_bytes sketch))
         (List.map (fun q -> Est.estimate sketch q) qs);
       let cst = Xtwig_cst.Cst.build ~budget_bytes:budget doc in
       err
         (Printf.sprintf "cst (%d B)" (Xtwig_cst.Cst.size_bytes cst))
         (List.map (fun q -> Xtwig_cst.Cst.estimate cst q) qs);
       Ok ())
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare coarse/built XSKETCH and CST errors on a random workload.")
    Term.(const run $ file_arg $ budget_arg $ n $ seed_arg $ jobs_arg)

(* ---------------- bench-batch ---------------- *)

let bench_batch_cmd =
  let n =
    Arg.(value & opt int 200 & info [ "queries"; "n" ] ~docv:"N" ~doc:"Query count.")
  in
  let run file budget n seed jobs timeout trace metrics fault =
    code_of
      (with_obs ~trace ~metrics @@ fun () ->
       with_fault fault @@ fun () ->
       let* () = Engine.check_session_args ~jobs ~timeout_s:timeout () in
       let* doc = load file in
       let* () =
         if n < 1 then Error (Xerror.Usage "--queries must be >= 1") else Ok ()
       in
       let t0 = Unix.gettimeofday () in
       let* sk = build_sketch ~quiet:true ~jobs doc ~budget ~seed in
       let build_s = Unix.gettimeofday () -. t0 in
       let* engine = Xtwig.open_sketch_session ~jobs ~timeout_s:timeout sk in
       let* answers, wall, st, (compiles, hits, runs, compile_ns) =
         Fun.protect
           ~finally:(fun () -> Xtwig.close_session engine)
           (fun () ->
             let qs =
               Wgen.generate
                 { Wgen.paper_p with Wgen.n_queries = n }
                 (Prng.create 99) doc
             in
             (* the plan counters before the batch: building the
                sketch compiled and ran XBUILD's one-shot plans *)
             let cv key = Xtwig_util.Counters.(value (counter key)) in
             let c0 = cv "plan.compiles" and h0 = cv "plan.cache_hits" in
             let r0 = cv "plan.runs" and ns0 = cv "plan.compile_ns" in
             let t0 = Unix.gettimeofday () in
             let answers = Engine.estimate_batch engine qs in
             let wall = Unix.gettimeofday () -. t0 in
             let plans =
               ( cv "plan.compiles" - c0,
                 cv "plan.cache_hits" - h0,
                 cv "plan.runs" - r0,
                 cv "plan.compile_ns" - ns0 )
             in
             Result.map (fun a -> (a, wall, Engine.stats engine, plans)) answers)
       in
       let n_answers = List.length answers in
       Format.printf "engine: %d jobs, synopsis %d bytes (built in %.2fs)@."
         st.Engine.jobs st.Engine.sketch_bytes build_s;
       Format.printf "batch:  %d queries in %.3fs (%.0f queries/s), %d timeout(s)@."
         n_answers wall
         (float_of_int n_answers /. Float.max 1e-9 wall)
         st.Engine.timeouts;
       (* the batch's plans: every session compile is a distinct
          query's first sighting, and every sighting in this one batch
          runs its plans (answers are recorded only once a batch's jobs
          join; see DESIGN.md §12) *)
       Format.printf "plans:  %d compiled, %d cache hits, %d runs (compile %.1fms)@."
         compiles hits runs
         (float_of_int compile_ns /. 1e6);
       Ok ())
  in
  Cmd.v
    (Cmd.info "bench-batch"
       ~doc:
         "Build a synopsis, then serve a random twig workload through the \
          concurrent estimation engine and report throughput.")
    Term.(
      const run $ file_arg $ budget_arg $ n $ seed_arg $ jobs_arg $ timeout_arg
      $ trace_arg $ metrics_arg $ fault_arg)

(* ---------------- stats ---------------- *)

let stats_cmd =
  let n =
    Arg.(value & opt int 100 & info [ "queries"; "n" ] ~docv:"N" ~doc:"Query count.")
  in
  let sketch_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "sketch" ] ~docv:"FILE"
          ~doc:"Reuse a synopsis saved by $(b,xtwig build) instead of rebuilding.")
  in
  let tenants_arg =
    Arg.(
      value & opt_all string []
      & info [ "tenant" ] ~docv:"NAME=SKETCH"
          ~doc:
            "Serve the workload through a named session over the sketch file \
             $(i,SKETCH) (repeatable). With at least one $(b,--tenant) the \
             report is a per-tenant breakdown — each tenant gets its own \
             engine, accuracy percentiles and tenant-labelled metrics — \
             matching the xtwigd catalog model. Without it, one unnamed \
             session over $(b,--sketch) or a fresh build.")
  in
  (* one tenant's serve + report: answers, then the session counters
     and accuracy, all under the tenant's own metric labels; every
     answer is classified into the SLO tracker (full-fidelity vs
     degraded, over-p99-bound) under [tenant] *)
  let serve_tenant ~slo ~tenant engine qs truths sanity label =
    let before = Metrics.snapshot () in
    let* answers =
      match Xtwig.estimate_batch engine qs with
      | Ok answers -> Ok answers
      | Error e ->
          Slo.record slo ~tenant Slo.Failed;
          Error e
    in
    let acc = Accuracy.create ~sanity ~name:("xtwig.stats" ^ label) () in
    List.iteri
      (fun i (a : Engine.answer) ->
        Accuracy.observe acc ~truth:truths.(i) ~estimate:a.Engine.estimate;
        Slo.record slo ~tenant ~latency_s:a.Engine.elapsed_s
          (if a.Engine.fallback then Slo.Served_degraded else Slo.Served_ok))
      answers;
    let st = Engine.stats engine in
    Format.printf "synopsis: %d bytes (%s), %d jobs@." st.Engine.sketch_bytes
      st.Engine.backend st.Engine.jobs;
    Format.printf
      "queries:  %d (%d timeout(s), %d degraded, %d retries, %d breaker \
       trip(s), sanity bound %g)@."
      st.Engine.queries_served st.Engine.timeouts st.Engine.degraded
      st.Engine.retries st.Engine.breaker_trips sanity;
    (* per-query latency percentiles, read back from the batch's
       engine.query.seconds histogram delta *)
    (match
       Metrics.find
         (Metrics.diff before (Metrics.snapshot ()))
         "engine.query.seconds"
     with
    | Some (Metrics.Histogram h) when h.Metrics.count > 0 ->
        Format.printf "latency:  p50=%.2g s  p90=%.2g s  p99=%.2g s@."
          (Metrics.percentile_of h 50.0)
          (Metrics.percentile_of h 90.0)
          (Metrics.percentile_of h 99.0)
    | _ -> ());
    Format.printf "%s@." (Accuracy.report acc);
    Format.printf "%s@." (Slo.report_tenant slo tenant);
    Ok ()
  in
  let parse_tenant spec =
    match String.index_opt spec '=' with
    | Some i when i > 0 && i < String.length spec - 1 ->
        Ok
          ( String.sub spec 0 i,
            String.sub spec (i + 1) (String.length spec - i - 1) )
    | _ -> Error (Xerror.Usage ("--tenant expects NAME=SKETCH, got " ^ spec))
  in
  (* bare objectives ("p99:5ms") attach to the unnamed default
     session; NAME=... attaches to that --tenant *)
  let parse_slo spec =
    if String.contains spec '=' then
      Result.map_error (fun m -> Xerror.Usage m) (Slo.parse spec)
    else
      Result.map_error (fun m -> Xerror.Usage m) (Slo.parse ("default=" ^ spec))
  in
  let slo_arg =
    Arg.(
      value & opt_all string []
      & info [ "slo" ] ~docv:"TENANT=p99:5ms,err:0.1%"
          ~doc:
            "Attach an SLO objective ($(b,p99:)$(i,DURATION) and/or \
             $(b,err:)$(i,RATE)) to a $(b,--tenant) name, or — without the \
             $(i,TENANT=) prefix — to the unnamed default session. The \
             report gains outcome attribution (ok/degraded/failed/shed) and \
             the error-budget burn rate. Repeatable.")
  in
  let follow_arg =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Live-refresh mode: re-serve the workload and redraw the report \
             every $(b,--interval) seconds (Ctrl-C to stop; $(b,--rounds) \
             bounds the passes). SLO attribution and burn rate accumulate \
             across passes.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period for $(b,--follow).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 0
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Stop $(b,--follow) after $(i,N) passes (0 = until Ctrl-C).")
  in
  let run file budget seed jobs timeout n sketch_file tenants slos follow
      interval rounds trace metrics fault =
    code_of
      (with_obs ~trace ~metrics @@ fun () ->
       with_fault fault @@ fun () ->
       let* () = Engine.check_session_args ~jobs ~timeout_s:timeout () in
       let* doc = load file in
       let* () =
         if n < 1 then Error (Xerror.Usage "--queries must be >= 1") else Ok ()
       in
       let* declared =
         List.fold_left
           (fun acc spec ->
             let* l = acc in
             let* t = parse_slo spec in
             Ok (t :: l))
           (Ok []) slos
         |> Result.map List.rev
       in
       let slo = Slo.create declared in
       let qs =
         Wgen.generate { Wgen.paper_p with Wgen.n_queries = n } (Prng.create seed)
           doc
       in
       let truths =
         Array.of_list
           (List.map (fun q -> float_of_int (Xtwig.selectivity doc q)) qs)
       in
       let sanity = Xtwig_workload.Error_metric.sanity_bound truths in
       (* open every session up front so --follow re-serves through the
          same engines (session tables warm across passes) *)
       let* sessions =
         match tenants with
         | [] ->
             let* sk =
               match sketch_file with
               | Some path -> Xtwig.load_sketch doc path
               | None -> build_sketch ~quiet:true ~jobs doc ~budget ~seed
             in
             let* engine = Xtwig.open_sketch_session ~jobs ~timeout_s:timeout sk in
             Ok [ (None, "default", "", engine) ]
         | specs ->
             let* () =
               match sketch_file with
               | Some _ ->
                   Error (Xerror.Usage "--sketch and --tenant are exclusive")
               | None -> Ok ()
             in
             let* opened =
               List.fold_left
                 (fun acc spec ->
                   let* l = acc in
                   let* name, path = parse_tenant spec in
                   let* sk = Xtwig.load_sketch doc path in
                   let* engine =
                     Xtwig.open_sketch_session ~name ~jobs ~timeout_s:timeout sk
                   in
                   Ok ((Some (name, path), name, "." ^ name, engine) :: l))
                 (Ok []) specs
             in
             Ok (List.rev opened)
       in
       Fun.protect
         ~finally:(fun () ->
           List.iter (fun (_, _, _, engine) -> Xtwig.close_session engine) sessions)
         (fun () ->
           let serve_round () =
             List.fold_left
               (fun acc (header, tenant, label, engine) ->
                 let* () = acc in
                 (match header with
                 | Some (name, path) ->
                     Format.printf "@.tenant %s (%s):@." name path
                 | None -> ());
                 serve_tenant ~slo ~tenant engine qs truths sanity label)
               (Ok ()) sessions
           in
           if not follow then serve_round ()
           else begin
             (* live refresh: clear, redraw, sleep; Ctrl-C ends the
                loop cleanly instead of killing the process *)
             let stop = ref false in
             let prev =
               Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
             in
             Fun.protect
               ~finally:(fun () -> Sys.set_signal Sys.sigint prev)
               (fun () ->
                 let round = ref 0 in
                 let result = ref (Ok ()) in
                 while
                   (not !stop)
                   && Result.is_ok !result
                   && (rounds = 0 || !round < rounds)
                 do
                   incr round;
                   print_string "\027[H\027[2J";
                   Format.printf "xtwig stats --follow  round %d  (Ctrl-C to stop)@."
                     !round;
                   result := serve_round ();
                   Format.print_flush ();
                   if (not !stop) && Result.is_ok !result
                      && (rounds = 0 || !round < rounds)
                   then
                     try Unix.sleepf interval
                     with Unix.Unix_error (Unix.EINTR, _, _) -> ()
                 done;
                 !result)
           end))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Serve a random twig workload with known true counts and report \
          accuracy percentiles (p50/p90/p99 relative error), per-query \
          latency percentiles, engine counters and SLO attribution — per \
          tenant with repeated $(b,--tenant NAME=SKETCH), live with \
          $(b,--follow).")
    Term.(
      const run $ file_arg $ budget_arg $ seed_arg $ jobs_arg $ timeout_arg $ n
      $ sketch_file $ tenants_arg $ slo_arg $ follow_arg $ interval_arg
      $ rounds_arg $ trace_arg $ metrics_arg $ fault_arg)

(* ---------------- backends ---------------- *)

let backends_cmd =
  let run () =
    List.iter print_endline (Xtwig.backends ());
    0
  in
  Cmd.v
    (Cmd.info "backends"
       ~doc:"List the registered estimator backends ($(b,--backend) values).")
    Term.(const run $ const ())

let () =
  let doc = "Twig XSKETCH selectivity estimation for XML twig queries" in
  let info = Cmd.info "xtwig" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval' ~term_err:2
       (Cmd.group info
          [
            generate_cmd; inspect_cmd; build_cmd; estimate_cmd; optimize_cmd;
            workload_cmd; compare_cmd; bench_batch_cmd; stats_cmd;
            backends_cmd;
          ]))
