(* Compiled-plan tests: plans compiled against a sketch, and so every
   one-shot [Estimator.estimate], must be bit-identical to the
   recursive reference evaluator (test/estimate_reference.ml) —
   across datasets, P and P+V workloads and refinement budgets — and
   an engine session must compile and run each query once, then serve
   the recorded answer, correctly, also when its fills fail and
   retry. The per-domain compile scratch keeps a one-shot compile
   within an allocation bound and leaks nothing between queries,
   sketches, session batches or the systhreads of one domain. *)

module Sketch = Xtwig_sketch.Sketch
module Embed = Xtwig_sketch.Embed
module Est = Xtwig_sketch.Estimator
module Plan = Xtwig_sketch.Plan
module Xbuild = Xtwig_sketch.Xbuild
module Engine = Xtwig_engine.Engine
module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng
module Metrics = Xtwig_obs.Metrics
module Fault = Xtwig_fault.Fault
module Ref = Estimate_reference

(* a counter's current value, read through its registered cell *)
let counter name = Metrics.counter_value (Metrics.counter name)

let docs =
  lazy
    [
      ("imdb", Xtwig_datagen.Imdb.generate ~scale:0.03 ());
      ("xmark", Xtwig_datagen.Xmark.generate ~scale:0.03 ());
    ]

(* 15 structural (P) and 15 value-predicate (P+V) queries *)
let queries_of doc =
  Wgen.generate { Wgen.paper_p with Wgen.n_queries = 15 } (Prng.create 17) doc
  @ Wgen.generate { Wgen.paper_pv with Wgen.n_queries = 15 } (Prng.create 18) doc

(* An XBUILD run at [budget_mult] x the coarsest size: exercises plans
   over sketches that mix refined histograms, expanded dimensions,
   value summaries and structural splits. *)
let build_refined doc ~budget_mult =
  let truth q = float_of_int (Xtwig_eval.Eval_twig.selectivity doc q) in
  let workload prng ~focus =
    Wgen.generate ~focus { Wgen.paper_p with Wgen.n_queries = 8 } prng doc
  in
  let budget = Sketch.size_bytes (Sketch.default_of_doc doc) * budget_mult in
  Xbuild.build ~seed:5 ~candidates:4 ~max_steps:12 ~workload ~truth ~budget doc

(* the build is deterministic and a sketch immutable, so the suites
   share one build per document and budget *)
let refined_memo = ref []

let refined doc ~budget_mult =
  match List.find_opt (fun (d, m, _) -> d == doc && m = budget_mult) !refined_memo with
  | Some (_, _, sk) -> sk
  | None ->
      let sk = build_refined doc ~budget_mult in
      refined_memo := (doc, budget_mult, sk) :: !refined_memo;
      sk

(* a query's estimate through plans compiled together and kept, summed
   in enumeration order like the evaluator's fold *)
let compiled_estimate sk q =
  Array.fold_left
    (fun acc p -> acc +. Plan.run p)
    0.0
    (Plan.compile_roots sk (Embed.embeddings (Sketch.synopsis sk) q))

let open_session sk =
  match Engine.of_sketch ~retries:50 ~backoff_s:0.0 sk with
  | Ok e -> e
  | Error e -> Alcotest.fail (Xtwig_util.Xerror.to_string e)

let session_estimate eng q =
  match Engine.estimate eng q with
  | Ok a -> a
  | Error e -> Alcotest.fail (Xtwig_util.Xerror.to_string e)

(* 1. Compiled estimates are bit-equal to the recursive evaluator on
   every dataset, at every refinement budget, for every query: both
   the plans of one query compiled together and kept, and the one-shot
   estimate, which compiles, runs and drops them one at a time. *)
let test_compiled_equals_reference () =
  List.iter
    (fun (name, doc) ->
      let queries = queries_of doc in
      let sketches =
        ("coarsest", Sketch.default_of_doc doc)
        :: List.map
             (fun m -> (Printf.sprintf "budget x%d" m, refined doc ~budget_mult:m))
             [ 2; 4; 8 ]
      in
      List.iter
        (fun (sname, sk) ->
          List.iteri
            (fun i q ->
              let expected = Ref.estimate sk q in
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s/%s: q%d compiled" name sname i)
                expected (compiled_estimate sk q);
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s/%s: q%d one-shot" name sname i)
                expected (Est.estimate sk q))
            queries)
        sketches)
    (Lazy.force docs)

(* 2. A session compiles a query on its first sighting only: the
   second estimate of every query is one table hit and nothing else
   (no enumeration, no compile, no miss, and no plan run: the first
   sighting's answer was recorded), reports the cache_hit tier with
   the cold call's embedding count and 0 ns compiling and running,
   and returns the first answer bit for bit — both equal to the
   evaluator. *)
let test_plan_cache_hits () =
  let _, doc = List.hd (Lazy.force docs) in
  let sk = refined doc ~budget_mult:4 in
  let eng = open_session sk in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  let bits = Int64.bits_of_float in
  let embedded = ref 0 in
  List.iteri
    (fun i q ->
      let expected = Ref.estimate sk q in
      let cold = session_estimate eng q in
      let c0 = counter "plan.compiles" in
      let h0 = counter "plan.cache_hits" in
      let e0 = counter "embed.ns" and m0 = counter "plan.cache_misses" in
      let r0 = counter "plan.runs" and rn0 = counter "plan.run_ns" in
      let warm = session_estimate eng q in
      let pv = warm.Engine.provenance in
      let n = cold.Engine.provenance.Engine.pv_embeddings in
      if n > 0 then incr embedded;
      Alcotest.(check int64)
        (Printf.sprintf "cold estimate: q%d" i)
        (bits expected) (bits cold.Engine.estimate);
      Alcotest.(check int64)
        (Printf.sprintf "warm estimate: q%d" i)
        (bits expected) (bits warm.Engine.estimate);
      Alcotest.(check int)
        (Printf.sprintf "second sighting compiles nothing: q%d" i)
        0
        (counter "plan.compiles" - c0);
      Alcotest.(check int)
        (Printf.sprintf "second sighting hits the cache: q%d" i)
        1
        (counter "plan.cache_hits" - h0);
      Alcotest.(check int)
        (Printf.sprintf "second sighting enumerates nothing: q%d" i)
        e0 (counter "embed.ns");
      Alcotest.(check int)
        (Printf.sprintf "second sighting misses nothing: q%d" i)
        m0
        (counter "plan.cache_misses");
      Alcotest.(check (pair int int))
        (Printf.sprintf "second sighting runs no plan: q%d" i)
        (r0, rn0)
        (counter "plan.runs", counter "plan.run_ns");
      Alcotest.(check string)
        (Printf.sprintf "second sighting tier: q%d" i)
        "cache_hit"
        (Engine.tier_label pv.Engine.pv_tier);
      Alcotest.(check (triple int int int))
        (Printf.sprintf "second sighting embeddings, compile and run ns: q%d" i)
        (n, 0, 0)
        (pv.Engine.pv_embeddings, pv.Engine.pv_compile_ns, pv.Engine.pv_run_ns))
    (queries_of doc);
  Alcotest.(check bool) "some query has embeddings" true (!embedded > 0)

(* 3. The interpreter is a zero-allocation kernel: once the per-domain
   arena has grown to the largest plan, a [run_batch] over every plan
   of every query allocates zero minor words — no closures, no float
   boxing, no scratch arrays. ([Gc.minor_words] itself is [@@noalloc]
   with an unboxed float return, and the samples are stored straight
   into a preallocated float array, so the measurement does not
   perturb the measured.) *)
let test_run_batch_zero_alloc () =
  let _, doc = List.hd (Lazy.force docs) in
  let sk = refined doc ~budget_mult:4 in
  let syn = Sketch.synopsis sk in
  let queries = queries_of doc in
  let per_query =
    List.map
      (fun q -> Plan.compile_roots sk (Embed.embeddings syn q))
      queries
  in
  let plans = Array.concat per_query in
  Alcotest.(check bool) "some plans to run" true (Array.length plans > 0);
  let out = Array.make (Array.length plans) 0.0 in
  let words = Array.make 2 0.0 in
  (* warm-up: grows the arena and faults in the code paths *)
  Plan.run_batch plans out;
  words.(0) <- Gc.minor_words ();
  Plan.run_batch plans out;
  words.(1) <- Gc.minor_words ();
  Alcotest.(check (float 0.0))
    "steady-state run_batch allocates zero minor words" 0.0
    (words.(1) -. words.(0));
  (* and the batch results are the evaluator's estimates *)
  let off = ref 0 in
  List.iteri
    (fun i q ->
      let n = Array.length (List.nth per_query i) in
      let sum = ref 0.0 in
      for j = !off to !off + n - 1 do
        sum := !sum +. out.(j)
      done;
      off := !off + n;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "batch sum equals evaluator: q%d" i)
        (Ref.estimate sk q) !sum)
    queries

(* 4. Differential under injected faults, through engine sessions:
   when plan and embedding fills fail intermittently, the session
   retries them, and every answer is still bit-equal to the
   evaluator — a failed fill never leaves a half-filled entry behind,
   so once injection stops every query is a cache hit with the same
   answer. A second session over a refined sketch compiles its own
   plans under the same storm and converges to that sketch's
   estimates. *)
let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_plan_fill_faults_retry_differential () =
  Fun.protect ~finally:Fault.disable @@ fun () ->
  let _, doc = List.hd (Lazy.force docs) in
  let queries = queries_of doc in
  let install spec =
    match Fault.parse_spec spec with
    | Error e -> Alcotest.fail ("bad spec: " ^ e)
    | Ok sp -> Fault.install sp
  in
  let storm ~label sk spec =
    let eng = open_session sk in
    Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
    install spec;
    let expected = List.map (Ref.estimate sk) queries in
    List.iteri
      (fun i q ->
        let a = session_estimate eng q in
        Alcotest.(check bool)
          (Printf.sprintf "%s: q%d answered, not degraded" label i)
          false a.Engine.fallback;
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s: retried fill q%d" label i)
          (List.nth expected i) a.Engine.estimate)
      queries;
    Alcotest.(check bool)
      (label ^ ": the scenario actually fired")
      true
      (Fault.injected_count () > 0);
    (* every fill point the scenario names fired on a session miss *)
    List.iter
      (fun point ->
        if contains spec point then
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s fired" label point)
            true
            (List.exists (fun (p, _, _) -> p = point) (Fault.log ())))
      [ "embed.fill"; "plan.fill" ];
    Fault.disable ();
    let c0 = counter "plan.compiles" in
    List.iteri
      (fun i q ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s: post-storm cache q%d" label i)
          (List.nth expected i)
          (session_estimate eng q).Engine.estimate)
      queries;
    Alcotest.(check int)
      (label ^ ": every warm entry survived the storm")
      0
      (counter "plan.compiles" - c0)
  in
  storm ~label:"coarsest" (Sketch.default_of_doc doc)
    "seed=11;plan.fill:p0.5;embed.fill:p0.3";
  storm ~label:"refined" (refined doc ~budget_mult:4) "seed=12;plan.fill:p0.5"

(* 5. A guarded query's entry keeps its guard facts and no plans: its
   later sightings degrade with [Guard] without enumerating again —
   the [embed.fill] point every enumeration passes is never reached —
   and hit the table, which compiles only on a miss. (The degraded
   answer itself is the coarse sketch's one-shot estimate, which
   enumerates against the coarse synopsis and compiles outside the
   table.) *)
let test_guarded_entry_skips_enumeration () =
  Fun.protect ~finally:Fault.disable @@ fun () ->
  let _, doc = List.hd (Lazy.force docs) in
  let sk = Sketch.default_of_doc doc in
  List.iter
    (fun (label, open_guarded) ->
      let eng =
        match open_guarded sk with
        | Ok e -> e
        | Error e -> Alcotest.fail (Xtwig_util.Xerror.to_string e)
      in
      Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
      let q = List.hd (queries_of doc) in
      let guard () =
        Alcotest.(check bool) (label ^ ": Guard") true
          ((session_estimate eng q).Engine.reason = Some Engine.Guard)
      in
      guard ();
      (match Fault.parse_spec "embed.fill:always" with
      | Ok sp -> Fault.install sp
      | Error e -> Alcotest.fail e);
      let m0 = counter "plan.cache_misses" in
      guard ();
      guard ();
      Alcotest.(check int) (label ^ ": no enumeration") 0 (Fault.injected_count ());
      Alcotest.(check int) (label ^ ": no table miss") m0
        (counter "plan.cache_misses");
      Fault.disable ())
    [
      ("embeddings", fun sk -> Engine.of_sketch ~max_embeddings:0 sk);
      ("nodes", fun sk -> Engine.of_sketch ~max_embed_nodes:0 sk);
    ]

(* 6. A [plan.fill] that raises is retried without enumerating again:
   the retry reuses the enumeration, so the scenario's second
   [embed.fill] arrival never comes. *)
let test_plan_fill_retry_reuses_enumeration () =
  Fun.protect ~finally:Fault.disable @@ fun () ->
  let _, doc = List.hd (Lazy.force docs) in
  let sk = Sketch.default_of_doc doc in
  let q = List.hd (queries_of doc) in
  let eng = open_session sk in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  (match Fault.parse_spec "plan.fill:n1;embed.fill:n2" with
  | Ok sp -> Fault.install sp
  | Error e -> Alcotest.fail e);
  let a = session_estimate eng q in
  Alcotest.(check bool) "answered" false a.Engine.fallback;
  Alcotest.(check int) "one retry" 1 a.Engine.retries;
  Alcotest.(check (float 0.0)) "value" (Ref.estimate sk q) a.Engine.estimate;
  Alcotest.(check (list string)) "only plan.fill fired" [ "plan.fill" ]
    (List.map (fun (p, _, _) -> p) (Fault.log ()))

let bits = Int64.bits_of_float

let pv_queries doc ~n ~seed =
  Wgen.generate { Wgen.paper_pv with Wgen.n_queries = n } (Prng.create seed) doc

(* a 5-element movie grafted under the document root *)
let insert_movie sk =
  let fragment =
    match
      Xtwig_xml.Xml_parser.parse_string_res
        "<movie><title>Delta</title><year>1999</year><actor>A</actor>\
         <actor>B</actor><producer>P</producer></movie>"
    with
    | Ok d -> d
    | Error e -> Alcotest.fail (Xtwig_util.Xerror.to_string e)
  in
  Sketch.Insert { parent = Xtwig_xml.Doc.root (Sketch.doc sk); fragment }

(* 7. A one-shot estimate compiles each embedding into its domain's
   borrowed scratch and runs it there: in steady state,
   [Plan.estimate_roots] over the precomputed embeddings of 200 P+V
   queries allocates at most 250 minor words per plan (the few boxed
   floats the sketch's accessors return and the plan's header), and
   every estimate is the evaluator's. *)
let test_one_shot_alloc_bound () =
  let _, doc = List.hd (Lazy.force docs) in
  let sk = refined doc ~budget_mult:4 in
  let syn = Sketch.synopsis sk in
  let qs = Array.of_list (pv_queries doc ~n:200 ~seed:19) in
  let embs = Array.map (Embed.embeddings syn) qs in
  let plans = Array.fold_left (fun n e -> n + List.length e) 0 embs in
  Alcotest.(check bool) "at least 200 queries" true (Array.length qs >= 200);
  Alcotest.(check bool) "some plans" true (plans > 0);
  let out = Array.make (Array.length embs) 0.0 in
  let pass () =
    for i = 0 to Array.length embs - 1 do
      out.(i) <- Plan.estimate_roots sk embs.(i)
    done
  in
  (* warm-up: grows the scratch to the largest plan *)
  pass ();
  let words = Array.make 2 0.0 in
  words.(0) <- Gc.minor_words ();
  pass ();
  words.(1) <- Gc.minor_words ();
  let per_plan = (words.(1) -. words.(0)) /. float_of_int plans in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per one-shot plan <= 250" per_plan)
    true (per_plan <= 250.0);
  Array.iteri
    (fun i q ->
      Alcotest.(check int64)
        (Printf.sprintf "one-shot equals evaluator: q%d" i)
        (bits (Ref.estimate sk q)) (bits out.(i)))
    qs

(* 8. Nothing leaks from one query or sketch into the next: one-shot
   estimates interleaved query by query across IMDB, XMark, the IMDB
   sketch after an insert and IMDB again are each bit-equal to the
   evaluator, and the optimizer, costing both sketches' pools in turn,
   plans exactly what an uninterleaved pass planned, without a
   fallback. (The optimizer memoizes per sketch, so the interleaved
   pass runs over fresh builds of the same sketches.) *)
let test_cross_sketch_one_shot () =
  let imdb, xmark =
    match Lazy.force docs with
    | [ (_, a); (_, b) ] -> (a, b)
    | _ -> Alcotest.fail "two documents"
  in
  let sk_i = refined imdb ~budget_mult:4 and sk_x = refined xmark ~budget_mult:4 in
  let sk_d = Sketch.apply_delta sk_i (insert_movie sk_i) in
  let qi = Array.of_list (pv_queries imdb ~n:40 ~seed:21) in
  let qx = Array.of_list (pv_queries xmark ~n:40 ~seed:22) in
  let n = Stdlib.min (Array.length qi) (Array.length qx) in
  let rounds =
    [ ("imdb", sk_i, qi); ("xmark", sk_x, qx); ("imdb+insert", sk_d, qi); ("imdb again", sk_i, qi) ]
  in
  for k = 0 to n - 1 do
    List.iter
      (fun (label, sk, qs) ->
        Alcotest.(check int64)
          (Printf.sprintf "%s: q%d one-shot equals evaluator" label k)
          (bits (Ref.estimate sk qs.(k)))
          (bits (Est.estimate sk qs.(k))))
      rounds
  done;
  let f0 = counter "opt.fallbacks" in
  let first_i = Array.map (Xtwig.optimize sk_i) qi in
  let first_x = Array.map (Xtwig.optimize sk_x) qx in
  let sk_i' = build_refined imdb ~budget_mult:4 and sk_x' = build_refined xmark ~budget_mult:4 in
  for k = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "imdb: q%d plan unchanged when interleaved" k)
      true
      (compare (Xtwig.optimize sk_i' qi.(k)) first_i.(k) = 0);
    Alcotest.(check bool)
      (Printf.sprintf "xmark: q%d plan unchanged when interleaved" k)
      true
      (compare (Xtwig.optimize sk_x' qx.(k)) first_x.(k) = 0)
  done;
  Alcotest.(check int) "no optimizer fallback" f0 (counter "opt.fallbacks")

(* 9. A session batch holds every query's plans until the join: a
   batch of 60 P+V queries, one of them twice, answers each query
   bit for bit as the one-shot estimate does, cold and recorded, before
   and after an [Engine.update] swaps the sketch. *)
let test_session_batch_matches_one_shot () =
  let _, doc = List.hd (Lazy.force docs) in
  let qs = pv_queries doc ~n:59 ~seed:23 in
  let batch = List.filteri (fun i _ -> i < 30) qs @ (List.nth qs 7 :: List.filteri (fun i _ -> i >= 30) qs) in
  let eng = open_session (refined doc ~budget_mult:4) in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  let check_batch label =
    let sk = Engine.sketch eng in
    let answers =
      match Engine.estimate_batch eng batch with
      | Ok a -> a
      | Error e -> Alcotest.fail (Xtwig_util.Xerror.to_string e)
    in
    List.iteri
      (fun i (q, (a : Engine.answer)) ->
        Alcotest.(check bool) (Printf.sprintf "%s: q%d not degraded" label i) false a.Engine.fallback;
        Alcotest.(check int64)
          (Printf.sprintf "%s: q%d equals one-shot" label i)
          (bits (Est.estimate sk q)) (bits a.Engine.estimate))
      (List.combine batch answers)
  in
  Alcotest.(check int) "60 in the batch" 60 (List.length batch);
  check_batch "cold";
  check_batch "recorded";
  (match Engine.update eng (insert_movie (Engine.sketch eng)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xtwig_util.Xerror.to_string e));
  check_batch "updated, cold";
  check_batch "updated, recorded"

(* 10. Two systhreads of one domain share its scratch slot, never its
   scratch: each call borrows the record, or, finding it taken, works
   in a fresh one, so one thread's run never overwrites the other's
   cells. Each thread runs its own sketch's precompiled plans and
   one-shot estimates for about a second; every answer must equal the
   one computed sequentially before. *)
let test_systhreads_bit_equal () =
  let job (name, doc) =
    let sk = refined doc ~budget_mult:4 in
    let qs = Array.of_list (queries_of doc) in
    let plans =
      Array.concat
        (Array.to_list
           (Array.map (fun q -> Plan.compile_roots sk (Embed.embeddings (Sketch.synopsis sk) q)) qs))
    in
    let runs = Array.map (fun p -> bits (Plan.run p)) plans in
    let shots = Array.map (fun q -> bits (Est.estimate sk q)) qs in
    (name, sk, qs, plans, runs, shots)
  in
  let jobs = List.map job (Lazy.force docs) in
  let deadline = Unix.gettimeofday () +. 1.0 in
  let work ((_, sk, qs, plans, runs, shots), wrong, total) =
    while Unix.gettimeofday () < deadline do
      for _ = 1 to 20 do
        Array.iteri
          (fun i p ->
            if bits (Plan.run p) <> runs.(i) then incr wrong;
            incr total)
          plans
      done;
      Array.iteri
        (fun i q ->
          if bits (Est.estimate sk q) <> shots.(i) then incr wrong;
          incr total)
        qs
    done
  in
  let states = List.map (fun j -> (j, ref 0, ref 0)) jobs in
  List.iter Thread.join (List.map (Thread.create work) states);
  List.iter
    (fun ((name, _, _, _, _, _), wrong, total) ->
      Alcotest.(check bool) (name ^ ": ran") true (!total > 0);
      Alcotest.(check int) (Printf.sprintf "%s: wrong answers in %d" name !total) 0 !wrong)
    states

let () =
  Alcotest.run "plan"
    [
      ( "compiled-plans",
        [
          Alcotest.test_case
            "compiled == reference (2 datasets x 4 budgets x 30 queries)" `Slow
            test_compiled_equals_reference;
          Alcotest.test_case "plan cache hits, values unchanged" `Quick
            test_plan_cache_hits;
          Alcotest.test_case "run_batch allocates zero minor words" `Quick
            test_run_batch_zero_alloc;
          Alcotest.test_case "fill faults + retry: differential vs reference"
            `Quick test_plan_fill_faults_retry_differential;
          Alcotest.test_case "one-shot compile allocates <= 250 words per plan"
            `Quick test_one_shot_alloc_bound;
          Alcotest.test_case "one-shot interleaved across sketches" `Quick
            test_cross_sketch_one_shot;
          Alcotest.test_case "two systhreads of one domain run bit-equal"
            `Quick test_systhreads_bit_equal;
        ] );
      ( "session-table",
        [
          Alcotest.test_case "guarded entry skips enumeration" `Quick
            test_guarded_entry_skips_enumeration;
          Alcotest.test_case "plan.fill retry reuses the enumeration" `Quick
            test_plan_fill_retry_reuses_enumeration;
          Alcotest.test_case "batch equals one-shot across an update" `Quick
            test_session_batch_matches_one_shot;
        ] );
    ]
