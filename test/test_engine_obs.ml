(* Engine observability: a query whose deadline expires must degrade
   to the coarse label-split estimate, flag the answer, bump the
   engine.timeouts metric, and carry a trace id that correlates the
   answer with its spans in a trace dump. *)

module Metrics = Xtwig_obs.Metrics
module Trace = Xtwig_obs.Trace
module Prng = Xtwig_util.Prng
module Xerror = Xtwig_util.Xerror
module Sketch = Xtwig_sketch.Sketch
module Est = Xtwig_sketch.Estimator
module Xbuild = Xtwig_sketch.Xbuild
module Wgen = Xtwig_workload.Wgen
module Engine = Xtwig_engine.Engine

let imdb = lazy (Xtwig_datagen.Imdb.generate ~seed:7 ~scale:0.02 ())

let get = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Xerror.to_string e)

let truth_oracle doc =
  let cache = Hashtbl.create 256 in
  fun q ->
    let k = Xtwig_path.Path_printer.twig_to_string q in
    match Hashtbl.find_opt cache k with
    | Some v -> v
    | None ->
        let v = float_of_int (Xtwig_eval.Eval_twig.selectivity doc q) in
        Hashtbl.add cache k v;
        v

let build_small doc =
  let truth = truth_oracle doc in
  let workload prng ~focus =
    Wgen.generate ~focus { Wgen.paper_p with Wgen.n_queries = 8 } prng doc
  in
  let budget = Sketch.size_bytes (Sketch.default_of_doc doc) * 2 in
  Xbuild.build ~seed:3 ~candidates:6 ~max_steps:30 ~workload ~truth ~budget doc

(* a deep-branching twig: embedding counts multiply along the branches,
   so its evaluation has many deadline checkpoints *)
let deep_twig () =
  get
    (Xtwig_path.Path_parser.parse_twig_res
       "for t0 in //movie, t1 in t0/actor, t2 in t0/producer, t3 in \
        t0/keyword")

let test_timeout_bumps_metric () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let q = deep_twig () in
  let before = Metrics.snapshot () in
  let eng = get (Engine.of_sketch ~timeout_s:1e-9 sk) in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      let a = get (Engine.estimate eng q) in
      Alcotest.(check bool) "fallback flagged" true a.Engine.fallback;
      let coarse = Sketch.default_of_doc doc in
      Alcotest.(check (float 1e-9))
        "estimate is the coarse label-split estimate"
        (Est.estimate coarse q) a.Engine.estimate;
      Alcotest.(check bool) "trace id assigned" true (a.Engine.trace_id > 0);
      Alcotest.(check bool) "elapsed recorded" true (a.Engine.elapsed_s >= 0.0);
      let d = Metrics.diff before (Metrics.snapshot ()) in
      Alcotest.(check int) "engine.timeouts bumped" 1
        (Metrics.counter_of d "engine.timeouts");
      Alcotest.(check int) "engine.queries bumped" 1
        (Metrics.counter_of d "engine.queries");
      (* the labeled fallback counter carries the reason *)
      let fb =
        List.find_opt
          (fun (e : Metrics.entry) ->
            e.Metrics.name = "engine.fallback"
            && e.Metrics.labels = [ ("reason", "timeout") ])
          d
      in
      match fb with
      | Some { Metrics.value = Metrics.Counter 1; _ } -> ()
      | _ -> Alcotest.fail "engine.fallback{reason=timeout} not bumped by 1")

let test_no_timeout_no_bump () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let q = deep_twig () in
  let before = Metrics.snapshot () in
  let eng = get (Engine.of_sketch ~timeout_s:60.0 sk) in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      let a = get (Engine.estimate eng q) in
      Alcotest.(check bool) "no fallback" false a.Engine.fallback;
      Alcotest.(check (float 1e-9))
        "full-sketch estimate" (Est.estimate sk q) a.Engine.estimate;
      let d = Metrics.diff before (Metrics.snapshot ()) in
      Alcotest.(check int) "no timeout counted" 0
        (Metrics.counter_of d "engine.timeouts");
      (* the query landed in the latency histogram *)
      match Metrics.find d "engine.query.seconds" with
      | Some (Metrics.Histogram v) ->
          Alcotest.(check int) "one latency observation" 1 v.Metrics.count
      | _ -> Alcotest.fail "engine.query.seconds missing from diff")

let test_batch_trace_ids_and_spans () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let qs =
    Wgen.generate { Wgen.paper_p with Wgen.n_queries = 5 } (Prng.create 99) doc
  in
  Trace.enable ();
  Trace.reset ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let eng = get (Engine.of_sketch ~jobs:2 sk) in
  let answers =
    Fun.protect
      ~finally:(fun () -> Engine.close eng)
      (fun () -> get (Engine.estimate_batch eng qs))
  in
  (* one batch = one trace id, shared by every answer *)
  let ids =
    List.sort_uniq compare (List.map (fun a -> a.Engine.trace_id) answers)
  in
  Alcotest.(check int) "one trace id per batch" 1 (List.length ids);
  Alcotest.(check bool) "id is positive" true (List.hd ids > 0);
  (* a second batch gets a fresh id *)
  let eng2 = get (Engine.of_sketch sk) in
  let answers2 =
    Fun.protect
      ~finally:(fun () -> Engine.close eng2)
      (fun () -> get (Engine.estimate_batch eng2 qs))
  in
  Alcotest.(check bool) "ids advance across batches" true
    ((List.hd answers2).Engine.trace_id > List.hd ids);
  (* the trace is well-formed and contains the per-query spans *)
  let js = Trace.to_json_string () in
  (match Trace.validate_string js with
  | Ok n ->
      Alcotest.(check bool)
        "at least one span per query across both batches" true
        (n >= 2 * List.length qs)
  | Error e -> Alcotest.fail e);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "engine.query spans present" true
    (contains "engine.query" js);
  Alcotest.(check bool) "batch span present" true
    (contains "engine.estimate_batch" js);
  (* the span arguments the engine builds only while tracing: the
     batch span carries the batch's trace id and query count, and
     every query span its trace id, also on the worker domains, which
     have no ambient id *)
  let begins name =
    List.filter
      (fun l ->
        contains (Printf.sprintf "\"name\":\"%s\"" name) l
        && contains "\"ph\":\"B\"" l)
      (String.split_on_char '\n' js)
  in
  let id = Printf.sprintf "\"trace_id\":\"%d\"" (List.hd ids) in
  (match begins "engine.estimate_batch" with
  | [] -> Alcotest.fail "no batch span"
  | l :: _ ->
      Alcotest.(check bool) "batch span: trace_id" true (contains id l);
      Alcotest.(check bool) "batch span: queries" true
        (contains
           (Printf.sprintf "\"queries\":\"%d\"" (List.length qs))
           l));
  let query_spans =
    List.filter (contains id) (begins "engine.query")
  in
  Alcotest.(check int) "a query span with the trace id per query"
    (List.length qs) (List.length query_spans)

(* An answer's tier is what its own table lookup saw: session A
   explains an already-compiled query over and over on this domain
   while session B, on another domain, compiles distinct cold queries
   without pause (each round opens a fresh session, so every query is
   cold again). A compile in B must never show up as A's tier. *)
let test_explain_tier_is_per_session () =
  let doc = Lazy.force imdb in
  let sk = Sketch.default_of_doc doc in
  let pool =
    List.sort_uniq compare
      (List.map Xtwig_path.Path_printer.twig_to_string
         (Wgen.generate { Wgen.paper_pv with Wgen.n_queries = 80 }
            (Prng.create 41) doc))
    |> List.map (fun s -> get (Xtwig_path.Path_parser.parse_twig_res s))
  in
  let warm, cold = (List.hd pool, List.tl pool) in
  let a = get (Engine.of_sketch sk) in
  Fun.protect ~finally:(fun () -> Engine.close a) @@ fun () ->
  let tier () =
    Engine.tier_label (get (Engine.estimate a warm)).Engine.provenance.Engine.pv_tier
  in
  Alcotest.(check string) "first sighting compiles" "fresh_compile" (tier ());
  let started = Atomic.make false and stop = Atomic.make false in
  let b_estimates = Atomic.make 0 and b_done = Atomic.make false in
  let b =
    Domain.spawn (fun () ->
        (* a failing B must release A; [Domain.join] re-raises it *)
        Fun.protect ~finally:(fun () -> Atomic.set b_done true) @@ fun () ->
        while not (Atomic.get stop) do
          let s = get (Engine.of_sketch sk) in
          List.iter
            (fun q ->
              if not (Atomic.get stop) then begin
                ignore (get (Engine.estimate s q));
                Atomic.incr b_estimates;
                Atomic.set started true
              end)
            cold;
          Engine.close s
        done)
  in
  (* at least 200 explains, and on until B has estimated 20 more
     queries meanwhile, so the two really overlap even where the
     domains share one core; capped in case B is starved *)
  let overlap = ref 0 in
  let tiers =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join b)
      (fun () ->
        while not (Atomic.get started || Atomic.get b_done) do
          Domain.cpu_relax ()
        done;
        let b0 = Atomic.get b_estimates in
        let rec loop acc n =
          overlap := Atomic.get b_estimates - b0;
          if (n >= 200 && !overlap >= 20) || n >= 100_000 || Atomic.get b_done
          then acc
          else loop (tier () :: acc) (n + 1)
        in
        List.rev (loop [] 0))
  in
  Alcotest.(check bool) "B estimated while A explained" true (!overlap >= 20);
  List.iteri
    (fun i t -> Alcotest.(check string) (Printf.sprintf "explain %d" i) "cache_hit" t)
    tiers

(* Twin queries: each pair differs only past the sixth significant
   digit of a range bound, so the two print to the same text under
   [%.6g]. A session that keyed its plans by printed text served the
   second twin the first one's plans. Every answer of one session must
   be bit-equal to the recursive evaluator's. *)
let twins =
  [
    ( "for t0 in //movie, t1 in t0/year[. in 1980.1 .. 1990]",
      "for t0 in //movie, t1 in t0/year[. in 1980.1000001 .. 1990]" );
    ( "for t0 in //movie, t1 in t0/box_office[. in 306046000 .. 345046000]",
      "for t0 in //movie, t1 in t0/box_office[. in 306046400 .. 345046000]" );
  ]

let imdb05 = lazy (Xtwig_datagen.Imdb.generate ~scale:0.05 ())

let check_twins label sk =
  let eng = get (Engine.of_sketch sk) in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  List.iter
    (fun (a, b) ->
      List.iter
        (fun text ->
          let q = get (Xtwig_path.Path_parser.parse_twig_res text) in
          let served = (get (Engine.estimate eng q)).Engine.estimate in
          Alcotest.(check int64)
            (Printf.sprintf "%s: %s" label text)
            (Int64.bits_of_float (Est.estimate sk q))
            (Int64.bits_of_float served))
        [ a; b; a; b ])
    twins

let test_twin_keys_coarsest () =
  check_twins "coarsest" (Sketch.default_of_doc (Lazy.force imdb05))

let xbuild05 =
  lazy (get (Xtwig.build_sketch ~budget:16_000 ~seed:7 (Lazy.force imdb05)))

let test_twin_keys_xbuild () = check_twins "xbuild" (Lazy.force xbuild05)

(* The label-split floor is the backend instance's, built on a
   session's first degraded answer: opening a session builds no sketch,
   an update builds only what the bare delta builds, and after the
   updates a degraded answer is the floor of the updated document, bit
   for bit. *)
let test_lazy_coarse_floor () =
  let sk = Lazy.force xbuild05 in
  let doc = Sketch.doc sk in
  let builds () = Metrics.(counter_value (counter "sketch.builds")) in
  let built f =
    let b0 = builds () in
    let v = f () in
    (v, builds () - b0)
  in
  let fragment =
    get
      (Xtwig_xml.Xml_parser.parse_string_res
         "<movie><title>Delta</title><year>1999</year><actor>A</actor>\
          <actor>B</actor><producer>P</producer></movie>")
  in
  let insert = Sketch.Insert { parent = Xtwig_xml.Doc.root doc; fragment } in
  (* the fragment's root takes the next node id *)
  let delete = Sketch.Delete (Xtwig_xml.Doc.size doc) in
  let sk1, n_insert = built (fun () -> Sketch.apply_delta sk insert) in
  let _, n_delete = built (fun () -> Sketch.apply_delta sk1 delete) in
  let eng, n_open = built (fun () -> get (Engine.of_sketch sk)) in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  Alcotest.(check int) "opening builds no sketch" 0 n_open;
  let (), n = built (fun () -> get (Engine.update eng insert)) in
  Alcotest.(check int) "insert builds what the bare delta builds" n_insert n;
  let (), n = built (fun () -> get (Engine.update eng delete)) in
  Alcotest.(check int) "delete builds what the bare delta builds" n_delete n;
  let qs =
    Wgen.generate { Wgen.paper_p with Wgen.n_queries = 12 } (Prng.create 5) doc
  in
  let answers = get (Engine.estimate_batch ~timeout_s:1e-9 eng qs) in
  let floor = Sketch.default_of_doc (Sketch.doc (Engine.sketch eng)) in
  List.iter2
    (fun q (a : Engine.answer) ->
      Alcotest.(check bool) "degraded" true a.Engine.fallback;
      Alcotest.(check int64)
        "answer = floor of the updated document"
        (Int64.bits_of_float (Est.estimate floor q))
        (Int64.bits_of_float a.Engine.estimate))
    qs answers

(* Recorded answers never outlive their sketch: after an
   [Engine.update] insert and then a delete, the session's answers,
   recorded on a second send, equal bit for bit a fresh session's over
   the updated sketch, and each update moves some answer. *)
let test_recorded_answers_fresh_across_updates () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let qs =
    Wgen.generate { Wgen.paper_p with Wgen.n_queries = 12 } (Prng.create 5) doc
  in
  let bits answers =
    List.map (fun (a : Engine.answer) -> Int64.bits_of_float a.Engine.estimate) answers
  in
  let fresh sk =
    let e = get (Engine.of_sketch sk) in
    Fun.protect ~finally:(fun () -> Engine.close e) @@ fun () ->
    bits (get (Engine.estimate_batch e qs))
  in
  let eng = get (Engine.of_sketch sk) in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  let recorded () =
    ignore (get (Engine.estimate_batch eng qs));
    bits (get (Engine.estimate_batch eng qs))
  in
  let before = recorded () in
  Alcotest.(check (list int64)) "recorded == fresh session" (fresh sk) before;
  let fragment =
    get
      (Xtwig_xml.Xml_parser.parse_string_res
         "<movie><title>Delta</title><year>1999</year><actor>A</actor>\
          <actor>B</actor><producer>P</producer></movie>")
  in
  let step label delta previous =
    get (Engine.update eng delta);
    let now = recorded () in
    Alcotest.(check (list int64))
      (label ^ ": recorded == fresh session over the updated sketch")
      (fresh (Engine.sketch eng)) now;
    Alcotest.(check bool) (label ^ ": some answer moved") true (now <> previous);
    now
  in
  let after_insert =
    step "insert" (Sketch.Insert { parent = Xtwig_xml.Doc.root doc; fragment }) before
  in
  (* the fragment's root takes the next node id *)
  ignore (step "delete" (Sketch.Delete (Xtwig_xml.Doc.size doc)) after_insert)

(* A query degraded by what raised out of its last attempt — at run
   time (engine.query) or at compile time (plan.fill) — leaves a Warn
   [engine.fallback] event naming the stage and the exception. *)
let test_fault_fallback_logs_cause () =
  let sk = Sketch.default_of_doc (Lazy.force imdb) in
  let q = deep_twig () in
  let has needle line =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length line && (String.sub line i n = needle || go (i + 1))
    in
    go 0
  in
  let degrade ~spec ~stage =
    (match Xtwig_fault.Fault.parse_spec spec with
    | Ok sp -> Xtwig_fault.Fault.install sp
    | Error e -> Alcotest.fail e);
    Xtwig_obs.Log.enable ~level:Xtwig_obs.Log.Warn ();
    Fun.protect ~finally:(fun () ->
        Xtwig_fault.Fault.disable ();
        Xtwig_obs.Log.disable ())
    @@ fun () ->
    let eng = get (Engine.of_sketch ~name:"t1" ~retries:0 ~backoff_s:0.0 sk) in
    Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
    let a = get (Engine.estimate eng q) in
    Alcotest.(check bool) (stage ^ ": degraded by the fault") true
      (a.Engine.reason = Some Engine.Fault);
    Alcotest.(check bool)
      (stage ^ ": a warn engine.fallback event names stage and cause")
      true
      (List.exists
         (fun l ->
           has "\"engine.fallback\"" l
           && has "\"warn\"" l
           && has (Printf.sprintf "\"stage\":\"%s\"" stage) l
           && has "Injected" l && has "\"tenant\":\"t1\"" l)
         (Xtwig_obs.Log.recent ()))
  in
  degrade ~spec:"seed=1;engine.query:p1.0" ~stage:"run";
  degrade ~spec:"seed=1;plan.fill:p1.0" ~stage:"compile"

(* The per-layer counters the benchmark and CI read by name. A reader
   takes an absent name as 0, so a counter registered under another
   name would zero a benchmark metric and fail nothing. Over one small
   build, a session batch holding one cold query twice, an optimize
   and a delta, each name must be an unlabeled counter in the registry,
   and each but the optimizer's two must move. *)
let pinned_counters =
  [
    "xbuild.steps"; "xbuild.candidates_scored"; "xbuild.apply_ns";
    "sketch.builds"; "sketch.build_ns"; "sketch.ehists_reused";
    "sketch.ehists_built"; "sketch.deltas"; "sketch.delta_ns"; "embed.ns";
    "embed.cache_hits"; "embed.cache_misses"; "estimator.ns"; "plan.compiles";
    "plan.runs"; "plan.cache_hits"; "plan.cache_misses"; "plan.compile_ns";
    "plan.run_ns"; "engine.queries"; "engine.batches"; "opt.order_changed";
    "opt.fallbacks";
  ]

let test_pinned_counter_names () =
  let doc = Lazy.force imdb in
  let before = Metrics.snapshot () in
  let budget = Sketch.size_bytes (Sketch.default_of_doc doc) * 2 in
  let sk = get (Xtwig.build_sketch ~budget ~seed:3 ~max_steps:10 doc) in
  let q = deep_twig () in
  let eng = get (Xtwig.open_sketch_session sk) in
  Fun.protect
    ~finally:(fun () -> Xtwig.close_session eng)
    (fun () -> ignore (get (Xtwig.estimate_batch eng [ q; q ])));
  ignore (Xtwig.optimize sk q);
  let fragment =
    get (Xtwig_xml.Xml_parser.parse_string_res "<movie><title>N</title></movie>")
  in
  ignore
    (Sketch.apply_delta sk
       (Sketch.Insert { parent = Xtwig_xml.Doc.root (Sketch.doc sk); fragment }));
  let after = Metrics.snapshot () in
  let moved = Metrics.diff before after in
  List.iter
    (fun name ->
      (match Metrics.find after name with
      | Some (Metrics.Counter _) -> ()
      | _ -> Alcotest.failf "%s is not an unlabeled counter" name);
      if not (String.starts_with ~prefix:"opt." name) then
        Alcotest.(check bool) (name ^ " moved") true (Metrics.counter_of moved name > 0))
    pinned_counters

let () =
  Alcotest.run "engine_obs"
    [
      ( "engine observability",
        [
          Alcotest.test_case "timeout degrades and bumps engine.timeouts"
            `Quick test_timeout_bumps_metric;
          Alcotest.test_case "no timeout, latency histogram observed" `Quick
            test_no_timeout_no_bump;
          Alcotest.test_case "batch trace ids and spans" `Quick
            test_batch_trace_ids_and_spans;
          Alcotest.test_case "explain tier is per session across domains"
            `Quick test_explain_tier_is_per_session;
          Alcotest.test_case "recorded answers fresh across updates" `Quick
            test_recorded_answers_fresh_across_updates;
          Alcotest.test_case "coarse floor built lazily, not at open or update"
            `Quick test_lazy_coarse_floor;
          Alcotest.test_case "fault fallback logs its cause" `Quick
            test_fault_fallback_logs_cause;
          Alcotest.test_case "benchmark counter names pinned" `Quick
            test_pinned_counter_names;
        ] );
      ( "exact session keys",
        [
          Alcotest.test_case "twin queries on the coarsest sketch" `Quick
            test_twin_keys_coarsest;
          Alcotest.test_case "twin queries on the XBUILD sketch" `Quick
            test_twin_keys_xbuild;
        ] );
    ]
