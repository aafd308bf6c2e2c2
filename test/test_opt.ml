(* Differential tests for the cost-based branch orderer: on the
   IMDB/XMark workloads (value-predicate twigs included), evaluating
   under any plan's order must return counts bit-equal to the default
   [Eval_twig.selectivity] order — the order-invariance oracle — and a
   failed planner (injected [opt.plan] fault) must degrade to the
   default order, never to a wrong answer or an exception. *)

module Doc = Xtwig_xml.Doc
module Sketch = Xtwig_sketch.Sketch
module Eval_twig = Xtwig_eval.Eval_twig
module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng
module Fault = Xtwig_fault.Fault
module Counters = Xtwig_util.Counters
module Opt = Xtwig_opt.Opt
module Protocol = Xtwig_serve.Protocol

let datasets =
  lazy
    [
      ("imdb", Xtwig_datagen.Imdb.generate ~scale:0.03 ());
      ("xmark", Xtwig_datagen.Xmark.generate ~scale:0.03 ());
    ]

let workload doc =
  (* P plus P+V: branching structure for the orderer, value predicates
     for the propagation pass *)
  Wgen.generate { Wgen.paper_p with Wgen.n_queries = 15 } (Prng.create 5) doc
  @ Wgen.generate { Wgen.paper_pv with Wgen.n_queries = 15 } (Prng.create 6) doc

(* every workload query, on every dataset: optimized-order evaluation
   (both through the order-aware evaluator and through a reordered
   twig) is bit-equal to the default order *)
let test_order_invariance () =
  List.iter
    (fun (name, doc) ->
      let sk = Sketch.default_of_doc doc in
      let with_vpred = ref 0 in
      List.iteri
        (fun i q ->
          let plan = Xtwig.optimize sk q in
          if Xtwig_path.Path_types.twig_has_value_pred q then incr with_vpred;
          let expect = Eval_twig.selectivity doc q in
          let got = Xtwig.selectivity_ordered doc plan q in
          Alcotest.(check int)
            (Printf.sprintf "%s q%d ordered = default" name i)
            expect got;
          let via_apply = Eval_twig.selectivity doc (Opt.apply plan q) in
          Alcotest.(check int)
            (Printf.sprintf "%s q%d reordered twig = default" name i)
            expect via_apply)
        (workload doc);
      Alcotest.(check bool)
        (name ^ " workload exercises value predicates")
        true (!with_vpred > 0))
    (Lazy.force datasets)

(* a plan for one twig applied to a different twig must not change
   answers either (the evaluator rejects mismatched permutations) *)
let test_mismatched_plan_safe () =
  let _, doc = List.hd (Lazy.force datasets) in
  let sk = Sketch.default_of_doc doc in
  let qs = workload doc in
  let plans = List.map (Xtwig.optimize sk) qs in
  List.iteri
    (fun i q ->
      List.iter
        (fun plan ->
          Alcotest.(check int)
            (Printf.sprintf "q%d under foreign plan" i)
            (Eval_twig.selectivity doc q)
            (Xtwig.selectivity_ordered doc plan q))
        plans)
    (List.filteri (fun i _ -> i < 3) qs)

(* ------------------------------------------------------------------ *)
(* fault degradation: opt.plan fires -> identity plan, same answers    *)

let protecting f () = Fun.protect ~finally:Fault.disable f

let spec s =
  match Fault.parse_spec s with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "bad spec %s: %s" s e

let test_fault_degrades () =
  let _, doc = List.hd (Lazy.force datasets) in
  let sk = Sketch.default_of_doc doc in
  let q = List.hd (workload doc) in
  let clean = Xtwig.optimize sk q in
  Alcotest.(check bool) "clean plan is not a fallback" false
    clean.Opt.fallback;
  Fault.install (spec "seed=1;opt.plan:always");
  let before = Counters.value (Counters.counter "opt.fallbacks") in
  let degraded = Xtwig.optimize sk q in
  Fault.disable ();
  Alcotest.(check bool) "degraded plan is flagged" true degraded.Opt.fallback;
  Alcotest.(check bool) "degraded plan keeps default order" false
    degraded.Opt.changed;
  Alcotest.(check int) "fallback counted"
    (before + 1)
    (Counters.value (Counters.counter "opt.fallbacks"));
  (* and the answer is the default-order answer, not a wrong one *)
  Alcotest.(check int) "degraded evaluation = default"
    (Eval_twig.selectivity doc q)
    (Xtwig.selectivity_ordered doc degraded q)

(* a raising estimator is the same story: total planning, default
   order out *)
let test_raising_estimator_degrades () =
  let q =
    match Xtwig.twig_of_string "for t0 in //a, t1 in t0/b, t2 in t0/c" with
    | Ok q -> q
    | Error _ -> Alcotest.fail "twig parse"
  in
  let plan = Opt.plan ~estimate:(fun _ -> failwith "boom") q in
  Alcotest.(check bool) "raising estimator -> fallback" true plan.Opt.fallback;
  Alcotest.(check bool) "raising estimator -> default order" false
    plan.Opt.changed

(* the degraded plan drops what raised; a Warn [opt.fallback] event
   names it *)
let test_raising_estimator_logs_cause () =
  let q =
    match Xtwig.twig_of_string "for t0 in //a, t1 in t0/b, t2 in t0/c" with
    | Ok q -> q
    | Error _ -> Alcotest.fail "twig parse"
  in
  Xtwig_obs.Log.enable ~level:Xtwig_obs.Log.Warn ();
  Fun.protect ~finally:Xtwig_obs.Log.disable @@ fun () ->
  let plan = Opt.plan ~estimate:(fun _ -> failwith "boom") q in
  Alcotest.(check bool) "fallback" true plan.Opt.fallback;
  let has needle line =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length line && (String.sub line i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool)
    "a warn opt.fallback event carries the exception" true
    (List.exists
       (fun l -> has "\"opt.fallback\"" l && has "\"warn\"" l && has "boom" l)
       (Xtwig_obs.Log.recent ()))

(* ------------------------------------------------------------------ *)
(* the costing memo: plans through it are bit-equal to plans priced by *)
(* a fresh uncached estimator, warm, shared between domains, and after *)
(* the memo has been cleared at its cap                                 *)

module Backend = Xtwig_backend.Estimator_backend
module Metrics = Xtwig_obs.Metrics

let pv_pool doc =
  Wgen.generate { Wgen.paper_pv with Wgen.n_queries = 40 } (Prng.create 9) doc

(* every float by its bits, so 0.0 / -0.0 or a NaN cannot pass as equal *)
let plan_bits (p : Opt.plan) =
  let bits a = Array.map Int64.bits_of_float a in
  ( p.orders,
    Array.map (fun (m : Opt.node_model) -> (bits m.costs, bits m.probs)) p.models,
    Int64.bits_of_float p.cost,
    Int64.bits_of_float p.default_cost,
    p.changed,
    p.fallback )

let uncached_plan sk q =
  Opt.plan
    ~estimate:(Backend.estimate (Backend.of_sketch sk))
    ~vhist:(Xtwig.value_histogram sk) q

let check_same_plans what sk qs plans =
  List.iteri
    (fun i (q, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s q%d = uncached plan" what i)
        true
        (plan_bits p = plan_bits (uncached_plan sk q)))
    (List.combine qs plans)

let memo_counts () =
  ( Metrics.counter_value (Metrics.counter "opt.memo_hits"),
    Metrics.counter_value (Metrics.counter "opt.memo_misses") )

let test_memo_warm_equals_uncached () =
  List.iter
    (fun (name, doc) ->
      let sk = Sketch.default_of_doc doc in
      let qs = pv_pool doc in
      let cold = List.map (Xtwig.optimize sk) qs in
      let h0, m0 = memo_counts () in
      let warm = List.map (Xtwig.optimize sk) qs in
      let h1, m1 = memo_counts () in
      Alcotest.(check int) (name ^ ": warm pass computes nothing") 0 (m1 - m0);
      Alcotest.(check bool) (name ^ ": warm pass hits the memo") true (h1 > h0);
      check_same_plans (name ^ " cold") sk qs cold;
      check_same_plans (name ^ " warm") sk qs warm)
    (Lazy.force datasets)

let test_memo_two_domains () =
  let _, doc = List.nth (Lazy.force datasets) 1 in
  let qs = pv_pool doc in
  let expect = List.map (uncached_plan (Sketch.default_of_doc doc)) qs in
  (* a fresh sketch: both domains start on a cold memo and race on its
     misses, one walking the pool backwards *)
  let sk = Sketch.default_of_doc doc in
  let plan_all qs = List.map (fun q -> (q, Xtwig.optimize sk q)) qs in
  let d1 = Domain.spawn (fun () -> plan_all qs) in
  let d2 = Domain.spawn (fun () -> plan_all (List.rev qs)) in
  let r1 = Domain.join d1 and r2 = List.rev (Domain.join d2) in
  List.iteri
    (fun i e ->
      let _, p1 = List.nth r1 i and _, p2 = List.nth r2 i in
      Alcotest.(check bool) (Printf.sprintf "domain 1 q%d" i) true
        (plan_bits p1 = plan_bits e);
      Alcotest.(check bool) (Printf.sprintf "domain 2 q%d" i) true
        (plan_bits p2 = plan_bits e))
    expect

let test_memo_cap_clears () =
  let _, doc = List.hd (Lazy.force datasets) in
  let sk = Sketch.default_of_doc doc in
  let qs = pv_pool doc in
  ignore (List.map (Xtwig.optimize sk) qs);
  (* more distinct sub-twigs than the memo holds: single-node twigs
     cost one estimate each *)
  for i = 0 to 4500 do
    match Xtwig.twig_of_string (Printf.sprintf "for t0 in //filler%d" i) with
    | Ok q -> ignore (Xtwig.optimize sk q)
    | Error _ -> Alcotest.fail "filler twig"
  done;
  let _, m0 = memo_counts () in
  let again = List.map (Xtwig.optimize sk) qs in
  let _, m1 = memo_counts () in
  Alcotest.(check bool) "the cap cleared the pool's entries" true (m1 > m0);
  check_same_plans "after the cap" sk qs again

(* ------------------------------------------------------------------ *)
(* wire protocol: the optimize verb round-trips and the reply body is
   byte-equal to a local rendering of the same plan                    *)

let test_protocol_roundtrip () =
  let req =
    Protocol.Optimize
      { tenant = "movies"; query = "for t0 in //movie"; trace = Some 7 }
  in
  (match Protocol.decode_request (Protocol.encode_request ~id:12 req) with
  | Ok (12, Protocol.Optimize { tenant = "movies"; query; trace = Some 7 })
    when query = "for t0 in //movie" ->
      ()
  | Ok _ -> Alcotest.fail "optimize round-trip mismatch"
  | Error e -> Alcotest.failf "optimize decode failed: %s" e);
  let _, doc = List.hd (Lazy.force datasets) in
  let sk = Sketch.default_of_doc doc in
  let q = List.hd (workload doc) in
  let plan = Xtwig.optimize sk q in
  Alcotest.(check string)
    "encode_plan = to_lines"
    (String.concat "\n" (Opt.to_lines plan))
    (Protocol.encode_plan plan);
  (* plan fields are reachable with the generic field lookup *)
  let body = Protocol.encode_plan plan in
  Alcotest.(check bool) "cost field present" true
    (Protocol.provenance_field body "cost" <> None);
  Alcotest.(check (option string))
    "fallback field" (Some "false")
    (Protocol.provenance_field body "fallback")

let () =
  Alcotest.run "opt"
    [
      ( "order-invariance",
        [
          Alcotest.test_case "workload counts bit-equal" `Slow
            test_order_invariance;
          Alcotest.test_case "foreign plans are safe" `Quick
            test_mismatched_plan_safe;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "opt.plan fault -> default order" `Quick
            (protecting test_fault_degrades);
          Alcotest.test_case "raising estimator -> default order" `Quick
            test_raising_estimator_degrades;
          Alcotest.test_case "raising estimator logs its cause" `Quick
            test_raising_estimator_logs_cause;
        ] );
      ( "memo",
        [
          Alcotest.test_case "warm plans = uncached plans" `Quick
            test_memo_warm_equals_uncached;
          Alcotest.test_case "two domains = sequential plans" `Quick
            test_memo_two_domains;
          Alcotest.test_case "plans unchanged past the cap" `Quick
            test_memo_cap_clears;
        ] );
      ( "protocol",
        [ Alcotest.test_case "optimize verb round-trip" `Quick
            test_protocol_roundtrip ] );
    ]
