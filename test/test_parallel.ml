(* The parallel layer's single correctness claim is determinism:
   worker domains change wall-clock time, never results. These tests
   pin that claim differentially (pooled build == sequential build,
   byte for byte; pooled batch == sequential batch, float for float)
   and exercise the pool/engine failure paths: panic propagation,
   shutdown discipline, per-query timeouts, sketch-format versioning. *)

module Pool = Xtwig_util.Pool
module Fault = Xtwig_fault.Fault
module Prng = Xtwig_util.Prng
module Xerror = Xtwig_util.Xerror
module Doc = Xtwig_xml.Doc
module Sketch = Xtwig_sketch.Sketch
module Sketch_io = Xtwig_sketch.Sketch_io
module Embed = Xtwig_sketch.Embed
module Est = Xtwig_sketch.Estimator
module Xbuild = Xtwig_sketch.Xbuild
module Wgen = Xtwig_workload.Wgen
module Engine = Xtwig_engine.Engine

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_submit_await () =
  Pool.with_pool ~domains:2 (fun p ->
      let f = Pool.submit p (fun () -> 6 * 7) in
      Alcotest.(check int) "await" 42 (Pool.await f);
      let fs = List.init 50 (fun i -> Pool.submit p (fun () -> i * i)) in
      List.iteri
        (fun i f -> Alcotest.(check int) "square" (i * i) (Pool.await f))
        fs)

let test_pool_map_array_order () =
  Pool.with_pool ~domains:3 (fun p ->
      let xs = Array.init 100 (fun i -> i) in
      let ys = Pool.map_array p ~f:(fun i x -> (i, x + 1)) xs in
      Array.iteri
        (fun i (j, y) ->
          Alcotest.(check int) "index" i j;
          Alcotest.(check int) "value in input order" (i + 1) y)
        ys)

exception Boom of int

let test_pool_panic_propagation () =
  Pool.with_pool ~domains:2 (fun p ->
      let f = Pool.submit p (fun () -> raise (Boom 7)) in
      (match Pool.await f with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ());
      (* the worker survived its job's panic *)
      let g = Pool.submit p (fun () -> "alive") in
      Alcotest.(check string) "pool survives a panic" "alive" (Pool.await g))

(* a deep enough call chain that the captured backtrace must contain
   at least one frame — [@inline never] keeps it in the trace *)
let[@inline never] rec deep n = if n = 0 then raise (Boom 42) else 1 + deep (n - 1)

let test_pool_panic_backtrace () =
  Pool.with_pool ~domains:1 (fun p ->
      let f = Pool.submit p (fun () -> deep 10) in
      match Pool.await_result f with
      | Ok _ -> Alcotest.fail "expected Boom"
      | Error (Boom 42, bt) ->
          (* regression: workers used to leave backtrace recording off,
             so the stored trace was always empty and the originating
             frame was lost on the domain hop *)
          Alcotest.(check bool)
            "panic carries a non-empty worker backtrace" true
            (Printexc.raw_backtrace_length bt > 0)
      | Error (e, _) -> raise e)

let test_pool_shutdown () =
  let p = Pool.create ~domains:2 () in
  let f = Pool.submit p (fun () -> 1) in
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.(check int) "queued job drained before exit" 1 (Pool.await f);
  (match Pool.submit p (fun () -> 2) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_pool_worker_prng () =
  Alcotest.(check bool)
    "no worker index outside a pool" true
    (Pool.worker_index () = None);
  (match Pool.prng () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Pool.with_pool ~seed:11 ~domains:3 (fun p ->
      let draws =
        Pool.map_array p
          ~f:(fun _ () ->
            let i = Option.get (Pool.worker_index ()) in
            (i, Prng.bits64 (Pool.prng ())))
          (Array.make 64 ())
      in
      Array.iter
        (fun (i, _) ->
          Alcotest.(check bool) "worker index in range" true (i >= 0 && i < 3))
        draws;
      (* two different workers never share a stream: group first draws
         by worker and check pairwise distinctness *)
      let first = Hashtbl.create 4 in
      Array.iter
        (fun (i, d) -> if not (Hashtbl.mem first i) then Hashtbl.add first i d)
        draws;
      let vals = Hashtbl.fold (fun _ d acc -> d :: acc) first [] in
      let distinct = List.sort_uniq compare vals in
      Alcotest.(check int)
        "per-worker streams differ"
        (List.length vals) (List.length distinct))

(* A 1-domain pool bypasses the queue and runs jobs inline on the
   submitting domain. The bypass must be observationally identical to
   a spawned single worker: same results in input order, the worker-0
   identity (index and persistent PRNG stream) inside jobs — restored
   outside — and the same scoped fault verdicts as any other pool
   size. *)
let test_pool_inline_bypass_differential () =
  let xs = Array.init 40 (fun i -> i) in
  let expected = Array.map (fun x -> (x * x) + 1) xs in
  let results domains =
    Pool.with_pool ~domains (fun p ->
        Pool.map_array p ~f:(fun _ x -> (x * x) + 1) xs)
  in
  Alcotest.(check (array int)) "inline results" expected (results 1);
  Alcotest.(check (array int)) "2-domain results" expected (results 2);
  Pool.with_pool ~seed:3 ~domains:1 (fun p ->
      Alcotest.(check int) "1-domain pool has size 1" 1 (Pool.size p);
      let idx =
        Pool.map_array p
          ~f:(fun _ () -> Option.get (Pool.worker_index ()))
          (Array.make 4 ())
      in
      Array.iter
        (fun i -> Alcotest.(check int) "jobs run as worker 0" 0 i)
        idx;
      Alcotest.(check bool)
        "caller identity restored after inline jobs" true
        (Pool.worker_index () = None);
      (* the PRNG stream is persistent across jobs and calls, exactly
         like a spawned worker draining jobs in submission order: two
         2-draw fan-outs produce the same stream as one 4-draw fan-out
         on a fresh pool with the same seed *)
      let draw p n =
        Pool.map_array p ~f:(fun _ () -> Prng.bits64 (Pool.prng ())) (Array.make n ())
      in
      let a = draw p 2 in
      let b = draw p 2 in
      let c = Pool.with_pool ~seed:3 ~domains:1 (fun p2 -> draw p2 4) in
      Alcotest.(check (array int64))
        "stream continues across fan-outs" c (Array.append a b));
  (* scoped fault verdicts key on the work-unit index, not the pool
     size: the inline path must reproduce the multi-domain verdict
     pattern bit for bit *)
  let verdicts domains =
    (match Fault.parse_spec "seed=21;pool.task:p0.5" with
    | Error e -> Alcotest.fail ("bad spec: " ^ e)
    | Ok sp -> Fault.install sp);
    Fun.protect ~finally:Fault.disable @@ fun () ->
    Pool.with_pool ~domains (fun p ->
        let futs = Array.init 32 (fun i -> Pool.submit ~scope:i p (fun () -> i)) in
        Array.map
          (fun f ->
            match Pool.await_result f with
            | Ok _ -> false
            | Error (Fault.Injected _, _) -> true
            | Error (e, _) -> raise e)
          futs)
  in
  let v1 = verdicts 1 in
  let v2 = verdicts 2 in
  Alcotest.(check (array bool)) "fault verdicts identical" v2 v1;
  Alcotest.(check bool) "scenario fired" true (Array.exists Fun.id v1);
  Alcotest.(check bool) "some jobs survived" true (Array.exists not v1)

(* ------------------------------------------------------------------ *)
(* Differential: pooled XBUILD == sequential XBUILD                    *)

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

let build_trace ?pool doc ~budget =
  let truth = truth_oracle doc in
  let workload prng ~focus =
    Wgen.generate ~focus { Wgen.paper_p with Wgen.n_queries = 8 } prng doc
  in
  let steps = ref [] in
  let sk =
    Xbuild.build ?pool ~seed:3 ~candidates:6 ~max_steps:40 ~workload ~truth
      ~budget
      ~on_step:(fun _ info -> steps := info.Xbuild.description :: !steps)
      doc
  in
  (List.rev !steps, Sketch_io.to_string sk)

let test_build_differential name doc budget () =
  ignore name;
  let steps_seq, bytes_seq = build_trace doc ~budget in
  Pool.with_pool ~domains:3 (fun p ->
      let steps_par, bytes_par = build_trace ~pool:p doc ~budget in
      Alcotest.(check (list string))
        "identical refinement sequence" steps_seq steps_par;
      Alcotest.(check string) "byte-identical synopsis" bytes_seq bytes_par);
  Alcotest.(check bool)
    "build did refine past the coarsest sketch" true
    (List.length steps_seq > 0)

let imdb = lazy (Xtwig_datagen.Imdb.generate ~seed:7 ~scale:0.02 ())
let xmark = lazy (Xtwig_datagen.Xmark.generate ~seed:7 ~scale:0.02 ())

let budgets doc =
  let coarse = Sketch.size_bytes (Sketch.default_of_doc doc) in
  (coarse * 2, coarse * 4)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let build_small doc =
  let truth = truth_oracle doc in
  let workload prng ~focus =
    Wgen.generate ~focus { Wgen.paper_p with Wgen.n_queries = 8 } prng doc
  in
  let budget = Sketch.size_bytes (Sketch.default_of_doc doc) * 2 in
  Xbuild.build ~seed:3 ~candidates:6 ~max_steps:30 ~workload ~truth ~budget doc

let queries_for doc n =
  Wgen.generate { Wgen.paper_p with Wgen.n_queries = n } (Prng.create 99) doc

let get = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Xerror.to_string e)

(* A batch holding a cold query twice, sent twice to one session: the
   first send runs plans at every sighting, the repeat included (answers
   are recorded only after the batch's jobs join), and the second send
   reads the recorded answers and runs none. Pooled sessions (2 and 4
   domains) agree with a sequential one in answers, tiers, embedding
   counts, plan runs and retries. *)
let test_engine_batch_differential () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let qs = queries_for doc 30 in
  let qs = qs @ [ List.hd qs ] in
  let runs () = Xtwig_util.Counters.get "plan.runs" in
  let run jobs =
    let eng = get (Engine.of_sketch ~jobs sk) in
    Fun.protect
      ~finally:(fun () -> Engine.close eng)
      (fun () ->
        List.map
          (fun _ ->
            let r0 = runs () in
            let answers = get (Engine.estimate_batch eng qs) in
            (answers, runs () - r0))
          [ 1; 2 ])
  in
  let seq = run 1 in
  let embeddings answers =
    List.fold_left
      (fun n (a : Engine.answer) -> n + a.Engine.provenance.Engine.pv_embeddings)
      0 answers
  in
  (match seq with
  | [ (first, first_runs); (second, second_runs) ] ->
      Alcotest.(check bool) "some embeddings" true (embeddings first > 0);
      Alcotest.(check int) "first send runs every sighting's plans"
        (embeddings first) first_runs;
      Alcotest.(check int) "second send runs no plan" 0 second_runs;
      Alcotest.(check int) "second send, same embedding counts"
        (embeddings first) (embeddings second)
  | _ -> Alcotest.fail "two sends");
  List.iter
    (fun jobs ->
      let l what = Printf.sprintf "jobs=%d: %s" jobs what in
      List.iter2
        (fun (sa, sruns) (ja, jruns) ->
          Alcotest.(check int) (l "plan runs") sruns jruns;
          Alcotest.(check int) (l "answer count") (List.length sa) (List.length ja);
          List.iter2
            (fun (a : Engine.answer) (b : Engine.answer) ->
              let pa = a.Engine.provenance and pb = b.Engine.provenance in
              Alcotest.(check bool)
                (l "same query order") true
                (a.Engine.query == b.Engine.query);
              Alcotest.(check bool) (l "no fallback") false (a.fallback || b.fallback);
              Alcotest.(check (float 0.0))
                (l "bit-identical estimate") a.Engine.estimate b.Engine.estimate;
              Alcotest.(check string) (l "tier")
                (Engine.tier_label pa.Engine.pv_tier)
                (Engine.tier_label pb.Engine.pv_tier);
              Alcotest.(check int) (l "embeddings") pa.Engine.pv_embeddings
                pb.Engine.pv_embeddings;
              Alcotest.(check int) (l "retries") a.Engine.retries b.Engine.retries)
            sa ja)
        seq (run jobs))
    [ 2; 4 ];
  (* and both agree with the one-shot estimator, bit for bit *)
  List.iter
    (fun (answers, _) ->
      List.iter2
        (fun q (a : Engine.answer) ->
          Alcotest.(check (float 0.0)) "matches Estimator.estimate"
            (Est.estimate sk q) a.Engine.estimate)
        qs answers)
    seq

(* Nothing is recorded before a batch's jobs join: a lookup made while
   the batch still evaluates finds the plans of a query the batch has
   already answered. On a one-domain session the [on_embedding] hook
   runs on the owner, so it can make that lookup with a nested call. *)
let test_engine_records_after_join () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let syn = Sketch.synopsis sk in
  let a, b =
    match
      List.filter
        (fun q -> Embed.embeddings syn q <> [])
        (List.sort_uniq compare (queries_for doc 10))
    with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "two queries with embeddings"
  in
  let session = ref None and nested = ref None in
  let peek q =
    match (!session, !nested) with
    | Some eng, None when q == b ->
        let r0 = Xtwig_util.Counters.get "plan.runs" in
        let ans = get (Engine.estimate eng a) in
        nested := Some (ans, Xtwig_util.Counters.get "plan.runs" - r0)
    | _ -> ()
  in
  let eng = get (Engine.of_sketch ~jobs:1 ~on_embedding:peek sk) in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  session := Some eng;
  let answers = get (Engine.estimate_batch eng [ a; b ]) in
  session := None;
  match (answers, !nested) with
  | [ first; _ ], Some (ans, ran) ->
      Alcotest.(check int) "the nested lookup ran the plans"
        first.Engine.provenance.Engine.pv_embeddings ran;
      Alcotest.(check (float 0.0)) "and got the same answer"
        first.Engine.estimate ans.Engine.estimate
  | _ -> Alcotest.fail "the hook never ran"

let test_engine_timeout_fallback () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let qs = queries_for doc 10 in
  (* hang one query: pick a victim with >= 2 embeddings so the
     deadline check between contributions must fire, then make every
     embedding visit of that query sleep past the deadline *)
  let syn = Sketch.synopsis sk in
  let victim =
    List.find (fun q -> List.length (Embed.embeddings syn q) >= 2) qs
  in
  let vkey = Xtwig_path.Path_printer.twig_to_string victim in
  let hang q =
    if Xtwig_path.Path_printer.twig_to_string q = vkey then Unix.sleepf 0.02
  in
  let eng = get (Engine.of_sketch ~jobs:2 ~timeout_s:0.005 ~on_embedding:hang sk) in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      let answers = get (Engine.estimate_batch eng qs) in
      let coarse = Sketch.default_of_doc doc in
      List.iter2
        (fun q (a : Engine.answer) ->
          if Xtwig_path.Path_printer.twig_to_string q = vkey then begin
            Alcotest.(check bool) "victim degraded" true a.Engine.fallback;
            Alcotest.(check (float 1e-9))
              "fallback is the coarse label-split estimate"
              (Est.estimate coarse q) a.Engine.estimate
          end)
        qs answers;
      Alcotest.(check bool)
        "victim's timeout counted" true
        ((Engine.stats eng).Engine.timeouts >= 1))

let test_engine_expired_deadline_degrades_all () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let qs = queries_for doc 5 in
  let eng = get (Engine.of_sketch ~jobs:1 sk) in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      (* a deadline that has passed before any plan runs (1 ns, below
         the clock's resolution; a non-positive one is refused): every
         answer must still come back, flagged, with the coarse
         estimate *)
      let answers = get (Engine.estimate_batch ~timeout_s:1e-9 eng qs) in
      let coarse = Sketch.default_of_doc doc in
      List.iter2
        (fun q (a : Engine.answer) ->
          Alcotest.(check bool) "fallback" true a.Engine.fallback;
          Alcotest.(check (float 1e-9))
            "coarse estimate" (Est.estimate coarse q) a.Engine.estimate)
        qs answers)

let test_engine_closed_and_invalid () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let eng = get (Engine.of_sketch sk) in
  Engine.close eng;
  Engine.close eng (* idempotent *);
  (match Engine.estimate_batch eng (queries_for doc 1) with
  | Error (Xerror.Engine _) -> ()
  | Ok _ -> Alcotest.fail "expected Engine error on closed session"
  | Error e -> Alcotest.fail (Xerror.to_string e));
  (match Engine.of_sketch ~jobs:0 sk with
  | Error (Xerror.Usage _) -> ()
  | _ -> Alcotest.fail "expected Usage error on jobs=0");
  match Xtwig.build_sketch ~budget:0 doc with
  | Error (Xerror.Usage _) -> ()
  | _ -> Alcotest.fail "expected Usage error on budget=0"

(* Every entry point refuses a deadline that is not positive with a
   usage error: a negative or zero one would degrade every query, a NaN
   one would never fire. [infinity] is valid and means no deadline. *)
let test_engine_rejects_deadline timeout_s () =
  let doc = Lazy.force imdb in
  let sk = build_small doc in
  let refused what = function
    | Error (Xerror.Usage _) -> ()
    | Ok _ -> Alcotest.failf "%s accepted timeout_s = %g" what timeout_s
    | Error e -> Alcotest.failf "%s: wrong class: %s" what (Xerror.to_string e)
  in
  refused "of_sketch" (Engine.of_sketch ~timeout_s sk);
  refused "of_backend"
    (Engine.of_backend ~timeout_s (Xtwig_backend.Estimator_backend.of_sketch sk));
  let eng = get (Engine.of_sketch ~timeout_s:infinity sk) in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      let qs = queries_for doc 2 in
      refused "estimate_batch" (Engine.estimate_batch ~timeout_s eng qs);
      List.iter
        (fun (a : Engine.answer) ->
          Alcotest.(check bool) "no deadline, no fallback" false a.Engine.fallback)
        (get (Engine.estimate_batch eng qs)))

(* ------------------------------------------------------------------ *)
(* Sketch format versioning                                            *)

(* dune runtest runs with cwd = the test directory; dune exec from the
   project root does not *)
let fixture name =
  if Sys.file_exists (Filename.concat "fixtures" name) then
    Filename.concat "fixtures" name
  else Filename.concat "test/fixtures" name

let tiny_doc () =
  match Xtwig_xml.Xml_parser.parse_file_res (fixture "tiny.xml") with
  | Ok d -> d
  | Error e -> Alcotest.fail (Xerror.to_string e)

let test_v1_fixture_migration () =
  let doc = tiny_doc () in
  let meta, sk = get (Sketch_io.read_res doc (fixture "tiny.sketch.v1")) in
  Alcotest.(check int) "legacy version" 1 meta.Sketch_io.version;
  Alcotest.(check bool) "v1 carries no budget" true (meta.Sketch_io.budget = None);
  Alcotest.(check bool) "v1 carries no seed" true (meta.Sketch_io.seed = None);
  (* the migrated sketch is usable and re-serializes as v2 *)
  let q = get (Xtwig_path.Path_parser.parse_twig_res "for t0 in //movie") in
  Alcotest.(check bool) "estimates" true (Est.estimate sk q > 0.0);
  let text = Sketch_io.to_string ~budget:400 ~seed:5 sk in
  Alcotest.(check bool)
    "re-serialized as v2" true
    (String.length text > 15 && String.sub text 0 15 = "xtwig-sketch/v2");
  let meta2, sk2 = get (Sketch_io.of_string_res doc text) in
  Alcotest.(check int) "v2 after roundtrip" 2 meta2.Sketch_io.version;
  Alcotest.(check bool) "budget preserved" true (meta2.Sketch_io.budget = Some 400);
  Alcotest.(check bool) "seed preserved" true (meta2.Sketch_io.seed = Some 5);
  Alcotest.(check string) "identical body" text (Sketch_io.to_string ~budget:400 ~seed:5 sk2)

let test_unknown_version_rejected () =
  let doc = Lazy.force imdb in
  (match Sketch_io.of_string_res doc "xtwig-sketch/v9\nend\n" with
  | Error (Xerror.Sketch_format msg) ->
      Alcotest.(check bool)
        "message names the magic" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected Sketch_format error");
  match Sketch_io.read_res doc (fixture "no-such-file.sketch") with
  | Error (Xerror.Io _) -> ()
  | _ -> Alcotest.fail "expected Io error"

let test_digest_mismatch_rejected () =
  (* a v2 sketch written over one document must be rejected against a
     document with a different tag table *)
  let doc_a = Lazy.force imdb in
  let text = Sketch_io.to_string (Sketch.default_of_doc doc_a) in
  let doc_b = tiny_doc () in
  match Sketch_io.of_string_res doc_b text with
  | Error (Xerror.Sketch_format _) -> ()
  | _ -> Alcotest.fail "expected Sketch_format error on digest mismatch"

(* ------------------------------------------------------------------ *)

let () =
  let diff name doc_lazy =
    let doc = Lazy.force doc_lazy in
    let b1, b2 = budgets doc in
    [
      Alcotest.test_case
        (Printf.sprintf "%s budget %d" name b1)
        `Slow
        (test_build_differential name doc b1);
      Alcotest.test_case
        (Printf.sprintf "%s budget %d" name b2)
        `Slow
        (test_build_differential name doc b2);
    ]
  in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "submit/await" `Quick test_pool_submit_await;
          Alcotest.test_case "map_array input order" `Quick
            test_pool_map_array_order;
          Alcotest.test_case "panic propagation" `Quick
            test_pool_panic_propagation;
          Alcotest.test_case "panic keeps worker backtrace" `Quick
            test_pool_panic_backtrace;
          Alcotest.test_case "shutdown discipline" `Quick test_pool_shutdown;
          Alcotest.test_case "worker-local prng" `Quick test_pool_worker_prng;
          Alcotest.test_case "1-domain inline bypass differential" `Quick
            test_pool_inline_bypass_differential;
        ] );
      ("xbuild parallel == sequential", diff "imdb" imdb @ diff "xmark" xmark);
      ( "engine",
        [
          Alcotest.test_case "batch parallel == sequential" `Quick
            test_engine_batch_differential;
          Alcotest.test_case "answers recorded after the join" `Quick
            test_engine_records_after_join;
          Alcotest.test_case "hung query degrades to coarse" `Quick
            test_engine_timeout_fallback;
          Alcotest.test_case "expired deadline degrades all" `Quick
            test_engine_expired_deadline_degrades_all;
          Alcotest.test_case "closed session and invalid args" `Quick
            test_engine_closed_and_invalid;
          Alcotest.test_case "deadline nan is refused" `Quick
            (test_engine_rejects_deadline Float.nan);
          Alcotest.test_case "deadline -1 is refused" `Quick
            (test_engine_rejects_deadline (-1.0));
          Alcotest.test_case "deadline 0 is refused" `Quick
            (test_engine_rejects_deadline 0.0);
        ] );
      ( "sketch format",
        [
          Alcotest.test_case "v1 fixture migrates" `Quick
            test_v1_fixture_migration;
          Alcotest.test_case "unknown version rejected" `Quick
            test_unknown_version_rejected;
          Alcotest.test_case "tag-digest mismatch rejected" `Quick
            test_digest_mismatch_rejected;
        ] );
    ]
