(* The fault subsystem's contracts, and the engine hardening they lock
   down:

   - the scenario grammar round-trips and rejects malformed input;
   - triggers fire exactly where their definition says, per (point,
     scope) hit counter;
   - with a scenario installed, the injected fault sequence is a pure
     function of the scenario — byte-identical across runs and across
     worker-domain counts;
   - Engine.estimate_batch NEVER raises, under any generated fault
     scenario: every query comes back as an answer (possibly degraded,
     with a typed reason) and the batch as Ok/Error;
   - retry, circuit-breaker and cardinality-guard paths behave as
     specified, deterministically. *)

module Fault = Xtwig_fault.Fault
module Engine = Xtwig_engine.Engine
module Sketch = Xtwig_sketch.Sketch
module Xbuild = Xtwig_sketch.Xbuild
module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng
module Xerror = Xtwig_util.Xerror
module Pool = Xtwig_util.Pool
module Testgen = Xtwig_testgen.Testgen

let get = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Xerror.to_string e)

(* parse_spec errors are plain strings *)
let spec s =
  match Fault.parse_spec s with
  | Ok v -> v
  | Error e -> Alcotest.fail ("bad spec: " ^ e)

(* every test leaves injection disabled, pass or fail *)
let protecting f () = Fun.protect ~finally:Fault.disable f

(* ------------------------------------------------------------------ *)
(* Spec grammar *)

let canonical = "seed=7;io.*:p0.01;pool.task:n3;engine.query:s1,4,9;plan.fill:every5"

let test_spec_parse () =
  let sp = spec canonical in
  Alcotest.(check int) "seed" 7 sp.Fault.seed;
  Alcotest.(check int) "rules" 4 (List.length sp.Fault.rules);
  (match sp.Fault.rules with
  | [ r1; r2; r3; r4 ] ->
      Alcotest.(check string) "glob pattern" "io.*" r1.Fault.pattern;
      Alcotest.(check bool) "prob" true (r1.Fault.trigger = Fault.Prob 0.01);
      Alcotest.(check bool) "nth" true (r2.Fault.trigger = Fault.Nth 3);
      Alcotest.(check bool) "script" true
        (r3.Fault.trigger = Fault.Script [ 1; 4; 9 ]);
      Alcotest.(check bool) "every" true (r4.Fault.trigger = Fault.Every 5)
  | _ -> Alcotest.fail "wrong rule count");
  (* whitespace separators are the same grammar *)
  let sp2 =
    spec "seed=7 io.*:p0.01 pool.task:n3 engine.query:s1,4,9 plan.fill:every5"
  in
  Alcotest.(check string) "whitespace form parses identically"
    (Fault.spec_to_string sp) (Fault.spec_to_string sp2)

let test_spec_rejects () =
  let rejected s =
    match Fault.parse_spec s with Error _ -> true | Ok _ -> false
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true (rejected s))
    [
      "nocolon";
      "x:p2.0";
      "x:p-0.1";
      "x:n0";
      "x:every0";
      "x:s";
      "x:s1,zero";
      "x:frob7";
      "seed=abc;x:n1";
      ":n1";
    ]

let prop_spec_roundtrip =
  QCheck2.Test.make ~name:"spec print/parse roundtrip" ~count:200
    (Testgen.fault_spec ()) (fun spec ->
      match Fault.parse_spec (Fault.spec_to_string spec) with
      | Error _ -> false
      | Ok spec2 -> Fault.spec_to_string spec = Fault.spec_to_string spec2)

(* ------------------------------------------------------------------ *)
(* Point mechanics (single domain, scripted triggers) *)

(* make [n] arrivals at [name], returning the hit indices that fired *)
let fired_hits name n =
  let fired = ref [] in
  for i = 1 to n do
    match Fault.point name with
    | () -> ()
    | exception Fault.Injected { hit; _ } ->
        Alcotest.(check int) "hit index matches arrival" i hit;
        fired := hit :: !fired
  done;
  List.rev !fired

let test_triggers =
  protecting @@ fun () ->
  Fault.install (spec "seed=1;a:n3;b:every4;c:s2,5;d:always");
  Alcotest.(check (list int)) "nth fires once" [ 3 ] (fired_hits "a" 10);
  Alcotest.(check (list int)) "every fires on multiples" [ 4; 8 ] (fired_hits "b" 10);
  Alcotest.(check (list int)) "script fires exactly there" [ 2; 5 ] (fired_hits "c" 6);
  Alcotest.(check (list int)) "always fires on every hit" [ 1; 2; 3 ] (fired_hits "d" 3);
  Alcotest.(check (list int)) "unmatched point never fires" [] (fired_hits "zz" 5);
  Alcotest.(check int) "injected_count totals the log" 8 (Fault.injected_count ())

let test_glob_first_match =
  protecting @@ fun () ->
  Fault.install (spec "io.read:n1;io.*:n2");
  (* exact rule shadows the glob for io.read; glob covers io.write *)
  Alcotest.(check (list int)) "first matching rule wins" [ 1 ] (fired_hits "io.read" 3);
  Alcotest.(check (list int)) "glob matches by prefix" [ 2 ] (fired_hits "io.write" 3)

let test_scopes_isolate_counters =
  protecting @@ fun () ->
  Fault.install (spec "p:n2");
  (* hit counters are per (point, scope): each scope gets its own 2nd hit *)
  let fired_in_scope s =
    Fault.with_scope s (fun () ->
        let f = ref [] in
        for _ = 1 to 3 do
          match Fault.point "p" with
          | () -> ()
          | exception Fault.Injected { scope; hit; _ } -> f := (scope, hit) :: !f
        done;
        List.rev !f)
  in
  Alcotest.(check bool) "scope 1" true (fired_in_scope 1 = [ (1, 2) ]);
  Alcotest.(check bool) "scope 2" true (fired_in_scope 2 = [ (2, 2) ]);
  Alcotest.(check int) "current scope restored" 0 (Fault.scope ())

let test_disabled_and_reset =
  protecting @@ fun () ->
  Alcotest.(check bool) "disabled: no scenario" true (Fault.active () = None);
  Fault.point "anything" (* no-op *);
  Alcotest.(check bool) "disabled: fires is false" false (Fault.fires "anything");
  Fault.install (spec "seed=3;x:s1,3");
  let run () =
    let l = fired_hits "x" 4 in
    (l, Fault.log_to_string ())
  in
  let l1, log1 = run () in
  Fault.reset ();
  let l2, log2 = run () in
  Alcotest.(check (list int)) "reset replays the same sequence" l1 l2;
  Alcotest.(check string) "identical logs" log1 log2;
  Fault.disable ();
  Alcotest.(check int) "disable clears the log" 0 (Fault.injected_count ())

(* ------------------------------------------------------------------ *)
(* Engine under injection *)

let imdb = lazy (Xtwig_datagen.Imdb.generate ~seed:7 ~scale:0.02 ())

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

let sketch_for doc =
  let truth = truth_oracle doc in
  let workload prng ~focus =
    Wgen.generate ~focus { Wgen.paper_p with Wgen.n_queries = 8 } prng doc
  in
  let budget = Sketch.size_bytes (Sketch.default_of_doc doc) * 2 in
  Xbuild.build ~seed:3 ~candidates:6 ~max_steps:30 ~workload ~truth ~budget doc

let sk = lazy (sketch_for (Lazy.force imdb))

let queries n = Wgen.generate { Wgen.paper_p with Wgen.n_queries = n } (Prng.create 99) (Lazy.force imdb)

(* force the shared fixtures before installing a scenario, so the
   sketch build itself (which exercises plan/embed caches) is not the
   thing being faulted *)
let warm () = ignore (Lazy.force sk)

(* run a batch against a fresh session ([sends] times in a row, the
   answers of every send concatenated); the engine must return Ok with
   one finite answer per query, whatever the scenario does *)
let run_batch ?(jobs = 1) ?(retries = 2) ?(breaker_threshold = max_int)
    ?(sends = 1) qs =
  let eng =
    get
      (Engine.of_sketch ~jobs ~timeout_s:60.0 ~retries ~backoff_s:0.0
         ~breaker_threshold (Lazy.force sk))
  in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      let rec go k acc =
        if k = 0 then Ok (List.concat (List.rev acc))
        else
          match Engine.estimate_batch eng qs with
          | Ok answers -> go (k - 1) (answers :: acc)
          | Error e -> Error e
      in
      go sends [])

let answer_key (a : Engine.answer) =
  Printf.sprintf "%.17g|%b|%s|%d" a.Engine.estimate a.Engine.fallback
    (match a.Engine.reason with
    | None -> "-"
    | Some Engine.Timeout -> "timeout"
    | Some Engine.Fault -> "fault"
    | Some Engine.Circuit_open -> "circuit"
    | Some Engine.Guard -> "guard")
    a.Engine.retries

let chaos_spec =
  "seed=5;engine.query:p0.3;plan.fill:p0.2;embed.fill:p0.15"

(* The batch holds one query twice and goes to its session twice, so
   the second send reads the answers the first recorded; a recorded
   answer passes the [engine.query] point like one that runs plans,
   so a scenario fires at the same arrivals either way. *)
let test_fault_sequence_deterministic =
  protecting @@ fun () ->
  warm ();
  let qs = queries 25 in
  let qs = qs @ [ List.hd qs ] in
  let n = List.length qs in
  let sp = spec chaos_spec in
  let run jobs =
    Fault.install sp;
    let answers = get (run_batch ~jobs ~sends:2 qs) in
    let log = Fault.log_to_string () in
    (String.concat "\n" (List.map answer_key answers), log)
  in
  let a1, l1 = run 1 in
  Alcotest.(check bool) "the scenario actually fired" true (String.length l1 > 0);
  let a1', l1' = run 1 in
  Alcotest.(check string) "same run, same fault log (byte-identical)" l1 l1';
  Alcotest.(check string) "same run, same answers" a1 a1';
  let a2, l2 = run 2 in
  let a4, l4 = run 4 in
  Alcotest.(check string) "jobs=2: identical fault log" l1 l2;
  Alcotest.(check string) "jobs=4: identical fault log" l1 l4;
  Alcotest.(check string) "jobs=2: identical answers" a1 a2;
  Alcotest.(check string) "jobs=4: identical answers" a1 a4;
  (* every query's second arrival fires: on the second send, where
     each answer is recorded, in every scope, once, whatever [jobs] *)
  List.iter
    (fun jobs ->
      Fault.install (spec "engine.query:n2");
      let answers = get (run_batch ~jobs ~sends:2 qs) in
      Alcotest.(check (list (triple string int int)))
        (Printf.sprintf "jobs=%d: n2 fires on every recorded sighting" jobs)
        (List.init n (fun i -> ("engine.query", i, 2)))
        (Fault.log ());
      List.iteri
        (fun i (a : Engine.answer) ->
          Alcotest.(check (pair bool int))
            (Printf.sprintf "jobs=%d: answer %d clean, retried %d" jobs i
               (if i < n then 0 else 1))
            (false, if i < n then 0 else 1)
            (a.Engine.fallback, a.Engine.retries))
        answers)
    [ 1; 2; 4 ]

let test_retry_then_success =
  protecting @@ fun () ->
  warm ();
  (* first eval attempt of every query faults; one retry succeeds *)
  Fault.install (spec "engine.query:n1");
  let answers = get (run_batch ~retries:2 (queries 5)) in
  List.iter
    (fun (a : Engine.answer) ->
      Alcotest.(check bool) "no fallback after retry" false a.Engine.fallback;
      Alcotest.(check int) "one retry consumed" 1 a.Engine.retries)
    answers

let test_retries_exhausted_degrade =
  protecting @@ fun () ->
  warm ();
  Fault.install (spec "engine.query:always");
  let qs = queries 5 in
  let answers = get (run_batch ~retries:1 qs) in
  let coarse = Sketch.default_of_doc (Lazy.force imdb) in
  List.iter2
    (fun q (a : Engine.answer) ->
      Alcotest.(check bool) "degraded" true (a.Engine.reason = Some Engine.Fault);
      Alcotest.(check (float 1e-9))
        "estimate is the coarse label-split estimate"
        (Xtwig_sketch.Estimator.estimate coarse q)
        a.Engine.estimate)
    qs answers

let test_breaker_trips_and_recovers =
  protecting @@ fun () ->
  warm ();
  Fault.install (spec "engine.query:always");
  let eng =
    get
      (Engine.of_sketch ~timeout_s:60.0 ~retries:0 ~backoff_s:0.0
         ~breaker_threshold:3 ~breaker_cooldown_s:0.0 (Lazy.force sk))
  in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      let qs = queries 6 in
      let b1 = get (Engine.estimate_batch eng qs) in
      Alcotest.(check int) "all fault-degraded" 6
        (List.length (List.filter (fun (a : Engine.answer) -> a.Engine.reason = Some Engine.Fault) b1));
      Alcotest.(check bool) "breaker tripped" true (Engine.breaker_state eng = `Open);
      Alcotest.(check bool) "trips counted" true ((Engine.stats eng).Engine.breaker_trips >= 1);
      (* cooldown is zero: the next batch's first query is the probe;
         faults still fire, so it fails and the breaker re-opens while
         the rest short-circuit *)
      let b2 = get (Engine.estimate_batch eng qs) in
      (match b2 with
      | first :: rest ->
          Alcotest.(check bool) "probe ran (and failed)" true
            (first.Engine.reason = Some Engine.Fault);
          Alcotest.(check bool) "rest short-circuited" true
            (List.for_all
               (fun (a : Engine.answer) -> a.Engine.reason = Some Engine.Circuit_open)
               rest)
      | [] -> Alcotest.fail "empty batch");
      Alcotest.(check bool) "re-opened" true (Engine.breaker_state eng = `Open);
      (* heal the fault: the probe succeeds and the breaker closes *)
      Fault.disable ();
      let b3 = get (Engine.estimate_batch eng qs) in
      (match b3 with
      | first :: _ ->
          Alcotest.(check bool) "probe succeeded" false first.Engine.fallback
      | [] -> Alcotest.fail "empty batch");
      Alcotest.(check bool) "closed again" true (Engine.breaker_state eng = `Closed);
      let b4 = get (Engine.estimate_batch eng qs) in
      Alcotest.(check int) "full service restored" 0
        (List.length (List.filter (fun (a : Engine.answer) -> a.Engine.fallback) b4)))

let test_guard_degrades =
  protecting @@ fun () ->
  let eng =
    get (Engine.of_sketch ~timeout_s:60.0 ~max_embeddings:0 (Lazy.force sk))
  in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      let answers = get (Engine.estimate_batch eng (queries 4)) in
      List.iter
        (fun (a : Engine.answer) ->
          Alcotest.(check bool) "guard reason" true
            (a.Engine.reason = Some Engine.Guard))
        answers;
      Alcotest.(check int) "degraded counted" 4 (Engine.stats eng).Engine.degraded)

(* A degraded answer is the coarse floor and is never recorded: after
   each degraded sighting of a query, cold or already recorded, its
   next clean sighting returns the exact estimate bit for bit. The
   degraded sightings: a Timeout past a deadline that expired while
   the query waited behind a hung one, an [on_embedding] hang, an
   injected [engine.query] fault, and a failed half-open probe with
   the query short-circuited behind it. A guarded query degrades with
   Guard on every sighting. *)
let test_degraded_answers_not_recorded =
  protecting @@ fun () ->
  warm ();
  let sk = Lazy.force sk in
  let coarse = Sketch.default_of_doc (Lazy.force imdb) in
  let syn = Sketch.synopsis sk in
  let n_emb q = List.length (Xtwig_sketch.Embed.embeddings syn q) in
  let qs = List.sort_uniq compare (queries 12) in
  let victim = List.find (fun q -> n_emb q >= 2) qs in
  let qs = List.filter (fun q -> q != victim) qs in
  let exact = Xtwig_sketch.Estimator.estimate sk in
  let bits = Int64.bits_of_float in
  Alcotest.(check bool) "a coarse answer differs from its exact one" true
    (List.exists (fun q -> bits (exact q) <> bits (Xtwig_sketch.Estimator.estimate coarse q)) qs);
  (* [hung] queries sleep before each embedding's contribution; a
     query with two embeddings then misses a 10 ms deadline *)
  let hung = ref [] and hook_calls = ref 0 in
  let hang q =
    incr hook_calls;
    if List.memq q !hung then Unix.sleepf 0.025
  in
  let session () =
    get
      (Engine.of_sketch ~timeout_s:60.0 ~retries:0 ~backoff_s:0.0
         ~breaker_threshold:1 ~breaker_cooldown_s:0.0 ~on_embedding:hang sk)
  in
  let batch ?timeout_s eng qs = get (Engine.estimate_batch ?timeout_s eng qs) in
  let reason (a : Engine.answer) =
    match a.Engine.reason with
    | None -> "none"
    | Some Engine.Timeout -> "timeout"
    | Some Engine.Fault -> "fault"
    | Some Engine.Circuit_open -> "circuit"
    | Some Engine.Guard -> "guard"
  in
  let clean label eng q =
    match batch eng [ q ] with
    | [ a ] ->
        Alcotest.(check (pair string int64)) label
          ("none", bits (exact q))
          (reason a, bits a.Engine.estimate)
    | _ -> Alcotest.fail "one answer per query"
  in
  let degraded label want (a : Engine.answer) =
    Alcotest.(check string) label want (reason a)
  in
  let with_faults f =
    Fault.install (spec "engine.query:always");
    Fun.protect ~finally:Fault.disable f
  in
  let eng = session () in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  hung := [ victim ];
  List.iteri
    (fun i q ->
      (* two rounds: the first starts with [q] cold, the second with
         its answer recorded *)
      List.iter
        (fun start ->
          let l what = Printf.sprintf "q%d, starting %s: %s" i start what in
          (match batch ~timeout_s:0.01 eng [ victim; q ] with
          | [ _; a ] -> degraded (l "waited past its deadline") "timeout" a
          | _ -> Alcotest.fail "two answers");
          clean (l "exact after the timeout") eng q;
          (match with_faults (fun () -> batch eng [ q ]) with
          | [ a ] -> degraded (l "engine.query fault") "fault" a
          | _ -> Alcotest.fail "one answer");
          clean (l "exact after the fault") eng q;
          (* a fault trips the breaker (threshold 1, no cooldown); the
             next batch's first query is its probe, which fails, and
             [q] behind it is short-circuited *)
          (match
             with_faults (fun () ->
                 ignore (batch eng [ victim ]);
                 batch eng [ victim; q ])
           with
          | [ p; a ] ->
              degraded (l "failed probe") "fault" p;
              degraded (l "behind the failed probe") "circuit" a
          | _ -> Alcotest.fail "two answers");
          clean (l "exact after the failed probe") eng q)
        [ "cold"; "recorded" ])
    qs;
  (* an [on_embedding] hang times the hung query out while it runs
     plans; its next clean sighting runs the kept plans, and once that
     answer is recorded, no plan (and no hook) runs again *)
  let eng = session () in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  List.iteri
    (fun i q ->
      if n_emb q >= 2 then begin
        let l what = Printf.sprintf "hung q%d: %s" i what in
        hung := [ q ];
        (match batch ~timeout_s:0.01 eng [ q ] with
        | [ a ] -> degraded (l "timed out") "timeout" a
        | _ -> Alcotest.fail "one answer");
        hung := [];
        clean (l "exact after the hang") eng q;
        hung := [ q ];
        let calls = !hook_calls in
        clean (l "recorded answer, hook armed") eng q;
        Alcotest.(check int) (l "hook not called") calls !hook_calls;
        hung := []
      end)
    (victim :: qs);
  let eng =
    get (Engine.of_sketch ~timeout_s:60.0 ~max_embeddings:0 sk)
  in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  List.iteri
    (fun i q ->
      for k = 1 to 3 do
        match batch eng [ q ] with
        | [ a ] -> degraded (Printf.sprintf "guarded q%d sighting %d" i k) "guard" a
        | _ -> Alcotest.fail "one answer"
      done)
    qs

(* a session miss passes both fill points, embedding first: with each
   point failing its first arrival in every query's scope, every query
   fires both, retries twice and still answers exactly *)
let test_both_fill_points_fire =
  protecting @@ fun () ->
  warm ();
  let qs = List.sort_uniq compare (queries 6) in
  let expected = List.map (Xtwig_sketch.Estimator.estimate (Lazy.force sk)) qs in
  Fault.install (spec "embed.fill:n1;plan.fill:n1");
  let answers = get (run_batch ~retries:2 qs) in
  List.iter2
    (fun e (a : Engine.answer) ->
      Alcotest.(check bool) "answered" false a.Engine.fallback;
      Alcotest.(check int) "two retries" 2 a.Engine.retries;
      Alcotest.(check (float 0.0)) "exact" e a.Engine.estimate)
    expected answers;
  let fired point =
    List.length (List.filter (fun (p, _, _) -> p = point) (Fault.log ()))
  in
  Alcotest.(check int) "embed.fill per query" (List.length qs) (fired "embed.fill");
  Alcotest.(check int) "plan.fill per query" (List.length qs) (fired "plan.fill")

(* the tentpole property: estimate_batch never raises, under ANY
   scenario the generator can produce — including pool.task storms and
   100% failure rates on every engine-path point *)
let prop_engine_never_raises =
  let engine_points =
    [ "engine.query"; "plan.fill"; "embed.fill"; "pool.task" ]
  in
  QCheck2.Test.make ~name:"estimate_batch never raises under faults" ~count:25
    (QCheck2.Gen.pair (Testgen.fault_spec ~points:engine_points ()) (QCheck2.Gen.oneofl [ 1; 2; 4 ]))
    (fun (spec, jobs) ->
      Fun.protect ~finally:Fault.disable @@ fun () ->
      warm ();
      Fault.install spec;
      let qs = queries 8 in
      match run_batch ~jobs qs with
      | Ok answers ->
          List.length answers = List.length qs
          && List.for_all
               (fun (a : Engine.answer) ->
                 Float.is_finite a.Engine.estimate
                 && a.Engine.fallback = (a.Engine.reason <> None))
               answers
      | Error (Xerror.Engine _) -> true (* typed, not raised *)
      | Error _ -> false
      | exception e ->
          QCheck2.Test.fail_reportf "estimate_batch raised %s"
            (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* PR-9 ingest points: ingest.chunk (streaming-parse window refills)
   and sketch.delta (incremental synopsis maintenance) *)

let test_ingest_chunk_fault =
  protecting @@ fun () ->
  let xml = "<lib><a><b>1</b></a><a><b>2</b></a></lib>" in
  Fault.install (spec "ingest.chunk:always");
  (match Xtwig_xml.Xml_parser.parse_string_res xml with
  | Error (Xerror.Io msg) ->
      Alcotest.(check bool) "names the point" true
        (String.length msg >= 12 && String.sub msg 0 8 = "injected")
  | Ok _ -> Alcotest.fail "parse claimed success under injection"
  | Error e -> Alcotest.failf "expected Io, got %s" (Xerror.to_string e));
  (* a later refill of a bounded window fires mid-parse too, and the
     raw Sax surface raises the typed exception, never a crash *)
  Fault.reset ();
  Fault.install (spec "ingest.chunk:n3");
  (match Xtwig_xml.Sax.parse_string ~chunk:4 xml with
  | (_ : Xtwig_xml.Doc.t) -> Alcotest.fail "chunked parse ignored the fault"
  | exception Fault.Injected { point; _ } ->
      Alcotest.(check string) "mid-parse point" "ingest.chunk" point);
  Fault.disable ();
  match Xtwig_xml.Xml_parser.parse_string_res xml with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "healthy parse failed: %s" (Xerror.to_string e)

let test_sketch_delta_fault =
  protecting @@ fun () ->
  let doc =
    get (Xtwig_xml.Xml_parser.parse_string_res "<lib><b>1</b><b>2</b></lib>")
  in
  let fragment = get (Xtwig_xml.Xml_parser.parse_string_res "<b>3</b>") in
  let sk0 = Sketch.default_of_doc doc in
  let delta = Sketch.Insert { parent = 0; fragment } in
  Fault.install (spec "sketch.delta:always");
  (* the facade turns the injected fault into a typed Engine error *)
  (match Xtwig.update_sketch sk0 delta with
  | Error (Xerror.Engine _) -> ()
  | Ok _ -> Alcotest.fail "update_sketch claimed success under injection"
  | Error e -> Alcotest.failf "expected Engine, got %s" (Xerror.to_string e));
  (* a live session survives the failed update and accepts it once the
     scenario lifts *)
  let eng = get (Engine.of_sketch sk0) in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () ->
      (match Engine.update eng delta with
      | Error (Xerror.Engine _) -> ()
      | Ok () -> Alcotest.fail "Engine.update claimed success under injection"
      | Error e -> Alcotest.failf "expected Engine, got %s" (Xerror.to_string e));
      Fault.disable ();
      match Engine.update eng delta with
      | Ok () -> ()
      | Error e -> Alcotest.failf "healthy update failed: %s" (Xerror.to_string e))

(* CI chaos hook: when XTWIG_FAULT_SPEC carries a scenario, run the
   batch under it — the fault-matrix job feeds canned chaos through
   the same never-raise assertion *)
let test_env_scenario =
  protecting @@ fun () ->
  match Fault.env_spec () with
  | Error e -> Alcotest.fail ("XTWIG_FAULT_SPEC does not parse: " ^ e)
  | Ok None -> () (* not running under the fault matrix *)
  | Ok (Some spec) ->
      warm ();
      Fault.install spec;
      let qs = queries 40 in
      (match run_batch ~jobs:2 qs with
      | Ok answers ->
          Alcotest.(check int) "every query answered" (List.length qs)
            (List.length answers)
      | Error e -> Alcotest.fail ("typed error is fine, but: " ^ Xerror.to_string e));
      (* the ingest surfaces under the same scenario: a chunked parse
         and a sketch delta either succeed or fail typed — never raise.
         Small chunks maximise ingest.chunk trigger opportunities. *)
      let xml =
        "<lib>"
        ^ String.concat ""
            (List.init 64 (fun i -> Printf.sprintf "<b><y>%d</y></b>" i))
        ^ "</lib>"
      in
      for _ = 1 to 20 do
        (match Xtwig_xml.Sax.parse_string ~chunk:8 xml with
        | (_ : Xtwig_xml.Doc.t) -> ()
        | exception Fault.Injected _ -> ());
        match Xtwig_xml.Xml_parser.parse_string_res xml with
        | Ok doc -> (
            match Xtwig_xml.Xml_parser.parse_string_res "<b><y>99</y></b>" with
            | Error _ -> () (* fragment parse itself drew a fault *)
            | Ok fragment -> (
                let sk = Sketch.default_of_doc doc in
                match
                  Xtwig.update_sketch sk
                    (Sketch.Insert { parent = Xtwig_xml.Doc.root doc; fragment })
                with
                | Ok _ | Error (Xerror.Engine _) -> ()
                | Error e ->
                    Alcotest.failf "delta under chaos: expected Engine, got %s"
                      (Xerror.to_string e)))
        | Error (Xerror.Io _) -> ()
        | Error e ->
            Alcotest.failf "parse under chaos: expected Io, got %s"
              (Xerror.to_string e)
      done;
      (* the optimizer under the same scenario: planning is total — a
         drawn opt.plan fault degrades to the default branch order,
         never a raise and never a changed answer *)
      let doc = Lazy.force imdb in
      let sketch = Lazy.force sk in
      List.iteri
        (fun i q ->
          let plan = Xtwig.optimize sketch q in
          Alcotest.(check int)
            (Printf.sprintf "optimize under chaos: q%d answer unchanged" i)
            (Xtwig.selectivity doc q)
            (Xtwig.selectivity_ordered doc plan q))
        (List.filteri (fun i _ -> i < 10) qs);
      Printf.printf "fault-matrix: %d faults injected under %S\n%!"
        (Fault.injected_count ()) (Fault.spec_to_string spec)

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "canonical example parses" `Quick test_spec_parse;
          Alcotest.test_case "malformed specs rejected" `Quick test_spec_rejects;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
        ] );
      ( "points",
        [
          Alcotest.test_case "triggers" `Quick test_triggers;
          Alcotest.test_case "glob + first match wins" `Quick test_glob_first_match;
          Alcotest.test_case "scopes isolate hit counters" `Quick
            test_scopes_isolate_counters;
          Alcotest.test_case "disabled/reset semantics" `Quick
            test_disabled_and_reset;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fault sequence deterministic across runs and jobs"
            `Quick test_fault_sequence_deterministic;
          Alcotest.test_case "retry then success" `Quick test_retry_then_success;
          Alcotest.test_case "retries exhausted -> coarse fallback" `Quick
            test_retries_exhausted_degrade;
          Alcotest.test_case "breaker trips, half-opens, recovers" `Quick
            test_breaker_trips_and_recovers;
          Alcotest.test_case "cardinality guard degrades" `Quick
            test_guard_degrades;
          Alcotest.test_case "degraded answers are never recorded" `Quick
            test_degraded_answers_not_recorded;
          Alcotest.test_case "both fill points fire on session misses" `Quick
            test_both_fill_points_fire;
          QCheck_alcotest.to_alcotest prop_engine_never_raises;
          Alcotest.test_case "XTWIG_FAULT_SPEC chaos (fault matrix)" `Quick
            test_env_scenario;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "ingest.chunk surfaces typed" `Quick
            test_ingest_chunk_fault;
          Alcotest.test_case "sketch.delta surfaces typed" `Quick
            test_sketch_delta_fault;
        ] );
    ]
