(* The Estimator_backend registry and the generic engine path: both
   built-in backends resolve, build and estimate; the generic
   of_backend session agrees with the direct backend estimate; the
   xsketch backend agrees with the dedicated sketch session. *)

module Backend = Xtwig.Backend
module Engine = Xtwig.Engine
module Xerror = Xtwig.Xerror

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Xerror.to_string e)

let doc = lazy (Xtwig_datagen.Imdb.generate ~scale:0.02 ())

let queries =
  [
    "for t0 in //movie, t1 in t0/actor";
    "for t0 in //movie, t1 in t0/actor, t2 in t0/producer";
    "for t0 in //movie[genre], t1 in t0/keyword";
  ]

let twigs () = List.map (fun q -> ok_exn (Xtwig.twig_of_string q)) queries

let test_registry () =
  let names = Backend.names () in
  Alcotest.(check bool) "xsketch registered" true (List.mem "xsketch" names);
  Alcotest.(check bool) "cst registered" true (List.mem "cst" names);
  (match Backend.find "XSketch" with
  | Ok (module B) -> Alcotest.(check string) "case-insensitive" "xsketch" B.name
  | Error e -> Alcotest.failf "find XSketch: %s" (Xerror.to_string e));
  match Backend.find "nope" with
  | Error (Xerror.Usage msg) ->
      (* a miss must name the alternatives *)
      Alcotest.(check bool) "usage error lists backends" true
        (List.for_all
           (fun n ->
             let nh = String.length msg and nn = String.length n in
             let rec at i =
               i + nn <= nh && (String.sub msg i nn = n || at (i + 1))
             in
             at 0)
           names)
  | Error e -> Alcotest.failf "wrong class: %s" (Xerror.to_string e)
  | Ok _ -> Alcotest.fail "unknown backend resolved"

let test_build_and_estimate () =
  let doc = Lazy.force doc in
  List.iter
    (fun backend ->
      let inst = ok_exn (Xtwig.build_backend ~backend ~budget:4000 doc) in
      Alcotest.(check string) "name_of" backend (Backend.name_of inst);
      Alcotest.(check bool)
        (backend ^ " size positive")
        true
        (Backend.size_bytes inst > 0);
      List.iter
        (fun t ->
          let e = Backend.estimate inst t in
          let c = Backend.coarse inst t in
          Alcotest.(check bool)
            (backend ^ " estimate finite, nonnegative")
            true
            (Float.is_finite e && e >= 0.0);
          Alcotest.(check bool)
            (backend ^ " coarse finite, nonnegative")
            true
            (Float.is_finite c && c >= 0.0))
        (twigs ()))
    [ "xsketch"; "cst" ]

let test_cst_has_no_persistence () =
  let doc = Lazy.force doc in
  match Xtwig.load_backend ~backend:"cst" doc "/nonexistent.sketch" with
  | Error (Xerror.Sketch_format _) -> ()
  | Error e -> Alcotest.failf "wrong class: %s" (Xerror.to_string e)
  | Ok _ -> Alcotest.fail "cst loaded a sketch"

let test_generic_session_matches_direct () =
  let doc = Lazy.force doc in
  List.iter
    (fun backend ->
      let inst = ok_exn (Xtwig.build_backend ~backend ~budget:4000 doc) in
      let engine = ok_exn (Xtwig.open_backend_session ~name:"t" inst) in
      Fun.protect
        ~finally:(fun () -> Xtwig.close_session engine)
        (fun () ->
          let answers = ok_exn (Xtwig.estimate_batch engine (twigs ())) in
          List.iter2
            (fun (a : Engine.answer) t ->
              Alcotest.(check bool) "no fallback" false a.Engine.fallback;
              Alcotest.(check (float 0.0))
                (backend ^ " session = direct estimate")
                (Backend.estimate inst t) a.Engine.estimate)
            answers (twigs ());
          let stats = Engine.stats engine in
          Alcotest.(check string) "stats backend" backend stats.Engine.backend;
          Alcotest.(check string) "stats tenant name" "t" stats.Engine.name;
          Alcotest.(check int) "queries counted" (List.length queries)
            stats.Engine.queries_served))
    [ "xsketch"; "cst" ]

let test_xsketch_backend_matches_sketch_session () =
  let doc = Lazy.force doc in
  let sketch = ok_exn (Xtwig.build_sketch ~budget:4000 doc) in
  let generic =
    ok_exn (Xtwig.open_backend_session (Backend.of_sketch sketch))
  in
  let dedicated = ok_exn (Xtwig.open_sketch_session sketch) in
  Fun.protect
    ~finally:(fun () ->
      Xtwig.close_session generic;
      Xtwig.close_session dedicated)
    (fun () ->
      let a = ok_exn (Xtwig.estimate_batch generic (twigs ())) in
      let b = ok_exn (Xtwig.estimate_batch dedicated (twigs ())) in
      List.iter2
        (fun (x : Engine.answer) (y : Engine.answer) ->
          Alcotest.(check bool) "bitwise equal paths" true
            (Int64.equal
               (Int64.bits_of_float x.Engine.estimate)
               (Int64.bits_of_float y.Engine.estimate)))
        a b)

(* A pooled session degrades on several workers at once. Each session
   below wraps a fresh instance, so its first degradations race to
   build the lazily built floor. The sketch is the coarsest one, which
   the floor estimates exactly as the sketch does, so every answer,
   degraded or not, must equal [Backend.coarse] bit for bit; a lost
   race used to read 0.0. *)
let test_pooled_coarse_floor () =
  let doc = Xtwig_datagen.Imdb.generate ~scale:0.05 () in
  let sk = Xtwig_sketch.Sketch.default_of_doc doc in
  let qs =
    Xtwig_workload.Wgen.generate
      { Xtwig_workload.Wgen.paper_p with n_queries = 32 }
      (Xtwig_util.Prng.create 11) doc
  in
  let floor = Backend.of_sketch sk in
  let expected =
    List.map (fun q -> Int64.bits_of_float (Backend.coarse floor q)) qs
  in
  List.iter
    (fun jobs ->
      for _ = 1 to 10 do
        let eng =
          ok_exn
            (Engine.of_backend ~jobs ~timeout_s:1e-9 (Backend.of_sketch sk))
        in
        let answers =
          Fun.protect
            ~finally:(fun () -> Engine.close eng)
            (fun () -> ok_exn (Engine.estimate_batch eng qs))
        in
        List.iter2
          (fun bits (a : Engine.answer) ->
            Alcotest.(check int64)
              (Printf.sprintf "jobs %d: answer = coarse floor" jobs)
              bits
              (Int64.bits_of_float a.Engine.estimate))
          expected answers
      done)
    [ 2; 4 ]

let () =
  Alcotest.run "backend"
    [
      ( "registry",
        [
          Alcotest.test_case "builtin backends resolve" `Quick test_registry;
          Alcotest.test_case "build + estimate both backends" `Quick
            test_build_and_estimate;
          Alcotest.test_case "cst refuses load" `Quick test_cst_has_no_persistence;
        ] );
      ( "engine",
        [
          Alcotest.test_case "generic session matches direct" `Quick
            test_generic_session_matches_direct;
          Alcotest.test_case "xsketch backend matches sketch session" `Quick
            test_xsketch_backend_matches_sketch_session;
          Alcotest.test_case "pooled degradations share one coarse floor"
            `Quick test_pooled_coarse_floor;
        ] );
    ]
