(* The xtwigd serving layer: protocol framing and codec, end-to-end
   service over a Unix socket, hot reload under live queries
   (differential against direct Engine calls, bitwise), admission
   control (typed overload responses, never a closed socket) and
   fault-spec chaos over the serve.* points with zero uncaught
   exceptions. *)

module P = Xtwig_serve.Protocol
module Server = Xtwig_serve.Server
module Catalog = Xtwig_serve.Catalog
module Xerror = Xtwig.Xerror
module Engine = Xtwig.Engine
module Metrics = Xtwig_obs.Metrics
module Fault = Xtwig_fault.Fault

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Xerror.to_string e)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* ---------------- framing ---------------- *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 5000 'q'; "a\nb\nc"; "\x00\xff bytes" ] in
  (* one stream, all frames, fed in every chunk size from 1 to 17 *)
  let stream = String.concat "" (List.map P.frame payloads) in
  for chunk = 1 to 17 do
    let d = P.decoder () in
    let got = ref [] in
    let i = ref 0 in
    while !i < String.length stream do
      let n = min chunk (String.length stream - !i) in
      P.feed d (Bytes.of_string (String.sub stream !i n)) n;
      i := !i + n;
      let continue = ref true in
      while !continue do
        match P.next_frame d with
        | Ok (Some p) -> got := p :: !got
        | Ok None -> continue := false
        | Error e -> Alcotest.failf "decoder error: %s" e
      done
    done;
    Alcotest.(check (list string))
      (Printf.sprintf "chunk size %d" chunk)
      payloads (List.rev !got)
  done

let test_frame_oversized () =
  let d = P.decoder () in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (P.max_frame + 1));
  P.feed d b 4;
  match P.next_frame d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length accepted"

(* ---------------- codec ---------------- *)

let test_request_roundtrip () =
  let reqs =
    [
      P.Ping;
      P.List;
      P.Metrics;
      P.Stats "movies";
      P.Reload "t-1.a_b";
      P.Estimate { tenant = "m"; query = "for t0 in //a, t1 in t0/b"; trace = None };
      P.Estimate { tenant = "m"; query = "for t0 in //a"; trace = Some 42 };
      P.Batch
        {
          tenant = "m";
          queries = [ "x in //a"; "y in //b, z in y/c" ];
          trace = None;
        };
      P.Batch { tenant = "m"; queries = [ "x in //a" ]; trace = Some 0 };
      P.Explain { tenant = "m"; query = "for t0 in //a, t1 in t0/b"; trace = None };
      P.Explain { tenant = "m"; query = "for t0 in //a"; trace = Some 7 };
      P.Update
        {
          tenant = "m";
          op = P.Ins { parent = 0; fragment_xml = "<movie><a>1</a>\n</movie>" };
        };
      P.Update { tenant = "m"; op = P.Del 17 };
    ]
  in
  List.iteri
    (fun i req ->
      match P.decode_request (P.encode_request ~id:(i * 7) req) with
      | Ok (id, req') ->
          Alcotest.(check int) "id" (i * 7) id;
          Alcotest.(check bool) "request" true (req = req')
      | Error e -> Alcotest.failf "decode: %s" e)
    reqs

let test_response_roundtrip () =
  let errors =
    [
      Xerror.Usage "u";
      Xerror.Parse (Xerror.Xml, "x");
      Xerror.Parse (Xerror.Path, "p");
      Xerror.Parse (Xerror.Twig, "t");
      Xerror.Io "i";
      Xerror.Sketch_format "s";
      Xerror.Corrupt "c";
      Xerror.Engine "e";
      Xerror.Overload "queue full (64 pending)";
    ]
  in
  List.iteri
    (fun i e ->
      match P.decode_response (P.encode_response ~id:i (P.Fail e)) with
      | Ok (id, P.Fail e') ->
          Alcotest.(check int) "id" i id;
          Alcotest.(check bool) (P.error_class e) true (e = e')
      | Ok (_, P.Reply _) -> Alcotest.fail "error became ok"
      | Error msg -> Alcotest.failf "decode: %s" msg)
    errors;
  List.iter
    (fun body ->
      match P.decode_response (P.encode_response ~id:3 (P.Reply body)) with
      | Ok (3, P.Reply b) -> Alcotest.(check string) "body" body b
      | _ -> Alcotest.fail "reply roundtrip")
    [ ""; "one line"; "a\nb\nc" ]

let test_bad_inputs_rejected () =
  List.iter
    (fun s ->
      match P.decode_request s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      ""; "nope"; "-3 ping"; "x ping"; "7 frobnicate"; "7 estimate bad tenant";
      "7 estimate m trace=x"; "7 estimate m trace=-2"; "7 explain m bogus";
      "7 update m"; "7 update m\nfrob 3"; "7 update m\ninsert x\n<a/>";
      "7 update m\ninsert 0"; "7 update m\ndelete 3\n<a/>";
      "7 update m\ndelete -2"; "7 update m\ninsert -1\n<a/>";
    ]

let any_twig =
  lazy
    (match Xtwig.twig_of_string "for t0 in //a, t1 in t0/b" with
    | Ok t -> t
    | Error _ -> assert false)

let prop_answer_bitwise =
  QCheck2.Test.make ~name:"wire answers round-trip bitwise" ~count:500
    QCheck2.Gen.(map abs_float (float_bound_exclusive 1e18))
    (fun f ->
      let a =
        {
          Engine.query = Lazy.force any_twig;
          estimate = f;
          fallback = false;
          reason = None;
          retries = 0;
          elapsed_s = 0.0;
          trace_id = 0;
          provenance =
            {
              Engine.pv_tier = Engine.Cache_hit;
              pv_embeddings = 0;
              pv_compile_ns = 0;
              pv_run_ns = 0;
            };
        }
      in
      match P.decode_answer (P.encode_answer a) with
      | Ok w -> Int64.equal (Int64.bits_of_float w.P.estimate) (Int64.bits_of_float f)
      | Error _ -> false)

(* ---------------- end-to-end over a unix socket ---------------- *)

let temp_path suffix =
  let p = Filename.temp_file "xtwig_serve" suffix in
  Sys.remove p;
  p

(* a small corpus shared by the service tests: one document on disk,
   two differently-budgeted sketches of it *)
type corpus = { doc_path : string; doc : Xtwig.doc; sk_a : string; sk_b : string }

let corpus =
  lazy
    (let doc = Xtwig_datagen.Imdb.generate ~scale:0.02 () in
     let doc_path = temp_path ".xml" in
     ok_exn (Xtwig.doc_to_file doc_path doc);
     let sk_a = temp_path ".sketch" in
     let sk_b = temp_path ".sketch" in
     let a = ok_exn (Xtwig.build_sketch ~budget:2000 ~seed:1 doc) in
     let b = ok_exn (Xtwig.build_sketch ~budget:4000 ~seed:2 doc) in
     ok_exn (Xtwig.save_sketch a sk_a);
     ok_exn (Xtwig.save_sketch b sk_b);
     { doc_path; doc; sk_a; sk_b })

let queries =
  [
    "for t0 in //movie, t1 in t0/actor";
    "for t0 in //movie, t1 in t0/actor, t2 in t0/producer";
    "for t0 in //movie[genre], t1 in t0/keyword";
  ]

(* a server on a fresh socket path, for the duration of [f sock] *)
let with_server_at ?(queue_cap = 64) ?(slo = []) tenants f =
  let sock = temp_path ".sock" in
  let cfg = { Server.default_config with listen = `Unix sock; queue_cap; slo } in
  let server = ok_exn (Server.create cfg tenants) in
  let th = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join th)
    (fun () -> f sock)

let with_server ?queue_cap ?slo tenants f =
  with_server_at ?queue_cap ?slo tenants (fun sock ->
      let client = ok_exn (P.Client.connect_unix sock) in
      Fun.protect ~finally:(fun () -> P.Client.close client) (fun () -> f client))

let call_ok client ~id req =
  match ok_exn (P.Client.call client ~id req) with
  | P.Reply body -> body
  | P.Fail e -> Alcotest.failf "request %d failed: %s" id (Xerror.to_string e)

(* direct answers: what the served answers must match byte for byte *)
let direct_answers sketch_path qs =
  let c = Lazy.force corpus in
  let sk = ok_exn (Xtwig.load_sketch c.doc sketch_path) in
  let engine = ok_exn (Xtwig.open_sketch_session sk) in
  Fun.protect
    ~finally:(fun () -> Xtwig.close_session engine)
    (fun () ->
      let twigs = List.map (fun q -> ok_exn (Xtwig.twig_of_string q)) qs in
      let answers = ok_exn (Xtwig.estimate_batch engine twigs) in
      List.map P.encode_answer answers)

let test_basic_service () =
  let c = Lazy.force corpus in
  with_server [ ("movies", Catalog.source ~sketch_path:c.sk_a c.doc_path) ]
    (fun client ->
      let pong = call_ok client ~id:1 P.Ping in
      Alcotest.(check string) "pong" ("pong " ^ Xtwig.version) pong;
      let listing = call_ok client ~id:2 P.List in
      Alcotest.(check bool) "list names tenant" true
        (String.length listing >= 6 && String.sub listing 0 6 = "movies");
      let stats = call_ok client ~id:3 (P.Stats "movies") in
      Alcotest.(check bool) "stats has backend" true
        (List.mem "backend xsketch" (String.split_on_char '\n' stats));
      let metrics = call_ok client ~id:4 P.Metrics in
      Alcotest.(check bool) "metrics mention serve.requests" true
        (contains metrics "serve_requests");
      match ok_exn (P.Client.call client ~id:5 (P.Stats "nosuch")) with
      | P.Fail (Xerror.Usage _) -> ()
      | _ -> Alcotest.fail "unknown tenant should be a usage error")

let test_served_answers_match_direct () =
  let c = Lazy.force corpus in
  with_server [ ("movies", Catalog.source ~sketch_path:c.sk_a c.doc_path) ]
    (fun client ->
      let body =
        call_ok client ~id:1 (P.Batch { tenant = "movies"; queries; trace = None })
      in
      Alcotest.(check (list string))
        "bitwise equal to direct engine"
        (direct_answers c.sk_a queries)
        (String.split_on_char '\n' body))

let test_hot_reload_during_queries () =
  let c = Lazy.force corpus in
  (* the tenant's sketch file starts as a copy of sk_a; mid-stream we
     atomically replace it with sk_b's content and reload *)
  let live = temp_path ".sketch" in
  let copy src =
    let sk = ok_exn (Xtwig.load_sketch c.doc src) in
    ok_exn (Xtwig.save_sketch sk live)
  in
  copy c.sk_a;
  with_server [ ("movies", Catalog.source ~sketch_path:live c.doc_path) ]
    (fun client ->
      (* pipeline the whole sequence before reading: queries, reload
         barrier, queries — the per-tenant FIFO answers pre-reload
         queries on the old engine, post-reload ones on the new *)
      ok_exn
        (P.Client.send client ~id:1
           (P.Batch { tenant = "movies"; queries; trace = None }));
      copy c.sk_b;
      ok_exn (P.Client.send client ~id:2 (P.Reload "movies"));
      ok_exn
        (P.Client.send client ~id:3
           (P.Batch { tenant = "movies"; queries; trace = None }));
      let responses = Hashtbl.create 4 in
      for _ = 1 to 3 do
        let id, resp = ok_exn (P.Client.recv client) in
        Hashtbl.add responses id resp
      done;
      let body id =
        match Hashtbl.find_opt responses id with
        | Some (P.Reply b) -> b
        | Some (P.Fail e) ->
            Alcotest.failf "request %d failed: %s" id (Xerror.to_string e)
        | None -> Alcotest.failf "no response for %d" id
      in
      Alcotest.(check (list string))
        "pre-reload answers = direct on old sketch"
        (direct_answers c.sk_a queries)
        (String.split_on_char '\n' (body 1));
      Alcotest.(check string) "reload bumped generation" "2" (body 2);
      Alcotest.(check (list string))
        "post-reload answers = direct on new sketch"
        (direct_answers c.sk_b queries)
        (String.split_on_char '\n' (body 3));
      (* and the two sketches really do answer differently, so the
         checks above are not vacuous *)
      Alcotest.(check bool) "sketches differ" false
        (direct_answers c.sk_a queries = direct_answers c.sk_b queries))

let test_reload_failure_keeps_serving () =
  let c = Lazy.force corpus in
  let live = temp_path ".sketch" in
  let sk = ok_exn (Xtwig.load_sketch c.doc c.sk_a) in
  ok_exn (Xtwig.save_sketch sk live);
  with_server [ ("movies", Catalog.source ~sketch_path:live c.doc_path) ]
    (fun client ->
      Sys.remove live;
      (match ok_exn (P.Client.call client ~id:1 (P.Reload "movies")) with
      | P.Fail (Xerror.Io _) -> ()
      | P.Fail e -> Alcotest.failf "expected io error, got %s" (Xerror.to_string e)
      | P.Reply _ -> Alcotest.fail "reload of a missing sketch succeeded");
      (* the old engine is still serving, answers unchanged *)
      let body =
        call_ok client ~id:2 (P.Batch { tenant = "movies"; queries; trace = None })
      in
      Alcotest.(check (list string))
        "still the old answers"
        (direct_answers c.sk_a queries)
        (String.split_on_char '\n' body))

let test_overload_sheds_typed () =
  let c = Lazy.force corpus in
  with_server_at ~queue_cap:2
    [ ("movies", Catalog.source ~sketch_path:c.sk_a c.doc_path) ]
    (fun sock ->
      (* every request framed into one buffer and written with one
         [Unix.write] on a raw connection: the server's first read
         holds all of them, admits up to the cap and sheds the rest
         with a typed overload error *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let n = 24 in
      let burst =
        String.concat ""
          (List.init n (fun i ->
               P.frame
                 (P.encode_request ~id:(i + 1)
                    (P.Estimate
                       { tenant = "movies"; query = List.hd queries; trace = None }))))
      in
      let len = String.length burst in
      Alcotest.(check int) "one write carries the burst" len
        (Unix.write_substring fd burst 0 len);
      let dec = P.decoder () and buf = Bytes.create 65536 in
      let rec recv () =
        match P.next_frame dec with
        | Ok (Some payload) -> (
            match P.decode_response payload with
            | Ok r -> r
            | Error m -> Alcotest.fail m)
        | Ok None ->
            let k = Unix.read fd buf 0 (Bytes.length buf) in
            if k = 0 then Alcotest.fail "connection closed by server";
            P.feed dec buf k;
            recv ()
        | Error m -> Alcotest.fail m
      in
      let shed = ref 0 and served = ref 0 in
      let seen = Hashtbl.create n in
      for _ = 1 to n do
        let id, resp = recv () in
        Alcotest.(check bool) "fresh id" false (Hashtbl.mem seen id);
        Hashtbl.add seen id ();
        match resp with
        | P.Reply _ -> incr served
        | P.Fail (Xerror.Overload msg) ->
            incr shed;
            Alcotest.(check bool) "overload names the tenant" true
              (contains msg "movies")
        | P.Fail e -> Alcotest.failf "unexpected error %s" (Xerror.to_string e)
      done;
      (* every request got exactly one typed response — nothing was
         dropped and the socket is still usable *)
      Alcotest.(check int) "all answered" n (!served + !shed);
      Alcotest.(check bool) "some served" true (!served > 0);
      Alcotest.(check bool) "some shed" true (!shed > 0);
      let ping = P.frame (P.encode_request ~id:1000 P.Ping) in
      ignore (Unix.write_substring fd ping 0 (String.length ping));
      (match recv () with
      | 1000, P.Reply pong ->
          Alcotest.(check string) "connection survives" ("pong " ^ Xtwig.version) pong
      | id, _ -> Alcotest.failf "connection survives: reply %d to the ping" id);
      (* the queue-depth gauge tracks the queue through shed decisions
         as well as drains: with everything answered it reads 0 *)
      let depth =
        List.find_map
          (fun (e : Metrics.entry) ->
            if
              String.equal e.Metrics.name "serve.queue_depth"
              && List.assoc_opt "tenant" e.Metrics.labels = Some "movies"
            then
              match e.Metrics.value with Metrics.Gauge v -> Some v | _ -> None
            else None)
          (Metrics.snapshot ())
      in
      Alcotest.(check (option (float 0.0))) "queue depth drained to zero"
        (Some 0.0) depth)

(* ---------------- incremental updates over the wire ---------------- *)

(* what the served answers must match after a sequence of deltas: the
   same deltas applied through the facade to a fresh sketch *)
let direct_answers_of_sketch sk qs =
  let engine = ok_exn (Xtwig.open_sketch_session sk) in
  Fun.protect
    ~finally:(fun () -> Xtwig.close_session engine)
    (fun () ->
      let twigs = List.map (fun q -> ok_exn (Xtwig.twig_of_string q)) qs in
      List.map P.encode_answer (ok_exn (Xtwig.estimate_batch engine twigs)))

let test_update_over_the_wire () =
  let c = Lazy.force corpus in
  (* node ids on the wire refer to the document as the SERVER parsed
     it, so the comparator must start from the same parse *)
  let pdoc = ok_exn (Xtwig.doc_of_file c.doc_path) in
  let frag_xml =
    "<movie><title>Wire Delta</title><year>1999</year><actor>A</actor></movie>"
  in
  let root = Xtwig_xml.Doc.root pdoc in
  let victim =
    let tag = Option.get (Xtwig_xml.Doc.tag_of_string pdoc "movie") in
    (Xtwig_xml.Doc.nodes_with_tag pdoc tag).(0)
  in
  with_server [ ("movies", Catalog.source ~sketch_path:c.sk_a c.doc_path) ]
    (fun client ->
      (* pipeline the whole sequence: queries, insert barrier, queries,
         delete barrier, queries — the per-tenant FIFO must answer
         each batch against the document state at its queue position *)
      let batch id =
        ok_exn
          (P.Client.send client ~id
             (P.Batch { tenant = "movies"; queries; trace = None }))
      in
      batch 1;
      ok_exn
        (P.Client.send client ~id:2
           (P.Update
              {
                tenant = "movies";
                op = P.Ins { parent = root; fragment_xml = frag_xml };
              }));
      batch 3;
      ok_exn
        (P.Client.send client ~id:4
           (P.Update { tenant = "movies"; op = P.Del victim }));
      batch 5;
      let responses = Hashtbl.create 8 in
      for _ = 1 to 5 do
        let id, resp = ok_exn (P.Client.recv client) in
        Hashtbl.add responses id resp
      done;
      let body id =
        match Hashtbl.find_opt responses id with
        | Some (P.Reply b) -> b
        | Some (P.Fail e) ->
            Alcotest.failf "request %d failed: %s" id (Xerror.to_string e)
        | None -> Alcotest.failf "no response for %d" id
      in
      Alcotest.(check string) "insert bumped generation" "2" (body 2);
      Alcotest.(check string) "delete bumped generation" "3" (body 4);
      let sk0 = ok_exn (Xtwig.load_sketch pdoc c.sk_a) in
      let fragment = ok_exn (Xtwig.doc_of_string frag_xml) in
      let sk1 =
        ok_exn (Xtwig.update_sketch sk0 (Xtwig.Insert { parent = root; fragment }))
      in
      let sk2 = ok_exn (Xtwig.update_sketch sk1 (Xtwig.Delete victim)) in
      let answers id = String.split_on_char '\n' (body id) in
      Alcotest.(check (list string))
        "pre-update answers = direct on the loaded sketch"
        (direct_answers_of_sketch sk0 queries)
        (answers 1);
      Alcotest.(check (list string))
        "post-insert answers = direct on the maintained sketch"
        (direct_answers_of_sketch sk1 queries)
        (answers 3);
      Alcotest.(check (list string))
        "post-delete answers = direct on the maintained sketch"
        (direct_answers_of_sketch sk2 queries)
        (answers 5);
      (* the deltas really changed the answers, so the checks above
         are not vacuous *)
      Alcotest.(check bool) "insert visible" false (answers 1 = answers 3))

let test_update_failure_keeps_serving () =
  let c = Lazy.force corpus in
  with_server [ ("movies", Catalog.source ~sketch_path:c.sk_a c.doc_path) ]
    (fun client ->
      let before =
        call_ok client ~id:1 (P.Batch { tenant = "movies"; queries; trace = None })
      in
      (* deleting an out-of-range node is a usage error from the
         sketch layer; the tenant must keep serving unchanged *)
      (match
         ok_exn
           (P.Client.call client ~id:2
              (P.Update { tenant = "movies"; op = P.Del 999_999 }))
       with
      | P.Fail (Xerror.Usage _) -> ()
      | P.Fail e -> Alcotest.failf "expected Usage, got %s" (Xerror.to_string e)
      | P.Reply _ -> Alcotest.fail "out-of-range delete succeeded");
      (* a fragment that does not parse is rejected up front *)
      (match
         ok_exn
           (P.Client.call client ~id:3
              (P.Update
                 {
                   tenant = "movies";
                   op = P.Ins { parent = 0; fragment_xml = "<broken" };
                 }))
       with
      | P.Fail (Xerror.Parse (Xerror.Xml, _)) -> ()
      | P.Fail e -> Alcotest.failf "expected Parse, got %s" (Xerror.to_string e)
      | P.Reply _ -> Alcotest.fail "unparseable fragment accepted");
      (* unknown tenant is the usual usage error *)
      (match
         ok_exn
           (P.Client.call client ~id:4
              (P.Update { tenant = "nosuch"; op = P.Del 1 }))
       with
      | P.Fail (Xerror.Usage _) -> ()
      | _ -> Alcotest.fail "unknown tenant should be a usage error");
      let after =
        call_ok client ~id:5 (P.Batch { tenant = "movies"; queries; trace = None })
      in
      Alcotest.(check string) "answers unchanged" before after)

(* the explain verb's provenance: a cold query compiles fresh, the
   same query again is a plan-cache hit — the tier provably differs *)
let test_explain_cold_vs_cached () =
  let c = Lazy.force corpus in
  with_server [ ("movies", Catalog.source ~sketch_path:c.sk_a c.doc_path) ]
    (fun client ->
      let q = List.hd queries in
      let explain id =
        let body =
          call_ok client ~id (P.Explain { tenant = "movies"; query = q; trace = None })
        in
        match P.provenance_field body "tier" with
        | Some t -> (body, t)
        | None -> Alcotest.failf "no tier in explain body %S" body
      in
      let body1, tier1 = explain 1 in
      let _, tier2 = explain 2 in
      (* cold = this session compiled the query's plans *)
      Alcotest.(check string) "cold query compiled" "fresh_compile" tier1;
      Alcotest.(check string) "warm query hit the plan cache" "cache_hit" tier2;
      Alcotest.(check bool) "cold and cached tiers provably differ" true
        (not (String.equal tier1 tier2));
      Alcotest.(check (option string))
        "backend provenance" (Some "xsketch")
        (P.provenance_field body1 "backend");
      (match P.provenance_field body1 "embeddings" with
      | Some e ->
          Alcotest.(check bool) "embeddings counted" true (int_of_string e >= 1)
      | None -> Alcotest.fail "no embeddings field");
      (* the answer inside the provenance is the engine's answer,
         bitwise — same oracle as the estimate verb *)
      Alcotest.(check (option string))
        "provenance answer matches direct engine"
        (Some (List.hd (direct_answers c.sk_a [ q ])))
        (P.provenance_field body1 "answer"))

(* Twin queries print to one text under [%.6g] but differ in a range
   bound. One served session answers each pair in turn, over the
   estimate and the explain verbs, and every answer must be bit-equal
   to the recursive evaluator on the tenant's sketch. *)
let twins =
  [
    "for t0 in //movie, t1 in t0/year[. in 1980.1 .. 1990]";
    "for t0 in //movie, t1 in t0/year[. in 1980.1000001 .. 1990]";
    "for t0 in //movie, t1 in t0/box_office[. in 306046000 .. 345046000]";
    "for t0 in //movie, t1 in t0/box_office[. in 306046400 .. 345046000]";
  ]

let test_twin_queries_served_exactly () =
  let doc = Xtwig_datagen.Imdb.generate ~scale:0.05 () in
  let doc_path = temp_path ".xml" in
  ok_exn (Xtwig.doc_to_file doc_path doc);
  let sketches =
    [
      ("coarsest", Xtwig_sketch.Sketch.default_of_doc doc);
      ("xbuild", ok_exn (Xtwig.build_sketch ~budget:16_000 ~seed:7 doc));
    ]
    |> List.map (fun (name, sk) ->
           let path = temp_path ".sketch" in
           ok_exn (Xtwig.save_sketch sk path);
           (name, path))
  in
  with_server
    (List.map
       (fun (name, path) -> (name, Catalog.source ~sketch_path:path doc_path))
       sketches)
    (fun client ->
      let id = ref 0 in
      List.iter
        (fun (tenant, path) ->
          let sk = ok_exn (Xtwig.load_sketch doc path) in
          List.iter
            (fun q ->
              let expected =
                Xtwig_sketch.Estimator.estimate sk (ok_exn (Xtwig.twig_of_string q))
              in
              incr id;
              let body =
                call_ok client ~id:!id
                  (P.Batch { tenant; queries = [ q ]; trace = None })
              in
              incr id;
              let explained =
                call_ok client ~id:!id (P.Explain { tenant; query = q; trace = None })
              in
              List.iter
                (fun (verb, line) ->
                  match P.decode_answer line with
                  | Ok w ->
                      Alcotest.(check int64)
                        (Printf.sprintf "%s %s: %s" tenant verb q)
                        (Int64.bits_of_float expected)
                        (Int64.bits_of_float w.P.estimate)
                  | Error e -> Alcotest.failf "bad answer %S: %s" line e)
                [
                  ("estimate", body);
                  ("explain", Option.get (P.provenance_field explained "answer"));
                ])
            (twins @ twins))
        sketches)

(* a client-supplied trace id must reach the serving-layer spans and
   the engine's spans: one trace file, one id, both halves *)
let test_trace_propagation () =
  let c = Lazy.force corpus in
  let module Trace = Xtwig_obs.Trace in
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      with_server [ ("movies", Catalog.source ~sketch_path:c.sk_a c.doc_path) ]
        (fun client ->
          let tid = 987654 in
          let _ =
            call_ok client ~id:1
              (P.Estimate
                 { tenant = "movies"; query = List.hd queries; trace = Some tid })
          in
          ()));
  let json = Xtwig_obs.Trace.to_json_string () in
  let needle = Printf.sprintf "\"trace_id\":\"%d\"" 987654 in
  let tagged_lines =
    List.filter (fun l -> contains l needle) (String.split_on_char '\n' json)
  in
  let tagged name =
    List.exists (fun l -> contains l ("\"name\":\"" ^ name)) tagged_lines
  in
  Alcotest.(check bool) "serve.queue_wait carries the client id" true
    (tagged "serve.queue_wait");
  Alcotest.(check bool) "serve.batch carries the client id" true
    (tagged "serve.batch");
  Alcotest.(check bool) "an engine-side span carries the client id" true
    (tagged "engine.");
  match Xtwig_obs.Trace.validate_string json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "captured trace invalid: %s" e

(* per-tenant SLO: the stats verb reports the declared objective,
   attribution counts and a burn rate *)
let test_stats_reports_slo () =
  let c = Lazy.force corpus in
  let slo =
    [ ("movies", { Xtwig_obs.Slo.p99_s = Some 1.0; err_rate = Some 0.5 }) ]
  in
  with_server ~slo [ ("movies", Catalog.source ~sketch_path:c.sk_a c.doc_path) ]
    (fun client ->
      let _ =
        call_ok client ~id:1
          (P.Estimate { tenant = "movies"; query = List.hd queries; trace = None })
      in
      let stats = call_ok client ~id:2 (P.Stats "movies") in
      Alcotest.(check bool) "objective rendered" true
        (contains stats "slo_objective p99:1000ms,err:50%");
      Alcotest.(check bool) "burn rate line present" true
        (contains stats "slo_burn_rate");
      (* attribution line (counters are process-global, so no exact
         counts — the line and its fields must be there) *)
      Alcotest.(check bool) "attribution line present" true
        (contains stats "slo movies: objective");
      Alcotest.(check bool) "attribution counts degraded and shed" true
        (contains stats "degraded" && contains stats "shed"))

(* chaos: probabilistic faults on the request-level serve.* points.
   Gate: every request gets a typed response and serve.uncaught
   stays zero. *)
let test_chaos_uncaught_zero () =
  let c = Lazy.force corpus in
  let uncaught = Metrics.counter "serve.uncaught" in
  let before = Metrics.counter_value uncaught in
  let spec =
    ok_exn
      (Result.map_error
         (fun e -> Xerror.Usage e)
         (Fault.parse_spec
            "seed=11;serve.decode:p0.15;serve.batch:p0.2;serve.reload:p0.5"))
  in
  Fault.install spec;
  Fun.protect ~finally:Fault.disable (fun () ->
      with_server [ ("movies", Catalog.source ~sketch_path:c.sk_a c.doc_path) ]
        (fun client ->
          let n = 60 in
          for id = 1 to n do
            let req =
              if id mod 10 = 0 then P.Reload "movies"
              else
                P.Estimate
                  {
                    tenant = "movies";
                    query = List.nth queries (id mod List.length queries);
                    trace = None;
                  }
            in
            ok_exn (P.Client.send client ~id req)
          done;
          let responses = ref 0 and injected = ref 0 in
          for _ = 1 to n do
            match ok_exn (P.Client.recv client) with
            | _, P.Reply _ -> incr responses
            | _, P.Fail (Xerror.Engine _) ->
                incr responses;
                incr injected
            | _, P.Fail e ->
                Alcotest.failf "unexpected class %s" (Xerror.to_string e)
          done;
          Alcotest.(check int) "every request answered" n !responses;
          Alcotest.(check bool) "chaos actually fired" true (!injected > 0)));
  Alcotest.(check int) "serve.uncaught stayed zero" before
    (Metrics.counter_value uncaught)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "framing roundtrip, all chunkings" `Quick
            test_frame_roundtrip;
          Alcotest.test_case "oversized frame rejected" `Quick test_frame_oversized;
          Alcotest.test_case "request codec roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response codec roundtrip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "bad inputs rejected" `Quick test_bad_inputs_rejected;
          QCheck_alcotest.to_alcotest prop_answer_bitwise;
        ] );
      ( "service",
        [
          Alcotest.test_case "ping/list/stats/metrics" `Quick test_basic_service;
          Alcotest.test_case "served answers match direct engine" `Quick
            test_served_answers_match_direct;
          Alcotest.test_case "hot reload during queries" `Quick
            test_hot_reload_during_queries;
          Alcotest.test_case "failed reload keeps old engine" `Quick
            test_reload_failure_keeps_serving;
          Alcotest.test_case "overload sheds typed errors" `Quick
            test_overload_sheds_typed;
          Alcotest.test_case "explain: cold vs cached tier" `Quick
            test_explain_cold_vs_cached;
          Alcotest.test_case "twin queries served exactly" `Quick
            test_twin_queries_served_exactly;
          Alcotest.test_case "update over the wire" `Quick
            test_update_over_the_wire;
          Alcotest.test_case "update failure keeps serving" `Quick
            test_update_failure_keeps_serving;
          Alcotest.test_case "trace id propagates client -> engine" `Quick
            test_trace_propagation;
          Alcotest.test_case "stats reports SLO attribution" `Quick
            test_stats_reports_slo;
          Alcotest.test_case "serve.* chaos, uncaught = 0" `Quick
            test_chaos_uncaught_zero;
        ] );
    ]
