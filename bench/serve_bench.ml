(* Open-loop load benchmark for the xtwigd serving layer, recorded to
   BENCH_serve.json.

   The generator fixes every request's send timestamp up front
   (request i fires at t0 + i/rate) and measures latency against that
   schedule, not against the actual send — a server that stalls
   delays every queued request's measured latency, so there is no
   coordinated omission. The run also performs one hot reload halfway
   through while requests are in flight: the live sketch file is
   atomically replaced and a reload request enqueued, and every served
   answer must match — byte for byte — the direct-engine answer of
   either the old or the new synopsis. Shed requests (typed overload
   responses) are counted separately and excluded from the latency
   percentiles.

   Observability run (the default): every request carries a client
   trace id on the wire, the whole run is traced (client spans,
   server phase spans and engine/plan spans land in one Chrome trace,
   written to XTWIG_SERVE_TRACE), the server's structured JSONL log
   goes to XTWIG_SERVE_LOG, a bench-tenant SLO (p99:50ms, err:1%) is
   attached, and the report gains per-phase
   (queue_wait/coalesce/execute/write) percentiles plus the SLO burn
   rate. XTWIG_SERVE_OBS=0 turns all of it off — the baseline the CI
   overhead gate compares against.

   XTWIG_SERVE_RPS (default 200), XTWIG_SERVE_SECONDS (default 5) and
   XTWIG_SERVE_QUEUE_CAP (default 64) shape the load. *)

open Harness
module P = Xtwig_serve.Protocol
module Server = Xtwig_serve.Server
module Catalog = Xtwig_serve.Catalog
module Xerror = Xtwig.Xerror
module Fault = Xtwig_fault.Fault
module Trace = Xtwig_obs.Trace
module Log = Xtwig_obs.Log
module Slo = Xtwig_obs.Slo

let ok_exn = function
  | Ok v -> v
  | Error e -> failwith (Xerror.to_string e)

let temp_path suffix =
  let p = Filename.temp_file "xtwig_serve_bench" suffix in
  Sys.remove p;
  p

(* direct-engine answers for [queries], encoded exactly as the server
   encodes them — the correctness oracle for served responses *)
let direct_answers sketch queries =
  let engine = ok_exn (Xtwig.open_sketch_session sketch) in
  Fun.protect
    ~finally:(fun () -> Xtwig.close_session engine)
    (fun () ->
      let answers = ok_exn (Xtwig.estimate_batch engine queries) in
      Array.of_list (List.map P.encode_answer answers))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(Stdlib.min (n - 1) (int_of_float (float_of_int (n - 1) *. q)))

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  m = 0 || go 0

(* every client-supplied trace id is [trace_base + request index]: big
   enough to never collide with the engine's minted ids in this run *)
let trace_base = 1_000_000

(* the span names carrying [tid] in the captured trace — the
   acceptance check is that one sampled request's id appears on the
   client side, in the serving layer, and inside the engine *)
let names_with_tid json tid =
  let needle = Printf.sprintf "\"trace_id\":\"%d\"" tid in
  String.split_on_char '\n' json
  |> List.filter_map (fun line ->
         if has_sub line needle then (
           (* line format: {"name":"...",... *)
           let pat = "\"name\":\"" in
           let plen = String.length pat in
           let n = String.length line in
           let rec find i =
             if i + plen > n then None
             else if String.sub line i plen = pat then Some (i + plen)
             else find (i + 1)
           in
           match find 0 with
           | None -> None
           | Some start -> (
               match String.index_from_opt line start '"' with
               | Some stop -> Some (String.sub line start (stop - start))
               | None -> None))
         else None)

let phase_view snap phase =
  List.find_map
    (fun (e : Metrics.entry) ->
      if
        String.equal e.Metrics.name "serve.phase.seconds"
        && List.assoc_opt "phase" e.Metrics.labels = Some phase
      then
        match e.Metrics.value with Metrics.Histogram h -> Some h | _ -> None
      else None)
    snap

let run () =
  print_header "xtwigd open-loop serving benchmark (IMDB)";
  let rps = env_float "XTWIG_SERVE_RPS" 200.0 ~valid:positive in
  let seconds = env_float "XTWIG_SERVE_SECONDS" 5.0 ~valid:positive in
  let queue_cap = env_int "XTWIG_SERVE_QUEUE_CAP" 64 ~valid:(at_least 1) in
  let obs = Sys.getenv_opt "XTWIG_SERVE_OBS" <> Some "0" in
  let trace_path =
    Option.value (Sys.getenv_opt "XTWIG_SERVE_TRACE")
      ~default:"BENCH_serve_trace.json"
  in
  let log_path =
    Option.value (Sys.getenv_opt "XTWIG_SERVE_LOG")
      ~default:"BENCH_serve_log.jsonl"
  in
  let doc = Lazy.force (dataset "imdb").doc in
  let doc_path = temp_path ".xml" and live = temp_path ".sketch" in
  ok_exn (Xtwig.doc_to_file doc_path doc);
  let sk_old = ok_exn (Xtwig.build_sketch ~budget:4000 ~seed:1 doc) in
  let sk_new = ok_exn (Xtwig.build_sketch ~budget:8000 ~seed:2 doc) in
  ok_exn (Xtwig.save_sketch sk_old live);
  let queries =
    Wgen.generate { Wgen.paper_p with Wgen.n_queries = 40 } (Prng.create 77) doc
  in
  let q_strs = Array.of_list (List.map Xtwig.twig_to_string queries) in
  let n_qs = Array.length q_strs in
  let old_answers = direct_answers sk_old queries in
  let new_answers = direct_answers sk_new queries in
  (* an XTWIG_FAULT_SPEC scenario (the CI smoke uses 1% on the
     request-level serve.* points) is installed after the oracle
     answers are computed: injected faults then surface as typed
     engine-error responses, counted separately from real errors *)
  let fault_spec =
    match Fault.env_spec () with
    | Ok (Some sp) ->
        Fault.install sp;
        let s = Fault.spec_to_string sp in
        log "fault scenario: %s" s;
        Some s
    | Ok None -> None
    | Error e -> failwith ("XTWIG_FAULT_SPEC: " ^ e)
  in
  if obs then begin
    Trace.reset ();
    Trace.enable ();
    if Sys.file_exists log_path then Sys.remove log_path;
    Log.enable ~level:Log.Info ~path:log_path ();
    log "observability on: trace -> %s, log -> %s" trace_path log_path
  end
  else log "observability off (XTWIG_SERVE_OBS=0): overhead baseline run";
  let slo_objective = { Slo.p99_s = Some 0.05; err_rate = Some 0.01 } in
  let uncaught = Metrics.counter "serve.uncaught" in
  let uncaught0 = Metrics.counter_value uncaught in
  let m0 = Metrics.snapshot () in
  let sock = temp_path ".sock" in
  let cfg =
    {
      Server.default_config with
      listen = `Unix sock;
      queue_cap;
      slo = (if obs then [ ("bench", slo_objective) ] else []);
    }
  in
  let server =
    ok_exn
      (Server.create cfg [ ("bench", Catalog.source ~sketch_path:live doc_path) ])
  in
  let server_th = Thread.create Server.serve server in
  let client = ok_exn (P.Client.connect_unix sock) in
  let n = Stdlib.max 1 (int_of_float (rps *. seconds)) in
  let reload_at = n / 2 in
  let reload_id = n in
  log "open-loop: %d requests at %.0f req/s over %.1fs, reload at request %d"
    n rps seconds reload_at;
  (* fixed schedule: request i fires at t0 + i/rps, regardless of how
     the server is doing *)
  let t0 = now () +. 0.1 in
  let sched i = t0 +. (float_of_int i /. rps) in
  let sender () =
    for i = 0 to n - 1 do
      let d = sched i -. now () in
      if d > 0.0 then Thread.delay d;
      if i = reload_at then begin
        ok_exn (Xtwig.save_sketch sk_new live);
        ok_exn (P.Client.send client ~id:reload_id (P.Reload "bench"))
      end;
      ok_exn
        (P.Client.send client ~id:i
           (P.Estimate
              {
                tenant = "bench";
                query = q_strs.(i mod n_qs);
                trace = (if obs then Some (trace_base + i) else None);
              }))
    done
  in
  let sender_th = Thread.create sender () in
  let lat = Array.make n Float.nan in
  let served = ref 0
  and shed = ref 0
  and errors = ref 0
  and match_old = ref 0
  and match_new = ref 0
  and mismatched = ref 0
  and injected = ref 0
  and first_served = ref None
  and reload_ok = ref false in
  for _ = 0 to n do
    let id, resp = ok_exn (P.Client.recv client) in
    let t_recv = now () in
    if id = reload_id then begin
      match resp with
      | P.Reply _ -> reload_ok := true
      | P.Fail (Xerror.Engine _) when fault_spec <> None ->
          incr injected;
          log "reload hit an injected fault (typed response, old engine serving)"
      | P.Fail e -> log "ERROR: reload failed: %s" (Xerror.to_string e)
    end
    else
      match resp with
      | P.Reply body ->
          incr served;
          if !first_served = None then first_served := Some id;
          let l = t_recv -. sched id in
          lat.(id) <- l;
          (* the client half of the request's trace: a retrospective X
             span over schedule-to-receive, carrying the same id the
             server-side spans were stamped with *)
          if obs then begin
            let dur_ns = Int64.of_float (Float.max l 0.0 *. 1e9) in
            Trace.complete
              ~args:[ ("trace_id", string_of_int (trace_base + id)) ]
              ~name:"client.request"
              ~start_ns:(Int64.sub (Trace.now_ns ()) dur_ns)
              ~dur_ns ()
          end;
          if String.equal body old_answers.(id mod n_qs) then incr match_old
          else if String.equal body new_answers.(id mod n_qs) then incr match_new
          else incr mismatched
      | P.Fail (Xerror.Overload _) -> incr shed
      | P.Fail (Xerror.Engine _) when fault_spec <> None -> incr injected
      | P.Fail e ->
          incr errors;
          log "ERROR: request %d: %s" id (Xerror.to_string e)
  done;
  Thread.join sender_th;
  P.Client.close client;
  Server.stop server;
  Thread.join server_th;
  if fault_spec <> None then Fault.disable ();
  let uncaught_n = Metrics.counter_value uncaught - uncaught0 in
  let mdiff = Metrics.diff m0 (Metrics.snapshot ()) in
  let sorted =
    let l = Array.to_list lat in
    let l = List.filter (fun x -> not (Float.is_nan x)) l in
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  let p50 = percentile sorted 0.50 *. 1e3 in
  let p99 = percentile sorted 0.99 *. 1e3 in
  let p999 = percentile sorted 0.999 *. 1e3 in
  let shed_rate = float_of_int !shed /. float_of_int n in
  (* per-phase breakdown, read back from the server's labeled
     histograms: where a p999 spike actually went *)
  let phases = [ "queue_wait"; "coalesce"; "execute"; "write" ] in
  let phase_ms =
    List.map
      (fun ph ->
        match phase_view mdiff ph with
        | Some h when h.Metrics.count > 0 ->
            ( ph,
              Some
                ( Metrics.percentile_of h 50.0 *. 1e3,
                  Metrics.percentile_of h 99.0 *. 1e3,
                  Metrics.percentile_of h 99.9 *. 1e3 ) )
        | _ -> (ph, None))
      phases
  in
  let burn = if obs then Slo.burn_rate (Server.slo server) "bench" else 0.0 in
  (* capture + validate the trace, and check propagation: a sampled
     served request's id must appear on a client span, a serving-layer
     span and an engine/plan span in the same file *)
  let trace_valid, trace_spans, trace_propagated =
    if not obs then (true, 0, false)
    else begin
      Trace.disable ();
      let json = Trace.to_json_string () in
      let oc = open_out trace_path in
      output_string oc json;
      close_out oc;
      log "wrote %s" trace_path;
      let valid, spans =
        match Trace.validate_string json with
        | Ok s -> (true, s)
        | Error e ->
            log "ERROR: trace validation failed: %s" e;
            (false, 0)
      in
      let propagated =
        match !first_served with
        | None -> false
        | Some id ->
            let names = names_with_tid json (trace_base + id) in
            let mem n = List.exists (String.equal n) names in
            let engine_side =
              List.exists
                (fun n ->
                  has_sub n "engine." || has_sub n "plan."
                  || has_sub n "estimator.")
                names
            in
            mem "client.request"
            && (mem "serve.batch" || mem "serve.queue_wait")
            && engine_side
      in
      (valid, spans, propagated)
    end
  in
  if obs then begin
    Log.flush ();
    log "structured log: %d events -> %s" (Log.emitted ()) log_path;
    Log.disable ()
  end;
  (* under injection, typed engine-error responses (including a faulted
     reload) are the expected outcome, not a correctness failure *)
  let correct =
    !mismatched = 0 && !errors = 0 && uncaught_n = 0
    && (fault_spec <> None || !reload_ok)
    && trace_valid
    && ((not obs) || !first_served = None || trace_propagated)
  in
  print_row "%-28s %12d" "requests" n;
  print_row "%-28s %12d" "served" !served;
  print_row "%-28s %12d" "shed (typed overload)" !shed;
  print_row "%-28s %12.4f" "shed rate" shed_rate;
  print_row "%-28s %12d" "injected (typed engine err)" !injected;
  print_row "%-28s %12d" "errors" !errors;
  print_row "%-28s %12.3f" "latency p50 (ms)" p50;
  print_row "%-28s %12.3f" "latency p99 (ms)" p99;
  print_row "%-28s %12.3f" "latency p999 (ms)" p999;
  List.iter
    (fun (ph, v) ->
      match v with
      | Some (p50, p99, p999) ->
          print_row "%-28s p50=%8.3f p99=%8.3f p999=%8.3f"
            ("phase " ^ ph ^ " (ms)") p50 p99 p999
      | None -> ())
    phase_ms;
  if obs then begin
    print_row "%-28s %12.3f" "slo burn rate" burn;
    print_row "%-28s %12b" "trace valid" trace_valid;
    print_row "%-28s %12d" "trace spans" trace_spans;
    print_row "%-28s %12b" "trace propagated" trace_propagated
  end;
  print_row "%-28s %12d" "answers = old synopsis" !match_old;
  print_row "%-28s %12d" "answers = new synopsis" !match_new;
  print_row "%-28s %12d" "answers matching neither" !mismatched;
  print_row "%-28s %12b" "reload acknowledged" !reload_ok;
  print_row "%-28s %12d" "serve.uncaught" uncaught_n;
  if !mismatched > 0 then
    log "ERROR: %d served answers matched neither synopsis!" !mismatched;
  if !match_old = 0 || !match_new = 0 then
    log
      "NOTE: reload boundary not straddled (old=%d new=%d) — the load \
       finished before/after the swap"
      !match_old !match_new;
  let oc = open_out "BENCH_serve.json" in
  let num v = Metrics.json_number v in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"serve\",\n";
  fprint_provenance oc;
  Printf.fprintf oc "  \"dataset\": \"IMDB\",\n";
  Printf.fprintf oc "  \"scale\": %g,\n" scale;
  Printf.fprintf oc "  \"rps\": %g,\n" rps;
  Printf.fprintf oc "  \"seconds\": %g,\n" seconds;
  Printf.fprintf oc "  \"queue_cap\": %d,\n" queue_cap;
  Printf.fprintf oc "  \"observability\": %b,\n" obs;
  Printf.fprintf oc "  \"requests\": %d,\n" n;
  Printf.fprintf oc "  \"served\": %d,\n" !served;
  Printf.fprintf oc "  \"shed\": %d,\n" !shed;
  Printf.fprintf oc "  \"shed_rate\": %.6f,\n" shed_rate;
  (match fault_spec with
  | Some s -> Printf.fprintf oc "  \"fault_spec\": %S,\n" s
  | None -> Printf.fprintf oc "  \"fault_spec\": null,\n");
  Printf.fprintf oc "  \"injected\": %d,\n" !injected;
  Printf.fprintf oc "  \"errors\": %d,\n" !errors;
  Printf.fprintf oc "  \"latency_p50_ms\": %s,\n" (num p50);
  Printf.fprintf oc "  \"latency_p99_ms\": %s,\n" (num p99);
  Printf.fprintf oc "  \"latency_p999_ms\": %s,\n" (num p999);
  Printf.fprintf oc "  \"phases\": {\n";
  List.iteri
    (fun i (ph, v) ->
      let sep = if i = List.length phase_ms - 1 then "" else "," in
      match v with
      | Some (p50, p99, p999) ->
          Printf.fprintf oc
            "    \"%s\": {\"p50_ms\": %s, \"p99_ms\": %s, \"p999_ms\": %s}%s\n"
            ph (num p50) (num p99) (num p999) sep
      | None -> Printf.fprintf oc "    \"%s\": null%s\n" ph sep)
    phase_ms;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"slo\": {\"tenant\": \"bench\", \"objective\": %S, \"burn_rate\": %s},\n"
    (if obs then Slo.objective_text slo_objective else "(none)")
    (num burn);
  Printf.fprintf oc "  \"trace_valid\": %b,\n" trace_valid;
  Printf.fprintf oc "  \"trace_spans\": %d,\n" trace_spans;
  Printf.fprintf oc "  \"trace_propagated\": %b,\n" trace_propagated;
  Printf.fprintf oc "  \"reload_ok\": %b,\n" !reload_ok;
  Printf.fprintf oc "  \"answers_old_synopsis\": %d,\n" !match_old;
  Printf.fprintf oc "  \"answers_new_synopsis\": %d,\n" !match_new;
  Printf.fprintf oc "  \"answers_mismatched\": %d,\n" !mismatched;
  Printf.fprintf oc "  \"uncaught\": %d,\n" uncaught_n;
  Printf.fprintf oc "  \"correct\": %b\n" correct;
  Printf.fprintf oc "}\n";
  close_out oc;
  log "wrote BENCH_serve.json";
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ doc_path; live ];
  if not correct then exit 1
