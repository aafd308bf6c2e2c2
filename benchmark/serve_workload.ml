(* serve: the serving path. A child xtwigd process serves one tenant
   (the IMDB scale-0.3 document and the estimating workloads' sketch and
   query pool, saved to files, default queue cap, --jobs 1) over a Unix
   socket. One connection carries an open-loop schedule, sent by one
   thread and received by another, and every request is timed from the
   moment it was due. Before measuring, every pool query is sent once in
   batches and a half-second runs at 2,000 estimates/s (both discarded).
   Phases: [read], 60% of the measured seconds at 2,000 estimates/s;
   [rw], 40% at 500 requests/s where every 200th request (2.5 a second)
   is an update that alternately inserts a fixed 5-element <movie> under
   the root and deletes it again. This is the only workload that runs
   [Protocol], [Server], [Catalog] and [Sketch.apply_delta]; each update
   is a queue barrier and resets the embedding cache, so phase [rw]
   shows a gain for reads that costs writes, or the reverse.

   Speed correction (see [Common]) reads the client's core, while the
   two cores of the two-core host this was built on change speed
   independently, and xtwigd runs on either. Over seven sets of 8-16
   runs (86 in all) each metric got the scaling, of none, the factor's
   square root and the factor itself, that kept its spread lowest:
   [busy_s], xtwigd's CPU seconds over both phases, is scaled by
   the client's mean speed factor over the measured phase, as the
   in-process workloads' times are (spread at most 0.10 against up to
   0.24 unscaled); [p50_ms] is scaled by the factor's square root, as a
   request's latency is only partly CPU work, the rest being wake-ups and
   socket hand-offs (median spread 0.08 against 0.14 unscaled and 0.11
   fully scaled).

   [tail_ms] is the read phase's p90, scaled like [p50_ms]. Its p99 (the
   diagnostic [serve_p99_ms], as the client saw it) is set by stalls of
   the virtual machine, which no scaling follows: even the median of the
   p99s of 0.5 s blocks read 0.75-1.7 ms on 2-3 runs in 10 while the host
   was slow, against 0.35-0.45 ms on the others, with the generator on
   time. Over six sets of ten runs that block median spread 0.08-1.1,
   the scaled p90 0.04-0.15. *)

open Common
module P = Xtwig_serve.Protocol

let tenant = "imdb"
let fragment_xml =
  "<movie><title>benchmark</title><year>1999</year><genre>drama</genre><actor>a</actor></movie>"

type env = {
  doc_path : string;
  sketch_path : string;
  root : int;
  inserted : int;  (** node id an inserted fragment's root gets *)
  queries : string array;
  draws : int array;
  parse : parse_stats;
}

type server = { pid : int; client : P.Client.t; startup_s : float }

let xtwigd = Filename.concat (Filename.dirname Sys.executable_name) "../bin/xtwigd.exe"

let start_server ctx env ~trace_file =
  let sock = Filename.concat ctx.tmp "xtwigd.sock" in
  let t0 = now () in
  let pid =
    spawn xtwigd
      ([ "--socket"; sock; "--tenant"; Printf.sprintf "%s=%s,%s" tenant env.doc_path env.sketch_path ]
      @ [ "--jobs"; "1" ]
      @ match trace_file with Some f -> [ "--trace"; f ] | None -> [])
      ~stdout:Unix.stderr
  in
  let rec connect tries =
    match P.Client.connect_unix sock with
    | Ok c -> c
    | Error e when tries = 0 -> failwith ("xtwigd did not come up: " ^ Xtwig.Xerror.to_string e)
    | Error _ ->
        Unix.sleepf 0.005;
        connect (tries - 1)
  in
  let client = connect 12_000 in
  (match P.Client.call client ~id:0 P.Ping with
  | Ok (P.Reply _) -> ()
  | _ -> failwith "xtwigd: ping failed");
  { pid; client; startup_s = since t0 }

let stop_server s =
  P.Client.close s.client;
  stop s.pid

let setup ctx ~trace_file =
  let parse = parse_stats () in
  let doc = imdb parse 0.3 in
  let sketch = sketch_recipe doc in
  let doc_path = Filename.concat ctx.tmp "imdb.xml"
  and sketch_path = Filename.concat ctx.tmp "imdb.sketch" in
  ok_exn "doc_to_file" (Xtwig.doc_to_file doc_path doc);
  ok_exn "save_sketch" (Xtwig.save_sketch ~budget:16_000 ~seed:7 sketch sketch_path);
  let pool_g, draw_g = streams ctx.seed in
  let queries = Array.map Xtwig.twig_to_string (pv_pool pool_g (estimate_pool ctx) doc) in
  let env =
    {
      doc_path;
      sketch_path;
      root = Xtwig_xml.Doc.root doc;
      inserted = Xtwig.doc_size doc;
      queries;
      draws = zipf_draws draw_g ~pool:(Array.length queries) ~n:(1_000 + (1_400 * ctx.seconds));
      parse;
    }
  in
  (env, start_server ctx env ~trace_file)

let probe ctx =
  let (_, server), took = timed (fun () -> setup ctx ~trace_file:None) in
  stop_server server;
  took.virt

(* ---------------- the open-loop client ---------------- *)

type request = Estimate of int  (** index into the draws *) | Update of int  (** 1-based *)

type phase = { name : string; rate : float; requests : request array }

type tally = {
  est : samples;
  upd : samples;
  lag : samples;
  mutable sent : int;
  mutable failed : int;
  mutable bad : int;  (** errors that are not shedding or fallback: an oracle failure *)
  mutable answers : (int * int * string) list;  (** generation, draw, reply body *)
}

let tally () =
  { est = samples (); upd = samples (); lag = samples (); sent = 0; failed = 0; bad = 0; answers = [] }

let wire env = function
  | Estimate k -> P.Estimate { tenant; query = env.queries.(env.draws.(k)); trace = None }
  | Update u ->
      let op =
        if u mod 2 = 1 then P.Ins { parent = env.root; fragment_xml } else P.Del env.inserted
      in
      P.Update { tenant; op }

let run_phase env server tl ~first_id ~generation ~traced ph =
  let n = Array.length ph.requests in
  let t0 = Int64.add (now ()) 5_000_000L in
  let due k = Int64.add t0 (Int64.of_float (float_of_int k *. 1e9 /. ph.rate)) in
  let lags = Array.make n 0.0 in
  let sender () =
    Array.iteri
      (fun k r ->
        let wait = seconds_between (now ()) (due k) in
        if wait > 0.0 then Thread.delay wait;
        lags.(k) <- since (due k);
        ignore (P.Client.send server.client ~id:(first_id + k) (wire env r));
        if k + 1 < n && Int64.sub (due (k + 1)) (now ()) > 200_000L then tick ())
      ph.requests
  in
  let th = Thread.create sender () in
  (* the sketch generation each request sees: the updates sent before it,
     as the tenant's queue is FIFO and every update a barrier *)
  let gen = Array.make n 0 in
  let g = ref generation in
  Array.iteri
    (fun k r ->
      (match r with Update _ -> incr g | Estimate _ -> ());
      gen.(k) <- !g)
    ph.requests;
  let lost = ref 0 in
  for _ = 1 to n do
    match P.Client.recv server.client with
    | Error e ->
        incr lost;
        log "serve: receive failed: %s" (Xtwig.Xerror.to_string e)
    | Ok (id, resp) -> (
        let k = id - first_id in
        let t = now () in
        let lat = seconds_between (due k) t in
        if traced then
          Trace.complete ~name:"bench.client.request" ~start_ns:(due k) ~dur_ns:(Int64.sub t (due k)) ();
        let fail () =
          tl.failed <- tl.failed + 1;
          record (match ph.requests.(k) with Update _ -> tl.upd | Estimate _ -> tl.est) infinity
        in
        match (ph.requests.(k), resp) with
        | Estimate d, P.Reply body -> (
            match P.decode_answer body with
            | Ok a when not a.P.fallback ->
                record tl.est lat;
                if d mod 50 = 0 then tl.answers <- (gen.(k), d, body) :: tl.answers
            | Ok a ->
                log "serve: request %d fell back (%s)" id a.P.reason;
                fail ()
            | Error msg ->
                log "serve: bad answer %S: %s" body msg;
                tl.bad <- tl.bad + 1;
                fail ())
        | Update _, P.Reply _ -> record tl.upd lat
        | _, P.Fail (Xtwig.Xerror.Overload msg) ->
            log "serve: request %d shed: %s" id msg;
            fail ()
        | _, P.Fail e ->
            log "serve: request %d failed: %s" id (Xtwig.Xerror.to_string e);
            tl.bad <- tl.bad + 1;
            fail ())
  done;
  Thread.join th;
  Array.iter (record tl.lag) lags;
  tl.sent <- tl.sent + n;
  tl.failed <- tl.failed + !lost;
  tl.bad <- tl.bad + !lost;
  log "serve: phase %s: %d requests at %.0f/s, %d failed" ph.name n ph.rate tl.failed;
  !g

(* every pool query once, in batches: the read phase then measures the
   warm serving path, and only updates send queries cold again *)
let warm_pool env server =
  let n = Array.length env.queries in
  for b = 0 to (n - 1) / 100 do
    let queries = Array.to_list (Array.sub env.queries (b * 100) (min 100 (n - (b * 100)))) in
    match P.Client.call server.client ~id:(2_000_000_000 + b) (P.Batch { tenant; queries; trace = None }) with
    | Ok (P.Reply _) -> ()
    | _ -> failwith "xtwigd: warm-up batch failed"
  done

let metrics server ~id =
  match P.Client.call server.client ~id P.Metrics with
  | Ok (P.Reply text) -> Prom.parse text
  | _ -> failwith "xtwigd: metrics request failed"

(* the serving layer's per-phase view, from two readings of xtwigd's
   registry around the phase *)
let phase_values suffix d =
  let ms phase p = 1e3 *. Prom.percentile d "serve_phase_seconds" [ ("phase", phase) ] p in
  List.map
    (fun (k, v) -> (k ^ "." ^ suffix, v))
    [
      ("serve.request_p50_ms", 1e3 *. Prom.percentile d "serve_request_seconds" [] 50.0);
      ("serve.request_p99_ms", 1e3 *. Prom.percentile d "serve_request_seconds" [] 99.0);
      ("serve.queue_wait_p50_ms", ms "queue_wait" 50.0);
      ("serve.queue_wait_p99_ms", ms "queue_wait" 99.0);
      ("serve.execute_p50_ms", ms "execute" 50.0);
      ("serve.execute_p99_ms", ms "execute" 99.0);
      ("serve.write_p99_ms", ms "write" 99.0);
      ("serve.batch_size_mean", ratio (Prom.sum d "engine_queries") (Prom.sum d "engine_batches"));
      ("serve.shed", Prom.sum d "serve_shed");
      ("serve.uncaught", Prom.sum d "serve_uncaught");
    ]

(* Replay the served sequence in-process: the same files, the same
   updates through [Xtwig.update_session], and every sampled answer must
   be byte-equal to the served one. *)
let replay env answers updates =
  let doc = ok_exn "doc_of_file" (Xtwig.doc_of_file env.doc_path) in
  let sketch = ok_exn "load_sketch" (Xtwig.load_sketch doc env.sketch_path) in
  let session = ok_exn "open_sketch_session" (Xtwig.open_sketch_session ~jobs:1 sketch) in
  let fragment = ok_exn "fragment" (Xtwig.doc_of_string fragment_xml) in
  let mismatches = ref 0 in
  for g = 0 to updates do
    if g > 0 then
      ok_exn "update_session"
        (Xtwig.update_session session
           (if g mod 2 = 1 then Xtwig.Insert { parent = env.root; fragment }
            else Xtwig.Delete env.inserted));
    List.iter
      (fun (g', d, body) ->
        if g' = g then
          let q = ok_exn "twig_of_string" (Xtwig.twig_of_string env.queries.(env.draws.(d))) in
          match Xtwig.estimate session q with
          | Ok a when String.equal (P.encode_answer a) body -> ()
          | _ -> incr mismatches)
      answers
  done;
  Xtwig.close_session session;
  !mismatches

(* A measurement is invalid, and the runner makes it again, when the
   host rather than the program set its numbers (and [run] exits 1 if
   the last attempt is invalid too):
   - the generator ran late by more than this at p99, so it did not keep
     its schedule. While the host was overloaded for minutes, 4 runs in
     10 passed it, and their read p99 (median of 0.5 s blocks) was
     0.5-1.6 ms against 0.3-0.45 ms for the others;
   - xtwigd shed a request. The offered load is about an eighth of its
     capacity, so its queue of 64 fills only if it is stopped for 30 ms
     or more; that happened on 2 runs in about 60, with the client's
     generator on time. *)
let lag_limit_ms = 1.0

let rendered name = String.map (fun c -> if c = '.' then '_' else c) name

let run ctx =
  let trace_file = if ctx.trace then Some (Filename.concat ctx.tmp "xtwigd.trace.json") else None in
  let (env, server), setup = timed (fun () -> setup ctx ~trace_file) in
  let next = ref 0 and updates = ref 0 in
  let estimate () =
    incr next;
    Estimate (!next - 1)
  in
  let phase name rate n ~update_every =
    let requests =
      Array.init n (fun i ->
          if update_every > 0 && (i + 1) mod update_every = 0 then begin
            incr updates;
            Update !updates
          end
          else estimate ())
    in
    { name; rate; requests }
  in
  let warm = phase "warm-up" 2_000.0 1_000 ~update_every:0 in
  let read = phase "read" 2_000.0 (1_200 * ctx.seconds) ~update_every:0 in
  let rw = phase "rw" 500.0 (200 * ctx.seconds) ~update_every:200 in
  let warm_t = tally () and read_t = tally () and rw_t = tally () in
  let measured () =
    warm_pool env server;
    let g = run_phase env server warm_t ~first_id:1 ~generation:0 ~traced:false warm in
    let (m0, m1, m2, cpu), w =
      window ctx (fun () ->
          let cpu0 = cpu_s server.pid and m0 = metrics server ~id:1_000_000_001 in
          let first_id = 1 + Array.length warm.requests in
          let g = run_phase env server read_t ~first_id ~generation:g ~traced:ctx.trace read in
          let m1 = metrics server ~id:1_000_000_002 in
          let first_id = first_id + Array.length read.requests in
          ignore (run_phase env server rw_t ~first_id ~generation:g ~traced:ctx.trace rw);
          let m2 = metrics server ~id:1_000_000_003 in
          (m0, m1, m2, cpu_s server.pid -. cpu0))
    in
    (m0, m1, m2, cpu, w, peak_mb (string_of_int server.pid))
  in
  let m0, m1, m2, busy_wall_s, w, peak =
    Fun.protect ~finally:(fun () -> stop_server server) measured
  in
  let answers = List.concat_map (fun t -> t.answers) [ warm_t; read_t; rw_t ] in
  let mismatches = replay env answers !updates in
  let uncaught = Prom.sum m2 "serve_uncaught" and both = Prom.diff m0 m2 in
  let lags = samples () in
  List.iter (fun t -> Array.iter (record lags) (contents t.lag)) [ read_t; rw_t ];
  let lag_p99_ms = 1e3 *. Summary.percentile (contents lags) 99.0 in
  let bad = warm_t.bad + read_t.bad + rw_t.bad in
  if mismatches > 0 then log "serve: %d sampled answers differ from the in-process replay" mismatches;
  if uncaught > 0.0 then log "serve: xtwigd counted %.0f uncaught exceptions" uncaught;
  if lag_p99_ms > lag_limit_ms then
    log "serve: WARNING: generator lag p99 %.3f ms exceeds %.0f ms; the schedule was not kept"
      lag_p99_ms lag_limit_ms;
  let sent = read_t.sent + rw_t.sent and failed = read_t.failed + rw_t.failed in
  let read_lat = contents read_t.est in
  let busy_s = busy_wall_s *. w.speed
  and p50_ms = 1e3 *. Float.sqrt w.speed *. Summary.percentile read_lat 50.0
  and tail_ms = 1e3 *. Float.sqrt w.speed *. Summary.percentile read_lat 90.0 in
  {
    correct = mismatches = 0 && bad = 0 && uncaught = 0.0;
    valid = lag_p99_ms <= lag_limit_ms && Prom.sum both "serve_shed" = 0.0;
    attempted = sent;
    failed;
    values =
      [
        ("setup_s", setup.virt);
        ("peak_mb", peak);
        ("busy_s", busy_s);
        ("p50_ms", p50_ms);
        ("tail_ms", tail_ms);
        ("serve_p50_ms", p50_ms);
        ("serve_p99_ms", 1e3 *. Summary.percentile read_lat 99.0);
      ]
      @ wall_values ~setup ~busy_wall_s w
      @ latency_values "read." read_t.est
      @ latency_values "serve_rw_" rw_t.est
      @ latency_values "update_" rw_t.upd
      @ [
          ("sampled_checks", float_of_int (List.length answers));
          ("updates", float_of_int !updates);
          ("serve.startup_s", server.startup_s);
          ("client.sent", float_of_int sent);
          ("client.failed", float_of_int failed);
          ("client.lag_p99_ms", lag_p99_ms);
          ("window_busy_s", busy_s);
        ]
      @ phase_values "read" (Prom.diff m0 m1)
      @ phase_values "rw" (Prom.diff m1 m2)
      @ layer_values (fun name -> Prom.sum both (rendered name))
      @ parse_values env.parse;
    traced = w.span;
    server_traces = Option.to_list trace_file;
  }
