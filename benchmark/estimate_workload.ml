(* estimate: the estimation hot path, in-process, with no socket and no
   truth evaluation. One client in a closed loop makes a fixed number of
   [Xtwig.estimate] calls on one session over an IMDB (scale 0.3)
   sketch, drawing queries Zipf(0.9) from a pool of P+V queries a 25th
   the size of the call count. A few percent of calls see a query for
   the first time, so p50 measures the warm path (plan cache hit and
   [Plan.run]) and p99 the cold one (embedding enumeration and
   compile/repatch). The call count is fixed, so counts repeat exactly
   for a seed. *)

open Common

(* a traced run records spans for this many calls only, which keeps the
   trace within its cap and memory small *)
let traced_calls = 50_000

type env = {
  sketch : Xtwig.sketch;
  pool : Xtwig.twig array;
  draws : int array;
  parse : parse_stats;
}

let setup ctx =
  let parse = parse_stats () in
  let doc = imdb parse 0.3 in
  let sketch = sketch_recipe doc in
  let pool_g, draw_g = streams ctx.seed in
  let pool = pv_pool pool_g (estimate_pool ctx) doc in
  let draws = zipf_draws draw_g ~pool:(Array.length pool) ~n:(estimate_calls ctx) in
  { sketch; pool; draws; parse }

let probe ctx = (snd (timed (fun () -> setup ctx))).virt

let bits = Int64.bits_of_float

let run ctx =
  let env, setup = timed (fun () -> setup ctx) in
  let session = ok_exn "open_sketch_session" (Xtwig.open_sketch_session ~jobs:1 env.sketch) in
  let n = Array.length env.draws in
  (* per call: wall seconds, and corrected ones for the metrics *)
  let lat = samples () and walls = Array.make n 0.0 and virts = Array.make n 0.0 in
  let failed = ref 0 and cold = ref 0 in
  let seen = Array.make (Array.length env.pool) false in
  (* every 1,000th answer, rechecked against a fresh session afterwards *)
  let sampled = ref [] in
  let traced_end = ref 0L in
  let (), w =
    window ctx (fun () ->
        Array.iteri
          (fun i j ->
            if ctx.trace && i = traced_calls then begin
              Trace.disable ();
              traced_end := now ();
              log "estimate: traced the first %d of %d calls" traced_calls n
            end;
            if not seen.(j) then begin
              seen.(j) <- true;
              incr cold
            end;
            tick ();
            let t0 = now () in
            let r =
              Trace.with_span ~name:"bench.engine.estimate" (fun () ->
                  Xtwig.estimate session env.pool.(j))
            in
            walls.(i) <- since t0;
            virts.(i) <- walls.(i) *. clock.factor;
            match r with
            | Ok a when not a.Xtwig.Engine.fallback ->
                record lat virts.(i);
                if i mod 1000 = 0 then sampled := (j, a.Xtwig.Engine.estimate) :: !sampled
            | Ok _ | Error _ ->
                incr failed;
                record lat infinity)
          env.draws)
  in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let busy_s = sum virts and busy_wall_s = sum walls in
  (* the calls a traced run traces, for its overhead against this run *)
  let window_busy = sum (Array.sub virts 0 (min n traced_calls)) in
  Xtwig.close_session session;
  let fresh = ok_exn "open_sketch_session" (Xtwig.open_sketch_session ~jobs:1 env.sketch) in
  let mismatches =
    List.length
      (List.filter
         (fun (j, v) ->
           match Xtwig.estimate fresh env.pool.(j) with
           | Ok a -> bits a.Xtwig.Engine.estimate <> bits v
           | Error _ -> true)
         !sampled)
  in
  Xtwig.close_session fresh;
  if mismatches > 0 then log "estimate: %d sampled answers differ from a fresh session's" mismatches;
  if !failed > 0 then log "estimate: %d calls failed or fell back" !failed;
  let layers = in_process_layers w.delta in
  let layer name = List.assoc name layers in
  let latencies = latency_values "" lat in
  let us name = 1e3 *. List.assoc name latencies in
  {
    correct = mismatches = 0 && !failed = 0;
    valid = true;
    attempted = n;
    failed = !failed;
    values =
      [ ("setup_s", setup.virt); ("peak_mb", peak_mb "self"); ("busy_s", busy_s) ]
      (* the tail is p99, inside the 4% of calls that see a query first *)
      @ (("tail_ms", List.assoc "p99_ms" latencies) :: latencies)
      @ wall_values ~setup ~busy_wall_s w
      @ [
          ("est_qps", float_of_int n /. busy_s);
          ("est_p50_us", us "p50_ms");
          ("est_p99_us", us "p99_ms");
          ("cold_share", float_of_int !cold /. float_of_int n);
          ("sampled_checks", float_of_int (List.length !sampled));
          ("engine.calls", float_of_int n);
          ("engine.call_s", busy_wall_s);
          ( "engine.self_s",
            busy_wall_s -. layer "embed.s" -. layer "plan.compile_s" -. layer "plan.repatch_s"
            -. layer "plan.run_s" );
          ("engine.fallbacks", float_of_int !failed);
          ("window_busy_s", window_busy);
        ]
      @ parse_values env.parse @ layers @ w.gc;
    traced = (if ctx.trace && n > traced_calls then (fst w.span, !traced_end) else w.span);
    server_traces = [];
  }
