(* optimize: whether the cost-based optimizer pays for itself, counting
   planning and execution. For each of IMDB and XMark (scale 0.3, the
   estimating workloads' sketch recipe), a fixed number of calls drawn
   Zipf(0.9) from a 500-query P+V pool; each runs [Xtwig.optimize] then
   [Xtwig.selectivity_ordered], interleaved with the default-order
   [Xtwig.selectivity] of the same query. The only workload where [Opt]
   runs, and one where [Eval_twig] does most of the work without XBUILD;
   repeats in the stream let planning memoization show.

   The pools are fixed (seed 23, as [bench optimize]) and --seed drives
   the draws: with Zipf(0.9) over 500 queries a handful of popular
   queries set the median, and a pool drawn per seed moved p50 by ~20%
   between seeds. *)

open Common

let pool_size = 500

(* calls per dataset *)
let calls ctx = 150 * ctx.seconds

type dataset = {
  name : string;
  doc : Xtwig.doc;
  sketch : Xtwig.sketch;
  pool : Xtwig.twig array;
  draws : int array;
}

type env = { sets : dataset list; parse : parse_stats }

let setup ctx =
  let parse = parse_stats () in
  let draw_g = snd (streams ctx.seed) in
  let dataset name doc =
    let sketch = sketch_recipe doc in
    let pool = pv_pool (Prng.create 23) pool_size doc in
    { name; doc; sketch; pool; draws = zipf_draws draw_g ~pool:(Array.length pool) ~n:(calls ctx) }
  in
  let imdb = dataset "imdb" (imdb parse 0.3) in
  let xmark = dataset "xmark" (xmark parse 0.3) in
  { sets = [ imdb; xmark ]; parse }

let probe ctx = (snd (timed (fun () -> setup ctx))).virt

type totals = {
  mutable plan_s : float;
  mutable ordered_s : float;
  mutable default_s : float;
  mutable opt_s : float;  (** optimize + ordered, corrected *)
  mutable exact_s : float;  (** default order, corrected *)
  mutable fallbacks : int;
  mutable mismatches : int;
}

let run ctx =
  let env, setup = timed (fun () -> setup ctx) in
  let t =
    {
      plan_s = 0.0;
      ordered_s = 0.0;
      default_s = 0.0;
      opt_s = 0.0;
      exact_s = 0.0;
      fallbacks = 0;
      mismatches = 0;
    }
  in
  (* a call's latency is the planned path a user runs: plan + execute *)
  let lat = samples () in
  let one d j =
    let q = d.pool.(j) in
    tick ();
    let t0 = now () in
    let plan = Trace.with_span ~name:"bench.opt.optimize" (fun () -> Xtwig.optimize d.sketch q) in
    let t1 = now () in
    let ordered =
      Trace.with_span ~name:"bench.evaluator.selectivity_ordered" (fun () ->
          Xtwig.selectivity_ordered d.doc plan q)
    in
    let t2 = now () in
    let default =
      Trace.with_span ~name:"bench.evaluator.selectivity" (fun () -> Xtwig.selectivity d.doc q)
    in
    let t3 = now () in
    t.plan_s <- t.plan_s +. seconds_between t0 t1;
    t.ordered_s <- t.ordered_s +. seconds_between t1 t2;
    t.default_s <- t.default_s +. seconds_between t2 t3;
    let planned = seconds_between t0 t2 *. clock.factor in
    t.opt_s <- t.opt_s +. planned;
    t.exact_s <- t.exact_s +. (seconds_between t2 t3 *. clock.factor);
    if ordered <> default then t.mismatches <- t.mismatches + 1;
    if plan.Xtwig.Opt.fallback then begin
      t.fallbacks <- t.fallbacks + 1;
      record lat infinity
    end
    else record lat planned
  in
  let (), w = window ctx (fun () -> List.iter (fun d -> Array.iter (one d) d.draws) env.sets) in
  if t.mismatches > 0 then log "optimize: %d ordered counts differ from the default order" t.mismatches;
  let attempted = List.fold_left (fun acc d -> acc + Array.length d.draws) 0 env.sets in
  let busy_s = t.opt_s +. t.exact_s and busy_wall_s = t.plan_s +. t.ordered_s +. t.default_s in
  {
    correct = t.mismatches = 0;
    valid = true;
    attempted;
    failed = t.fallbacks;
    values =
      [ ("setup_s", setup.virt); ("peak_mb", peak_mb "self"); ("busy_s", busy_s) ]
      @ (let latencies = latency_values "" lat in
         ("tail_ms", List.assoc "p99_ms" latencies) :: latencies)
      @ wall_values ~setup ~busy_wall_s w
      @ [
          ("opt_s", t.opt_s);
          ("exact_s", t.exact_s);
          ("opt.calls", float_of_int attempted);
          ("opt.plan_s", t.plan_s);
          ("evaluator.ordered_s", t.ordered_s);
          ("evaluator.default_s", t.default_s);
          ("window_busy_s", busy_s);
        ]
      @ parse_values env.parse @ in_process_layers w.delta @ w.gc;
    traced = w.span;
    server_traces = [];
  }
