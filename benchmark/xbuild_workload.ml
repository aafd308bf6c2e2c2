(* xbuild: offline synopsis construction. One XBUILD each over IMDB
   (scale 0.3, ~32K elements) and XMark (scale 0.1, ~10K elements),
   with the settings of [bench xbuild]: seed 7, 8 candidates, at most
   300 steps, a budget of 16x the coarsest synopsis and a 14-query P
   scoring workload. The benchmark hands XBUILD its own [~truth] and
   [~workload] closures, so exact truth evaluation and Wgen are timed
   from outside the library. The build seed is fixed and --seed seeds
   only the held-out error workload: the timed work is the same on every
   run. *)

open Common
module Sketch = Xtwig_sketch.Sketch
module Sketch_io = Xtwig_sketch.Sketch_io
module Xbuild = Xtwig_sketch.Xbuild
module Estimator = Xtwig_sketch.Estimator
module Eval_twig = Xtwig_eval.Eval_twig
module Error_metric = Xtwig_workload.Error_metric

type env = { docs : (string * Xtwig.doc) list; parse : parse_stats }

let setup _ctx =
  let parse = parse_stats () in
  let docs = [ ("imdb", imdb parse 0.3); ("xmark", xmark parse 0.1) ] in
  { docs; parse }

let probe ctx = (snd (timed (fun () -> setup ctx))).virt

(* what the two closures did inside XBUILD *)
type closures = {
  mutable truth_calls : int;
  mutable truth_s : float;
  mutable gen_calls : int;
  mutable gen_s : float;
}

type built = { name : string; sketch : Sketch.t; budget : int; took : took; steps : int }

(* exact truth, memoized per query like [bench xbuild]'s oracle *)
let truth_oracle seen doc =
  let memo = Hashtbl.create 4096 in
  fun q ->
    let key = Xtwig.twig_to_string q in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        tick ();
        let v, took =
          timed (fun () ->
              Trace.with_span ~name:"bench.evaluator.selectivity" (fun () ->
                  Eval_twig.selectivity doc q))
        in
        seen.truth_calls <- seen.truth_calls + 1;
        seen.truth_s <- seen.truth_s +. took.wall;
        let v = float_of_int v in
        Hashtbl.add memo key v;
        v

let build seen step_lat (name, doc) =
  let truth = truth_oracle seen doc in
  let scoring = { Wgen.paper_p with Wgen.n_queries = 14 } in
  let workload prng ~focus =
    tick ();
    let qs, took =
      timed (fun () ->
          Trace.with_span ~name:"bench.workload.generate" (fun () ->
              Wgen.generate ~focus scoring prng doc))
    in
    seen.gen_calls <- seen.gen_calls + 1;
    seen.gen_s <- seen.gen_s +. took.wall;
    qs
  in
  let budget = 16 * Sketch.size_bytes (Sketch.default_of_doc doc) in
  let steps = ref 0 in
  (* a step's latency runs from the previous step (or the start) to the
     callback that reports it applied *)
  let last = ref (vnow ()) in
  let on_step _ _ =
    let v = vnow () in
    record step_lat (v -. !last);
    tick ();
    last := vnow ();
    incr steps
  in
  let sketch, took =
    timed (fun () ->
        Trace.with_span ~name:"bench.xbuild.build" (fun () ->
            Xbuild.build ~seed:7 ~candidates:8 ~max_steps:300 ~on_step ~workload ~truth ~budget doc))
  in
  ({ name; sketch; budget; took; steps = !steps }, truth)

(* the sketch's bytes must survive a save and a reload through Sketch_io *)
let round_trips ctx doc b =
  let bytes = Sketch_io.to_string ~budget:b.budget ~seed:7 b.sketch in
  let path = Filename.concat ctx.tmp (b.name ^ ".sketch") in
  let reloaded =
    Result.bind (Sketch_io.write_res ~budget:b.budget ~seed:7 b.sketch path) (fun () ->
        Sketch_io.read_res doc path)
  in
  let ok =
    match reloaded with
    | Ok (_, sk) ->
        String.equal bytes (In_channel.with_open_bin path In_channel.input_all)
        && String.equal bytes (Sketch_io.to_string ~budget:b.budget ~seed:7 sk)
    | Error e ->
        log "xbuild: %s sketch reload failed: %s" b.name (Xtwig.Xerror.to_string e);
        false
  in
  log "xbuild: %s sketch md5 %s (%d bytes, %d steps)%s" b.name
    (Digest.to_hex (Digest.string bytes))
    (String.length bytes) b.steps
    (if ok then "" else " -- ROUND TRIP FAILED");
  ok

(* sanity-bounded average relative error on a held-out 200-query P
   workload, computed after timing *)
let held_out_error ctx doc truth b =
  let qs =
    Wgen.generate { Wgen.paper_p with Wgen.n_queries = 200 } (Prng.create (100 + ctx.seed)) doc
  in
  let truths = Array.of_list (List.map truth qs) in
  let estimates = Array.of_list (List.map (Estimator.estimate b.sketch) qs) in
  Error_metric.average_error ~truths ~estimates

let run ctx =
  let env, setup = timed (fun () -> setup ctx) in
  let seen = { truth_calls = 0; truth_s = 0.0; gen_calls = 0; gen_s = 0.0 } in
  let step_lat = samples () in
  let builds, w = window ctx (fun () -> List.map (build seen step_lat) env.docs) in
  let busy f = List.fold_left (fun acc (b, _) -> acc +. f b.took) 0.0 builds in
  let busy_s = busy (fun t -> t.virt) and busy_wall_s = busy (fun t -> t.wall) in
  let closures =
    [
      ("workload.gen_calls", float_of_int seen.gen_calls);
      ("workload.gen_s", seen.gen_s);
      ("evaluator.truth_calls", float_of_int seen.truth_calls);
      ("evaluator.truth_s", seen.truth_s);
      ("xbuild.self_s", busy_wall_s -. seen.truth_s -. seen.gen_s);
    ]
  in
  let checked =
    List.map2
      (fun (_, doc) (b, truth) -> (b, round_trips ctx doc b, held_out_error ctx doc truth b))
      env.docs builds
  in
  let errors = List.map (fun (_, _, e) -> e) checked in
  let build_error = List.fold_left ( +. ) 0.0 errors /. float_of_int (List.length errors) in
  let per_dataset =
    List.concat_map
      (fun (b, _, e) ->
        [
          ("build_s." ^ b.name, b.took.virt);
          ("steps." ^ b.name, float_of_int b.steps);
          ("build_error." ^ b.name, e);
          ("sketch_bytes." ^ b.name, float_of_int (Sketch.size_bytes b.sketch));
        ])
      checked
  in
  {
    correct = List.for_all (fun (_, ok, _) -> ok) checked;
    valid = true;
    attempted = List.length builds;
    failed = 0;
    values =
      [ ("setup_s", setup.virt); ("peak_mb", peak_mb "self"); ("busy_s", busy_s) ]
      @ (let latencies = latency_values "" step_lat in
         (* ~380 steps: p90 is the highest level with ten beyond it *)
         ("tail_ms", List.assoc "p90_ms" latencies) :: latencies)
      @ wall_values ~setup ~busy_wall_s w
      @ [ ("build_s", busy_s); ("build_error", build_error); ("xbuild.build_error", build_error) ]
      @ per_dataset @ closures @ parse_values env.parse @ in_process_layers w.delta @ w.gc
      @ [ ("window_busy_s", busy_s) ];
    traced = w.span;
    server_traces = [];
  }
