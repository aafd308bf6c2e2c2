let t_estimate = Xtwig_obs.Metrics.counter "estimator.ns"

let estimate ?cache sketch twig =
  Xtwig_obs.Trace.with_span ~name:"estimator.estimate" @@ fun () ->
  Xtwig_obs.Metrics.time_ns t_estimate @@ fun () ->
  let syn = Sketch.synopsis sketch in
  let embs =
    match cache with
    | Some c -> Embed.embeddings_cached c syn twig
    | None -> Embed.embeddings syn twig
  in
  Plan.estimate_roots sketch embs

let estimate_path sketch p =
  estimate sketch { Xtwig_path.Path_types.path = p; subs = [] }

let existence_frac = Plan.branch_frac
