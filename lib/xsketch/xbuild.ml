module Prng = Xtwig_util.Prng
module Stats = Xtwig_util.Stats
module Counters = Xtwig_util.Counters
module Metrics = Xtwig_obs.Metrics
module Trace = Xtwig_obs.Trace
module Twig_tbl = Xtwig_path.Path_types.Twig_tbl

let c_steps = Counters.counter "xbuild.steps"
let c_candidates = Counters.counter "xbuild.candidates_scored"
let c_est_skipped = Counters.counter "xbuild.estimates_skipped"
let c_est_computed = Counters.counter "xbuild.estimates_computed"
let t_build = Counters.timer "xbuild.ns"
let t_apply = Counters.timer "xbuild.apply_ns"
let t_gen = Counters.timer "xbuild.gen_ns"

(* per-round latency distribution: a round = candidate generation +
   base pass + scoring + the chosen apply *)
let h_round =
  Metrics.histogram
    ~bounds:(Metrics.exponential ~start:1e-4 ~factor:2.0 ~n:24)
    "xbuild.round.seconds"

(* applied refinements by kind, e.g. xbuild.ops_applied{op.kind=...} *)
let c_ops_applied =
  List.map
    (fun k -> (k, Metrics.counter ~labels:[ ("op.kind", k) ] "xbuild.ops_applied"))
    Refinement.all_kinds

let count_applied op =
  match List.assoc_opt (Refinement.kind_name op) c_ops_applied with
  | Some c -> Metrics.incr c
  | None -> ()

type step_info = {
  step : int;
  op : Refinement.op;
  description : string;
  size : int;
  workload_error : float;
}

(* The paper's sanity bound: the 10th percentile of the positive true
   counts. Computed once per truth vector — every candidate of one
   scoring step shares it. *)
let sanity_floor truths =
  let m = ref 0 in
  Array.iter (fun c -> if c > 0.0 then Stdlib.incr m) truths;
  if !m = 0 then 1.0
  else begin
    let positive = Array.make !m 0.0 in
    let i = ref 0 in
    Array.iter
      (fun c ->
        if c > 0.0 then begin
          positive.(!i) <- c;
          Stdlib.incr i
        end)
      truths;
    Stats.percentile positive 10.0
  end

(* Average absolute relative error of one estimate per query. *)
let error_of ~truths ~sanity ests =
  Stats.mean
    (Array.mapi
       (fun i est -> Float.abs (est -. truths.(i)) /. Stdlib.max sanity truths.(i))
       ests)

let workload_error sketch ~truth queries =
  match queries with
  | [] -> 0.0
  | _ ->
      let truths = Array.of_list (List.map truth queries) in
      error_of ~truths ~sanity:(sanity_floor truths)
        (Array.of_list (List.map (Estimator.estimate sketch) queries))

(* The default [truth]: exact counts, memoized per exact twig. Not
   thread-safe: [build] calls [truth] on its calling domain only. *)
let memo_truth doc =
  let tbl = Twig_tbl.create 256 in
  fun q ->
    match Twig_tbl.find_opt tbl q with
    | Some v -> v
    | None ->
        let v = float_of_int (Xtwig_eval.Eval_twig.selectivity doc q) in
        Twig_tbl.add tbl q v;
        v

(* A scored candidate. [ests] holds its estimate of every scoring
   query (the base estimate where it was provably unchanged);
   [cand_cache] is its own embedding cache, forced only for a
   structural candidate that estimated some query. *)
type scored = {
  gain : float;
  op : Refinement.op;
  refined : Sketch.t;
  size : int;
  err : float;
  ests : float array;
  cand_cache : Embed.cache Lazy.t;
}

let build ?pool ?(seed = 42) ?(candidates = 8) ?(max_steps = 400) ?(ebudget0 = 1)
    ?(vbudget0 = 2) ?on_step ?workload ?truth ~budget doc =
  Counters.time t_build @@ fun () ->
  (* the default scoring recipe: ten paper-style P queries per draw,
     answered by the memoized exact oracle *)
  let workload =
    match workload with
    | Some w -> w
    | None ->
        fun prng ~focus ->
          Xtwig_workload.Wgen.generate ~focus
            { Xtwig_workload.Wgen.paper_p with n_queries = 10 }
            prng doc
  in
  let truth = match truth with Some f -> f | None -> memo_truth doc in
  let prng = Prng.create seed in
  let sketch = ref (Sketch.default_of_doc ~ebudget:ebudget0 ~vbudget:vbudget0 doc) in
  (* a fixed anchor workload keeps candidate scores comparable across
     steps; per-step queries focused on the touched regions are added
     on top (the paper's region-local sampling) *)
  let anchor = workload prng ~focus:[] in
  (* embedding cache of the current synopsis; within one step every
     non-split candidate shares the enumeration warmed by the
     base-error pass. A structural step adopts the applied candidate's
     own cache, or starts a fresh one. *)
  let ecache = ref (Embed.create_cache (Sketch.synopsis !sketch)) in
  (* the anchor queries' estimates on the current sketch, kept by the
     scoring of the candidate that produced it (none at the start) *)
  let carried = ref [||] in
  let step = ref 0 in
  let continue = ref true in
  while !continue && Sketch.size_bytes !sketch < budget && !step < max_steps do
    incr step;
    Counters.incr c_steps;
    Metrics.time h_round @@ fun () ->
    Trace.with_span ~name:"xbuild.round" ~args:[ ("step", string_of_int !step) ]
    @@ fun () ->
    let cands =
      Trace.with_span ~name:"xbuild.gen_candidates" @@ fun () ->
      Counters.time t_gen @@ fun () ->
      Refinement.gen_candidates ~count:candidates !sketch prng
    in
    if cands = [] then continue := false
    else begin
      let focus =
        List.sort_uniq compare
          (List.concat_map (Refinement.touched_labels !sketch) cands)
      in
      let queries = anchor @ workload prng ~focus in
      (* truths are resolved once on this thread: worker domains only
         read the resulting array *)
      let truths = Array.of_list (List.map truth queries) in
      let sanity = sanity_floor truths in
      let cache =
        if Embed.cache_synopsis !ecache == Sketch.synopsis !sketch then !ecache
        else begin
          ecache := Embed.create_cache (Sketch.synopsis !sketch);
          !ecache
        end
      in
      let qarr = Array.of_list queries in
      let nq = Array.length qarr in
      let base_ests = Array.make nq 0.0 in
      let visited = Array.make nq [] in
      let trunc = Array.make nq false in
      let syn0 = Sketch.synopsis !sketch in
      Embed.thaw cache;
      (* the base-error pass warms [cache] with this step's queries
         (main domain) and records, per query, the synopsis nodes its
         embeddings touch: a candidate that changes none of them has a
         provably identical estimate, which is reused below. The anchor
         queries were already estimated on this sketch when it was
         scored as a candidate; those estimates are carried over. *)
      Trace.with_span ~name:"xbuild.base_pass" (fun () ->
          for i = 0 to nq - 1 do
            let embs = Embed.embeddings_cached cache syn0 qarr.(i) in
            trunc.(i) <- Embed.last_truncated ();
            visited.(i) <- Embed.visited_nodes embs;
            base_ests.(i) <-
              (if i < Array.length !carried then !carried.(i)
               else Estimator.estimate ~cache !sketch qarr.(i))
          done);
      Embed.freeze cache;
      let base_error = error_of ~truths ~sanity base_ests in
      let base_size = Sketch.size_bytes !sketch in
      let score op =
        Trace.with_span ~name:"xbuild.score"
          ~args:[ ("op.kind", Refinement.kind_name op) ]
        @@ fun () ->
        Counters.incr c_candidates;
        let refined = Counters.time t_apply @@ fun () -> Refinement.apply !sketch op in
        let size = Sketch.size_bytes refined in
        if size <= base_size then None
        else
          let same_syn = Sketch.synopsis refined == syn0 in
          let changed = Sketch.changed_nodes refined in
          (* structural candidates can't use the shared caches (their
             synopsis is new); a candidate-local embedding cache at
             least shares the per-step chain expansions across this
             candidate's queries. Worker-local, so mutation is safe. *)
          let cand_cache =
            lazy (Embed.create_cache (Sketch.synopsis refined))
          in
          let ests =
            Array.init nq (fun i ->
                let skip =
                  (same_syn || not trunc.(i))
                  &&
                  match changed with
                  | Some ch -> not (List.exists (fun v -> List.mem v ch) visited.(i))
                  | None -> false
                in
                if skip then begin
                  Counters.incr c_est_skipped;
                  base_ests.(i)
                end
                else begin
                  Counters.incr c_est_computed;
                  let cache = if same_syn then cache else Lazy.force cand_cache in
                  Estimator.estimate ~cache refined qarr.(i)
                end)
          in
          let err = error_of ~truths ~sanity ests in
          let gain = (base_error -. err) /. float_of_int (size - base_size) in
          Some { gain; op; refined; size; err; ests; cand_cache }
      in
      (* Candidates are independent: score them on the domain pool when
         one is given. Each candidate keeps its index in the sampled
         order, and the reduction below picks the best (gain, index)
         pair in index order — strictly-greater gain wins, ties keep
         the earliest candidate — which is exactly the sequential
         fold's choice. The selected refinement, and therefore the
         whole build, is bit-identical however many domains score. *)
      let carr = Array.of_list cands in
      let scored =
        match pool with
        | None -> Array.map score carr
        | Some p -> Xtwig_util.Pool.map_array p ~f:(fun _i op -> score op) carr
      in
      let best = ref None in
      Array.iter
        (fun r ->
          match (r, !best) with
          | None, _ -> ()
          | Some _, None -> best := r
          | Some c, Some c0 -> if c.gain > c0.gain then best := r)
        scored;
      (match !best with
      | None -> continue := false
      | Some { op; refined; size; err; ests; cand_cache; _ } ->
          let description = Refinement.describe !sketch op in
          count_applied op;
          sketch := refined;
          carried := Array.sub ests 0 (List.length anchor);
          (* the pool has joined: the candidate's cache passes to this
             domain, and the next base pass finds its enumerations *)
          if Lazy.is_val cand_cache then ecache := Lazy.force cand_cache;
          (match on_step with
          | None -> ()
          | Some f ->
              f refined
                { step = !step; op; description; size; workload_error = err }))
    end
  done;
  !sketch
