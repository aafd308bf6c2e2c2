module Sketch = Xtwig_sketch.Sketch
module Plan = Xtwig_sketch.Plan
module Pool = Xtwig_util.Pool
module Xerror = Xtwig_util.Xerror
module Metrics = Xtwig_obs.Metrics
module Trace = Xtwig_obs.Trace
module Log = Xtwig_obs.Log
module Fault = Xtwig_fault.Fault
module Backend = Xtwig_backend.Estimator_backend

let c_queries = Metrics.counter "engine.queries"
let t_plan_run = Metrics.counter "plan.run_ns"
let c_timeouts = Metrics.counter "engine.timeouts"
let c_batches = Metrics.counter "engine.batches"
let c_retries = Metrics.counter "engine.retries"
let g_circuit = Metrics.gauge "engine.circuit_state"

type fallback_reason = Timeout | Fault | Circuit_open | Guard

let reason_label = function
  | Timeout -> "timeout"
  | Fault -> "fault"
  | Circuit_open -> "circuit_open"
  | Guard -> "guard"

let c_fallback r =
  Metrics.counter ~labels:[ ("reason", reason_label r) ] "engine.fallback"

let h_query =
  Metrics.histogram
    ~bounds:(Metrics.exponential ~start:1e-6 ~factor:2.0 ~n:26)
    "engine.query.seconds"

(* batch-scoped trace ids: unique across every session of the process,
   so the spans and answers of concurrent batches can be correlated *)
let next_trace_id = Atomic.make 1

type plan_tier = Cache_hit | Fresh_compile | Backend_opaque

let tier_label = function
  | Cache_hit -> "cache_hit"
  | Fresh_compile -> "fresh_compile"
  | Backend_opaque -> "backend"

type provenance = {
  pv_tier : plan_tier;
  pv_embeddings : int;
  pv_compile_ns : int;
  pv_run_ns : int;
}

type answer = {
  query : Xtwig_path.Path_types.twig;
  estimate : float;
  fallback : bool;
  reason : fallback_reason option;
  retries : int;
  elapsed_s : float;
  trace_id : int;
  provenance : provenance;
}

type stats = {
  name : string;
  backend : string;
  jobs : int;
  sketch_bytes : int;
  queries_served : int;
  batches : int;
  timeouts : int;
  retries : int;
  degraded : int;
  breaker_trips : int;
  estimate_s : float;
}

(* Closed = normal serving; Open_until = tripping, every query
   degrades until the cooldown expires; Half_open = one probe query is
   in flight deciding whether to close again. *)
type breaker = Closed | Open_until of float | Half_open

(* What answers a query: the backend instance, and, when the instance
   carries an XSKETCH sketch, that sketch's session table of plans,
   recorded answers and guard facts per exact twig. Without a table
   the instance's own [estimate] answers. The coarse floor, the name
   and the size always come from the instance; the hardening fabric
   (retry, breaker, timeout, guards) is shared. *)
type core = { inst : Backend.instance; table : Plan.cache option }

type t = {
  mutable core : core;
      (* swapped wholesale by [update]; owner-domain only, like every
         other mutable field *)
  name : string option;  (* tenant label; labels the session metrics *)
  pool : Pool.t option;
  n_jobs : int;
  default_timeout : float;
  on_embedding : (Xtwig_path.Path_types.twig -> unit) option;
  (* hardening knobs *)
  retry_limit : int;
  backoff_s : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  max_embeddings : int;
  max_embed_nodes : int;
  (* owner-domain bookkeeping: batches are submitted and aggregated by
     the owning domain only, so plain mutable fields suffice (workers
     communicate outcomes only through the answers they return) *)
  mutable closed : bool;
  mutable queries_served : int;
  mutable batches : int;
  mutable timeouts : int;
  mutable retries_total : int;
  mutable degraded : int;
  mutable breaker_trips : int;
  mutable breaker : breaker;
  mutable consec_failures : int;
  mutable estimate_s : float;
  (* per-session observability cells: tenant-labeled when [name] is
     given, the process-global unlabeled cells otherwise *)
  h_query_s : Metrics.histogram;
  fb_counter : fallback_reason -> Metrics.counter;
}

let session_metrics name =
  match name with
  | None -> (h_query, c_fallback)
  | Some tenant ->
      ( Metrics.histogram
          ~labels:[ ("tenant", tenant) ]
          ~bounds:(Metrics.exponential ~start:1e-6 ~factor:2.0 ~n:26)
          "engine.query.seconds",
        fun r ->
          Metrics.counter
            ~labels:[ ("reason", reason_label r); ("tenant", tenant) ]
            "engine.fallback" )

let now = Unix.gettimeofday

let core_of ~max_embeddings ~max_embed_nodes inst =
  {
    inst;
    table =
      Option.map
        (Plan.create_cache ~max_embeddings ~max_embed_nodes)
        (Backend.sketch inst);
  }

(* A deadline must be positive ([infinity] means none): a negative or
   zero one degrades every query, and a NaN one never fires. *)
let bad_timeout timeout_s =
  Xerror.Usage (Printf.sprintf "timeout must be > 0 seconds, got %g" timeout_s)

let check_session_args ?(jobs = 1) ?(retries = 0) ?(timeout_s = infinity) () =
  if jobs < 1 then Error (Xerror.Usage "jobs must be >= 1")
  else if retries < 0 then Error (Xerror.Usage "retries must be >= 0")
  else if not (timeout_s > 0.0) then Error (bad_timeout timeout_s)
  else Ok ()

let of_backend ?name ?(jobs = 1) ?(timeout_s = 5.0) ?(retries = 2)
    ?(backoff_s = 0.001) ?(breaker_threshold = 8) ?(breaker_cooldown_s = 0.25)
    ?(max_embeddings = 100_000) ?(max_embed_nodes = 1_000_000) ?on_embedding
    inst =
  Result.map
    (fun () ->
      let h_query_s, fb_counter = session_metrics name in
      {
        core = core_of ~max_embeddings ~max_embed_nodes inst;
        name;
        pool = (if jobs > 1 then Some (Pool.create ~domains:jobs ()) else None);
        n_jobs = jobs;
        default_timeout = timeout_s;
        on_embedding;
        retry_limit = retries;
        backoff_s;
        breaker_threshold;
        breaker_cooldown_s;
        max_embeddings;
        max_embed_nodes;
        closed = false;
        queries_served = 0;
        batches = 0;
        timeouts = 0;
        retries_total = 0;
        degraded = 0;
        breaker_trips = 0;
        breaker = Closed;
        consec_failures = 0;
        estimate_s = 0.0;
        h_query_s;
        fb_counter;
      })
    (check_session_args ~jobs ~retries ~timeout_s ())

let of_sketch ?name ?jobs ?timeout_s ?retries ?backoff_s ?breaker_threshold
    ?breaker_cooldown_s ?max_embeddings ?max_embed_nodes ?on_embedding sk =
  of_backend ?name ?jobs ?timeout_s ?retries ?backoff_s ?breaker_threshold
    ?breaker_cooldown_s ?max_embeddings ?max_embed_nodes ?on_embedding
    (Backend.of_sketch sk)

(* Capped exponential backoff between retry attempts: base * 2^k,
   never more than 50 ms — the engine bounds tail latency, so waiting
   longer than a query is worth is not an option. *)
let backoff t k =
  let d = Float.min (t.backoff_s *. (2.0 ** float_of_int k)) 0.05 in
  if d > 0.0 then Unix.sleepf d

(* The coarse estimate is the degradation floor, the instance's
   [coarse] (for XSKETCH a one-shot estimate over the label-split
   synopsis, built on the session's first degraded answer); if even
   that fails (pure arithmetic, so only a fault-injection hook or a
   genuine bug could make it raise) the engine still answers. *)
let coarse_estimate t q = try Backend.coarse t.core.inst q with _ -> 0.0

(* what raised out of a query's last attempt, which its degraded
   answer drops: a [Warn] event naming the stage and the exception *)
let log_fault t ~stage e =
  if Log.enabled () then
    Log.warn "engine.fallback"
      ~fields:
        ([ ("stage", Log.S stage); ("error", Log.S (Printexc.to_string e)) ]
        @ match t.name with Some n -> [ ("tenant", Log.S n) ] | None -> [])

(* a span's arguments cost a [string_of_int] and a list per call: built
   only while a trace records them *)
let trace_args trace_id =
  if Trace.enabled () then [ ("trace_id", string_of_int trace_id) ] else []

let no_plans t =
  let pv_tier = if Option.is_none t.core.table then Backend_opaque else Cache_hit in
  { pv_tier; pv_embeddings = 0; pv_compile_ns = 0; pv_run_ns = 0 }

let degrade_answer t ~trace_id ~t0 ~reason ~retries q =
  Metrics.incr (t.fb_counter reason);
  Trace.instant ~args:(trace_args trace_id) "engine.fallback";
  let elapsed_s = now () -. t0 in
  Metrics.observe t.h_query_s elapsed_s;
  {
    query = q;
    estimate = coarse_estimate t q;
    fallback = true;
    reason = Some reason;
    retries;
    elapsed_s;
    trace_id;
    provenance = no_plans t;
  }

(* Evaluate one query through its pre-compiled plans (one per
   embedding), checking the deadline between embedding contributions
   (runs on a worker when the session has a pool). The sum visits
   plans in enumeration order — the same fold as the one-shot
   Plan.estimate_roots behind Estimator.estimate, so jobs > 1 changes
   scheduling, never values. One clock pair per query times the plan
   runs into [plan.run_ns] and the answer's provenance. A recorded
   answer runs nothing: it passes the same fault point and deadline
   check, so fault scenarios and the breaker see the same outcomes,
   and returns the recorded sum. A raising evaluation (injected fault
   at [engine.query], a panicking [on_embedding] hook) is retried with
   backoff, then degraded to the coarse estimate — never propagated. *)
let eval_one t ~trace_id ~deadline q held pv =
  Trace.with_span ~name:"engine.query" ~args:(trace_args trace_id)
  @@ fun () ->
  let t0 = now () in
  let run_ns = ref 0 in
  let run_plans () =
    Fault.point "engine.query";
    match (t.core.table, held) with
    | Some _, Plan.Answer v -> if now () > deadline then None else Some v
    | Some _, Plan.Plans plans ->
        let n = Array.length plans in
        let rec go acc i =
          if i = n then Some acc
          else if now () > deadline then None
          else begin
            (match t.on_embedding with None -> () | Some f -> f q);
            go (acc +. Plan.run plans.(i)) (i + 1)
          end
        in
        if now () > deadline then None
        else begin
          let r0 = Trace.now_ns () in
          let r = go 0.0 0 in
          let ns = Int64.to_int (Int64.sub (Trace.now_ns ()) r0) in
          Metrics.incr ~by:ns t_plan_run;
          run_ns := !run_ns + ns;
          r
        end
    | None, _ ->
        (* opaque backends evaluate in one step: the deadline is
           checked before (and re-checked after, so an over-budget
           answer still reports Timeout) but cannot interrupt the
           estimate itself *)
        if now () > deadline then None
        else begin
          (match t.on_embedding with None -> () | Some f -> f q);
          let v = Backend.estimate t.core.inst q in
          if now () > deadline then None else Some v
        end
  in
  let rec attempt k =
    match run_plans () with
    | Some est -> (est, None, k)
    | None -> (coarse_estimate t q, Some Timeout, k)
    | exception _ when k < t.retry_limit ->
        Metrics.incr c_retries;
        backoff t k;
        attempt (k + 1)
    | exception e ->
        log_fault t ~stage:"run" e;
        (coarse_estimate t q, Some Fault, k)
  in
  let estimate, reason, retries = attempt 0 in
  (match reason with
  | Some r ->
      Metrics.incr (t.fb_counter r);
      Trace.instant ~args:(trace_args trace_id) "engine.fallback"
  | None -> ());
  let elapsed_s = now () -. t0 in
  Metrics.observe t.h_query_s elapsed_s;
  {
    query = q;
    estimate;
    fallback = reason <> None;
    reason;
    retries;
    elapsed_s;
    trace_id;
    provenance = { pv with pv_run_ns = !run_ns };
  }

(* Owner-domain circuit-breaker gate, consulted once per query during
   the (sequential) compile phase. Cooldown expiry flips the breaker
   to half-open and lets exactly one probe query through; [probe]
   records which. *)
let breaker_blocks t probe i =
  match t.breaker with
  | Closed -> false
  | Half_open ->
      if !probe = None then begin
        probe := Some i;
        false
      end
      else true
  | Open_until until ->
      if now () < until then true
      else begin
        t.breaker <- Half_open;
        Metrics.set g_circuit 2.0;
        probe := Some i;
        false
      end

let trip t =
  t.breaker <- Open_until (now () +. t.breaker_cooldown_s);
  t.breaker_trips <- t.breaker_trips + 1;
  t.consec_failures <- 0;
  Metrics.set g_circuit 1.0

(* Outcome accounting, in query order on the owner: fault-degraded
   answers feed the failure streak (and fail a probe outright);
   anything that actually ran resets it (a timeout means the fabric
   worked — the query was just expensive). *)
let record_outcome t ~probe i a =
  match a.reason with
  | Some Fault ->
      t.consec_failures <- t.consec_failures + 1;
      if probe = Some i || t.consec_failures >= t.breaker_threshold then trip t
  | Some Circuit_open -> ()
  | Some Timeout | Some Guard | None ->
      t.consec_failures <- 0;
      if probe = Some i then begin
        t.breaker <- Closed;
        Metrics.set g_circuit 0.0
      end

(* Compile phase for one query, on the owner under the query's fault
   scope: one lookup in the session table, which on the query's first
   sighting enumerates its embeddings, checks the cardinality and
   node-count guards and compiles its plans; injected faults at
   [embed.fill] / [plan.fill] are retried with backoff while the
   deadline allows. The deadline is set here, before compilation, so
   compile time spends the same budget evaluation does. [Ok] carries
   what the entry holds (plans, or the answer recorded on an earlier
   sighting) and the provenance of this lookup. *)
let compile_prep t ~timeout ~probe i q =
  Fault.with_scope i @@ fun () ->
  if breaker_blocks t probe i then Error (Circuit_open, 0)
  else begin
    let deadline = now () +. timeout in
    match t.core.table with
    | None ->
        (* opaque backends have no compile phase: evaluation happens
           in eval_one, under the same deadline *)
        Ok (Plan.Plans [||], no_plans t, deadline, 0)
    | Some table ->
        let rec attempt k =
          match Plan.lookup table q with
          | { Plan.guarded = true; _ } -> Error (Guard, k)
          | { Plan.held; embeddings; compiled; compile_ns; _ } ->
              let pv =
                {
                  pv_tier = (if compiled then Fresh_compile else Cache_hit);
                  pv_embeddings = embeddings;
                  pv_compile_ns = compile_ns;
                  pv_run_ns = 0;
                }
              in
              Ok (held, pv, deadline, k)
          | exception _ when k < t.retry_limit && now () <= deadline ->
              Metrics.incr c_retries;
              backoff t k;
              attempt (k + 1)
          | exception e ->
              log_fault t ~stage:"compile" e;
              Error (Fault, k)
        in
        if now () > deadline then Error (Timeout, 0) else attempt 0
  end

let estimate_batch ?timeout_s ?trace_id t queries =
  let timeout = Option.value timeout_s ~default:t.default_timeout in
  if t.closed then Error (Xerror.Engine "session is closed")
  else if not (timeout > 0.0) then Error (bad_timeout timeout)
  else begin
    match
      let trace_id =
        (* a client-propagated id (threaded here by the serving layer)
           replaces the minted one, so the server's and the engine's
           spans share it end to end *)
        match trace_id with
        | Some id -> id
        | None -> Atomic.fetch_and_add next_trace_id 1
      in
      Trace.with_trace_id trace_id
      @@ fun () ->
      Trace.with_span ~name:"engine.estimate_batch"
        ~args:
          (if Trace.enabled () then
             [
               ("trace_id", string_of_int trace_id);
               ("queries", string_of_int (List.length queries));
             ]
           else [])
      @@ fun () ->
      let t0 = now () in
      (* table lookups (and so enumeration and plan compilation) on the
         owner domain, the table's only reader and writer; workers only
         run the plans they are handed *)
      let probe = ref None in
      let prepped =
        Trace.with_span ~name:"engine.embed_batch" (fun () ->
            List.mapi
              (fun i q -> (q, compile_prep t ~timeout ~probe i q))
              queries)
      in
      let earr = Array.of_list prepped in
      let run (q, prep) =
        match prep with
        | Ok (held, pv, deadline, retries) ->
            let a = eval_one t ~trace_id ~deadline q held pv in
            { a with retries = a.retries + retries }
        | Error (reason, retries) ->
            degrade_answer t ~trace_id ~t0:(now ()) ~reason ~retries q
      in
      (* last line of the never-raise contract: whatever escapes a
         query's evaluation (or its pool job) is one answer's
         degradation, not the batch's exception *)
      let safe_run i =
        match run earr.(i) with
        | a -> a
        | exception _ ->
            degrade_answer t ~trace_id ~t0:(now ()) ~reason:Fault ~retries:0
              (fst earr.(i))
      in
      let answers =
        match t.pool with
        | None ->
            Array.init (Array.length earr) (fun i ->
                Fault.with_scope i (fun () -> safe_run i))
        | Some p ->
            let futs =
              Array.mapi (fun i item -> Pool.submit ~scope:i p (fun () -> run item)) earr
            in
            Array.mapi
              (fun i fut ->
                match Pool.await_result fut with
                | Ok a -> a
                | Error _ ->
                    (* the job itself failed (injected [pool.task]
                       fault, worker panic): one retry on the owner
                       under the same scope, then degrade *)
                    t.retries_total <- t.retries_total + 1;
                    Metrics.incr c_retries;
                    Fault.with_scope i (fun () -> safe_run i))
              futs
      in
      (* after the join, on the owner, in query order: a clean answer
         whose lookup handed out plans becomes the entry's answer, and
         later sightings run nothing. A degraded answer is the coarse
         floor and is never recorded; its next sighting runs the kept
         plans again. *)
      (match t.core.table with
      | Some table ->
          Array.iteri
            (fun i a ->
              match earr.(i) with
              | q, Ok (Plan.Plans _, _, _, _) when a.reason = None ->
                  Plan.record table q a.estimate
              | _ -> ())
            answers
      | None -> ());
      let answers = Array.to_list answers in
      List.iteri (fun i a -> record_outcome t ~probe:!probe i a) answers;
      let count p = List.fold_left (fun n a -> if p a then n + 1 else n) 0 answers in
      let timeouts = count (fun a -> a.reason = Some Timeout) in
      let degraded =
        count (fun a ->
            match a.reason with
            | Some (Fault | Circuit_open | Guard) -> true
            | _ -> false)
      in
      let retries =
        List.fold_left (fun n (a : answer) -> n + a.retries) 0 answers
      in
      t.batches <- t.batches + 1;
      t.queries_served <- t.queries_served + List.length answers;
      t.timeouts <- t.timeouts + timeouts;
      t.degraded <- t.degraded + degraded;
      t.retries_total <- t.retries_total + retries;
      Metrics.incr c_batches;
      Metrics.incr ~by:(List.length answers) c_queries;
      Metrics.incr ~by:timeouts c_timeouts;
      t.estimate_s <- t.estimate_s +. (now () -. t0);
      answers
    with
    | answers -> Ok answers
    | exception e ->
        (* estimate_batch never raises: a failure that slipped every
           per-query net is still a typed error *)
        Error
          (Xerror.Engine
             (Printf.sprintf "internal failure: %s" (Printexc.to_string e)))
  end

let estimate ?timeout_s ?trace_id t q =
  match estimate_batch ?timeout_s ?trace_id t [ q ] with
  | Ok [ a ] -> Ok a
  | Ok _ -> assert false
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Incremental document updates                                        *)

(* Swap the core for one maintained incrementally across a subtree
   splice. Runs on the owner domain between batches (the same
   single-writer discipline as [stats] / [close]): workers only ever
   see the core their batch captured. The session table is keyed to
   the old sketch and starts fresh: each query compiles again on its
   first sighting after the update, and no recorded answer outlives
   its sketch. The new instance's coarse floor is built only if a
   later answer degrades. *)
let update t delta =
  if t.closed then Error (Xerror.Engine "session is closed")
  else
    match Backend.sketch t.core.inst with
    | None ->
        Error
          (Xerror.Usage
             (Printf.sprintf
                "Engine.update: %s-backend session holds no document"
                (Backend.name_of t.core.inst)))
    | Some sk -> (
        match Sketch.apply_delta sk delta with
        | sk' ->
            t.core <-
              core_of ~max_embeddings:t.max_embeddings
                ~max_embed_nodes:t.max_embed_nodes (Backend.of_sketch sk');
            Ok ()
        | exception Invalid_argument msg -> Error (Xerror.Usage msg)
        | exception Fault.Injected _ ->
            Error (Xerror.Engine "injected fault at sketch.delta")
        | exception e -> Error (Xerror.Engine (Printexc.to_string e)))

let sketch t =
  match Backend.sketch t.core.inst with
  | Some sk -> sk
  | None ->
      invalid_arg
        (Printf.sprintf "Engine.sketch: %s-backend session has no sketch"
           (Backend.name_of t.core.inst))

let backend_name t = Backend.name_of t.core.inst

let name t = t.name

let breaker_state t =
  match t.breaker with
  | Closed -> `Closed
  | Open_until _ -> `Open
  | Half_open -> `Half_open

let stats t =
  {
    name = Option.value t.name ~default:"";
    backend = backend_name t;
    jobs = t.n_jobs;
    sketch_bytes = Backend.size_bytes t.core.inst;
    queries_served = t.queries_served;
    batches = t.batches;
    timeouts = t.timeouts;
    retries = t.retries_total;
    degraded = t.degraded;
    breaker_trips = t.breaker_trips;
    estimate_s = t.estimate_s;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.pool with None -> () | Some p -> Pool.shutdown p
  end
