module Xerror = Xtwig.Xerror
module Engine = Xtwig.Engine
module Metrics = Xtwig_obs.Metrics
module Trace = Xtwig_obs.Trace
module Log = Xtwig_obs.Log
module Slo = Xtwig_obs.Slo
module Fault = Xtwig_fault.Fault

type config = {
  listen : [ `Unix of string | `Tcp of string * int ];
  jobs : int;
  timeout_s : float;
  queue_cap : int;
  slo : (string * Slo.objective) list;
}

let default_config =
  {
    listen = `Unix "xtwigd.sock";
    jobs = 1;
    timeout_s = 5.0;
    queue_cap = 64;
    slo = [];
  }

(* ---------------- metrics ---------------- *)

let m_accepted = Metrics.counter "serve.accepted"
let m_conns = Metrics.gauge "serve.connections"
let m_uncaught = Metrics.counter "serve.uncaught"
let m_request verb = Metrics.counter ~labels:[ ("verb", verb) ] "serve.requests"
let m_shed tenant = Metrics.counter ~labels:[ ("tenant", tenant) ] "serve.shed"

let m_reloads tenant =
  Metrics.counter ~labels:[ ("tenant", tenant) ] "serve.reloads"

let m_updates tenant =
  Metrics.counter ~labels:[ ("tenant", tenant) ] "serve.updates"

let g_queue tenant =
  Metrics.gauge
    ~help:"requests currently parked in the tenant's queue"
    ~labels:[ ("tenant", tenant) ]
    "serve.queue_depth"

let h_request = Metrics.histogram "serve.request.seconds"

(* the per-request phase breakdown: queue_wait (enqueue to drain),
   coalesce (drain to engine submit), execute (the engine call) and
   write (response enqueued to frame flushed), each labeled so a p999
   spike in the request histogram is attributable to one phase *)
let h_phase phase tenant =
  Metrics.histogram
    ~help:"per-request phase latency (queue_wait/coalesce/execute/write)"
    ~labels:[ ("phase", phase); ("tenant", tenant) ]
    "serve.phase.seconds"

let ns_to_s ns = Int64.to_float ns /. 1e9

(* ---------------- connections ---------------- *)

(* a queued output frame; [on_flush] fires when its last byte reaches
   the socket (the end of the request's write phase) *)
type out_frame = { bytes : string; on_flush : (unit -> unit) option }

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  outq : out_frame Queue.t;  (* frames waiting to be written *)
  mutable out_off : int;  (* consumed prefix of the head frame *)
  mutable alive : bool;
  rbuf : Bytes.t;
}

type item = {
  conn : conn;
  id : int;
  tenant : string;
  verb : string;
  trace : int option;  (* client-supplied trace context, if any *)
  work :
    [ `Batch of Xtwig.twig list
    | `Explain of Xtwig.twig
    | `Optimize of Xtwig.twig
    | `Reload
    | `Update of Xtwig.delta ];
  enqueued_at : float;
  enq_ns : int64;  (* trace-clock enqueue time, for the phase spans *)
}

type t = {
  cfg : config;
  cat : Catalog.t;
  slo : Slo.t;
  listen_fd : Unix.file_descr;
  unix_path : string option;
  stopping : bool Atomic.t;
  mutable conns : conn list;
  queues : (string, item Queue.t) Hashtbl.t;
  breaker_seen : (string, string) Hashtbl.t;
      (* last observed breaker state per tenant, to log transitions *)
}

let catalog t = t.cat
let slo t = t.slo

let port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, p) -> Some p
  | _ -> None

let stop t = Atomic.set t.stopping true

(* ---------------- setup ---------------- *)

let bind_listen = function
  | `Unix path ->
      (* replace a stale socket file; refuse to unlink anything else *)
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> failwith (path ^ " exists and is not a socket")
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Some path)
  | `Tcp (host, p) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, p));
      Unix.listen fd 64;
      (fd, None)

let create cfg tenants =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Catalog.create ~jobs:cfg.jobs ~timeout_s:cfg.timeout_s tenants with
  | Error e -> Error e
  | Ok cat -> (
      match bind_listen cfg.listen with
      | fd, unix_path ->
          Unix.set_nonblock fd;
          Ok
            {
              cfg;
              cat;
              slo = Slo.create cfg.slo;
              listen_fd = fd;
              unix_path;
              stopping = Atomic.make false;
              conns = [];
              queues = Hashtbl.create 16;
              breaker_seen = Hashtbl.create 16;
            }
      | exception exn ->
          Catalog.close cat;
          Error (Xerror.Io (Printexc.to_string exn)))

(* ---------------- output ---------------- *)

let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Log.debug ~fields:[ ("conns", Log.I (List.length t.conns - 1)) ]
      "serve.conn_closed";
    Metrics.set m_conns (float_of_int (List.length t.conns - 1))
  end

let respond ?on_flush conn ~id resp =
  if conn.alive then
    Queue.add
      { bytes = Protocol.frame (Protocol.encode_response ~id resp); on_flush }
      conn.outq

(* drain as much pending output as the socket accepts; connection
   failures (peer gone, injected serve.write fault) drop the conn *)
let flush_conn t conn =
  try
    Fault.point "serve.write";
    let progress = ref true in
    while conn.alive && !progress && not (Queue.is_empty conn.outq) do
      let head = Queue.peek conn.outq in
      let remaining = String.length head.bytes - conn.out_off in
      match Unix.write_substring conn.fd head.bytes conn.out_off remaining with
      | 0 -> progress := false
      | n ->
          if n = remaining then begin
            ignore (Queue.pop conn.outq);
            conn.out_off <- 0;
            match head.on_flush with None -> () | Some f -> f ()
          end
          else begin
            conn.out_off <- conn.out_off + n;
            progress := false
          end
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
          progress := false
    done
  with
  | Fault.Injected _ | Unix.Unix_error _ -> close_conn t conn

(* ---------------- request handling ---------------- *)

let queue_of t tenant =
  match Hashtbl.find_opt t.queues tenant with
  | Some q -> q
  | None ->
      let q = Queue.create ()
      in
      Hashtbl.add t.queues tenant q;
      q

(* the queue-depth gauge mirrors the queue after EVERY mutation —
   enqueue (including reloads, which bypass admission), each drain
   pop, and shed decisions (which leave the length unchanged but must
   re-publish it: the shed path used to leave depth accounting to the
   next drain) *)
let refresh_queue_gauge t tenant =
  let depth =
    match Hashtbl.find_opt t.queues tenant with
    | Some q -> Queue.length q
    | None -> 0
  in
  Metrics.set (g_queue tenant) (float_of_int depth)

(* span arguments are built only while a trace records them: a
   disabled trace drops them, and building costs a [string_of_int] and
   a list per request *)
let trace_args it =
  match it.trace with
  | Some tid when Trace.enabled () -> [ ("trace_id", string_of_int tid) ]
  | Some _ | None -> []

(* outcome accounting when a request's response is enqueued: request
   histogram, phase histograms + X spans, SLO classification, and the
   access-log record (emitted from the write-flush callback so it can
   carry the complete phase breakdown including the write) *)
let finish_item t it ~run_start_ns ~exec_start_ns ~exec_end_ns resp =
  let latency_s = Unix.gettimeofday () -. it.enqueued_at in
  Metrics.observe h_request latency_s;
  let queue_wait_ns = Int64.sub run_start_ns it.enq_ns in
  let coalesce_ns = Int64.sub exec_start_ns run_start_ns in
  let exec_ns = Int64.sub exec_end_ns exec_start_ns in
  Metrics.observe (h_phase "queue_wait" it.tenant) (ns_to_s queue_wait_ns);
  Metrics.observe (h_phase "coalesce" it.tenant) (ns_to_s coalesce_ns);
  Metrics.observe (h_phase "execute" it.tenant) (ns_to_s exec_ns);
  let args = trace_args it in
  Trace.complete ~args ~name:"serve.queue_wait" ~start_ns:it.enq_ns
    ~dur_ns:queue_wait_ns ();
  let status, outcome =
    match resp with
    | Protocol.Reply body ->
        (* a served answer degrades the SLO outcome iff any answer in
           the body carries the fallback flag ("<est> 1 <reason>") *)
        let degraded =
          List.exists
            (fun line ->
              match Protocol.decode_answer line with
              | Ok a -> a.Protocol.fallback
              | Error _ -> false)
            (if body = "" then [] else String.split_on_char '\n' body)
        in
        ( "ok",
          if degraded then Slo.Served_degraded else Slo.Served_ok )
    | Protocol.Fail e -> (
        match e with
        | Xerror.Overload _ -> (Protocol.error_class e, Slo.Shed)
        | _ -> (Protocol.error_class e, Slo.Failed))
  in
  Slo.record t.slo ~tenant:it.tenant ~latency_s outcome;
  let write_start_ns = Trace.now_ns () in
  let frame_bytes =
    String.length (Protocol.encode_response ~id:it.id resp) + 4
  in
  let on_flush () =
    let write_ns = Int64.sub (Trace.now_ns ()) write_start_ns in
    Metrics.observe (h_phase "write" it.tenant) (ns_to_s write_ns);
    Trace.complete ~args ~name:"serve.write" ~start_ns:write_start_ns
      ~dur_ns:write_ns ();
    Log.info "serve.access"
      ~fields:
        ([
           ("tenant", Log.S it.tenant);
           ("verb", Log.S it.verb);
           ("id", Log.I it.id);
           ("status", Log.S status);
           ("bytes", Log.I frame_bytes);
         ]
        @ (match it.trace with
          | Some tid -> [ ("trace_id", Log.I tid) ]
          | None -> [])
        @ [
            ("queue_wait_us", Log.F (Int64.to_float queue_wait_ns /. 1e3));
            ("coalesce_us", Log.F (Int64.to_float coalesce_ns /. 1e3));
            ("execute_us", Log.F (Int64.to_float exec_ns /. 1e3));
            ("write_us", Log.F (Int64.to_float write_ns /. 1e3));
            ("total_ms", Log.F (latency_s *. 1e3));
          ])
  in
  respond ~on_flush it.conn ~id:it.id resp

let stats_body t tn tenant =
  let st = Engine.stats (Catalog.engine tn) in
  let breaker =
    match Engine.breaker_state (Catalog.engine tn) with
    | `Closed -> "closed"
    | `Open -> "open"
    | `Half_open -> "half-open"
  in
  String.concat "\n"
    ([
       "name " ^ st.Engine.name;
       "backend " ^ st.Engine.backend;
       Printf.sprintf "generation %d" (Catalog.tenant_generation tn);
       Printf.sprintf "jobs %d" st.Engine.jobs;
       Printf.sprintf "sketch_bytes %d" st.Engine.sketch_bytes;
       Printf.sprintf "queries_served %d" st.Engine.queries_served;
       Printf.sprintf "batches %d" st.Engine.batches;
       Printf.sprintf "timeouts %d" st.Engine.timeouts;
       Printf.sprintf "retries %d" st.Engine.retries;
       Printf.sprintf "degraded %d" st.Engine.degraded;
       Printf.sprintf "breaker_trips %d" st.Engine.breaker_trips;
       "breaker " ^ breaker;
     ]
    @
    (* per-tenant SLO block: objective, attribution, burn rate *)
    [
      "slo_objective "
      ^ Slo.objective_text
          (Option.value (Slo.objective_of t.slo tenant) ~default:Slo.no_objective);
      Printf.sprintf "slo_burn_rate %.3f" (Slo.burn_rate t.slo tenant);
      Slo.report_tenant t.slo tenant;
    ])

let list_body t =
  String.concat "\n"
    (List.map
       (fun name ->
         match Catalog.find t.cat name with
         | Ok tn ->
             let st = Engine.stats (Catalog.engine tn) in
             Printf.sprintf "%s %d %s %d" name
               (Catalog.tenant_generation tn)
               st.Engine.backend st.Engine.sketch_bytes
         | Error _ -> name)
       (Catalog.names t.cat))

(* parse every query of a batch up front: a malformed query rejects
   the whole request before it costs any engine work *)
let parse_queries qs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | q :: rest -> (
        match Xtwig.twig_of_string q with
        | Ok tw -> go (tw :: acc) rest
        | Error e -> Error e)
  in
  go [] qs

let admit t tn it =
  let q = queue_of t it.tenant in
  if Queue.length q >= t.cfg.queue_cap then
    Error
      (Xerror.Overload
         (Printf.sprintf "tenant %s: queue full (%d pending)" it.tenant
            (Queue.length q)))
  else if Engine.breaker_state (Catalog.engine tn) = `Open then
    Error (Xerror.Overload (Printf.sprintf "tenant %s: circuit breaker open" it.tenant))
  else begin
    Queue.add it q;
    refresh_queue_gauge t it.tenant;
    Ok ()
  end

let rec handle_request t conn id req =
  let now = Unix.gettimeofday () in
  match req with
  | Protocol.Ping ->
      Metrics.incr (m_request "ping");
      respond conn ~id (Protocol.Reply ("pong " ^ Xtwig.version))
  | Protocol.List ->
      Metrics.incr (m_request "list");
      respond conn ~id (Protocol.Reply (list_body t))
  | Protocol.Metrics ->
      Metrics.incr (m_request "metrics");
      respond conn ~id (Protocol.Reply (Xtwig.metrics_render ()))
  | Protocol.Stats tenant -> (
      Metrics.incr (m_request "stats");
      match Catalog.find t.cat tenant with
      | Ok tn -> respond conn ~id (Protocol.Reply (stats_body t tn tenant))
      | Error e -> respond conn ~id (Protocol.Fail e))
  | Protocol.Reload tenant -> (
      Metrics.incr (m_request "reload");
      match Catalog.find t.cat tenant with
      | Ok _ ->
          (* not subject to the queue cap: the control plane must be
             able to reload a tenant that is drowning *)
          Queue.add
            {
              conn;
              id;
              tenant;
              verb = "reload";
              trace = None;
              work = `Reload;
              enqueued_at = now;
              enq_ns = Trace.now_ns ();
            }
            (queue_of t tenant);
          refresh_queue_gauge t tenant
      | Error e -> respond conn ~id (Protocol.Fail e))
  | Protocol.Update { tenant; op } -> (
      Metrics.incr (m_request "update");
      match Catalog.find t.cat tenant with
      | Error e -> respond conn ~id (Protocol.Fail e)
      | Ok _ -> (
          (* parse the fragment up front: a malformed fragment is the
             client's error before it reaches the queue *)
          let delta =
            match op with
            | Protocol.Del node -> Ok (Xtwig.Delete node)
            | Protocol.Ins { parent; fragment_xml } ->
                Result.map
                  (fun fragment -> Xtwig.Insert { parent; fragment })
                  (Xtwig.doc_of_string fragment_xml)
          in
          match delta with
          | Error e -> respond conn ~id (Protocol.Fail e)
          | Ok delta ->
              (* like reload, not subject to the queue cap: a document
                 mutation must not be shed behind a query flood *)
              Queue.add
                {
                  conn;
                  id;
                  tenant;
                  verb = "update";
                  trace = None;
                  work = `Update delta;
                  enqueued_at = now;
                  enq_ns = Trace.now_ns ();
                }
                (queue_of t tenant);
              refresh_queue_gauge t tenant))
  | Protocol.Estimate { tenant; query; trace } ->
      Metrics.incr (m_request "estimate");
      enqueue_work t conn id tenant ~verb:"estimate" ~trace
        (`Queries [ query ]) now
  | Protocol.Batch { tenant; queries; trace } ->
      Metrics.incr (m_request "batch");
      enqueue_work t conn id tenant ~verb:"batch" ~trace (`Queries queries) now
  | Protocol.Explain { tenant; query; trace } ->
      Metrics.incr (m_request "explain");
      enqueue_work t conn id tenant ~verb:"explain" ~trace (`One query) now
  | Protocol.Optimize { tenant; query; trace } ->
      Metrics.incr (m_request "optimize");
      enqueue_work t conn id tenant ~verb:"optimize" ~trace (`Opt query) now

and enqueue_work t conn id tenant ~verb ~trace payload now =
  match Catalog.find t.cat tenant with
  | Error e -> respond conn ~id (Protocol.Fail e)
  | Ok tn -> (
      let work =
        match payload with
        | `Queries qs -> Result.map (fun ts -> `Batch ts) (parse_queries qs)
        | `One q -> Result.map (fun tw -> `Explain tw) (Xtwig.twig_of_string q)
        | `Opt q -> Result.map (fun tw -> `Optimize tw) (Xtwig.twig_of_string q)
      in
      match work with
      | Error e -> respond conn ~id (Protocol.Fail e)
      | Ok (`Batch []) -> respond conn ~id (Protocol.Reply "")
      | Ok work -> (
          let it =
            {
              conn;
              id;
              tenant;
              verb;
              trace;
              work;
              enqueued_at = now;
              enq_ns = Trace.now_ns ();
            }
          in
          match admit t tn it with
          | Ok () -> ()
          | Error e ->
              Metrics.incr (m_shed tenant);
              refresh_queue_gauge t tenant;
              Slo.record t.slo ~tenant Slo.Shed;
              Log.warn "serve.shed"
                ~fields:
                  [
                    ("tenant", Log.S tenant);
                    ("verb", Log.S verb);
                    ("id", Log.I id);
                    ( "depth",
                      Log.I
                        (match Hashtbl.find_opt t.queues tenant with
                        | Some q -> Queue.length q
                        | None -> 0) );
                  ];
              respond conn ~id (Protocol.Fail e)))

(* ---------------- queue processing ---------------- *)

(* log circuit-breaker transitions observed after engine work: the
   breaker lives inside the engine, so the serving layer notices state
   changes at the drain boundary *)
let note_breaker t tenant_name =
  match Catalog.find t.cat tenant_name with
  | Error _ -> ()
  | Ok tn ->
      let state =
        match Engine.breaker_state (Catalog.engine tn) with
        | `Closed -> "closed"
        | `Open -> "open"
        | `Half_open -> "half-open"
      in
      let prev = Hashtbl.find_opt t.breaker_seen tenant_name in
      if prev <> Some state then begin
        Hashtbl.replace t.breaker_seen tenant_name state;
        if prev <> None then
          Log.warn "serve.breaker"
            ~fields:
              [
                ("tenant", Log.S tenant_name);
                ("from", Log.S (Option.value prev ~default:"?"));
                ("to", Log.S state);
              ]
      end

(* the trace context of a coalesced run: the first client-supplied id
   in arrival order (an uncontended run has at most one) *)
let run_trace_id items = List.find_map (fun it -> it.trace) items

(* answer a coalesced run of batch items with one engine call; the
   engine returns answers in query order, so slicing them back per
   request preserves each request's order. The run's coalesce and
   execute phase times are shared by its items — one engine call
   served them all. *)
let process_run t tenant_name ~run_start_ns (items : item list) =
  match Catalog.find t.cat tenant_name with
  | Error e ->
      let ts = Trace.now_ns () in
      List.iter
        (fun it ->
          finish_item t it ~run_start_ns ~exec_start_ns:ts ~exec_end_ns:ts
            (Protocol.Fail e))
        items
  | Ok tn -> (
      let queries =
        List.concat_map
          (fun it ->
            match it.work with
            | `Batch qs -> qs
            | `Explain _ | `Optimize _ | `Reload | `Update _ -> [])
          items
      in
      let trace_id = run_trace_id items in
      let exec_start_ns = Trace.now_ns () in
      let finish_all resp_of =
        let exec_end_ns = Trace.now_ns () in
        List.iter
          (fun it ->
            finish_item t it ~run_start_ns ~exec_start_ns ~exec_end_ns
              (resp_of it))
          items
      in
      match
        Trace.with_span ~name:"serve.batch"
          ~args:
            (if Trace.enabled () then
               (match trace_id with
               | Some tid -> [ ("trace_id", string_of_int tid) ]
               | None -> [])
               @ [
                   ("tenant", tenant_name);
                   ("queries", string_of_int (List.length queries));
                 ]
             else [])
        @@ fun () ->
        Fault.point "serve.batch";
        Engine.estimate_batch ?trace_id (Catalog.engine tn) queries
      with
      | Ok answers ->
          let rest = ref answers in
          finish_all (fun it ->
              match it.work with
              | `Reload | `Explain _ | `Optimize _ | `Update _ -> assert false
              | `Batch qs ->
                  let n = List.length qs in
                  let mine = List.filteri (fun i _ -> i < n) !rest in
                  rest := List.filteri (fun i _ -> i >= n) !rest;
                  Protocol.Reply
                    (String.concat "\n" (List.map Protocol.encode_answer mine)));
          note_breaker t tenant_name
      | Error e ->
          finish_all (fun _ -> Protocol.Fail e);
          note_breaker t tenant_name
      | exception Fault.Injected { point; _ } ->
          let e = Xerror.Engine ("injected fault at " ^ point) in
          finish_all (fun _ -> Protocol.Fail e))

(* an explain runs alone (its own engine call), but inside the normal
   queue so it observes the reload barrier ordering *)
let process_explain t tenant_name ~run_start_ns it q =
  match Catalog.find t.cat tenant_name with
  | Error e ->
      let ts = Trace.now_ns () in
      finish_item t it ~run_start_ns ~exec_start_ns:ts ~exec_end_ns:ts
        (Protocol.Fail e)
  | Ok tn -> (
      let exec_start_ns = Trace.now_ns () in
      let finish resp =
        finish_item t it ~run_start_ns ~exec_start_ns
          ~exec_end_ns:(Trace.now_ns ()) resp
      in
      let eng = Catalog.engine tn in
      match
        Fault.point "serve.batch";
        Engine.estimate ?trace_id:it.trace eng q
      with
      | Ok a ->
          finish
            (Protocol.Reply
               (Protocol.encode_provenance ~backend:(Engine.backend_name eng) a));
          note_breaker t tenant_name
      | Error e ->
          finish (Protocol.Fail e);
          note_breaker t tenant_name
      | exception Fault.Injected { point; _ } ->
          finish (Protocol.Fail (Xerror.Engine ("injected fault at " ^ point))))

(* an optimize also runs alone inside the queue (barrier-ordered like
   explain). Planning itself is total — an [opt.plan] fault degrades
   to the identity plan with [fallback true], never an error — so the
   only failure modes here are an unknown tenant or a backend without
   a sketch to cost against. *)
let process_optimize t tenant_name ~run_start_ns it q =
  match Catalog.find t.cat tenant_name with
  | Error e ->
      let ts = Trace.now_ns () in
      finish_item t it ~run_start_ns ~exec_start_ns:ts ~exec_end_ns:ts
        (Protocol.Fail e)
  | Ok tn -> (
      let exec_start_ns = Trace.now_ns () in
      let finish resp =
        finish_item t it ~run_start_ns ~exec_start_ns
          ~exec_end_ns:(Trace.now_ns ()) resp
      in
      match
        Trace.with_span ~name:"serve.optimize"
          ~args:(if Trace.enabled () then [ ("tenant", tenant_name) ] else [])
        @@ fun () ->
        let sk = Engine.sketch (Catalog.engine tn) in
        Xtwig.optimize sk q
      with
      | plan -> finish (Protocol.Reply (Protocol.encode_plan plan))
      | exception Invalid_argument _ ->
          finish
            (Protocol.Fail
               (Xerror.Usage
                  ("tenant " ^ tenant_name
                 ^ " serves a sketch-less backend; optimize needs xsketch"))))

let process_reload t tenant_name it =
  match
    Fault.point "serve.reload";
    Catalog.reload t.cat tenant_name
  with
  | Ok generation ->
      Metrics.incr (m_reloads tenant_name);
      Log.info "serve.reload"
        ~fields:
          [ ("tenant", Log.S tenant_name); ("generation", Log.I generation) ];
      Metrics.observe h_request (Unix.gettimeofday () -. it.enqueued_at);
      respond it.conn ~id:it.id (Protocol.Reply (string_of_int generation))
  | Error e ->
      Log.error "serve.reload_failed"
        ~fields:
          [
            ("tenant", Log.S tenant_name);
            ("error", Log.S (Xerror.to_string e));
          ];
      Metrics.observe h_request (Unix.gettimeofday () -. it.enqueued_at);
      respond it.conn ~id:it.id (Protocol.Fail e)
  | exception Fault.Injected { point; _ } ->
      Metrics.observe h_request (Unix.gettimeofday () -. it.enqueued_at);
      respond it.conn ~id:it.id
        (Protocol.Fail (Xerror.Engine ("injected fault at " ^ point)))

(* an update barriers the queue like a reload: batches enqueued before
   it are answered over the old document, batches after it over the
   new one — the engine core swaps between engine calls, never during
   one *)
let process_update t tenant_name it delta =
  match Catalog.update t.cat tenant_name delta with
  | Ok generation ->
      Metrics.incr (m_updates tenant_name);
      Log.info "serve.update"
        ~fields:
          [ ("tenant", Log.S tenant_name); ("generation", Log.I generation) ];
      Metrics.observe h_request (Unix.gettimeofday () -. it.enqueued_at);
      respond it.conn ~id:it.id (Protocol.Reply (string_of_int generation))
  | Error e ->
      Log.error "serve.update_failed"
        ~fields:
          [
            ("tenant", Log.S tenant_name);
            ("error", Log.S (Xerror.to_string e));
          ];
      Metrics.observe h_request (Unix.gettimeofday () -. it.enqueued_at);
      respond it.conn ~id:it.id (Protocol.Fail e)

let drain_queue t tenant_name q =
  while not (Queue.is_empty q) do
    let run_start_ns = Trace.now_ns () in
    (* take the maximal prefix of estimate/batch items: one engine
       call for the whole run; an explain runs alone; a reload is
       processed alone, so it barriers the queue *)
    let run = ref [] in
    let stop = ref false in
    while (not !stop) && not (Queue.is_empty q) do
      match (Queue.peek q).work with
      | `Batch _ -> run := Queue.pop q :: !run
      | `Explain _ | `Optimize _ | `Reload | `Update _ -> stop := true
    done;
    refresh_queue_gauge t tenant_name;
    (match List.rev !run with
    | [] -> ()
    | items -> process_run t tenant_name ~run_start_ns items);
    if not (Queue.is_empty q) then begin
      match (Queue.peek q).work with
      | `Explain tw ->
          let it = Queue.pop q in
          refresh_queue_gauge t tenant_name;
          process_explain t tenant_name ~run_start_ns:it.enq_ns it tw
      | `Optimize tw ->
          let it = Queue.pop q in
          refresh_queue_gauge t tenant_name;
          process_optimize t tenant_name ~run_start_ns:it.enq_ns it tw
      | `Reload ->
          let it = Queue.pop q in
          refresh_queue_gauge t tenant_name;
          process_reload t tenant_name it
      | `Update delta ->
          let it = Queue.pop q in
          refresh_queue_gauge t tenant_name;
          process_update t tenant_name it delta
      | `Batch _ -> ()
    end
  done;
  refresh_queue_gauge t tenant_name

let process_queues t =
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.queues name with
      | Some q when not (Queue.is_empty q) -> drain_queue t name q
      | _ -> ())
    (Catalog.names t.cat)

(* ---------------- input ---------------- *)

let handle_frame t conn payload =
  match
    Fault.point "serve.decode";
    Protocol.decode_request payload
  with
  | Ok (id, req) -> handle_request t conn id req
  | Error msg -> (
      (* undecodable: answer on the id if the header carries one,
         otherwise the frame is unanswerable — drop it *)
      match String.split_on_char ' ' payload with
      | id :: _ when int_of_string_opt id <> None ->
          respond conn ~id:(int_of_string id) (Protocol.Fail (Xerror.Usage msg))
      | _ -> ())
  | exception Fault.Injected { point; _ } -> (
      match String.split_on_char ' ' payload with
      | id :: _ when int_of_string_opt id <> None ->
          respond conn ~id:(int_of_string id)
            (Protocol.Fail (Xerror.Engine ("injected fault at " ^ point)))
      | _ -> ())

let read_conn t conn =
  try
    Fault.point "serve.read";
    match Unix.read conn.fd conn.rbuf 0 (Bytes.length conn.rbuf) with
    | 0 -> close_conn t conn
    | n ->
        Trace.with_span ~name:"serve.read"
          ~args:(if Trace.enabled () then [ ("bytes", string_of_int n) ] else [])
        @@ fun () ->
        Protocol.feed conn.dec conn.rbuf n;
        let continue = ref true in
        while !continue && conn.alive do
          match Protocol.next_frame conn.dec with
          | Ok (Some payload) -> handle_frame t conn payload
          | Ok None -> continue := false
          | Error _ ->
              (* oversized frame: unrecoverable framing state *)
              close_conn t conn
        done
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
  with
  | Fault.Injected _ | Unix.Unix_error _ -> close_conn t conn

let accept_conns t =
  let continue = ref true in
  while !continue do
    match
      Fault.point "serve.accept";
      Unix.accept ~cloexec:true t.listen_fd
    with
    | fd, _ ->
        Unix.set_nonblock fd;
        Metrics.incr m_accepted;
        let conn =
          {
            fd;
            dec = Protocol.decoder ();
            outq = Queue.create ();
            out_off = 0;
            alive = true;
            rbuf = Bytes.create 65536;
          }
        in
        t.conns <- conn :: t.conns;
        Log.debug ~fields:[ ("conns", Log.I (List.length t.conns)) ]
          "serve.conn_accepted";
        Metrics.set m_conns (float_of_int (List.length t.conns))
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
        continue := false
    | exception Fault.Injected _ ->
        (* the pending connection stays in the backlog; the next tick
           will offer it again *)
        continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

(* ---------------- main loop ---------------- *)

let teardown t =
  List.iter (fun c -> close_conn t c) t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.unix_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ());
  Catalog.close t.cat;
  Metrics.set m_conns 0.0

let serve t =
  while not (Atomic.get t.stopping) do
    (try
       let reads = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
       let writes =
         List.filter_map
           (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
           t.conns
       in
       let readable, writable, _ =
         try Unix.select reads writes [] 0.05
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       if List.mem t.listen_fd readable then accept_conns t;
       List.iter
         (fun c ->
           if c.alive && List.mem c.fd readable then read_conn t c)
         t.conns;
       process_queues t;
       List.iter
         (fun c ->
           if c.alive && (List.mem c.fd writable || not (Queue.is_empty c.outq))
           then flush_conn t c)
         t.conns;
       t.conns <- List.filter (fun c -> c.alive) t.conns
     with exn ->
       (* nothing below should ever reach here; the chaos tests gate
          this counter at zero *)
       Metrics.incr m_uncaught;
       Log.error ~fields:[ ("exn", Log.S (Printexc.to_string exn)) ]
         "serve.uncaught";
       Printf.eprintf "xtwigd: uncaught %s\n%!" (Printexc.to_string exn));
    ()
  done;
  teardown t
