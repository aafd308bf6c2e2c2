(* What the four workloads share: the clock, the datasets and their
   recipes, metrics deltas, child processes, and the outcome every
   workload returns. *)

module Trace = Xtwig_obs.Trace
module Metrics = Xtwig_obs.Metrics
module Prng = Xtwig_util.Prng
module Zipf = Xtwig_util.Zipf
module Wgen = Xtwig_workload.Wgen

type ctx = {
  seed : int;  (** seeds query pools, Zipf draws and update schedules *)
  seconds : int;  (** length of the measured phase *)
  trace : bool;
  tmp : string;  (** this run's scratch directory, under .benchmark-tmp/ *)
}

(* A workload's result. [values] holds every number it measured, by
   name; the runner sorts them into end-to-end metrics, per-layer
   metrics and diagnostics according to BENCHMARK.json. *)
type outcome = {
  correct : bool;
  valid : bool;  (** the load was applied as scheduled; otherwise measured again *)
  attempted : int;
  failed : int;
  values : (string * float) list;
  traced : int64 * int64;  (** monotonic start and end of the traced window, ns *)
  server_traces : string list;  (** trace files written by child processes *)
}

let log fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Xtwig.Xerror.to_string e)

(* ---------------- clocks ---------------- *)

let now () = Trace.now_ns ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
let since t0 = seconds_between t0 (now ())

(* Speed-corrected time. Each core of the two-core shared host this was
   built on switches between a fast state and one about 1.6x slower,
   about once a second and independently of the other, and the mix
   drifts over minutes, so the same work's wall time moves by 10-20%
   from run to run. A fixed ALU loop, run inline at most every 10 ms
   between operations ([tick]), reads the current speed, and the
   corrected clock advances at wall speed x (reference / probe time): it
   reads seconds at the speed where the loop takes [reference_s]. Over
   10-second windows of the estimate loop the loop's time tracks the
   workload's with correlation 0.98. [serve], whose server runs in
   another process, scales by the mean factor instead (see there). *)

let probe_iters = 50_000
let reference_s = 4.4e-5
let probe_every_ns = 10_000_000L

type clock = {
  mutable mark : int64;  (** wall time of the last probe *)
  mutable virt : float;  (** corrected seconds at [mark] *)
  mutable factor : float;  (** corrected seconds per wall second *)
  recent : float array;  (** the last probe times, oldest overwritten *)
  mutable probes : int;
  mutable factor_sum : float;
}

let clock =
  { mark = now (); virt = 0.0; factor = 1.0; recent = Array.make 5 reference_s; probes = 0; factor_sum = 0.0 }

let vnow () = clock.virt +. (seconds_between clock.mark (now ()) *. clock.factor)

(* the probe's own time is left out of the corrected clock *)
let probe () =
  clock.virt <- vnow ();
  let t0 = now () in
  let r = ref 0 in
  for i = 1 to probe_iters do
    r := !r lxor (i * 7)
  done;
  ignore (Sys.opaque_identity !r);
  clock.recent.(clock.probes mod Array.length clock.recent) <- since t0;
  clock.probes <- clock.probes + 1;
  (* the median of the last readings ignores one an interrupt stretched *)
  let sorted = Summary.sorted_copy clock.recent in
  clock.factor <- reference_s /. sorted.(Array.length sorted / 2);
  clock.factor_sum <- clock.factor_sum +. clock.factor;
  clock.mark <- now ()

let tick () = if Int64.sub (now ()) clock.mark >= probe_every_ns then probe ()

(* fill the probe history before the first measurement *)
let calibrate () =
  for _ = 1 to Array.length clock.recent do
    probe ()
  done

(* mean correction factor since [mark_of_speed] was taken *)
let mark_of_speed () = (clock.probes, clock.factor_sum)

let mean_factor (probes, sum) =
  if clock.probes > probes then (clock.factor_sum -. sum) /. float_of_int (clock.probes - probes)
  else clock.factor

type took = { wall : float; virt : float }

let timed f =
  let w0 = now () and v0 = vnow () in
  let v = f () in
  (v, { wall = since w0; virt = vnow () -. v0 })

(* ---------------- latency samples ---------------- *)

(* one workload's latencies in seconds, failed operations as +inf *)
type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 1024 0.0; n = 0 }

let record s v =
  if s.n = Array.length s.xs then begin
    let grown = Array.make (2 * s.n) 0.0 in
    Array.blit s.xs 0 grown 0 s.n;
    s.xs <- grown
  end;
  s.xs.(s.n) <- v;
  s.n <- s.n + 1

let contents s = Array.sub s.xs 0 s.n

(* p50/p99 in milliseconds, plus the diagnostics the tail needs: p999,
   max and the highest level with ten samples beyond it *)
let latency_values prefix s =
  let sorted = Summary.sorted_copy (contents s) in
  let ms p = 1e3 *. Summary.percentile_sorted sorted p in
  let tail = Option.value ~default:50.0 (Summary.tail_level s.n) in
  [
    (prefix ^ "p50_ms", ms 50.0);
    (prefix ^ "p90_ms", ms 90.0);
    (prefix ^ "p99_ms", ms 99.0);
    (prefix ^ "p999_ms", ms 99.9);
    (prefix ^ "max_ms", ms 100.0);
    (prefix ^ "tail10_level", tail);
    (prefix ^ "tail10_ms", ms tail);
    (prefix ^ "samples", float_of_int s.n);
  ]

(* ---------------- datasets ---------------- *)

(* Parse-side accounting of setup: every document a workload uses is
   generated with its fixed dataset seed, rendered as XML and parsed
   back, so the program sees bytes, as it would from a user. *)
type parse_stats = { mutable parse_s : float; mutable parse_bytes : int }

let parse_stats () = { parse_s = 0.0; parse_bytes = 0 }

let through_parser stats doc =
  let xml = Xtwig_xml.Xml_writer.to_string doc in
  tick ();
  let parsed, took =
    timed (fun () ->
        Trace.with_span ~name:"bench.xmlcore.parse" (fun () ->
            Xtwig_xml.Xml_parser.parse_string_res xml))
  in
  tick ();
  stats.parse_s <- stats.parse_s +. took.wall;
  stats.parse_bytes <- stats.parse_bytes + String.length xml;
  ok_exn "parse" parsed

let imdb stats scale = through_parser stats (Xtwig_datagen.Imdb.generate ~scale ())
let xmark stats scale = through_parser stats (Xtwig_datagen.Xmark.generate ~scale ())

let parse_values stats =
  [
    ("xmlcore.parse_s", stats.parse_s);
    ( "xmlcore.parse_mb_s",
      if stats.parse_s > 0.0 then float_of_int stats.parse_bytes /. 1048576.0 /. stats.parse_s
      else 0.0 );
  ]

(* the synopsis every estimating workload serves: XBUILD, 16,000 bytes,
   seed 7, one domain *)
let sketch_recipe doc =
  ok_exn "build_sketch"
    (Xtwig.build_sketch ~budget:16_000 ~seed:7 ~jobs:1
       ~on_step:(fun ~step:_ ~description:_ ~size:_ -> tick ())
       doc)

(* independent PRNG streams for the query pool and for the draws over it *)
let streams seed =
  let g = Prng.create seed in
  let pool = Prng.split g in
  (pool, Prng.split g)

let pv_pool prng n doc =
  tick ();
  let pool = Array.of_list (Wgen.generate { Wgen.paper_pv with Wgen.n_queries = n } prng doc) in
  tick ();
  pool

(* Zipf(0.9) draws of pool indices, fixed before timing *)
let zipf_draws prng ~pool ~n =
  let z = Zipf.create ~n:pool ~theta:0.9 in
  Array.init n (fun _ -> Zipf.sample z prng - 1)

(* ---------------- metrics deltas ---------------- *)

let ratio num den = if den > 0.0 then num /. den else 0.0

(* the program's own layer counters and timers, from a [Metrics.diff]
   (timers count nanoseconds) or from xtwigd's rendering of the same
   registry ([get] abstracts over the two) *)
let layer_values get =
  let c name = get name in
  let s name = get name /. 1e9 in
  [
    ("xbuild.steps", c "xbuild.steps");
    ("xbuild.candidates_scored", c "xbuild.candidates_scored");
    ("xbuild.apply_s", s "xbuild.apply_ns");
    ("sketch.build_s", s "sketch.build_ns");
    ("sketch.builds", c "sketch.builds");
    ( "sketch.ehist_reuse_ratio",
      ratio (c "sketch.ehists_reused") (c "sketch.ehists_reused" +. c "sketch.ehists_built") );
    ("sketch.deltas", c "sketch.deltas");
    ("sketch.delta_s", s "sketch.delta_ns");
    ("embed.s", s "embed.ns");
    ("embed.cache_misses", c "embed.cache_misses");
    ( "embed.cache_hit_ratio",
      ratio (c "embed.cache_hits") (c "embed.cache_hits" +. c "embed.cache_misses") );
    ("plan.compiles", c "plan.compiles");
    ("plan.repatches", c "plan.repatches");
    ("plan.skeleton_adoptions", c "plan.skeleton_adoptions");
    ("plan.interp_estimates", c "plan.interp_estimates");
    ( "plan.cache_hit_ratio",
      ratio (c "plan.cache_hits") (c "plan.cache_hits" +. c "plan.cache_misses") );
    ("plan.compile_s", s "plan.compile_ns");
    ("plan.repatch_s", s "plan.repatch_ns");
    ("plan.run_s", s "plan.run_ns");
    ("estimator.s", s "estimator.ns");
    ("opt.order_changed", c "opt.order_changed");
    ("opt.fallbacks", c "opt.fallbacks");
  ]

let metrics_delta before = Metrics.diff before (Metrics.snapshot ())

let in_process_layers d = layer_values (fun name -> float_of_int (Metrics.counter_of d name))

let gc_values (before : Gc.stat) =
  let after = Gc.quick_stat () in
  [
    ("gc.minor_mwords", (after.Gc.minor_words -. before.Gc.minor_words) /. 1e6);
    ("gc.major_collections", float_of_int (after.Gc.major_collections - before.Gc.major_collections));
  ]

(* ---------------- the measured window ---------------- *)

(* events kept per domain when tracing; high enough that no workload's
   traced window drops a span *)
let trace_cap = 6_000_000

type window = {
  span : int64 * int64;  (** monotonic start and end, ns *)
  delta : Metrics.snapshot;
  gc : (string * float) list;
  speed : float;
}

(* Run the measured phase: set-up garbage is compacted away first, the
   program's metrics and the GC are read around it, and in a traced run
   tracing covers exactly this phase (a workload may switch it off
   early, see [estimate]). *)
let window ctx f =
  Gc.compact ();
  let m0 = Metrics.snapshot () and g0 = Gc.quick_stat () and s0 = mark_of_speed () in
  if ctx.trace then begin
    Trace.reset ();
    Trace.enable ~cap:trace_cap ()
  end;
  let start = now () in
  let v = Fun.protect ~finally:Trace.disable f in
  (v, { span = (start, now ()); delta = metrics_delta m0; gc = gc_values g0; speed = mean_factor s0 })

(* the uncorrected readings beside the corrected ones, and how fast the
   machine ran during the window (corrected per wall second) *)
let wall_values ~(setup : took) ~busy_wall_s w =
  [ ("setup_wall_s", setup.wall); ("busy_wall_s", busy_wall_s); ("speed_factor", w.speed) ]

(* the hot path's query pool, shared by [estimate] and [serve]: calls
   scale with the measured seconds, and the pool is a 25th of them so
   a few percent of calls see a query for the first time *)
let estimate_calls ctx = 15_000 * ctx.seconds
let estimate_pool ctx = estimate_calls ctx / 25

(* ---------------- processes ---------------- *)

let proc_field pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:(field ^ ":") line then
           String.split_on_char ' ' line
           |> List.filter (fun w -> w <> "" && w.[0] >= '0' && w.[0] <= '9')
           |> List.find_map float_of_string_opt
         else None)
  |> Option.value ~default:0.0

(* peak resident set (VmHWM) in MiB *)
let peak_mb pid = proc_field pid "VmHWM" /. 1024.0

(* user + system CPU seconds of a process (Linux reports clock ticks of
   1/100 s in /proc/<pid>/stat, after the parenthesised command name) *)
let cpu_s pid =
  let stat = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

(* children still running; killed and reaped at exit, whatever the path *)
let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (reap pid)

let stop_children () = List.iter stop !children
let () = at_exit stop_children

let spawn prog args ~stdout =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout Unix.stderr in
  children := pid :: !children;
  pid

(* run this executable again with [args]; its stdout lines and whether
   it exited 0 *)
let run_self args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = spawn Sys.executable_name args ~stdout:wr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let ok = reap pid = Unix.WEXITED 0 in
  (String.split_on_char '\n' out |> List.filter (( <> ) ""), ok)
