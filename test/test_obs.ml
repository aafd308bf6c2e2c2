(* The observability layer's claims: metric cells are shared by
   (name, labels) and atomically updated; snapshot/diff isolates one
   run's activity; histogram percentiles interpolate; the Prometheus /
   JSON expositions are well-formed; trace spans pair B with E per
   domain (also under Pool fan-out, exceptions, and buffer
   saturation); and the Accuracy stream reproduces the sanity-bounded
   relative error of Error_metric. Metric names are unique per test —
   the registry is process-global. *)

module Metrics = Xtwig_obs.Metrics
module Trace = Xtwig_obs.Trace
module Accuracy = Xtwig_obs.Accuracy
module Log = Xtwig_obs.Log
module Slo = Xtwig_obs.Slo
module Pool = Xtwig_util.Pool

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let count_sub needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter_basics () =
  let c = Metrics.counter "t.counter.basics" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "incremented" 42 (Metrics.counter_value c);
  (* same (name, labels) -> same cell *)
  let c' = Metrics.counter "t.counter.basics" in
  Metrics.incr c';
  Alcotest.(check int) "shared cell" 43 (Metrics.counter_value c)

let test_labels_distinguish_cells () =
  let a = Metrics.counter ~labels:[ ("k", "a") ] "t.counter.labeled" in
  let b = Metrics.counter ~labels:[ ("k", "b") ] "t.counter.labeled" in
  Metrics.incr ~by:3 a;
  Metrics.incr ~by:5 b;
  Alcotest.(check int) "label a" 3 (Metrics.counter_value a);
  Alcotest.(check int) "label b" 5 (Metrics.counter_value b);
  (* label order is normalized: same set -> same cell *)
  let ab = Metrics.counter ~labels:[ ("x", "1"); ("y", "2") ] "t.counter.two" in
  let ba = Metrics.counter ~labels:[ ("y", "2"); ("x", "1") ] "t.counter.two" in
  Metrics.incr ab;
  Alcotest.(check int) "order-insensitive" 1 (Metrics.counter_value ba)

let test_kind_mismatch_rejected () =
  let _ = Metrics.counter "t.kind.clash" in
  match Metrics.gauge "t.kind.clash" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_gauge () =
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "set" 2.5 (Metrics.gauge_value g);
  Metrics.set g (-1.0);
  Alcotest.(check (float 0.0)) "overwrite" (-1.0) (Metrics.gauge_value g)

let test_histogram_and_percentiles () =
  let h = Metrics.histogram ~bounds:[| 10.0; 20.0 |] "t.hist.pct" in
  for _ = 1 to 10 do
    Metrics.observe h 5.0
  done;
  Metrics.observe h 15.0;
  Metrics.observe h 100.0 (* overflow bucket *);
  let v = Metrics.histogram_view h in
  Alcotest.(check int) "count" 12 v.Metrics.count;
  Alcotest.(check int) "bucket 0" 10 v.Metrics.counts.(0);
  Alcotest.(check int) "bucket 1" 1 v.Metrics.counts.(1);
  Alcotest.(check int) "overflow" 1 v.Metrics.counts.(2);
  Alcotest.(check (float 1e-9)) "sum" 165.0 v.Metrics.sum;
  (* rank p50 of 12 obs = 6 of the 10 in [0,10): 0 + 10 * 6/10 *)
  Alcotest.(check (float 1e-9)) "p50 interpolates" 6.0
    (Metrics.percentile_of v 50.0);
  (* overflow observations report the largest finite bound *)
  Alcotest.(check (float 1e-9)) "p100 clamps to last bound" 20.0
    (Metrics.percentile_of v 100.0);
  let empty =
    Metrics.histogram_view (Metrics.histogram ~bounds:[| 1.0 |] "t.hist.empty")
  in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Metrics.percentile_of empty 50.0))

let test_snapshot_diff () =
  let c = Metrics.counter "t.diff.counter" in
  let g = Metrics.gauge "t.diff.gauge" in
  let h = Metrics.histogram ~bounds:[| 1.0 |] "t.diff.hist" in
  Metrics.incr ~by:7 c;
  Metrics.set g 1.0;
  Metrics.observe h 0.5;
  let before = Metrics.snapshot () in
  Metrics.incr ~by:5 c;
  Metrics.set g 9.0;
  Metrics.observe h 0.5;
  Metrics.observe h 2.0;
  let d = Metrics.diff before (Metrics.snapshot ()) in
  Alcotest.(check int) "counter delta" 5 (Metrics.counter_of d "t.diff.counter");
  (match Metrics.find d "t.diff.gauge" with
  | Some (Metrics.Gauge v) -> Alcotest.(check (float 0.0)) "gauge keeps after" 9.0 v
  | _ -> Alcotest.fail "gauge missing from diff");
  (match Metrics.find d "t.diff.hist" with
  | Some (Metrics.Histogram v) ->
      Alcotest.(check int) "hist delta count" 2 v.Metrics.count;
      Alcotest.(check (float 1e-9)) "hist delta sum" 2.5 v.Metrics.sum
  | _ -> Alcotest.fail "histogram missing from diff");
  (* a cell registered after [before] counts from zero *)
  let late = Metrics.counter "t.diff.late" in
  Metrics.incr ~by:3 late;
  let d2 = Metrics.diff before (Metrics.snapshot ()) in
  Alcotest.(check int) "late cell counts from zero" 3
    (Metrics.counter_of d2 "t.diff.late")

let test_render_and_json () =
  let c = Metrics.counter ~labels:[ ("op.kind", "b-stabilize") ] "t.render.ops" in
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0 |] "t.render.seconds" in
  Metrics.incr ~by:2 c;
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  let snap = Metrics.snapshot () in
  let text = Metrics.render snap in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "TYPE comment" true (contains "# TYPE t_render_ops counter" text);
  Alcotest.(check bool) "label rendered" true
    (contains "t_render_ops{op_kind=\"b-stabilize\"} 2" text);
  Alcotest.(check bool) "cumulative buckets" true
    (contains "t_render_seconds_bucket{le=\"2\"} 2" text);
  Alcotest.(check bool) "+Inf bucket" true
    (contains "t_render_seconds_bucket{le=\"+Inf\"} 2" text);
  Alcotest.(check bool) "_count line" true (contains "t_render_seconds_count 2" text);
  let js = Metrics.to_json snap in
  Alcotest.(check bool) "json names the counter" true (contains "t.render.ops" js);
  Alcotest.(check bool) "json is an object" true
    (String.length js > 1 && js.[0] = '{')

let test_reset_all () =
  let c = Metrics.counter "t.reset.counter" in
  let h = Metrics.histogram ~bounds:[| 1.0 |] "t.reset.hist" in
  Metrics.incr ~by:9 c;
  Metrics.observe h 0.5;
  Metrics.reset_all ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0
    (Metrics.histogram_view h).Metrics.count

let test_time_ns () =
  (* a nanosecond timer books the elapsed time, also when the timed
     function raises *)
  let c = Metrics.counter "t.time_ns" in
  let v = Metrics.time_ns c (fun () -> Unix.sleepf 0.001; 7) in
  Alcotest.(check int) "result passed through" 7 v;
  let t1 = Metrics.counter_value c in
  Alcotest.(check bool) "elapsed booked" true (t1 >= 1_000_000);
  (match Metrics.time_ns c (fun () -> Unix.sleepf 0.001; failwith "timed") with
  | _ -> Alcotest.fail "the exception was swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "elapsed booked on exception" true
    (Metrics.counter_value c - t1 >= 1_000_000)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_trace_disabled_is_passthrough () =
  Trace.disable ();
  Trace.reset ();
  Alcotest.(check bool) "disabled by default here" false (Trace.enabled ());
  let r = Trace.with_span ~name:"t.off" (fun () -> 21 * 2) in
  Alcotest.(check int) "value passes through" 42 r;
  match Trace.validate_string (Trace.to_json_string ()) with
  | Error _ -> ()
  | Ok n -> Alcotest.(check int) "no spans recorded" 0 n

let test_trace_nested_spans_validate () =
  Trace.enable ();
  Trace.reset ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let r =
    Trace.with_span ~name:"outer" ~args:[ ("k", "v") ] (fun () ->
        Trace.with_span ~name:"inner" (fun () -> Trace.instant "mark"; 7))
  in
  Alcotest.(check int) "nested result" 7 r;
  (* a span that raises still closes *)
  (match Trace.with_span ~name:"raises" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  match Trace.validate_string (Trace.to_json_string ()) with
  | Ok n -> Alcotest.(check int) "three well-formed spans" 3 n
  | Error e -> Alcotest.fail e

let test_trace_pool_workers () =
  Trace.enable ();
  Trace.reset ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  Pool.with_pool ~domains:3 (fun p ->
      let ys =
        Pool.map_array p
          ~f:(fun i () -> Trace.with_span ~name:"worker.span" (fun () -> i))
          (Array.make 24 ())
      in
      Array.iteri (fun i y -> Alcotest.(check int) "result" i y) ys);
  match Trace.validate_string (Trace.to_json_string ()) with
  | Ok n -> Alcotest.(check int) "one span per job, all paired" 24 n
  | Error e -> Alcotest.fail e

let test_trace_dump_and_tamper () =
  Trace.enable ();
  Trace.reset ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  Trace.with_span ~name:"a" (fun () ->
      Trace.with_span ~name:"b" (fun () -> ()));
  let path = Filename.temp_file "xtwig_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.dump path;
  (match Trace.validate_file path with
  | Ok n -> Alcotest.(check int) "dump validates" 2 n
  | Error e -> Alcotest.fail e);
  (* drop one "E" line: pairing must now fail *)
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let is_end l =
    let rec contains i =
      i + 8 <= String.length l && (String.sub l i 8 = "\"ph\":\"E\"" || contains (i + 1))
    in
    contains 0
  in
  let dropped_one = ref false in
  let tampered =
    List.rev !lines
    |> List.filter (fun l ->
           if (not !dropped_one) && is_end l then (
             dropped_one := true;
             false)
           else true)
    |> String.concat "\n"
  in
  Alcotest.(check bool) "found an E to drop" true !dropped_one;
  match Trace.validate_string tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered trace must not validate"

let test_trace_cap_drops_whole_spans () =
  Trace.enable ~cap:8 ();
  Trace.reset ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  for _ = 1 to 100 do
    Trace.with_span ~name:"capped" (fun () -> ())
  done;
  Alcotest.(check bool) "spans were dropped" true (Trace.dropped () > 0);
  match Trace.validate_string (Trace.to_json_string ()) with
  | Ok n -> Alcotest.(check bool) "survivors still pair" true (n > 0 && n <= 8)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Accuracy                                                            *)

let test_accuracy_rel_error () =
  let acc = Accuracy.create ~sanity:10.0 ~name:"t.acc.rel" () in
  Alcotest.(check (float 1e-9)) "sanity-bounded below" 0.5
    (Accuracy.rel_error acc ~truth:0.0 ~estimate:5.0);
  Alcotest.(check (float 1e-9)) "plain relative above" 0.5
    (Accuracy.rel_error acc ~truth:100.0 ~estimate:150.0);
  (* matches Error_metric's definition on a positive-truth workload
     (its computed sanity bound, 100.0 here, exceeds ours of 10.0, and
     truth = 100 dominates both) *)
  let truths = [| 100.0 |] and estimates = [| 150.0 |] in
  let m = Xtwig_workload.Error_metric.evaluate ~truths ~estimates in
  Alcotest.(check (float 1e-9)) "agrees with Error_metric"
    m.Xtwig_workload.Error_metric.per_query.(0)
    (Accuracy.rel_error acc ~truth:100.0 ~estimate:150.0)

let test_accuracy_stream_and_report () =
  let acc = Accuracy.create ~sanity:1.0 ~name:"t.acc.stream" () in
  for i = 1 to 100 do
    (* relative errors 0.01 .. 1.00 *)
    let truth = 100.0 in
    Accuracy.observe acc ~truth ~estimate:(truth +. float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Accuracy.count acc);
  let p50 = Accuracy.percentile acc 50.0 in
  let p90 = Accuracy.percentile acc 90.0 in
  let p99 = Accuracy.percentile acc 99.0 in
  Alcotest.(check bool) "p50 near 0.5" true (p50 > 0.2 && p50 < 0.8);
  Alcotest.(check bool) "percentiles ordered" true (p50 <= p90 && p90 <= p99);
  Alcotest.(check bool) "p99 near 1.0" true (p99 > 0.7 && p99 <= 2.0);
  Alcotest.(check bool) "mean near 0.5" true
    (Float.abs (Accuracy.mean_rel acc -. 0.505) < 1e-6);
  let r = Accuracy.report acc in
  Alcotest.(check bool) "report names the count" true
    (let rec contains i =
       i + 3 <= String.length r && (String.sub r i 3 = "100" || contains (i + 1))
     in
     contains 0)

let test_render_escapes_label_values () =
  (* Prometheus exposition escapes exactly backslash, double quote and
     newline in label values; everything else passes through. *)
  let tricky = "a\\b\"c\nd" in
  let c = Metrics.counter ~labels:[ ("path", tricky) ] "t.escape.ops" in
  Metrics.incr c;
  let text = Metrics.render (Metrics.snapshot ()) in
  Alcotest.(check bool) "escaped value rendered" true
    (contains "t_escape_ops{path=\"a\\\\b\\\"c\\nd\"} 1" text);
  Alcotest.(check bool) "no raw newline inside the label value" false
    (contains "c\nd\"" text)

let test_render_family_comments_once () =
  (* # TYPE / # HELP appear exactly once per family even when several
     labeled series of the same family interleave with other families
     in registration order. *)
  let mk tenant = Metrics.counter ~help:"interleaved family"
      ~labels:[ ("tenant", tenant) ] "t.family.once" in
  let a = mk "a" in
  let _other = Metrics.counter "t.family.spacer" in
  let b = mk "b" in
  let _other2 = Metrics.gauge "t.family.spacer2" in
  let c = mk "c" in
  Metrics.incr a;
  Metrics.incr ~by:2 b;
  Metrics.incr ~by:3 c;
  let text = Metrics.render (Metrics.snapshot ()) in
  Alcotest.(check int) "one TYPE line" 1
    (count_sub "# TYPE t_family_once counter" text);
  Alcotest.(check int) "one HELP line" 1
    (count_sub "# HELP t_family_once interleaved family" text);
  Alcotest.(check int) "three series" 3 (count_sub "t_family_once{tenant=" text)

let test_trace_concurrent_domains_validate () =
  (* satellite (c): several domains emitting B/E spans, X complete
     events and instants concurrently still produce a trace the
     validator accepts — pairing is per-tid, never cross-domain.
     (enable keeps the previous soft cap, and the cap test above
     shrank it: restore a roomy one explicitly) *)
  Trace.enable ~cap:100_000 ();
  Trace.reset ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let worker k () =
    for i = 1 to 25 do
      Trace.with_trace_id ((k * 1000) + i) (fun () ->
          Trace.with_span ~name:"dom.outer" (fun () ->
              Trace.with_span ~name:"dom.inner" (fun () ->
                  Trace.instant "dom.mark");
              let start_ns = Int64.sub (Trace.now_ns ()) 1_000L in
              Trace.complete ~name:"dom.retro" ~start_ns ~dur_ns:1_000L ()))
    done
  in
  let doms = List.init 4 (fun k -> Domain.spawn (worker (k + 1))) in
  List.iter Domain.join doms;
  match Trace.validate_string (Trace.to_json_string ()) with
  | Ok n ->
      (* 4 domains x 25 iterations x (2 B/E spans + 1 X span) *)
      Alcotest.(check int) "all spans pair" 300 n
  | Error e -> Alcotest.fail e

let test_accuracy_empty_report_has_no_nan () =
  (* satellite (c): an empty stream must not leak NaN into JSON —
     percentiles of nothing render as null. *)
  let acc = Accuracy.create ~sanity:10.0 ~name:"t.acc.empty" () in
  let js = Accuracy.report_json acc in
  Alcotest.(check bool) "json object" true (String.length js > 0 && js.[0] = '{');
  Alcotest.(check bool) "no nan token" false (contains "nan" (String.lowercase_ascii js));
  Alcotest.(check bool) "no inf token" false (contains "inf" (String.lowercase_ascii js));
  Alcotest.(check bool) "count is zero" true (contains "\"count\": 0" js || contains "\"count\":0" js);
  (* the human report must not crash either *)
  let (_ : string) = Accuracy.report acc in
  ()

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)

let test_log_disabled_is_noop () =
  Log.disable ();
  Alcotest.(check bool) "disabled" false (Log.enabled ());
  Log.info ~fields:[ ("k", Log.S "v") ] "t.log.off";
  Alcotest.(check (list string)) "ring empty" [] (Log.recent ())

let test_log_ring_sink_and_levels () =
  let path = Filename.temp_file "xtwig_log" ".jsonl" in
  Fun.protect ~finally:(fun () -> Log.disable (); Sys.remove path) @@ fun () ->
  Log.enable ~level:Log.Info ~ring_cap:4 ~path ();
  Log.debug "t.log.filtered" (* below threshold: dropped *);
  Log.info ~fields:[ ("tenant", Log.S "a\"b\\c"); ("bytes", Log.I 17) ] "t.log.access";
  Log.warn ~fields:[ ("depth", Log.I 3); ("ok", Log.B false) ] "t.log.shed";
  Log.error ~fields:[ ("ratio", Log.F 0.5) ] "t.log.fail";
  Alcotest.(check int) "three emitted" 3 (Log.emitted ());
  let ring = Log.recent () in
  Alcotest.(check int) "ring holds them" 3 (List.length ring);
  let first = List.hd ring in
  Alcotest.(check bool) "oldest first" true (contains "t.log.access" first);
  Alcotest.(check bool) "json-escaped field" true (contains "a\\\"b\\\\c" first);
  Alcotest.(check bool) "level tagged" true (contains "\"level\":\"info\"" first);
  (* overflow the ring: oldest records are overwritten, emitted keeps counting *)
  for i = 1 to 6 do
    Log.info ~fields:[ ("i", Log.I i) ] "t.log.spam"
  done;
  Alcotest.(check int) "emitted counts overwrites" 9 (Log.emitted ());
  Alcotest.(check int) "ring capped" 4 (List.length (Log.recent ()));
  Log.flush ();
  let ic = open_in path in
  let n = ref 0 and saw_access = ref false in
  (try
     while true do
       let l = input_line ic in
       incr n;
       if contains "t.log.access" l then saw_access := true;
       Alcotest.(check bool) "sink line is an object" true
         (String.length l > 0 && l.[0] = '{')
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "sink kept every record" 9 !n;
  Alcotest.(check bool) "sink kept the overwritten record" true !saw_access

let test_log_level_of_string () =
  Alcotest.(check bool) "debug" true (Log.level_of_string "debug" = Some Log.Debug);
  Alcotest.(check bool) "WARN case-insensitive" true
    (Log.level_of_string "WARN" = Some Log.Warn);
  Alcotest.(check bool) "warning alias" true
    (Log.level_of_string "warning" = Some Log.Warn);
  Alcotest.(check bool) "garbage rejected" true (Log.level_of_string "loud" = None)

(* ------------------------------------------------------------------ *)
(* Slo                                                                 *)

let test_slo_parse () =
  (match Slo.parse "movies=p99:5ms,err:0.1%" with
  | Ok ("movies", o) ->
      (match o.Slo.p99_s with
      | Some v -> Alcotest.(check (float 1e-12)) "5ms" 0.005 v
      | None -> Alcotest.fail "p99 missing");
      (match o.Slo.err_rate with
      | Some v -> Alcotest.(check (float 1e-12)) "0.1%" 0.001 v
      | None -> Alcotest.fail "err missing")
  | Ok _ -> Alcotest.fail "wrong tenant"
  | Error e -> Alcotest.fail e);
  (match Slo.parse "t=p99:250us" with
  | Ok (_, o) ->
      Alcotest.(check bool) "us suffix" true (o.Slo.p99_s = Some 0.00025);
      Alcotest.(check bool) "err absent" true (o.Slo.err_rate = None)
  | Error e -> Alcotest.fail e);
  (match Slo.parse "no-equals-sign" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "spec without '=' must be rejected");
  (match Slo.parse "t=p99:fast" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unparseable duration must be rejected");
  (* objective_text round-trips through parse *)
  match Slo.parse "rt=p99:5ms,err:0.1%" with
  | Error e -> Alcotest.fail e
  | Ok (_, o) -> (
      match Slo.parse ("rt2=" ^ Slo.objective_text o) with
      | Ok (_, o') -> Alcotest.(check bool) "round trip" true (o = o')
      | Error e -> Alcotest.fail e)

let test_slo_burn_rate () =
  (* metric cells are process-global: tenant names unique to this test *)
  let t =
    Slo.create
      [
        ("obs_err", { Slo.p99_s = None; err_rate = Some 0.1 });
        ("obs_lat", { Slo.p99_s = Some 0.001; err_rate = None });
      ]
  in
  (* 9 good + 1 failed of 10 = 10% errors, exactly the 10% budget *)
  for _ = 1 to 9 do
    Slo.record t ~tenant:"obs_err" ~latency_s:0.0001 Slo.Served_ok
  done;
  Slo.record t ~tenant:"obs_err" Slo.Failed;
  Alcotest.(check (float 1e-9)) "at budget burns at 1.0" 1.0
    (Slo.burn_rate t "obs_err");
  (* every request blows the 1ms p99 bound: violation fraction 1.0
     against the 1% allowance = burn 100 *)
  for _ = 1 to 10 do
    Slo.record t ~tenant:"obs_lat" ~latency_s:0.5 Slo.Served_ok
  done;
  Alcotest.(check (float 1e-6)) "all-violating latency burns at 100" 100.0
    (Slo.burn_rate t "obs_lat");
  (* shed counts against the error budget too *)
  Slo.record t ~tenant:"obs_err" Slo.Shed;
  Alcotest.(check bool) "shed raises the burn" true
    (Slo.burn_rate t "obs_err" > 1.0);
  (* undeclared tenants are tracked but burn nothing *)
  Slo.record t ~tenant:"obs_walkin" Slo.Served_degraded;
  Alcotest.(check (float 0.0)) "no objective, no burn" 0.0
    (Slo.burn_rate t "obs_walkin");
  Alcotest.(check bool) "walk-in tenant tracked" true
    (List.mem "obs_walkin" (Slo.tenants t));
  let line = Slo.report_tenant t "obs_err" in
  Alcotest.(check bool) "report names the tenant" true (contains "obs_err" line);
  Alcotest.(check bool) "report shows the burn" true (contains "burn_rate" line)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "labels distinguish cells" `Quick
            test_labels_distinguish_cells;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_kind_mismatch_rejected;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram + percentiles" `Quick
            test_histogram_and_percentiles;
          Alcotest.test_case "snapshot/diff" `Quick test_snapshot_diff;
          Alcotest.test_case "render + json exposition" `Quick
            test_render_and_json;
          Alcotest.test_case "reset_all" `Quick test_reset_all;
          Alcotest.test_case "time_ns books elapsed, also on exception" `Quick
            test_time_ns;
          Alcotest.test_case "render escapes label values" `Quick
            test_render_escapes_label_values;
          Alcotest.test_case "family comments emitted once" `Quick
            test_render_family_comments_once;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is passthrough" `Quick
            test_trace_disabled_is_passthrough;
          Alcotest.test_case "nested spans validate" `Quick
            test_trace_nested_spans_validate;
          Alcotest.test_case "spans on pool workers" `Quick
            test_trace_pool_workers;
          Alcotest.test_case "dump validates, tampering caught" `Quick
            test_trace_dump_and_tamper;
          Alcotest.test_case "cap drops whole spans" `Quick
            test_trace_cap_drops_whole_spans;
          Alcotest.test_case "concurrent domains validate" `Quick
            test_trace_concurrent_domains_validate;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "relative error definition" `Quick
            test_accuracy_rel_error;
          Alcotest.test_case "stream + percentiles + report" `Quick
            test_accuracy_stream_and_report;
          Alcotest.test_case "empty stream has no NaN in JSON" `Quick
            test_accuracy_empty_report_has_no_nan;
        ] );
      ( "log",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_log_disabled_is_noop;
          Alcotest.test_case "ring, sink and level filtering" `Quick
            test_log_ring_sink_and_levels;
          Alcotest.test_case "level_of_string" `Quick test_log_level_of_string;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse specs" `Quick test_slo_parse;
          Alcotest.test_case "burn-rate arithmetic" `Quick test_slo_burn_rate;
        ] );
    ]
