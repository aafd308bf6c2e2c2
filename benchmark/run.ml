(* The repository's benchmark: four workloads, each in its own process,
   timed from outside through the public functions of lib/.

     run.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
     run.exe run [--seed N] [--seconds S] [--trace DIR] [--out FILE]
     run.exe compare A.json... -- B.json...

   The first form runs one workload in this process and prints, as the
   last line of stdout, one JSON object: {correct, attempted, failed,
   metrics}, the metrics being every end-to-end metric of BENCHMARK.json
   untraced and every per-layer metric traced. [run] re-executes this
   program once per workload, so no process-global state (the plan
   skeleton store, interned bucket tables, the metrics registry, trace
   buffers, the GC heap) carries over between workloads, and writes the
   result file [compare] reads. Exit codes: 0 correct; 1 a failed
   oracle, a hung workload, or for [run] a workload that could not apply
   its load on schedule; 2 usage. Run it from the repository root:
   it reads BENCHMARK.json there and builds nothing itself (see
   bench.sh). *)

open Common

let usage =
  "usage:\n\
  \  run.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]\n\
  \  run.exe run [--seed N] [--seconds S] [--trace DIR] [--out FILE]\n\
  \  run.exe compare A.json... -- B.json...\n\
   workloads: xbuild estimate serve optimize"

exception Usage of string

(* [probe] times one set-up on its own; [run] sets up (timed) and measures *)
type workload = { probe : ctx -> float; run : ctx -> outcome }

let workloads =
  [
    ("xbuild", { probe = Xbuild_workload.probe; run = Xbuild_workload.run });
    ("estimate", { probe = Estimate_workload.probe; run = Estimate_workload.run });
    ("serve", { probe = Serve_workload.probe; run = Serve_workload.run });
    ("optimize", { probe = Optimize_workload.probe; run = Optimize_workload.run });
  ]

(* ---------------- BENCHMARK.json ---------------- *)

type metric = { name : string; unit_ : string; better : Summary.better; bound : float }

type spec = { e2e : metric list; layers : metric list }

let load_spec () =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error _ -> raise (Usage "BENCHMARK.json not found: run from the repository root")
  in
  let doc = match Json.parse_res text with Ok d -> d | Error e -> failwith ("BENCHMARK.json: " ^ e) in
  let metrics key =
    match Json.member key doc with
    | Some (Json.Arr l) ->
        List.map
          (fun m ->
            let str k = Option.bind (Json.member k m) Json.to_str in
            match (str "name", str "unit", Option.bind (str "better") Summary.better_of_string) with
            | Some name, Some unit_, Some better ->
                let bound = Option.bind (Json.member "bound" m) Json.to_num in
                { name; unit_; better; bound = Option.value ~default:infinity bound }
            | _ -> failwith ("BENCHMARK.json: malformed metric in " ^ key))
          l
    | _ -> failwith ("BENCHMARK.json: no " ^ key)
  in
  { e2e = metrics "end_to_end"; layers = metrics "per_layer" }

(* ---------------- arguments ---------------- *)

type args = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  trace_dir : string option;
  out : string;
}

let defaults =
  { workload = None; seed = 1; seconds = 10; trace = false; trace_dir = None; out = "benchmark-result.json" }

(* malformed values are usage errors, never a silent default *)
let int_arg flag ~min v =
  match int_of_string_opt v with
  | Some n when n >= min -> n
  | _ -> raise (Usage (Printf.sprintf "%s expects an integer >= %d, got %S" flag min v))

let rec parse_args ~run_mode a = function
  | [] -> a
  | "--workload" :: w :: rest ->
      if not (List.mem_assoc w workloads) then raise (Usage ("unknown workload " ^ w));
      parse_args ~run_mode { a with workload = Some w } rest
  | "--seed" :: v :: rest -> parse_args ~run_mode { a with seed = int_arg "--seed" ~min:0 v } rest
  | "--seconds" :: v :: rest ->
      parse_args ~run_mode { a with seconds = int_arg "--seconds" ~min:1 v } rest
  | "--trace" :: v :: rest when run_mode -> parse_args ~run_mode { a with trace = true; trace_dir = Some v } rest
  | "--trace" :: ("0" | "1" as v) :: rest -> parse_args ~run_mode { a with trace = v = "1" } rest
  | "--trace-dir" :: d :: rest when not run_mode -> parse_args ~run_mode { a with trace_dir = Some d } rest
  | "--out" :: f :: rest when run_mode -> parse_args ~run_mode { a with out = f } rest
  | arg :: _ -> raise (Usage ("unexpected argument " ^ arg))

(* A workload process that runs longer than this has hung (say, xtwigd
   stopped answering): it fails instead of waiting forever. Untraced runs
   take 10-30 s (serve up to ~70 s when it measures three times), traced
   ones about twice that. *)
let deadline_s = 170

let attempts = 3

let child_args a workload =
  [ "--workload"; workload; "--seed"; string_of_int a.seed; "--seconds"; string_of_int a.seconds ]

(* ---------------- one workload ---------------- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let tmp_dirs = ref 0

let with_tmp workload f =
  incr tmp_dirs;
  let tmp =
    Filename.concat ".benchmark-tmp" (Printf.sprintf "%s-%d-%d" workload (Unix.getpid ()) !tmp_dirs)
  in
  mkdir_p tmp;
  let cleanup () =
    stop_children ();
    try remove_tree tmp with Sys_error _ -> ()
  in
  (* a signal exits without unwinding the stack *)
  at_exit cleanup;
  Fun.protect ~finally:cleanup (fun () -> f tmp)

(* a child's "detail" line: every value it measured *)
let detail_of lines =
  List.find_map
    (fun l ->
      match Json.parse_res l with
      | Ok j -> Json.member "detail" j
      | Error _ -> None)
    lines

let values_of detail =
  List.filter_map
    (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num v))
    (Json.fields (Option.value ~default:Json.Null (Json.member "values" detail)))

(* self time per layer, coverage of the traced window, and the ledger
   printed; [server_traces] are xtwigd's, which add their layers' self
   time but cover no client window *)
let ledger_values ~workload ~trace_dir (o : outcome) =
  let own = Trace.to_json_string () in
  Option.iter
    (fun d ->
      mkdir_p d;
      Out_channel.with_open_bin (Filename.concat d (workload ^ ".trace.json")) (fun oc ->
          output_string oc own))
    trace_dir;
  let t0, t1 = o.traced in
  let wall_s = seconds_between t0 t1 in
  let mine = Ledger.of_string own in
  Ledger.print ~title:workload ~wall_s mine;
  let servers =
    List.map
      (fun f ->
        let text = In_channel.with_open_bin f In_channel.input_all in
        Option.iter
          (fun d -> Out_channel.with_open_bin (Filename.concat d (workload ^ ".xtwigd.trace.json")) (fun oc -> output_string oc text))
          trace_dir;
        let l = Ledger.of_string ~during:o.traced text in
        Ledger.print ~title:(workload ^ " (xtwigd)") ~wall_s l;
        l)
      o.server_traces
  in
  let layers = [ "workload"; "evaluator"; "xbuild"; "embed"; "plan"; "estimator"; "engine"; "opt"; "serve" ] in
  ("ledger.coverage", ratio mine.Ledger.covered_s wall_s)
  :: ("trace.dropped", float_of_int (Trace.dropped ()))
  :: List.map
       (fun layer ->
         ( "ledger." ^ layer ^ "_s",
           List.fold_left (fun acc l -> acc +. Ledger.self_s l layer) 0.0 (mine :: servers) ))
       layers

(* The design's names for end-to-end numbers that only one workload
   has. BENCHMARK.json's end-to-end metrics are measured on every
   workload, so these are printed beside them, with their units, but have
   no bound of their own. *)
let design_units =
  [
    ("build_s", "s");
    ("build_error", "ratio");
    ("est_qps", "1/s");
    ("est_p50_us", "us");
    ("est_p99_us", "us");
    ("serve_p50_ms", "ms");
    ("serve_p99_ms", "ms");
    ("serve_rw_p50_ms", "ms");
    ("update_p50_ms", "ms");
    ("opt_s", "s");
    ("exact_s", "s");
  ]

let units (metrics : metric list) = List.map (fun m -> (m.name, m.unit_)) metrics

let print_values title values named =
  log "%s" title;
  List.iter
    (fun (name, unit_) ->
      Option.iter (fun v -> log "  %-32s %16.6f %s" name v unit_) (List.assoc_opt name values))
    named

let last_json lines =
  match List.rev lines with l :: _ -> Result.to_option (Json.parse_res l) | [] -> None

let run_workload a workload =
  let w = List.assoc workload workloads in
  (* set-up is timed three times, in three processes, and reported as the
     median; a traced run instead first runs untraced, for the overhead *)
  let untraced =
    if not a.trace then None
    else
      match run_self (child_args a workload @ [ "--trace"; "0" ]) with
      | lines, true -> Option.map values_of (detail_of lines)
      | _, false -> None
  in
  let probes =
    if a.trace then []
    else
      List.init 2 (fun _ ->
          match run_self ("setup" :: child_args a workload) with
          | lines, true -> Option.bind (Option.bind (last_json lines) (Json.member "setup_s")) Json.to_num
          | _, false -> failwith "set-up probe failed")
      |> List.filter_map Fun.id
  in
  (* a measurement its load generator could not keep on schedule is
     invalid: it is made again, at most [attempts] times in all; a traced
     run's ledger is read before the scratch directory (and xtwigd's
     trace in it) goes *)
  let rec measure attempt =
    let o, ledger =
      with_tmp workload (fun tmp ->
          calibrate ();
          let o = w.run { seed = a.seed; seconds = a.seconds; trace = a.trace; tmp } in
          let final = o.valid || attempt = attempts in
          (o, if a.trace && final then ledger_values ~workload ~trace_dir:a.trace_dir o else []))
    in
    if o.valid || attempt = attempts then (o, ledger, attempt)
    else begin
      log "%s: invalid measurement, measuring again (attempt %d of %d)" workload (attempt + 1) attempts;
      measure (attempt + 1)
    end
  in
  let o, ledger, attempt = measure 1 in
  let values =
    List.map
      (fun (k, v) -> if k = "setup_s" then (k, Summary.median (v :: probes)) else (k, v))
      o.values
    @ [ ("attempts", float_of_int attempt) ]
  in
  if not a.trace then (o, values)
  else
    let overhead =
      match (untraced, List.assoc_opt "window_busy_s" values) with
      | Some base, Some traced -> (
          match List.assoc_opt "window_busy_s" base with
          | Some b when b > 0.0 -> (traced /. b) -. 1.0
          | _ -> 0.0)
      | _ -> 0.0
    in
    (o, (("trace.overhead", overhead) :: ledger) @ values)

let result_line spec a (o : outcome) values =
  let metrics = if a.trace then spec.layers else spec.e2e in
  let missing = ref [] in
  let fields =
    List.map
      (fun m ->
        let v =
          match List.assoc_opt m.name values with
          | Some v -> v
          | None ->
              (* a layer the workload does not run reads 0; an end-to-end
                 metric must be measured *)
              if not a.trace then missing := m.name :: !missing;
              0.0
        in
        (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
      metrics
  in
  if !missing <> [] then log "missing end-to-end metrics: %s" (String.concat ", " !missing);
  ( Json.Obj
      [
        ("correct", Json.Bool (o.correct && !missing = []));
        ("attempted", Json.Num (float_of_int o.attempted));
        ("failed", Json.Num (float_of_int o.failed));
        ("metrics", Json.Obj fields);
      ],
    o.correct && !missing = [] )

let shown_units spec ~traced = if traced then units spec.layers else units spec.e2e @ design_units

let one spec a workload =
  let o, values = run_workload a workload in
  print_values
    (Printf.sprintf "%s: correct=%b attempted=%d failed=%d" workload o.correct o.attempted o.failed)
    values (shown_units spec ~traced:a.trace);
  let shown = List.map fst (units (spec.e2e @ spec.layers) @ design_units) in
  List.iter
    (fun (k, v) -> if not (List.mem k shown) then log "  %-32s %16.6f (diagnostic)" k v)
    values;
  let line, ok = result_line spec a o values in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "detail",
              Json.Obj
                [
                  ("workload", Json.Str workload);
                  ("seed", Json.Num (float_of_int a.seed));
                  ("valid", Json.Bool o.valid);
                  ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) values));
                ] );
          ]));
  print_endline (Json.to_string line);
  if ok then 0 else 1

(* ---------------- run: every workload ---------------- *)

let run_all spec a =
  let results =
    List.map
      (fun (w, _) ->
        let trace = match a.trace_dir with Some d -> [ "--trace"; "1"; "--trace-dir"; d ] | None -> [] in
        let lines, ok = run_self (child_args a w @ trace) in
        (w, ok, last_json lines, detail_of lines))
      workloads
  in
  log "\n== summary (seed %d, %d s%s) ==" a.seed a.seconds
    (if a.trace_dir <> None then ", traced" else "");
  let entries =
    List.map
      (fun (w, ok, last, detail) ->
        let num k = Option.bind (Option.bind last (Json.member k)) Json.to_num in
        let values = Option.fold ~none:[] ~some:values_of detail in
        print_values
          (Printf.sprintf "%s: %s, attempted %.0f, failed %.0f" w
             (if ok then "correct" else "FAILED")
             (Option.value ~default:0.0 (num "attempted"))
             (Option.value ~default:0.0 (num "failed")))
          values
          (shown_units spec ~traced:(a.trace_dir <> None));
        ( w,
          Json.Obj
            [
              ("correct", Json.Bool ok);
              ("attempted", Json.Num (Option.value ~default:0.0 (num "attempted")));
              ("failed", Json.Num (Option.value ~default:0.0 (num "failed")));
              ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) values));
            ] ))
      results
  in
  Out_channel.with_open_bin a.out (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("seed", Json.Num (float_of_int a.seed));
                ("seconds", Json.Num (float_of_int a.seconds));
                ("traced", Json.Bool (a.trace_dir <> None));
                ("workloads", Json.Obj entries);
              ]));
      output_char oc '\n');
  log "wrote %s" a.out;
  (* a run whose load was not applied as scheduled, even after retries,
     measured the host rather than the program *)
  let invalid =
    List.filter_map
      (fun (w, _, _, detail) ->
        match Option.bind detail (Json.member "valid") with Some (Json.Bool false) -> Some w | _ -> None)
      results
  in
  if invalid <> [] then log "INVALID run: %s could not apply the load on schedule" (String.concat ", " invalid);
  if invalid = [] && List.for_all (fun (_, ok, _, _) -> ok) results then 0 else 1

(* ---------------- compare ---------------- *)

type run_file = { seed : int; per_workload : (string * (string * float) list) list }

let read_result path =
  let doc =
    match Json.parse_res (In_channel.with_open_bin path In_channel.input_all) with
    | Ok d -> d
    | Error e -> raise (Usage (path ^ ": " ^ e))
    | exception Sys_error e -> raise (Usage e)
  in
  {
    seed = int_of_float (Option.value ~default:0.0 (Option.bind (Json.member "seed" doc) Json.to_num));
    per_workload =
      List.map
        (fun (w, j) ->
          let count k = Option.bind (Json.member k j) Json.to_num |> Option.value ~default:0.0 in
          (w, ("attempted", count "attempted") :: ("failed", count "failed") :: values_of j))
        (Json.fields (Option.value ~default:Json.Null (Json.member "workloads" doc)));
  }

let compare_runs spec a_files b_files =
  let a_runs = List.map read_result a_files and b_runs = List.map read_result b_files in
  let series runs w name =
    List.filter_map (fun r -> Option.bind (List.assoc_opt w r.per_workload) (List.assoc_opt name)) runs
  in
  let stats xs =
    match xs with
    | [] -> "-"
    | [ x ] -> Printf.sprintf "%.6g" x
    | _ ->
        let q1, m, q3 = Summary.quartiles xs in
        Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
  in
  Printf.printf "%-9s %-10s %-6s %-36s %-36s %8s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  let flagged = ref 0 in
  List.iter
    (fun (w, _) ->
      List.iter
        (fun m ->
          let a = series a_runs w m.name and b = series b_runs w m.name in
          if a <> [] && b <> [] then begin
            let v = Summary.verdict ~better:m.better ~bound:m.bound a b in
            if v <> Summary.Pass then incr flagged;
            Printf.printf "%-9s %-10s %-6s %-36s %-36s %+7.1f%%  %s\n" w m.name m.unit_ (stats a)
              (stats b)
              (100.0 *. ((Summary.median b /. Summary.median a) -. 1.0))
              (Summary.verdict_label v)
          end)
        spec.e2e)
    workloads;
  (* a gain does not count when more operations fail *)
  List.iter
    (fun (w, _) ->
      let sum runs k = List.fold_left ( +. ) 0.0 (series runs w k) in
      Printf.printf "%-9s failed/attempted: A %.0f/%.0f  B %.0f/%.0f\n" w (sum a_runs "failed")
        (sum a_runs "attempted") (sum b_runs "failed") (sum b_runs "attempted"))
    workloads;
  (* a count must read the same in every run of one seed on one side *)
  let counts = List.filter (fun m -> m.unit_ = "count") spec.layers in
  let unrepeated side runs =
    List.concat_map
      (fun (w, _) ->
        List.filter_map
          (fun m ->
            let by_seed = Hashtbl.create 4 in
            List.iter
              (fun r ->
                Option.iter
                  (fun v -> Hashtbl.replace by_seed r.seed (v :: Option.value ~default:[] (Hashtbl.find_opt by_seed r.seed)))
                  (Option.bind (List.assoc_opt w r.per_workload) (List.assoc_opt m.name)))
              runs;
            let bad =
              Hashtbl.fold (fun seed vs acc -> if List.sort_uniq compare vs = [ List.hd vs ] then acc else (seed, vs) :: acc) by_seed []
            in
            if bad = [] then None
            else
              Some
                (Printf.sprintf "%s %s %s: %s" side w m.name
                   (String.concat "; "
                      (List.map
                         (fun (s, vs) -> Printf.sprintf "seed %d: %s" s (String.concat " " (List.map (Printf.sprintf "%.0f") vs)))
                         bad))))
          counts)
      workloads
  in
  let bad = unrepeated "A" a_runs @ unrepeated "B" b_runs in
  if bad = [] then print_endline "counts: every count repeated exactly within each seed"
  else begin
    print_endline "counts that did not repeat exactly:";
    List.iter (fun s -> print_endline ("  " ^ s)) bad
  end;
  if !flagged = 0 && bad = [] then 0 else 1

(* ---------------- main ---------------- *)

let main argv =
  match argv with
  | "compare" :: rest -> (
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | x :: r -> split (x :: acc) r
        | [] -> raise (Usage "compare needs A... -- B...")
      in
      match split [] rest with
      | [], _ | _, [] -> raise (Usage "compare needs at least one result file per side")
      | a, b -> compare_runs (load_spec ()) a b)
  | "run" :: rest ->
      let a = parse_args ~run_mode:true defaults rest in
      if a.workload <> None then raise (Usage "run takes no --workload");
      run_all (load_spec ()) a
  | "setup" :: rest ->
      let a = parse_args ~run_mode:false defaults rest in
      ignore (Unix.alarm deadline_s);
      let w = match a.workload with Some w -> w | None -> raise (Usage "setup needs --workload") in
      let probe = (List.assoc w workloads).probe in
      calibrate ();
      let dt = with_tmp w (fun tmp -> probe { seed = a.seed; seconds = a.seconds; trace = false; tmp }) in
      print_endline (Json.to_string (Json.Obj [ ("setup_s", Json.Num dt) ]));
      0
  | rest -> (
      let a = parse_args ~run_mode:false defaults rest in
      match a.workload with
      | Some w ->
          ignore (Unix.alarm deadline_s);
          one (load_spec ()) a w
      | None -> raise (Usage "--workload is required"))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* exiting runs [at_exit], which stops any child still running *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint; Sys.sigalrm ];
  let code =
    match main (List.tl (Array.to_list Sys.argv)) with
    | code -> code
    | exception Usage msg ->
        prerr_endline ("run.exe: " ^ msg);
        prerr_endline usage;
        2
    | exception e ->
        prerr_endline ("run.exe: " ^ Printexc.to_string e);
        1
  in
  exit code
