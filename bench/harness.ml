(* Shared machinery of the reproduction benchmarks: datasets, truth
   oracles, XBUILD drivers with size-grid snapshots, error evaluation.

   Scaling note (see EXPERIMENTS.md): the paper's datasets carry many
   more distinct tags than our simulations, so its coarsest synopses
   are ~8-12KB where ours are ~0.7-2.7KB. Synopsis budgets here are
   therefore expressed as multiples of the coarsest size; the grids
   below span the same 4x-40x relative range as the paper's 8KB-50KB
   axis. *)

module Doc = Xtwig_xml.Doc
module G = Xtwig_synopsis.Graph_synopsis
module Sketch = Xtwig_sketch.Sketch
module Est = Xtwig_sketch.Estimator
module Xbuild = Xtwig_sketch.Xbuild
module Cst = Xtwig_cst.Cst
module Wgen = Xtwig_workload.Wgen
module EM = Xtwig_workload.Error_metric
module Prng = Xtwig_util.Prng

type dataset = { name : string; doc : Doc.t Lazy.t }

(* The bench modes' environment knobs. A value that does not parse is
   a usage error (exit 2, naming the variable and the value), never a
   silent default: a typo in XTWIG_SCALE would otherwise run at full
   scale for minutes, and one in XTWIG_INGEST_FLOOR_MBS would switch
   CI's ingest floor off. [valid] rejects parsed values out of range
   the same way, so a value is either used as given or refused. *)
let env name ~parse ?(valid = fun _ -> true) default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match parse (String.trim s) with
      | Some v when valid v -> v
      | _ ->
          Printf.eprintf "[bench] invalid %s=%S\n%!" name s;
          exit 2)

let env_int ?valid name default = env name ~parse:int_of_string_opt ?valid default

let env_float ?valid name default =
  env name ~parse:float_of_string_opt ?valid default

let at_least lo v = v >= lo
let positive v = Float.is_finite v && v > 0.0

(* XTWIG_SCALE shrinks every dataset for quick validation runs;
   published numbers use the default 1.0. *)
let scale =
  env_float "XTWIG_SCALE" 1.0 ~valid:positive

let datasets =
  [
    { name = "XMark"; doc = lazy (Xtwig_datagen.Xmark.generate ~scale ()) };
    { name = "IMDB"; doc = lazy (Xtwig_datagen.Imdb.generate ~scale ()) };
    { name = "SProt"; doc = lazy (Xtwig_datagen.Sprot.generate ~scale ()) };
  ]

let dataset name =
  List.find (fun d -> String.lowercase_ascii d.name = String.lowercase_ascii name) datasets

let kb bytes = float_of_int bytes /. 1024.0

let now () = Unix.gettimeofday ()

(* Provenance for the BENCH_*.json artifacts: perf numbers are only
   comparable across runs when the artifact names the code revision,
   the host parallelism and the dataset scale that produced them. *)
let git_commit =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let fprint_provenance oc =
  Printf.fprintf oc "  \"git_commit\": %S,\n" (Lazy.force git_commit);
  Printf.fprintf oc "  \"recommended_domain_count\": %d,\n"
    (Domain.recommended_domain_count ())

let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "[bench] %s\n%!" s) fmt

(* ------------------------------------------------------------------ *)
(* Truth oracles                                                       *)

let t_truth = Xtwig_obs.Metrics.counter "bench.truth_ns"

let truth_oracle doc =
  let cache : (string, float) Hashtbl.t = Hashtbl.create 4096 in
  fun q ->
    let key = Xtwig_path.Path_printer.twig_to_string q in
    match Hashtbl.find_opt cache key with
    | Some v -> v
    | None ->
        let v =
          Xtwig_obs.Metrics.time_ns t_truth @@ fun () ->
          float_of_int (Xtwig_eval.Eval_twig.selectivity doc q)
        in
        Hashtbl.add cache key v;
        v

module Metrics = Xtwig_obs.Metrics

(* counters of a metrics snapshot (typically a [Metrics.diff] delta)
   as flat (name, value) rows — labeled counters render their labels
   into the name, e.g. xbuild.ops_applied{op.kind=f-stabilize} *)
let counters_of snap =
  List.filter_map
    (fun (e : Metrics.entry) ->
      match e.Metrics.value with
      | Metrics.Counter n ->
          let labels =
            match e.Metrics.labels with
            | [] -> ""
            | ls ->
                "{"
                ^ String.concat ","
                    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) ls)
                ^ "}"
          in
          Some (e.Metrics.name ^ labels, n)
      | _ -> None)
    snap

(* dump the run's metrics delta to stderr (XTWIG_COUNTERS=1) *)
let report_metrics ~since =
  if Sys.getenv_opt "XTWIG_COUNTERS" <> None then
    prerr_string (Metrics.render (Metrics.diff since (Metrics.snapshot ())))

(* every bench mode leaves a machine-readable metrics snapshot next to
   its BENCH json, with the provenance fields spliced into the same
   object (the dump must stay a single JSON object — check_trace) *)
let write_metrics_json ~since path =
  let body = Metrics.to_json (Metrics.diff since (Metrics.snapshot ())) in
  (* to_json output starts with "{\n"; re-open it with provenance *)
  let tail = String.sub body 2 (String.length body - 2) in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  fprint_provenance oc;
  Printf.fprintf oc "  \"scale\": %g,\n" scale;
  output_string oc tail;
  close_out oc;
  log "wrote %s" path

let truths_of truth queries = Array.of_list (List.map truth queries)

let estimates_of sk queries =
  Array.of_list (List.map (fun q -> Est.estimate sk q) queries)

(* ------------------------------------------------------------------ *)
(* XBUILD with snapshots on a size grid                                *)

type curve_point = { size_bytes : int; error : float }

(* Builds to the largest grid budget, evaluating the held-out workload
   at the first crossing of every grid size. *)
let error_curve ?(seed = 42) ?(candidates = 8) ?(max_steps = 700)
    ~scoring_spec ~eval_queries ~grid doc =
  let truth = truth_oracle doc in
  let truths = truths_of truth eval_queries in
  let eval sk = EM.average_error ~truths ~estimates:(estimates_of sk eval_queries) in
  let workload prng ~focus = Wgen.generate ~focus scoring_spec prng doc in
  let grid = List.sort compare grid in
  let max_budget = List.fold_left Stdlib.max 0 grid in
  let remaining = ref grid in
  let points = ref [] in
  let take sk size =
    match !remaining with
    | g :: rest when size >= g ->
        remaining := rest;
        let e = eval sk in
        log "  snapshot %6.1f KB  error %.3f" (kb size) e;
        points := { size_bytes = size; error = e } :: !points
    | _ -> ()
  in
  let coarse = Sketch.default_of_doc doc in
  take coarse (Sketch.size_bytes coarse);
  let final =
    Xbuild.build ~seed ~candidates ~max_steps ~workload ~truth ~budget:max_budget
      ~on_step:(fun sk info -> take sk info.Xbuild.size)
      doc
  in
  (* record the end point if the last grid budget was never crossed *)
  (match !remaining with
  | _ :: _ ->
      let size = Sketch.size_bytes final in
      if
        not (List.exists (fun p -> p.size_bytes = size) !points)
      then begin
        let e = eval final in
        log "  final    %6.1f KB  error %.3f" (kb size) e;
        points := { size_bytes = size; error = e } :: !points
      end
  | [] -> ());
  (List.rev !points, final)

(* grid as multiples of the coarsest synopsis size *)
let grid_of doc multiples =
  let coarse = Sketch.size_bytes (Sketch.default_of_doc doc) in
  List.map (fun m -> int_of_float (float_of_int coarse *. m)) multiples

let default_multiples = [ 1.0; 2.0; 4.0; 8.0; 16.0; 24.0 ]

(* ------------------------------------------------------------------ *)
(* Table printing                                                      *)

let print_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let print_row fmt = Printf.ksprintf print_endline fmt
