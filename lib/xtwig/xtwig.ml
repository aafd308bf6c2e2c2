module Xerror = Xtwig_util.Xerror
module Backend = Xtwig_backend.Estimator_backend
module Engine = Xtwig_engine.Engine
module Pool = Xtwig_util.Pool

type doc = Xtwig_xml.Doc.t
type twig = Xtwig_path.Path_types.twig
type path = Xtwig_path.Path_types.path
type sketch = Xtwig_sketch.Sketch.t

(* ---------------- documents ---------------- *)

let doc_of_string = Xtwig_xml.Xml_parser.parse_string_res
let doc_of_file = Xtwig_xml.Xml_parser.parse_file_res

let doc_to_file path doc =
  match Xtwig_xml.Xml_writer.to_file path doc with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Xerror.Io msg)

let doc_size = Xtwig_xml.Doc.size
let sketch_doc = Xtwig_sketch.Sketch.doc

(* ---------------- queries ---------------- *)

let twig_of_string = Xtwig_path.Path_parser.parse_twig_res
let path_of_string = Xtwig_path.Path_parser.parse_path_res
let twig_to_string = Xtwig_path.Path_printer.twig_to_string
let selectivity = Xtwig_eval.Eval_twig.selectivity

(* ---------------- optimizer ---------------- *)

module Opt = Xtwig_opt.Opt
module Synopsis = Xtwig_synopsis.Graph_synopsis

(* Resolve a step label to the value histogram of the biggest synopsis
   node carrying one — the propagation pass's column statistics. *)
let value_histogram sk label =
  let syn = Xtwig_sketch.Sketch.synopsis sk in
  List.fold_left
    (fun acc node ->
      match Xtwig_sketch.Sketch.vhist sk node with
      | None -> acc
      | Some h -> (
          let sz = Synopsis.extent_size syn node in
          match acc with
          | Some (best, _) when best >= sz -> acc
          | _ -> Some (sz, h)))
    None
    (Synopsis.nodes_with_label syn label)
  |> Option.map snd

(* Costing memo: one table of structural estimates per sketch, keyed
   by exact sub-twig identity. A sketch is immutable, so an estimate
   depends only on the sketch and the twig. The tables hang off an
   ephemeron keyed on the sketch's identity, so a dropped or replaced
   sketch frees its memo; one lock guards the ephemeron and every table
   (planning may run on several domains), and a table that reaches
   [memo_cap] entries is cleared. An estimate that raises is not
   stored, and planning degrades exactly as without the memo. *)
module Sketch_memo = Ephemeron.K1.Make (struct
  type t = sketch

  let equal = ( == )
  let hash = Xtwig_sketch.Sketch.node_count
end)

let memo_cap = 4096
module Twig_tbl = Xtwig_path.Path_types.Twig_tbl

let memos : float Twig_tbl.t Sketch_memo.t = Sketch_memo.create 8
let memo_lock = Mutex.create ()

let m_memo_hits =
  Xtwig_obs.Metrics.counter ~help:"optimizer sub-twig estimates answered by the memo"
    "opt.memo_hits"

let m_memo_misses =
  Xtwig_obs.Metrics.counter ~help:"optimizer sub-twig estimates computed afresh"
    "opt.memo_misses"

let memo_table sk =
  match Sketch_memo.find_opt memos sk with
  | Some tbl -> tbl
  | None ->
      let tbl = Twig_tbl.create 256 in
      Sketch_memo.replace memos sk tbl;
      tbl

let memo_estimate sk =
  let inst = Backend.of_sketch sk in
  fun q ->
    match Mutex.protect memo_lock (fun () -> Twig_tbl.find_opt (memo_table sk) q) with
    | Some v ->
        Xtwig_obs.Metrics.incr m_memo_hits;
        v
    | None ->
        Xtwig_obs.Metrics.incr m_memo_misses;
        let v = Backend.estimate inst q in
        Mutex.protect memo_lock (fun () ->
            let tbl = memo_table sk in
            if Twig_tbl.length tbl >= memo_cap then Twig_tbl.reset tbl;
            Twig_tbl.replace tbl q v);
        v

let optimize sk q =
  Opt.plan ~estimate:(memo_estimate sk) ~vhist:(value_histogram sk) q

let optimize_backend inst q = Opt.plan ~estimate:(Backend.estimate inst) q

let selectivity_ordered doc plan q =
  Xtwig_eval.Eval_twig.selectivity_ordered doc ~orders:plan.Opt.orders q

(* ---------------- XSKETCH synopses ---------------- *)

let build_sketch ?(budget = 8192) ?(seed = 42) ?candidates ?max_steps
    ?(jobs = 1) ?on_step doc =
  if budget < 1 then Error (Xerror.Usage "budget must be >= 1")
  else if jobs < 1 then Error (Xerror.Usage "jobs must be >= 1")
  else
    let on_step =
      Option.map
        (fun f _ (info : Xtwig_sketch.Xbuild.step_info) ->
          f ~step:info.step ~description:info.description ~size:info.size)
        on_step
    in
    let build pool =
      Xtwig_sketch.Xbuild.build ?pool ?candidates ?max_steps ?on_step ~seed
        ~budget doc
    in
    match
      if jobs > 1 then Pool.with_pool ~domains:jobs (fun p -> build (Some p))
      else build None
    with
    | sk -> Ok sk
    | exception exn -> Error (Xerror.Engine (Printexc.to_string exn))

type delta = Xtwig_sketch.Sketch.delta =
  | Insert of { parent : int; fragment : doc }
  | Delete of int

let update_sketch ?reuse sk delta =
  match Xtwig_sketch.Sketch.apply_delta ?reuse sk delta with
  | sk' -> Ok sk'
  | exception Invalid_argument msg -> Error (Xerror.Usage msg)
  | exception exn -> Error (Xerror.Engine (Printexc.to_string exn))

let save_sketch = Xtwig_sketch.Sketch_io.write_res

let load_sketch doc path =
  Result.map snd (Xtwig_sketch.Sketch_io.read_res doc path)

(* ---------------- backends ---------------- *)

let backends = Backend.names

let build_backend ~backend ?budget ?seed doc =
  Result.bind (Backend.find backend) (fun b -> Backend.build b ?budget ?seed doc)

let load_backend ~backend doc path =
  Result.bind (Backend.find backend) (fun b -> Backend.load b doc path)

(* ---------------- sessions ---------------- *)

let open_backend_session ?name ?jobs ?timeout_s inst =
  Engine.of_backend ?name ?jobs ?timeout_s inst

let open_sketch_session ?name ?jobs ?timeout_s sk =
  open_backend_session ?name ?jobs ?timeout_s (Backend.of_sketch sk)

let update_session = Engine.update
let estimate = Engine.estimate
let estimate_batch = Engine.estimate_batch
let close_session = Engine.close

(* ---------------- observability ---------------- *)

let metrics_render () = Xtwig_obs.Metrics.(render (snapshot ()))
let version = "1"
