module G = Xtwig_synopsis.Graph_synopsis
module Tsn = Xtwig_synopsis.Tsn
module Prng = Xtwig_util.Prng
module Sparse_dist = Xtwig_hist.Sparse_dist

type op =
  | B_stabilize of { src : int; dst : int }
  | F_stabilize of { src : int; dst : int }
  | Edge_refine of { node : int; hist : int; extra_buckets : int }
  | Edge_expand of { node : int; dim : Sketch.dim; into : int option }
  | Value_refine of { node : int; extra_buckets : int }
  | Value_split of { node : int; ways : int }

(* ------------------------------------------------------------------ *)
(* Application                                                         *)

(* Remap a histogram configuration onto a synopsis obtained by
   splitting: every new node inherits the spec of the old node its
   extent came from, with each old dimension expanded to all new edges
   between the split images of its endpoints. Only the split node has
   more than one image, so most dimensions map through the id shift to
   one candidate edge. *)
let remap_config old_syn (cfg : Sketch.config) new_syn : Sketch.config =
  let n_new = G.node_count new_syn in
  let old_of_new =
    Array.init n_new (fun n' -> G.node_of_elem old_syn (G.extent new_syn n').(0))
  in
  let images = Array.make (G.node_count old_syn) [] in
  Array.iteri (fun n' o -> images.(o) <- n' :: images.(o)) old_of_new;
  (* a dimension naming no node of [old_syn] has no image *)
  let images o = if o >= 0 && o < Array.length images then images.(o) else [] in
  let dim_images n' (d : Sketch.dim) =
    let keep s t =
      match G.edge new_syn ~src:s ~dst:t with
      | Some _ -> Some { d with Sketch.src = s; dst = t }
      | None -> None
    in
    let srcs = if d.kind = Sketch.Forward then [ n' ] else images d.src in
    match (srcs, images d.dst) with
    | [ s ], [ t ] -> Option.to_list (keep s t)
    | srcs, dsts -> List.concat_map (fun s -> List.filter_map (keep s) dsts) srcs
  in
  let especs =
    Array.init n_new (fun n' ->
        List.map
          (fun (spec : Sketch.hist_spec) ->
            let dims =
              List.concat_map (dim_images n') spec.dims |> List.sort_uniq compare
            in
            (* a split can multiply one dimension into several; keep the
               spec's joint dimensionality bounded *)
            let dims = List.filteri (fun i _ -> i < 6) dims in
            { spec with Sketch.dims })
          cfg.especs.(old_of_new.(n')))
  in
  let vbudgets = Array.init n_new (fun n' -> cfg.vbudgets.(old_of_new.(n'))) in
  { Sketch.especs; vbudgets }

(* Drop a dimension from every spec of a node; remove empty specs and
   report the bucket budget freed by specs that disappeared entirely
   (so edge-expand can absorb it into the joint histogram). *)
let remove_dim specs (dim : Sketch.dim) =
  let freed = ref 0 in
  let kept =
    List.filter_map
      (fun (spec : Sketch.hist_spec) ->
        let dims = List.filter (fun d -> d <> dim) spec.dims in
        match dims with
        | [] ->
            freed := !freed + spec.Sketch.budget;
            None
        | _ -> Some { spec with Sketch.dims = dims })
      specs
  in
  (kept, !freed)

let apply sketch op =
  let syn = Sketch.synopsis sketch in
  let cfg = Sketch.config sketch in
  match op with
  | B_stabilize { src = _; dst } ->
      let syn' = G.split syn ~node:dst ~group_of:(G.b_stabilize_groups syn) in
      if syn' == syn then sketch
      else Sketch.build ~prev:sketch syn' (remap_config syn cfg syn')
  | F_stabilize { src; dst } ->
      let syn' = G.split syn ~node:src ~group_of:(G.f_stabilize_groups syn ~dst) in
      if syn' == syn then sketch
      else Sketch.build ~prev:sketch syn' (remap_config syn cfg syn')
  | Edge_refine { node; hist; extra_buckets } ->
      let especs = Array.copy cfg.especs in
      especs.(node) <-
        List.mapi
          (fun i (spec : Sketch.hist_spec) ->
            if i = hist then
              { spec with Sketch.budget = Stdlib.min 64 (spec.budget + extra_buckets) }
            else spec)
          especs.(node);
      Sketch.build ~prev:sketch syn { cfg with Sketch.especs = especs }
  | Edge_expand { node; dim; into } ->
      (* cap joint dimensionality: beyond 4 dims the bucket space is
         too sparse for the budgets XBUILD works with *)
      let too_wide =
        match into with
        | None -> false
        | Some i -> (
            match List.nth_opt cfg.especs.(node) i with
            | Some s -> List.length s.Sketch.dims >= 4
            | None -> false)
      in
      if too_wide then sketch
      else
      let especs = Array.copy cfg.especs in
      let specs, freed = remove_dim especs.(node) dim in
      (* a joint histogram with one bucket carries no correlation: give
         the expansion the freed budget plus room to separate a few
         modes right away *)
      let specs =
        match into with
        | None -> specs @ [ { Sketch.dims = [ dim ]; budget = Stdlib.max 2 freed } ]
        | Some i ->
            (* [into] indexes the ORIGINAL spec list; recover the spec
               by structural identity after removal *)
            let target = List.nth cfg.especs.(node) i in
            let target_dims = List.filter (fun d -> d <> dim) target.Sketch.dims in
            List.map
              (fun (spec : Sketch.hist_spec) ->
                if spec.Sketch.dims = target_dims && spec.budget = target.budget
                then
                  {
                    Sketch.dims = spec.Sketch.dims @ [ dim ];
                    budget = Stdlib.min 64 (Stdlib.max 4 (spec.budget + freed));
                  }
                else spec)
              specs
      in
      especs.(node) <- specs;
      Sketch.build ~prev:sketch syn { cfg with Sketch.especs = especs }
  | Value_refine { node; extra_buckets } ->
      let vbudgets = Array.copy cfg.vbudgets in
      vbudgets.(node) <- Stdlib.min 128 (vbudgets.(node) + extra_buckets);
      Sketch.build ~prev:sketch syn { cfg with Sketch.vbudgets = vbudgets }
  | Value_split { node; ways } ->
      (* group by an exact fresh MCV of the node's text values — the
         construction phase has the document at hand, like the other
         structural refinements *)
      let doc = G.doc syn in
      let texts =
        Array.to_list (G.extent syn node)
        |> List.filter_map (fun e ->
               match Xtwig_xml.Doc.value doc e with
               | Xtwig_xml.Value.Text s
                 when Xtwig_xml.Value.as_float (Xtwig_xml.Value.Text s) = None ->
                   Some s
               | _ -> None)
      in
      if texts = [] then sketch
      else begin
        let mcv = Xtwig_hist.Mcv.build ~budget:(Stdlib.max 1 ways) texts in
        let group_of e =
          let v = Xtwig_xml.Value.to_string (Xtwig_xml.Doc.value doc e) in
          match Xtwig_hist.Mcv.rank mcv v with
          | Some r -> r
          | None -> Stdlib.max 1 ways
        in
        let syn' = G.split syn ~node ~group_of in
        if syn' == syn then sketch
        else Sketch.build ~prev:sketch syn' (remap_config syn cfg syn')
      end

(* ------------------------------------------------------------------ *)

let touched_labels sketch op =
  let syn = Sketch.synopsis sketch in
  let labels =
    match op with
    | B_stabilize { src; dst } | F_stabilize { src; dst } ->
        [ G.tag_name syn src; G.tag_name syn dst ]
    | Edge_refine { node; _ } | Value_refine { node; _ } | Value_split { node; _ } ->
        [ G.tag_name syn node ]
    | Edge_expand { node; dim; _ } ->
        [ G.tag_name syn node; G.tag_name syn dim.src; G.tag_name syn dim.dst ]
  in
  List.sort_uniq compare labels

let kind_name = function
  | B_stabilize _ -> "b-stabilize"
  | F_stabilize _ -> "f-stabilize"
  | Edge_refine _ -> "edge-refine"
  | Edge_expand _ -> "edge-expand"
  | Value_refine _ -> "value-refine"
  | Value_split _ -> "value-split"

let all_kinds =
  [
    "b-stabilize"; "f-stabilize"; "edge-refine"; "edge-expand"; "value-refine";
    "value-split";
  ]

let describe sketch op =
  let syn = Sketch.synopsis sketch in
  let name n = Printf.sprintf "%s#%d" (G.tag_name syn n) n in
  match op with
  | B_stabilize { src; dst } -> Printf.sprintf "b-stabilize %s->%s" (name src) (name dst)
  | F_stabilize { src; dst } -> Printf.sprintf "f-stabilize %s->%s" (name src) (name dst)
  | Edge_refine { node; hist; extra_buckets } ->
      Printf.sprintf "edge-refine %s hist %d +%d buckets" (name node) hist extra_buckets
  | Edge_expand { node; dim; into } ->
      Printf.sprintf "edge-expand %s += %s->%s%s (into %s)" (name node)
        (name dim.src) (name dim.dst)
        (match dim.kind with Sketch.Forward -> "" | Sketch.Backward -> " (backward)")
        (match into with None -> "new" | Some i -> string_of_int i)
  | Value_refine { node; extra_buckets } ->
      Printf.sprintf "value-refine %s +%d buckets" (name node) extra_buckets
  | Value_split { node; ways } ->
      Printf.sprintf "value-split %s into %d" (name node) ways

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                *)

let unstable_degree syn n =
  let f acc (e : G.edge) = if e.b_stable && e.f_stable then acc else acc + 1 in
  List.fold_left f 0 (G.out_edges syn n) + List.fold_left f 0 (G.in_edges syn n)

let sample_node_weighted prng weights nodes =
  match nodes with
  | [] -> None
  | _ ->
      let w = Array.of_list (List.map weights nodes) in
      if Array.for_all (fun x -> x <= 0.0) w then None
      else Some (List.nth nodes (Prng.sample_weighted prng w))

(* The scope-eligible dimension (not currently covered) most correlated
   with [spec]'s dimensions at [node]. *)
let best_expand_dim sketch node (covered : Sketch.dim list) =
  let syn = Sketch.synopsis sketch in
  let eligible =
    List.filter_map
      (fun (src, dst) ->
        let kind = if src = node then Sketch.Forward else Sketch.Backward in
        let d = { Sketch.src; dst; kind } in
        if List.mem d covered then None else Some d)
      (Tsn.scope_edges syn node)
  in
  match (eligible, covered) with
  | [], _ -> None
  | ds, [] -> Some (List.hd ds)
  | ds, anchor :: _ ->
      (* score by |corr| against the first covered dimension, using the
         exact two-dimensional distribution *)
      let scored =
        List.map
          (fun d ->
            let sd = Sketch.distribution sketch node [| anchor; d |] in
            (Float.abs (Sparse_dist.correlation sd 0 1), d))
          ds
      in
      let best =
        List.fold_left
          (fun acc (s, d) ->
            match acc with
            | Some (s0, _) when s0 >= s -> acc
            | _ -> Some (s, d))
          None scored
      in
      Option.map snd best

let gen_candidates ?(count = 8) sketch prng =
  let syn = Sketch.synopsis sketch in
  let cfg = Sketch.config sketch in
  let all_nodes = List.init (G.node_count syn) Fun.id in
  let struct_weight n =
    float_of_int (G.extent_size syn n) *. float_of_int (unstable_degree syn n)
  in
  let extent_weight n = float_of_int (G.extent_size syn n) in
  let out = ref [] in
  let add op = if not (List.mem op !out) then out := op :: !out in
  let attempts = count * 6 in
  for _ = 1 to attempts do
    if List.length !out < count then
      match Prng.int prng 6 with
      | 0 -> (
          (* b-stabilize: an unstable incoming edge of a sampled node *)
          match sample_node_weighted prng struct_weight all_nodes with
          | None -> ()
          | Some v -> (
              let cands =
                List.filter (fun (e : G.edge) -> not e.b_stable) (G.in_edges syn v)
              in
              match cands with
              | [] -> ()
              | es ->
                  let e = Prng.pick_list prng es in
                  add (B_stabilize { src = e.src; dst = e.dst })))
      | 1 -> (
          match sample_node_weighted prng struct_weight all_nodes with
          | None -> ()
          | Some u -> (
              let cands =
                List.filter (fun (e : G.edge) -> not e.f_stable) (G.out_edges syn u)
              in
              match cands with
              | [] -> ()
              | es ->
                  let e = Prng.pick_list prng es in
                  add (F_stabilize { src = e.src; dst = e.dst })))
      | 2 -> (
          (* edge-refine on a node that has a histogram *)
          let with_hists =
            List.filter (fun n -> cfg.especs.(n) <> []) all_nodes
          in
          match sample_node_weighted prng extent_weight with_hists with
          | None -> ()
          | Some n ->
              let hist = Prng.int prng (List.length cfg.especs.(n)) in
              let current = (List.nth cfg.especs.(n) hist).Sketch.budget in
              add (Edge_refine { node = n; hist; extra_buckets = Stdlib.max 2 current }))
      | 3 -> (
          (* edge-expand: favour hub nodes with several stable child
             edges, where joint distributions have correlations to
             capture *)
          let hub_weight n =
            let stable_out =
              List.length
                (List.filter (fun (e : G.edge) -> e.f_stable) (G.out_edges syn n))
            in
            if stable_out < 2 then 0.0
            else float_of_int (G.extent_size syn n) *. float_of_int stable_out
          in
          match sample_node_weighted prng hub_weight all_nodes with
          | None -> ()
          | Some n -> (
              let covered =
                List.concat_map (fun (s : Sketch.hist_spec) -> s.dims) cfg.especs.(n)
              in
              match best_expand_dim sketch n covered with
              | None -> ()
              | Some dim ->
                  let into =
                    if cfg.especs.(n) = [] then None
                    else Some (Prng.int prng (List.length cfg.especs.(n)))
                  in
                  add (Edge_expand { node = n; dim; into })))
      | 4 -> (
          let with_vals =
            List.filter (fun n -> Sketch.vhist sketch n <> None) all_nodes
          in
          match sample_node_weighted prng extent_weight with_vals with
          | None -> ()
          | Some n -> add (Value_refine { node = n; extra_buckets = 4 }))
      | _ -> (
          (* value-split only pays off on genuinely categorical nodes:
             a few values covering most of the mass *)
          let with_cats =
            List.filter
              (fun n ->
                match Sketch.vcat sketch n with
                | Some m ->
                    List.length (Xtwig_hist.Mcv.entries m) >= 2
                    && Xtwig_hist.Mcv.other_mass m <= 0.5
                | None -> false)
              all_nodes
          in
          match sample_node_weighted prng extent_weight with_cats with
          | None -> ()
          | Some n -> add (Value_split { node = n; ways = 4 }))
  done;
  List.rev !out
