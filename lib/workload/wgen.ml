open Xtwig_path.Path_types
module Doc = Xtwig_xml.Doc
module Value = Xtwig_xml.Value
module Prng = Xtwig_util.Prng

type spec = {
  n_queries : int;
  min_nodes : int;
  max_nodes : int;
  branch_prob : float;
  value_pred_frac : float;
  value_range_frac : float;
  descendant_root_prob : float;
  max_path_steps : int;
  leaf_roots : bool;
}

let paper_p =
  {
    n_queries = 1000;
    min_nodes = 4;
    max_nodes = 8;
    branch_prob = 0.4;
    value_pred_frac = 0.0;
    value_range_frac = 0.1;
    descendant_root_prob = 0.5;
    max_path_steps = 2;
    leaf_roots = false;
  }

let paper_pv = { paper_p with value_pred_frac = 0.5 }

let simple_paths =
  {
    paper_p with
    n_queries = 500;
    branch_prob = 0.0;
    descendant_root_prob = 0.3;
    max_path_steps = 2;
  }

(* Mutable twig under construction; [witness] is the document element
   the node's bindings are guaranteed to contain. *)
type mnode = {
  mutable mpath : path;
  mutable msubs : mnode list;
  witness : Doc.node;
}

let rec freeze m = { path = m.mpath; subs = List.map freeze m.msubs }

let rec all_mnodes m = m :: List.concat_map all_mnodes m.msubs

(* Fraction of parent-tag elements having at least one child of a
   given tag: branching predicates drawn on optional tags (fraction
   well below 1) actually select something, where a predicate on a
   mandatory tag is vacuous. *)
let optionality doc =
  let with_child = Hashtbl.create 64 in
  let parents = Hashtbl.create 64 in
  Doc.iter doc (fun e ->
      let pt = Doc.tag doc e in
      Hashtbl.replace parents pt
        (1 + Option.value ~default:0 (Hashtbl.find_opt parents pt));
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun k ->
          let ct = Doc.tag doc k in
          if not (Hashtbl.mem seen ct) then begin
            Hashtbl.add seen ct ();
            Hashtbl.replace with_child (pt, ct)
              (1 + Option.value ~default:0 (Hashtbl.find_opt with_child (pt, ct)))
          end)
        (Doc.children doc e));
  fun pt ct ->
    match (Hashtbl.find_opt with_child (pt, ct), Hashtbl.find_opt parents pt) with
    | Some w, Some p -> float_of_int w /. float_of_int p
    | _ -> 0.0

(* Numeric value domain per tag. *)
let numeric_domains doc =
  let tbl = Hashtbl.create 32 in
  Doc.iter doc (fun e ->
      match Value.as_float (Doc.value doc e) with
      | None -> ()
      | Some v -> (
          let t = Doc.tag doc e in
          match Hashtbl.find_opt tbl t with
          | None -> Hashtbl.replace tbl t (v, v)
          | Some (lo, hi) ->
              Hashtbl.replace tbl t (Stdlib.min lo v, Stdlib.max hi v)));
  tbl

let root_path_of prng spec doc w =
  let labels = Doc.label_path doc w in
  if Prng.chance prng spec.descendant_root_prob then begin
    (* '//'-anchored suffix of the witness's path *)
    let n = List.length labels in
    let keep = Stdlib.min n (Prng.int_range prng 1 2) in
    let suffix = List.filteri (fun i _ -> i >= n - keep) labels in
    match suffix with
    | [] -> [ step ~axis:Descendant (Doc.tag_name doc w) ]
    | first :: rest -> step ~axis:Descendant first :: List.map (fun l -> step l) rest
  end
  else List.map (fun l -> step l) labels

(* A 1-2 step child path starting under [e], with its witness. [used]
   tracks tags already grown from [e] so queries favour distinct child
   tags (repeats stay possible — pairing two [actor] variables is a
   legitimate and interesting twig). *)
let grow_path prng spec doc e ~used =
  let kids = Doc.children doc e in
  if Array.length kids = 0 then None
  else begin
    let occurrences t = List.length (List.filter (fun u -> u = t) used) in
    let fresh =
      Array.of_list
        (List.filter
           (fun k -> occurrences (Doc.tag doc k) = 0)
           (Array.to_list kids))
    in
    (* a tag may recur once (pairing two same-tag variables is the
       intro's motivating twig) but not degenerate into self-join
       powers *)
    let reusable =
      Array.of_list
        (List.filter
           (fun k -> occurrences (Doc.tag doc k) < 2)
           (Array.to_list kids))
    in
    if Array.length fresh = 0 && Array.length reusable = 0 then None
    else
      let c =
        if Array.length fresh > 0 && (Array.length reusable = 0 || not (Prng.chance prng 0.25))
        then Prng.pick prng fresh
        else Prng.pick prng reusable
      in
    let gkids = Doc.children doc c in
    let fan1 =
      float_of_int (Stdlib.max 1 (Doc.children_with_tag doc e (Doc.tag doc c)))
    in
    if
      spec.max_path_steps >= 2
      && Array.length gkids > 0
      && Prng.chance prng 0.35
    then begin
      let g = Prng.pick prng gkids in
      let fan2 =
        float_of_int (Stdlib.max 1 (Doc.children_with_tag doc c (Doc.tag doc g)))
      in
      Some ([ step (Doc.tag_name doc c); step (Doc.tag_name doc g) ], g, fan1 *. fan2)
    end
    else Some ([ step (Doc.tag_name doc c) ], c, fan1)
  end

(* Ascend from a uniformly sampled element toward structurally rich
   ancestors, so twig roots land on elements that can actually fan
   out (a uniform draw lands on leaves most of the time). *)
let pick_witness prng doc start =
  let rec up e hops =
    let enough = Array.length (Doc.children doc e) >= 2 in
    match Doc.parent doc e with
    | None -> e
    | Some p when Doc.parent doc p = None ->
        (* stop below the document root: twigs rooted at the root pair
           its thousands of top-level children multiplicatively and mean
           nothing as queries *)
        ignore enough;
        e
    | Some p ->
        if (not enough) || (hops > 0 && Prng.chance prng 0.45) then up p (hops + 1)
        else e
  in
  up start 0

(* Attach [p] as a branching predicate on the last step of [m]'s path;
   duplicate predicates are vacuous and skipped. *)
let attach_branch m p =
  match List.rev m.mpath with
  | [] -> ()
  | last :: before ->
      if not (List.mem p last.branches) then begin
        let last = { last with branches = last.branches @ [ p ] } in
        m.mpath <- List.rev (last :: before)
      end

(* Attaches 1-2 range predicates on twig nodes whose witnesses carry
   numeric values; returns whether at least one was attached. *)
let add_value_preds prng spec doc domains root =
  let nodes = all_mnodes root in
  let candidates =
    List.filter_map
      (fun m ->
        match Value.as_float (Doc.value doc m.witness) with
        | Some v when Hashtbl.mem domains (Doc.tag doc m.witness) -> Some (m, v)
        | _ -> None)
      nodes
  in
  match candidates with
  | [] -> false
  | _ ->
      let n_preds = Prng.int_range prng 1 2 in
      let arr = Array.of_list candidates in
      Prng.shuffle prng arr;
      Array.iteri
        (fun i (m, v) ->
          if i < n_preds then begin
            let lo_d, hi_d = Hashtbl.find domains (Doc.tag doc m.witness) in
            let span = Stdlib.max 1.0 ((hi_d -. lo_d) *. spec.value_range_frac) in
            (* a random window of the domain containing the witness *)
            let off = Prng.float prng span in
            let lo = v -. off in
            let hi = lo +. span in
            match List.rev m.mpath with
            | [] -> ()
            | last :: before ->
                let last = { last with vpred = Some (Range (lo, hi)) } in
                m.mpath <- List.rev (last :: before)
          end)
        arr;
      true

let gen_one prng spec doc domains ~opt_frac ~focus_elems =
  let start =
    match focus_elems with
    | Some arr when Array.length arr > 0 && Prng.chance prng 0.8 ->
        Prng.pick prng arr
    | _ -> Prng.int prng (Doc.size doc)
  in
  let w = if spec.leaf_roots then start else pick_witness prng doc start in
  let root = { mpath = root_path_of prng spec doc w; msubs = []; witness = w } in
  let target = Prng.int_range prng spec.min_nodes spec.max_nodes in
  let size = ref 1 in
  let frontier = ref [ root ] in
  let used : (Doc.node, Doc.tag list) Hashtbl.t = Hashtbl.create 8 in
  let attempts = ref 0 in
  (* rough upper bound on the query's result cardinality: number of
     same-tag root candidates times the witness fanouts of every grown
     edge; growth stops before the bound explodes, keeping workloads in
     the paper's "thousands of tuples" territory *)
  let est_card =
    ref (float_of_int (Array.length (Doc.nodes_with_tag doc (Doc.tag doc w))))
  in
  let card_cap = 2e5 in
  while !size < target && !frontier <> [] && !attempts < 50 do
    incr attempts;
    (* chain bias: extend the most recent node most of the time, so
       fanouts land near the paper's 1.6-2.0 averages *)
    let idx =
      let n = List.length !frontier in
      if Prng.chance prng 0.7 then 0 else Prng.int prng n
    in
    let m = List.nth !frontier idx in
    let used_tags = Option.value ~default:[] (Hashtbl.find_opt used m.witness) in
    match grow_path prng spec doc m.witness ~used:used_tags with
    | None -> frontier := List.filteri (fun i _ -> i <> idx) !frontier
    | Some (p, witness, fanout) ->
        (match p with
        | s :: _ -> (
            match Doc.tag_of_string doc s.label with
            | Some t -> Hashtbl.replace used m.witness (t :: used_tags)
            | None -> ())
        | [] -> ());
        (* a grown edge becomes a branching predicate when the dice say
           so AND it is informative (selective on its parent tag) —
           vacuous predicates on mandatory children teach nothing *)
        let informative =
          match p with
          | s :: _ -> (
              match Doc.tag_of_string doc s.label with
              | Some ct -> opt_frac (Doc.tag doc m.witness) ct < 0.95
              | None -> false)
          | [] -> false
        in
        if
          spec.branch_prob > 0.0
          && Prng.chance prng
               (if informative then spec.branch_prob else spec.branch_prob /. 4.0)
        then attach_branch m p
        else if !est_card *. fanout > card_cap then begin
          (* too heavy as a binding child: keep it as an (existential)
             predicate instead so the query still gains structure —
             unless the workload forbids branches entirely *)
          if spec.branch_prob > 0.0 then attach_branch m p
        end
        else begin
          est_card := !est_card *. fanout;
          let child = { mpath = p; msubs = []; witness } in
          m.msubs <- m.msubs @ [ child ];
          incr size;
          frontier := child :: !frontier
        end
  done;
  if !size < spec.min_nodes then None
  else if spec.value_pred_frac > 0.0 && Prng.chance prng spec.value_pred_frac then
    (* this query was drawn to carry value predicates: retry from a
       different witness if none can be attached, so the workload hits
       the configured fraction (the paper fixes it at exactly half) *)
    if add_value_preds prng spec doc domains root then Some (freeze root) else None
  else Some (freeze root)

(* The per-document tables, built once per document: XBUILD calls
   [generate] once per step on one document, and building the tables
   took most of each call. One slot holds the last document's tables
   in an ephemeron keyed on the document's identity, so a dropped
   document frees them. The tables are read-only once built and draw
   nothing from the PRNG; two domains racing on the slot only build
   them twice. *)
let tables_slot = Atomic.make None

let tables doc =
  match Option.bind (Atomic.get tables_slot) (fun e -> Ephemeron.K1.query e doc) with
  | Some t -> t
  | None ->
      let t = (numeric_domains doc, optionality doc) in
      Atomic.set tables_slot (Some (Ephemeron.K1.make doc t));
      t

let generate ?(focus = []) spec prng doc =
  let domains, opt_frac = tables doc in
  let focus_elems =
    match focus with
    | [] -> None
    | labels ->
        let tags = List.filter_map (Doc.tag_of_string doc) labels in
        let elems = List.concat_map (fun t -> Array.to_list (Doc.nodes_with_tag doc t)) tags in
        Some (Array.of_list elems)
  in
  let out = ref [] in
  let n = ref 0 in
  let attempts = ref 0 in
  while !n < spec.n_queries && !attempts < spec.n_queries * 30 do
    incr attempts;
    match gen_one prng spec doc domains ~opt_frac ~focus_elems with
    | Some t ->
        out := t :: !out;
        incr n
    | None -> ()
  done;
  List.rev !out

let generate_negative spec prng doc =
  let positives = generate spec prng doc in
  List.map
    (fun t ->
      (* poison one label on a random twig node's last step *)
      let rec poison i t =
        if i = 0 then
          match List.rev t.path with
          | [] -> t
          | last :: before ->
              {
                t with
                path = List.rev ({ last with label = "zz_" ^ last.label } :: before);
              }
        else
          match t.subs with
          | [] -> poison 0 t
          | s :: rest -> { t with subs = poison (i - 1) s :: rest }
      in
      poison (Prng.int prng (Stdlib.max 1 (twig_size t))) t)
    positives

let characteristics doc queries =
  let cards =
    List.map (fun q -> float_of_int (Xtwig_eval.Eval_twig.selectivity doc q)) queries
  in
  let fanouts = List.concat_map (fun q -> twig_fanouts q) queries in
  ( Xtwig_util.Stats.mean_list cards,
    Xtwig_util.Stats.mean_list (List.map float_of_int fanouts) )
