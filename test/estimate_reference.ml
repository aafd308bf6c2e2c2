(* The recursive TREEPARSE evaluator, kept as the differential oracle
   for the compiled plans that compute every estimate in [lib/]
   ([Xtwig_sketch.Plan]). It re-analyses the embedding at every call,
   threads the expanded edge counts as an association list and
   enumerates histogram buckets as lists ([Hist_view]): slow, and a
   direct reading of the paper's §4. In particular it conditions each
   branching predicate on the enumerated bucket's P(count >= 1), where
   the plans use one compile-time existence fraction; the two agree
   because every histogram dimension is an F-stable edge (pinned by
   test_plan_props). test_plan, test_plan_props and test_plan_scale
   check the library against it bit for bit. *)

module G = Xtwig_synopsis.Graph_synopsis
module Sketch = Xtwig_sketch.Sketch
module Embed = Xtwig_sketch.Embed
open Embed

(* ------------------------------------------------------------------ *)
(* Conditional bucket enumeration                                      *)

let ctx_distance (b : Hist_view.bucket) ctx =
  List.fold_left
    (fun a (d, v) ->
      let dx = b.mean.(d) -. v in
      a +. (dx *. dx))
    0.0 ctx

(* The buckets compatible with the context (a [dim -> value] partial
   assignment, ±0.5 slack), their fractions renormalized to sum to 1.
   If none is compatible, the nearest bucket by mean distance on the
   context dimensions, with weight 1: the estimator must not lose mass
   merely because bucketizations disagree. [ctx = []] enumerates every
   bucket; an empty histogram enumerates nothing. *)
let enum_buckets h ~ctx =
  match Hist_view.buckets h with
  | [] -> []
  | all -> (
      match ctx with
      | [] -> List.map (fun (b : Hist_view.bucket) -> (b.frac, b)) all
      | _ -> (
          let ok = List.filter (fun b -> Hist_view.compatible b ctx) all in
          match ok with
          | [] ->
              let best =
                List.fold_left
                  (fun acc b ->
                    match acc with
                    | Some (d0, _) when d0 <= ctx_distance b ctx -> acc
                    | _ -> Some (ctx_distance b ctx, b))
                  None all
              in
              (match best with Some (_, b) -> [ (1.0, b) ] | None -> [])
          | _ ->
              let mass =
                List.fold_left (fun a (b : Hist_view.bucket) -> a +. b.frac) 0.0 ok
              in
              List.map (fun (b : Hist_view.bucket) -> (b.frac /. mass, b)) ok))

(* As [enum_buckets], with each bucket's mean vector *)
let enum h ~ctx =
  List.map (fun (w, (b : Hist_view.bucket)) -> (w, b.mean)) (enum_buckets h ~ctx)

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)

(* Synopsis edges are keyed as [src * node_count + dst] throughout the
   traversal: the environment and the per-subtree "needs" sets live on
   hot paths (consulted per bucket combination), so they use plain
   integer keys instead of tuples and structural hashing. *)

let rec env_find (key : int) (env : (int * (float * float)) list) =
  match env with
  | [] -> None
  | (k, v) :: rest -> if k = key then Some v else env_find key rest

let rec env_mem (key : int) (env : (int * (float * float)) list) =
  match env with
  | [] -> false
  | (k, _) :: rest -> k = key || env_mem key rest

let rec mem_int (x : int) = function
  | [] -> false
  | (k : int) :: rest -> k = x || mem_int x rest

let vfrac sketch snode = function
  | None -> 1.0
  | Some p -> Sketch.value_frac sketch snode p

(* Existence fraction of one branching predicate (a list of alternative
   embedded paths) below an element of node [u]: expected number of
   matching children, capped at 1. *)
let rec branch_frac sketch u (alts : ebranch list) =
  let one (b : ebranch) =
    (* the synopsis records the exact unconditioned existence fraction
       of every edge *)
    let expected = Sketch.exist_frac sketch ~src:u ~dst:b.bnode in
    let nested =
      List.fold_left
        (fun acc pred -> acc *. branch_frac sketch b.bnode pred)
        (vfrac sketch b.bnode b.bvpred)
        b.bsubs
    in
    Stdlib.min 1.0 (expected *. nested)
  in
  Stdlib.min 1.0 (List.fold_left (fun acc b -> acc +. one b) 0.0 alts)

(* Branch fraction of one alternative with the expected child count
   taken from the environment when an enumerated histogram fixed it —
   this is what correlates branching predicates with structural-join
   counts once edge-expand covers the branch edge. *)
let branch_frac_env sketch nn u env (alts : ebranch list) =
  let one (b : ebranch) =
    let expected =
      match env_find ((u * nn) + b.bnode) env with
      (* conditioned on the enumerated bucket: correlates the branch
         with the structural-join counts *)
      | Some (_, p1) -> p1
      | None -> Sketch.exist_frac sketch ~src:u ~dst:b.bnode
    in
    let nested =
      List.fold_left
        (fun acc pred -> acc *. branch_frac sketch b.bnode pred)
        (vfrac sketch b.bnode b.bvpred)
        b.bsubs
    in
    Stdlib.min 1.0 (expected *. nested)
  in
  Stdlib.min 1.0 (List.fold_left (fun acc b -> acc +. one b) 0.0 alts)

let all_branch_fracs_env sketch nn u env (preds : ebranch list list) =
  List.fold_left
    (fun acc alts -> acc *. branch_frac_env sketch nn u env alts)
    1.0 preds

(* ------------------------------------------------------------------ *)

(* Environment of expanded edge counts: edge key -> (representative
   count, within-bucket P(count >= 1)), threaded top-down so that
   backward-count dimensions and branch existence can condition on the
   counts chosen upstream (the correlation sets D_i). *)

let estimate_embedding sketch (root : enode) =
  let syn = Sketch.synopsis sketch in
  let nn = G.node_count syn in
  let ekey u v = (u * nn) + v in
  (* Edges referenced by any histogram dimension in the subtree of an
     embedding node: if an upstream bucket enumeration fixes one of
     these, the subtree's value depends on it and must be recomputed
     per bucket. Memoized per enode id for the traversal. *)
  let memo_needs : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let rec needs_of (e : enode) : int list =
    match Hashtbl.find_opt memo_needs e.eid with
    | Some l -> l
    | None ->
        let own =
          List.concat_map
            (fun ((dims : Sketch.dim array), _) ->
              Array.to_list
                (Array.map (fun (d : Sketch.dim) -> ekey d.src d.dst) dims))
            (Sketch.hists sketch e.snode)
        in
        let l =
          List.sort_uniq compare
            (own
            @ List.concat_map
                (fun alts -> List.concat_map needs_of alts)
                e.kids)
        in
        Hashtbl.add memo_needs e.eid l;
        l
  in
  (* expected number of tuple extensions below [e], per element bound
     to [e] *)
  let rec expand (e : enode) (env : (int * (float * float)) list) : float =
    let n = e.snode in
    let hs = Sketch.hists sketch n in
    let hist_edges ((dims : Sketch.dim array), _) =
      Array.to_list (Array.map (fun (d : Sketch.dim) -> ekey d.src d.dst) dims)
    in
    (* is the edge to an alternative covered by histogram [i]? *)
    let covering_idx (a : enode) =
      let d : Sketch.dim = { src = n; dst = a.snode; kind = Sketch.Forward } in
      let rec scan i = function
        | [] -> None
        | (dims, _) :: rest ->
            if Array.exists (fun d' -> d' = d) dims then Some i else scan (i + 1) rest
      in
      scan 0 hs
    in
    (* first edges of this node's branching predicates: a histogram
       covering one of them carries the branch/count correlation and
       must be enumerated too *)
    let branch_first_edges =
      List.concat_map
        (fun alts -> List.map (fun (b : ebranch) -> ekey n b.bnode) alts)
        e.branches
    in
    (* histograms needing bucket enumeration: they cover some
       alternative's edge, a branch edge, or a dimension some subtree
       conditions on *)
    let all_alts = List.concat e.kids in
    let enum_flag =
      Array.of_list
        (List.mapi
           (fun i h ->
             List.exists (fun a -> covering_idx a = Some i) all_alts
             ||
             let es = hist_edges h in
             List.exists (fun ed -> mem_int ed es) branch_first_edges
             || List.exists
                  (fun a -> List.exists (fun ed -> mem_int ed es) (needs_of a))
                  all_alts)
           hs)
    in
    let enum_hists = List.filteri (fun i _ -> enum_flag.(i)) hs in
    let enum_edges = List.concat_map hist_edges enum_hists in
    (* value of one alternative under an environment: its value
       predicate times its subtree expansion (the alternative's own
       branching predicates are handled inside its [expand], where its
       histograms can condition them) *)
    let alt_value (a : enode) env' =
      vfrac sketch a.snode a.vpred *. expand a env'
    in
    (* one alternative's full contribution: count factor x value *)
    let alt_contrib (a : enode) env' ~fixed =
      let count =
        match env_find (ekey n a.snode) env' with
        | Some (c, _) -> c
        | None -> Sketch.avg_fanout sketch ~src:n ~dst:a.snode
      in
      let v = match fixed with Some v -> v | None -> alt_value a env' in
      count *. v
    in
    (* does this alternative's contribution change per bucket? *)
    let alt_dep (a : enode) =
      mem_int (ekey n a.snode) enum_edges
      || List.exists (fun ed -> mem_int ed enum_edges) (needs_of a)
    in
    (* kid dependence flags as a flat array: the per-combination leaf
       below indexes them per kid, so no linear List.nth rescans *)
    let kid_arr = Array.of_list e.kids in
    let nk = Array.length kid_arr in
    let kid_dep = Array.map (fun alts -> List.exists alt_dep alts) kid_arr in
    let indep_factor = ref 1.0 in
    Array.iteri
      (fun i alts ->
        if not kid_dep.(i) then
          indep_factor :=
            !indep_factor
            *. List.fold_left
                 (fun s a -> s +. alt_contrib a env ~fixed:None)
                 0.0 alts)
      kid_arr;
    let indep_factor = !indep_factor in
    (* pre-compute bucket-independent alternative values inside
       dependent kids (the count factor may vary while the subtree
       value does not); dense [i * width + j] indexing, same trick as
       the integer edge keys above *)
    let width =
      Array.fold_left (fun w alts -> Stdlib.max w (List.length alts)) 0 kid_arr
    in
    let fixed_values = Array.make (Stdlib.max 1 (nk * width)) 0.0 in
    let fixed_set = Array.make (Stdlib.max 1 (nk * width)) false in
    Array.iteri
      (fun i alts ->
        if kid_dep.(i) then
          List.iteri
            (fun j a ->
              let subtree_dep =
                List.exists (fun ed -> mem_int ed enum_edges) (needs_of a)
              in
              if not subtree_dep then begin
                fixed_values.((i * width) + j) <- alt_value a env;
                fixed_set.((i * width) + j) <- true
              end)
            alts)
      kid_arr;
    (* does the node's own branch factor vary with the bucket combo? *)
    let branch_dep =
      List.exists (fun ed -> mem_int ed enum_edges) branch_first_edges
    in
    (* sum over the bucket combos of the enumerated histograms *)
    let rec combos hlist env' acc_w =
      match hlist with
      | [] ->
          let factor = ref 1.0 in
          if branch_dep then
            factor := all_branch_fracs_env sketch nn n env' e.branches;
          Array.iteri
            (fun i alts ->
              if kid_dep.(i) then begin
                let s = ref 0.0 in
                List.iteri
                  (fun j a ->
                    let fixed =
                      if fixed_set.((i * width) + j) then
                        Some fixed_values.((i * width) + j)
                      else None
                    in
                    s := !s +. alt_contrib a env' ~fixed)
                  alts;
                factor := !factor *. !s
              end)
            kid_arr;
          acc_w *. !factor
      | ((dims : Sketch.dim array), h) :: rest ->
          (* correlation set D: dimensions fixed upstream *)
          let ctx = ref [] in
          Array.iteri
            (fun di (d : Sketch.dim) ->
              match env_find (ekey d.src d.dst) env' with
              | Some (v, _) -> ctx := (di, v) :: !ctx
              | None -> ())
            dims;
          List.fold_left
            (fun acc (w, bucket) ->
              let w' = acc_w *. w in
              if w' < 1e-9 then acc
              else begin
                let env'' = ref env' in
                Array.iteri
                  (fun di (d : Sketch.dim) ->
                    let key = ekey d.src d.dst in
                    if not (env_mem key !env'') then
                      env'' :=
                        ( key,
                          ( (bucket : Hist_view.bucket).mean.(di),
                            Hist_view.p_ge1 bucket di ) )
                        :: !env'')
                  dims;
                acc +. combos rest !env'' w'
              end)
            0.0
            (enum_buckets h ~ctx:!ctx)
    in
    let dep_factor =
      match enum_hists with [] -> 1.0 | hl -> combos hl env 1.0
    in
    let indep_branch_factor =
      if branch_dep then 1.0 else all_branch_fracs_env sketch nn n env e.branches
    in
    indep_branch_factor *. indep_factor *. dep_factor
  in
  let n0 = root.snode in
  float_of_int (G.extent_size syn n0)
  *. vfrac sketch n0 root.vpred
  *. expand root []


(* The estimate of a query: the sum over its embeddings, in
   enumeration order *)
let estimate sketch twig =
  List.fold_left
    (fun acc e -> acc +. estimate_embedding sketch e)
    0.0
    (Embed.embeddings (Sketch.synopsis sketch) twig)
