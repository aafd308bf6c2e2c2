open Xtwig_path.Path_types
module Hist1d = Xtwig_hist.Hist1d
module Value = Xtwig_xml.Value
module Counters = Xtwig_util.Counters
module Trace = Xtwig_obs.Trace
module Log = Xtwig_obs.Log
module Fault = Xtwig_fault.Fault

(* ---------------- constraint propagation ---------------- *)

type interval = { lo : float; hi : float }
type refined = { itv : interval; frac : float }

let full_interval = { lo = neg_infinity; hi = infinity }

let top ?hist () =
  let itv =
    match Option.bind hist Hist1d.domain with
    | Some (lo, hi) -> { lo; hi }
    | None -> full_interval
  in
  { itv; frac = 1.0 }

(* Textbook default selectivities, used multiplicatively when no
   histogram covers the label (System R's catalog-less fallbacks; the
   Axiom snippet's 0.8-for-unknown plays the same role). *)
let default_frac = function
  | Cmp (Eq, _) -> 0.1
  | Cmp (Ne, _) -> 0.9
  | Cmp ((Lt | Le | Ge | Gt), _) -> 0.33
  | Range _ -> 0.25

let range_of_pred = function
  | Range (a, b) -> Some (a, b)
  | Cmp (op, v) -> (
      match Value.as_float v with
      | None -> None
      | Some x -> (
          match op with
          | Lt | Le -> Some (neg_infinity, x)
          | Ge | Gt -> Some (x, infinity)
          | Eq -> Some (x, x)
          | Ne -> None))

let constrain ?hist r pred =
  let itv =
    match range_of_pred pred with
    | None -> r.itv
    | Some (a, b) -> { lo = Float.max r.itv.lo a; hi = Float.min r.itv.hi b }
  in
  let fresh =
    if itv.lo > itv.hi then 0.
    else
      match hist with
      | None -> r.frac *. default_frac pred
      | Some h -> (
          match pred with
          | Cmp (Eq, v) -> (
              match Value.as_float v with
              | Some x -> Hist1d.frac_cmp h `Eq x
              | None -> r.frac *. default_frac pred)
          | Cmp (Ne, _) -> r.frac *. default_frac pred
          | _ ->
              (* price the narrowed interval, clamped to the domain *)
              let dlo, dhi =
                match Hist1d.domain h with
                | Some (a, b) -> (a, b)
                | None -> (itv.lo, itv.hi)
              in
              let lo = Float.max itv.lo dlo and hi = Float.min itv.hi dhi in
              if lo > hi then 0. else Hist1d.frac_range h lo hi)
  in
  { itv; frac = Float.min r.frac fresh }

let rec path_frac vhist p =
  List.fold_left
    (fun acc st ->
      let acc =
        match st.vpred with
        | None -> acc
        | Some pred ->
            let hist = vhist st.label in
            let r = constrain ?hist (top ?hist ()) pred in
            acc *. r.frac
      in
      List.fold_left (fun acc bp -> acc *. path_frac vhist bp) acc st.branches)
    1.0 p

(* ---------------- the subset DP ---------------- *)

let subset_prob probs s =
  let k = Array.length probs in
  let acc = ref 1.0 in
  for i = 0 to k - 1 do
    if s land (1 lsl i) <> 0 then acc := !acc *. probs.(i)
  done;
  !acc

let order_cost ~costs ~probs order =
  let acc = ref 0.0 and s = ref 0 in
  Array.iter
    (fun i ->
      acc := !acc +. (subset_prob probs !s *. costs.(i));
      s := !s lor (1 lsl i))
    order;
  !acc

let max_dp_branches = 16

(* The classic rank rule for pipelined filters — exact under the
   independence model, used past the DP's subset budget. *)
let greedy_order ~costs ~probs =
  let k = Array.length costs in
  let idx = Array.init k Fun.id in
  let rank i = costs.(i) /. Float.max 1e-12 (1. -. probs.(i)) in
  Array.stable_sort (fun a b -> compare (rank a) (rank b)) idx;
  (idx, order_cost ~costs ~probs idx)

let best_order ~costs ~probs =
  let k = Array.length costs in
  if k <> Array.length probs then invalid_arg "Opt.best_order: length mismatch";
  if k <= 1 then
    let o = Array.init k Fun.id in
    (o, order_cost ~costs ~probs o)
  else if k > max_dp_branches then greedy_order ~costs ~probs
  else begin
    let n = 1 lsl k in
    (* canonical subset probability: strip the highest bit, so the
       product multiplies in increasing index order — bit-identical to
       subset_prob *)
    let prob = Array.make n 1.0 in
    for s = 1 to n - 1 do
      let hi = ref 0 in
      for i = 0 to k - 1 do
        if s land (1 lsl i) <> 0 then hi := i
      done;
      prob.(s) <- prob.(s land lnot (1 lsl !hi)) *. probs.(!hi)
    done;
    let cost = Array.make n infinity in
    let last = Array.make n (-1) in
    cost.(0) <- 0.;
    for s = 0 to n - 1 do
      if cost.(s) < infinity then
        for i = 0 to k - 1 do
          if s land (1 lsl i) = 0 then begin
            let ns = s lor (1 lsl i) in
            let c = cost.(s) +. (prob.(s) *. costs.(i)) in
            if c < cost.(ns) then begin
              cost.(ns) <- c;
              last.(ns) <- i
            end
          end
        done
    done;
    let order = Array.make k 0 in
    let s = ref (n - 1) in
    for j = k - 1 downto 0 do
      let i = last.(!s) in
      order.(j) <- i;
      s := !s land lnot (1 lsl i)
    done;
    (* prefer the identity on cost ties: reordering for free churns
       plans (and CI diffs) without buying anything *)
    let id = Array.init k Fun.id in
    if order_cost ~costs ~probs id <= cost.(n - 1) then
      (id, order_cost ~costs ~probs id)
    else (order, cost.(n - 1))
  end

(* ---------------- plans ---------------- *)

type node_model = { costs : float array; probs : float array }

type plan = {
  orders : int array array;
  models : node_model array;
  cost : float;
  default_cost : float;
  changed : bool;
  fallback : bool;
}

let empty_model = { costs = [||]; probs = [||] }

let identity_plan ~twig ~fallback =
  let n = twig_size twig in
  {
    orders = Array.make n [||];
    models = Array.make n empty_model;
    cost = 0.;
    default_cost = 0.;
    changed = false;
    fallback;
  }

let is_identity perm =
  let ok = ref true in
  Array.iteri (fun i v -> if v <> i then ok := false) perm;
  !ok

let is_permutation perm k =
  Array.length perm = k
  &&
  let seen = Array.make k false in
  Array.for_all
    (fun i -> i >= 0 && i < k && not seen.(i) && (seen.(i) <- true; true))
    perm

let apply p t =
  let ctr = ref 0 in
  let rec go t =
    let id = !ctr in
    incr ctr;
    let kids = List.map go t.subs in
    let perm = if id < Array.length p.orders then p.orders.(id) else [||] in
    let k = List.length kids in
    let subs =
      if k >= 2 && is_permutation perm k then
        let a = Array.of_list kids in
        Array.to_list (Array.map (fun i -> a.(i)) perm)
      else kids
    in
    { t with subs }
  in
  go t

let to_lines p =
  let b = Printf.sprintf in
  let head =
    [
      b "cost %.6g" p.cost;
      b "default_cost %.6g" p.default_cost;
      b "changed %b" p.changed;
      b "fallback %b" p.fallback;
    ]
  in
  let orders = ref [] in
  Array.iteri
    (fun tn perm ->
      if Array.length perm >= 2 then
        orders :=
          b "order %d %s" tn
            (String.concat " "
               (Array.to_list (Array.map string_of_int perm)))
          :: !orders)
    p.orders;
  head @ List.rev !orders

(* value predicates are priced by propagation, not by the structural
   estimator: strip them from the twigs we cost. Parts without one are
   shared, not copied, so a costing-memo key holds little beyond the
   query it was cut from. *)
let rec strip_path p =
  if not (path_has_value_pred p) then p
  else
    List.map
      (fun st ->
        { st with vpred = None; branches = List.map strip_path st.branches })
      p

let rec strip_twig t =
  if not (twig_has_value_pred t) then t
  else { path = strip_path t.path; subs = List.map strip_twig t.subs }

let m_plans = Counters.counter "opt.plans"
let m_changed = Counters.counter "opt.order_changed"
let m_fallbacks = Counters.counter "opt.fallbacks"
let t_plan = Counters.timer "opt.plan_ns"

let compute_plan ~estimate ~vhist t =
  Fault.point "opt.plan";
  let n = twig_size t in
  let node_path = Array.make n [] in
  let children = Array.make n [||] in
  let parent = Array.make n (-1) in
  let subtree = Array.make n t in
  let ctr = ref 0 in
  let rec index par t =
    let id = !ctr in
    incr ctr;
    node_path.(id) <- t.path;
    parent.(id) <- par;
    subtree.(id) <- t;
    children.(id) <- Array.of_list (List.map (index id) t.subs);
    id
  in
  ignore (index (-1) t);
  (* propagated trueFraction of each node's own path, and its product
     down a root chain / over a subtree *)
  let frac = Array.init n (fun v -> path_frac vhist node_path.(v)) in
  let chain_frac = Array.make n 1.0 in
  for v = 0 to n - 1 do
    chain_frac.(v) <-
      (if parent.(v) < 0 then 1.0 else chain_frac.(parent.(v))) *. frac.(v)
  done;
  let rec tree_frac v =
    Array.fold_left (fun acc c -> acc *. tree_frac c) frac.(v) children.(v)
  in
  (* chain_twig v ~tail: the root .. v ancestor chain with [tail]
     grafted under v — the structural sub-queries the estimator
     prices *)
  let rec chain_twig v ~tail =
    let t = { path = node_path.(v); subs = tail } in
    if parent.(v) < 0 then t else chain_twig parent.(v) ~tail:[ t ]
  in
  (* card.(v): estimated binding tuples of the chain down to v,
     value fractions applied; full.(v): same with v's whole subtree
     attached below its parent — drives the early-exit probability *)
  let card =
    Array.init n (fun v ->
        Float.max 0.
          (estimate (strip_twig (chain_twig v ~tail:[])) *. chain_frac.(v)))
  in
  let full =
    Array.init n (fun v ->
        if parent.(v) < 0 then card.(v)
        else
          let sub = strip_twig subtree.(v) in
          let q = chain_twig parent.(v) ~tail:[ sub ] in
          Float.max 0.
            (estimate (strip_twig q)
            *. chain_frac.(parent.(v))
            *. tree_frac v))
  in
  let orders = Array.make n [||] in
  let models = Array.make n empty_model in
  (* per-binding evaluation cost at node v: order the branches by the
     DP, each branch costing one path evaluation plus its expected
     matches times the child's own cost, reached only while every
     earlier branch kept the running product non-zero *)
  let rec node_cost v =
    let kids = children.(v) in
    let k = Array.length kids in
    if k = 0 then (0., 0.)
    else begin
      let denom = Float.max 1e-9 card.(v) in
      let sub = Array.map node_cost kids in
      let m = Array.map (fun c -> card.(c) /. denom) kids in
      let p =
        Array.map (fun c -> Float.min 1.0 (full.(c) /. denom)) kids
      in
      let costs =
        Array.init k (fun i -> 1.0 +. (m.(i) *. (1.0 +. fst sub.(i))))
      in
      let dcosts =
        Array.init k (fun i -> 1.0 +. (m.(i) *. (1.0 +. snd sub.(i))))
      in
      let order, best = best_order ~costs ~probs:p in
      orders.(v) <- order;
      models.(v) <- { costs; probs = p };
      let def = order_cost ~costs:dcosts ~probs:p (Array.init k Fun.id) in
      (best, def)
    end
  in
  let best, def = node_cost 0 in
  let weight = Float.max 1.0 card.(0) in
  let changed =
    Array.exists (fun o -> Array.length o >= 2 && not (is_identity o)) orders
  in
  {
    orders;
    models;
    cost = weight *. best;
    default_cost = weight *. def;
    changed;
    fallback = false;
  }

let plan ~estimate ?(vhist = fun _ -> None) t =
  Counters.incr m_plans;
  Counters.time t_plan (fun () ->
      Trace.with_span ~name:"opt.plan" (fun () ->
          match compute_plan ~estimate ~vhist t with
          | p ->
              if p.changed then Counters.incr m_changed;
              p
          | exception e ->
              Counters.incr m_fallbacks;
              (* the cause, which the default-order plan drops *)
              if Log.enabled () then
                Log.warn "opt.fallback" ~fields:[ ("error", Log.S (Printexc.to_string e)) ];
              identity_plan ~twig:t ~fallback:true))
