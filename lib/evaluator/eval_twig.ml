open Xtwig_path.Path_types

(* Internal indexed form: twig nodes numbered in pre-order, paths
   compiled against the document, children as index arrays, so
   (element, twig node) pairs can key a memo table even when the input
   twig physically shares sub-trees. *)
type itwig = {
  paths : Eval_path.compiled array;
  subs : int array array;
  memo : bool;
      (** some non-root path has a descendant step; otherwise a match's
          context is its unique ancestor that many levels up, every
          (element, twig node) pair is reached at most once and a memo
          table would only add cost *)
}

let index_twig doc t =
  let n = twig_size t in
  let paths = Array.make n (Eval_path.compile doc []) in
  let subs = Array.make n [||] in
  let memo = ref false in
  let counter = ref 0 in
  let rec go t =
    let id = !counter in
    incr counter;
    paths.(id) <- Eval_path.compile doc t.path;
    if id > 0 && List.exists (fun s -> s.axis = Descendant) t.path then
      memo := true;
    let kids = List.map go t.subs in
    subs.(id) <- Array.of_list kids;
    id
  in
  ignore (go t);
  { paths; subs; memo = !memo }

(* Counts saturate well below max_int so that degenerate queries (e.g.
   pairing thousands of top-level siblings repeatedly) stay ordered
   instead of wrapping around. *)
let saturation = 1 lsl 55

let sat_add a b = if a > saturation - b then saturation else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > saturation / b then saturation
  else a * b

module Itbl = Hashtbl.Make (Int)

let run it =
  let paths = it.paths and subs = it.subs in
  let width = Array.length paths in
  let memo = Itbl.create (if it.memo then 1024 else 1) in
  (* tuples rooted at element [e] bound to twig node [tn]; memo keys
     are [e * width + tn] *)
  let rec tuples_at e tn =
    let kids = subs.(tn) in
    if Array.length kids = 0 then 1
    else if it.memo then begin
      let key = (e * width) + tn in
      match Itbl.find_opt memo key with
      | Some v -> v
      | None ->
          let v = product e kids in
          Itbl.add memo key v;
          v
    end
    else product e kids
  (* branch counts multiply left to right; a zero product skips the
     remaining branches *)
  and product e kids =
    let acc = ref 1 and i = ref 0 in
    while !acc <> 0 && !i < Array.length kids do
      acc := sat_mul !acc (branch e kids.(!i));
      incr i
    done;
    !acc
  and branch e sub =
    (* a leaf contributes one tuple per match: count, don't visit *)
    if Array.length subs.(sub) = 0 then Eval_path.count_from paths.(sub) (Some e)
    else Eval_path.fold paths.(sub) (Some e) add_tuples sub 0
  and add_tuples tn acc e = sat_add acc (tuples_at e tn) in
  Eval_path.fold paths.(0) None add_tuples 0 0

let selectivity doc t = run (index_twig doc t)

(* Plan-driven branch order: permute each node's sub list before the
   same evaluation runs. The per-branch counts multiply with
   [sat_mul] — min(saturation, product) over non-negatives, which is
   commutative and associative, and the early exit only skips work
   whose product is already pinned at zero — so any order returns the
   same count bit for bit (the differential tests hold this). *)
let is_permutation perm k =
  Array.length perm = k
  &&
  let seen = Array.make k false in
  Array.for_all
    (fun i ->
      i >= 0 && i < k && (not seen.(i))
      &&
      (seen.(i) <- true;
       true))
    perm

let selectivity_ordered doc ~orders t =
  let it = index_twig doc t in
  let subs =
    Array.mapi
      (fun tn kids ->
        let perm = if tn < Array.length orders then orders.(tn) else [||] in
        if Array.length kids >= 2 && is_permutation perm (Array.length kids)
        then Array.map (fun i -> kids.(i)) perm
        else kids)
      it.subs
  in
  run { it with subs }

let bindings ?(limit = 1000) doc t =
  let it = index_twig doc t in
  let out = ref [] in
  let n_out = ref 0 in
  let tuple = Array.make (Array.length it.paths) (-1) in
  let exception Done in
  let rec emit e tn k =
    tuple.(tn) <- e;
    let kids = it.subs.(tn) in
    let rec across i =
      if i = Array.length kids then k ()
      else
        let sub = kids.(i) in
        Eval_path.iter_from it.paths.(sub) (Some e) (fun e' ->
            emit e' sub (fun () -> across (i + 1)))
    in
    across 0
  in
  (try
     Eval_path.iter_from it.paths.(0) None (fun e ->
         emit e 0 (fun () ->
             out := Array.copy tuple :: !out;
             incr n_out;
             if !n_out >= limit then raise Done))
   with Done -> ());
  List.rev !out

let node_matches doc t = Eval_path.count doc ~from:None t.path
