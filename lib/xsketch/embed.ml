open Xtwig_path.Path_types
module G = Xtwig_synopsis.Graph_synopsis
module Doc = Xtwig_xml.Doc

type ebranch = {
  bnode : int;
  bvpred : value_pred option;
  bsubs : ebranch list list;
}

type enode = {
  eid : int;
  snode : int;
  vpred : value_pred option;
  branches : ebranch list list;
  kids : enode list list;
}

(* Domain-local: every domain (XBUILD's main loop, pool workers, the
   estimation engine) tracks truncation of its own enumerations; a
   shared ref here was a data race once scoring fanned out. *)
let truncated_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let set_truncated b = Domain.DLS.get truncated_key := b
let last_truncated () = !(Domain.DLS.get truncated_key)

(* A chain item: one embedded single-step twig node. *)
type item = {
  inode : int;
  ivpred : value_pred option;
  ibranches : ebranch list list;
}

let bare_item v = { inode = v; ivpred = None; ibranches = [] }

(* Candidate target chains for one step's axis+label, as reversed
   node lists with the matching node in head position. [from = None]
   is the virtual root above the document root. *)
let step_chains syn max_len from axis label =
  let matches v = String.equal (G.tag_name syn v) label in
  match axis with
  | Child ->
      let targets =
        match from with
        | None -> [ G.root_node syn ]
        | Some u -> List.map (fun (e : G.edge) -> e.dst) (G.out_edges syn u)
      in
      List.filter_map (fun v -> if matches v then Some [ v ] else None) targets
  | Descendant ->
      let out = ref [] in
      let rec dfs rev_path len v =
        let rev_path = v :: rev_path in
        if matches v then out := rev_path :: !out;
        if len < max_len then
          List.iter
            (fun (e : G.edge) -> dfs rev_path (len + 1) e.dst)
            (G.out_edges syn v)
      in
      (match from with
      | None -> dfs [] 0 (G.root_node syn)
      | Some u ->
          List.iter (fun (e : G.edge) -> dfs [] 1 e.dst) (G.out_edges syn u));
      List.rev !out

let take_capped cap l =
  (* bounded scans: enumeration lists can be long and this runs per
     path expansion, so neither the length check nor the truncation
     walks past [cap] elements *)
  let rec longer_than n = function
    | [] -> false
    | _ :: tl -> n = 0 || longer_than (n - 1) tl
  in
  if longer_than cap l then begin
    set_truncated true;
    let rec take n = function
      | [] -> []
      | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
    in
    take cap l
  end
  else l

let t_embed = Xtwig_util.Counters.timer "embed.ns"

(* Memo table for [step_chains] results, keyed by (from, axis, label)
   with [from]/[axis] packed into one int. Chains depend only on the
   synopsis graph, so a memo attached to an embedding cache is valid
   for every query against that synopsis — XBUILD's scoring queries
   share most of their steps (the same //tag roots), which makes the
   descendant-axis DFS the dominant repeated work. *)
type chains_memo = (int * string, int list list) Hashtbl.t

let chains_key from axis =
  (((match from with None -> 0 | Some u -> u + 1) * 2)
  + match axis with Xtwig_path.Path_types.Child -> 0 | Descendant -> 1)

(* Per-call memoization structure: one level per path-step suffix,
   compiled from the twig before enumeration. [l_chains] caches the
   full expansion of this suffix per context node and [l_branch] the
   embedded branching predicates per target, so synopsis chains that
   converge on the same node share their downstream expansion instead
   of redoing it (the dominant cost on descendant axes). Items carry
   no embedding ids, so returning a shared list is observationally
   identical to recomputation; the truncation flag only ever latches
   true within one call, so skipping a repeat [take_capped] cannot
   change it. *)
type levels = Lnil | Lcons of level

and level = {
  l_step : step;
  l_preds : levels list; (* compiled branching-predicate paths *)
  l_next : levels;
  l_chains : (int, item list list) Hashtbl.t; (* context node -> chains *)
  l_branch : (int, ebranch list list option) Hashtbl.t; (* target -> preds *)
}

let rec compile_steps (p : path) : levels =
  match p with
  | [] -> Lnil
  | s :: rest ->
      Lcons
        {
          l_step = s;
          l_preds = List.map compile_steps s.branches;
          l_next = compile_steps rest;
          l_chains = Hashtbl.create 8;
          l_branch = Hashtbl.create 8;
        }

type ctwig = { ct_levels : levels; ct_subs : ctwig list }

let rec compile_twig (t : twig) : ctwig =
  { ct_levels = compile_steps t.path; ct_subs = List.map compile_twig t.subs }

let embeddings ?chains ?(max_alternatives = 64) syn twig =
  Xtwig_obs.Trace.with_span ~name:"embed.enumerate" @@ fun () ->
  Xtwig_util.Counters.time t_embed @@ fun () ->
  set_truncated false;
  (* embedding-node ids: dense, unique within one [embeddings] result
     (across all returned roots) — estimator memo tables key on them *)
  let next_eid = ref 0 in
  let fresh_eid () =
    let i = !next_eid in
    Stdlib.incr next_eid;
    i
  in
  let max_len = Doc.max_depth (G.doc syn) + 1 in
  let chains_for =
    match chains with
    | None -> fun from axis label -> step_chains syn max_len from axis label
    | Some memo ->
        fun from axis label ->
          let key = (chains_key from axis, label) in
          (match Hashtbl.find_opt memo key with
          | Some r -> r
          | None ->
              let r = step_chains syn max_len from axis label in
              Hashtbl.add memo key r;
              r)
  in
  (* chains embedding a whole path: lists of items, first step first;
     memoized per (level, context node) in the compiled levels *)
  let rec path_chains from lv : item list list =
    match lv with
    | Lnil -> [ [] ]
    | Lcons l -> (
        let key = match from with None -> -1 | Some u -> u in
        match Hashtbl.find_opt l.l_chains key with
        | Some r -> r
        | None ->
            let s = l.l_step in
            let raw = chains_for from s.axis s.label in
            let r =
              List.concat_map
                (fun rev_chain ->
                  match rev_chain with
                  | [] -> []
                  | target :: intermediates_rev -> (
                      match branch_preds l target with
                      | None -> [] (* unsatisfiable branching predicate *)
                      | Some ibranches ->
                          let head =
                            List.rev_map bare_item intermediates_rev
                            @ [ { inode = target; ivpred = s.vpred; ibranches } ]
                          in
                          List.map
                            (fun tail -> head @ tail)
                            (path_chains (Some target) l.l_next)))
                raw
              |> take_capped max_alternatives
            in
            Hashtbl.add l.l_chains key r;
            r)
  (* one branching predicate at node [u]: all alternative embedded
     chains, or None when there are none *)
  and branch_preds l u : ebranch list list option =
    match Hashtbl.find_opt l.l_branch u with
    | Some r -> r
    | None ->
        let embedded =
          List.map
            (fun lp ->
              List.filter_map chain_to_ebranch (path_chains (Some u) lp))
            l.l_preds
        in
        let r =
          if List.exists (fun alts -> alts = []) embedded then None
          else Some embedded
        in
        Hashtbl.add l.l_branch u r;
        r
  and chain_to_ebranch items : ebranch option =
    match items with
    | [] -> None
    | [ it ] -> Some { bnode = it.inode; bvpred = it.ivpred; bsubs = it.ibranches }
    | it :: rest -> (
        match chain_to_ebranch rest with
        | None -> None
        | Some tail ->
            Some
              {
                bnode = it.inode;
                bvpred = it.ivpred;
                bsubs = it.ibranches @ [ [ tail ] ];
              })
  in
  (* all alternative embeddings of one twig node evaluated from a
     context synopsis node *)
  let rec embed_twig from (ct : ctwig) : enode list =
    List.filter_map
      (fun items -> embed_chain items ct.ct_subs)
      (path_chains from ct.ct_levels)
  (* one chain plus the twig children attached at its end; None when
     some child cannot be embedded *)
  and embed_chain items subs : enode option =
    match List.rev items with
    | [] -> None
    | last :: _ ->
        let kid_alts = List.map (embed_twig (Some last.inode)) subs in
        if List.exists (fun alts -> alts = []) kid_alts then None
        else
          let rec wrap = function
            | [] -> assert false
            | [ it ] ->
                {
                  eid = fresh_eid ();
                  snode = it.inode;
                  vpred = it.ivpred;
                  branches = it.ibranches;
                  kids = kid_alts;
                }
            | it :: rest ->
                let inner = wrap rest in
                {
                  eid = fresh_eid ();
                  snode = it.inode;
                  vpred = it.ivpred;
                  branches = it.ibranches;
                  kids = [ [ inner ] ];
                }
          in
          Some (wrap items)
  in
  embed_twig None (compile_twig twig)

(* ------------------------------------------------------------------ *)
(* Embedding cache                                                     *)

module Counters = Xtwig_util.Counters

let c_hits = Counters.counter "embed.cache_hits"
let c_misses = Counters.counter "embed.cache_misses"

type cache = {
  csyn : G.t;
  tbl : (enode list * bool) Twig_tbl.t;
  chains : chains_memo;
  lock : Mutex.t;
  mutable frozen : bool;
}

let chains_memo () : chains_memo = Hashtbl.create 64

let create_cache syn =
  {
    csyn = syn;
    tbl = Twig_tbl.create 64;
    chains = chains_memo ();
    lock = Mutex.create ();
    frozen = false;
  }

let cache_synopsis c = c.csyn
let freeze c = c.frozen <- true
let thaw c = c.frozen <- false

let embeddings_cached cache syn twig =
  if syn != cache.csyn then begin
    (* a different synopsis: the cache does not apply *)
    Counters.incr c_misses;
    embeddings syn twig
  end
  else
    (* lock-free lookups are sound under the ownership rule (the cache
       is warmed by one domain, then frozen before any fan-out); the
       insertion lock only defends against a caller that violates it,
       turning a memory race into (at worst) a duplicated enumeration *)
    match Twig_tbl.find_opt cache.tbl twig with
    | Some (roots, trunc) ->
        Counters.incr c_hits;
        set_truncated trunc;
        roots
    | None ->
        Counters.incr c_misses;
        (* a cache fill is real work that chaos scenarios target; the
           engine's retry path re-enters here *)
        Xtwig_fault.Fault.point "embed.fill";
        (* the chains memo is shared mutable state: used only while the
           cache is thawed (single-owner phase); frozen-cache misses on
           worker domains enumerate without it *)
        let chains = if cache.frozen then None else Some cache.chains in
        let roots = embeddings ?chains syn twig in
        if not cache.frozen then begin
          Mutex.lock cache.lock;
          if not cache.frozen then
            Twig_tbl.replace cache.tbl twig (roots, last_truncated ());
          Mutex.unlock cache.lock
        end;
        roots

let visited_nodes roots =
  let seen = Hashtbl.create 32 in
  let rec walk_b (b : ebranch) =
    Hashtbl.replace seen b.bnode ();
    List.iter (List.iter walk_b) b.bsubs
  in
  let rec walk (e : enode) =
    Hashtbl.replace seen e.snode ();
    List.iter (List.iter walk_b) e.branches;
    List.iter (List.iter walk) e.kids
  in
  List.iter walk roots;
  List.sort_uniq compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let rec size e =
  1 + List.fold_left (fun a alts -> List.fold_left (fun a k -> a + size k) a alts) 0 e.kids
