module G = Xtwig_synopsis.Graph_synopsis
module Tsn = Xtwig_synopsis.Tsn
module Doc = Xtwig_xml.Doc
module Value = Xtwig_xml.Value
module Edge_hist = Xtwig_hist.Edge_hist
module Sparse_dist = Xtwig_hist.Sparse_dist
module Hist1d = Xtwig_hist.Hist1d

type dim_kind = Forward | Backward

type dim = { src : int; dst : int; kind : dim_kind }

type hist_spec = { dims : dim list; budget : int }

type config = { especs : hist_spec list array; vbudgets : int array }

type t = {
  syn : G.t;
  config : config;
  ehists : (dim array * Edge_hist.t) list array;
  ebudgets : int list array;
      (* bucket budget of each built histogram, aligned with [ehists];
         needed to decide reuse across rebuilds *)
  vhists : Hist1d.t option array;
  vcats : Xtwig_hist.Mcv.t option array;
  changed_vs_prev : int list option;
      (* when built with [~prev]: the prev-numbering nodes whose data
         is not provably identical in this sketch (see [build]) *)
}

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)

module Metrics = Xtwig_obs.Metrics

let c_builds = Metrics.counter "sketch.builds"
let c_dists = Metrics.counter "sketch.dists_computed"
let c_ehists_built = Metrics.counter "sketch.ehists_built"
let c_ehists_reused = Metrics.counter "sketch.ehists_reused"
let c_vals_built = Metrics.counter "sketch.value_summaries_built"
let c_vals_reused = Metrics.counter "sketch.value_summaries_reused"

(* ------------------------------------------------------------------ *)
(* Distribution computation                                            *)

(* The (unique, B-stable-chain) ancestor of [e] in node [a], or -1. *)
let ancestor_in syn e a =
  let doc = G.doc syn in
  let rec up e =
    if G.node_of_elem syn e = a then e
    else match Doc.parent doc e with None -> -1 | Some p -> up p
  in
  up e

(* A forward dimension counts [e]'s children in [d.dst]; a backward one
   counts the children of [e]'s ancestor in [d.src]. Consecutive extent
   elements mostly share that ancestor, so its count is kept until the
   ancestor changes. *)
let distribution_of syn n dims =
  Metrics.incr c_dists;
  let k = Array.length dims in
  let last_anc = Array.make k (-1) and last_count = Array.make k 0 in
  let count e i =
    let d = dims.(i) in
    match d.kind with
    | Forward -> G.child_count syn e d.dst
    | Backward ->
        let anc = ancestor_in syn e d.src in
        if anc < 0 then 0
        else begin
          if anc <> last_anc.(i) then begin
            last_anc.(i) <- anc;
            last_count.(i) <- G.child_count syn anc d.dst
          end;
          last_count.(i)
        end
  in
  let vectors =
    Array.to_list (Array.map (fun e -> Array.init k (count e)) (G.extent syn n))
  in
  Sparse_dist.of_vectors ~dims:k vectors

(* ------------------------------------------------------------------ *)
(* Build                                                               *)

(* [scope] is the owning node's [Tsn.scope_edges], computed once per
   node and shared by its specs *)
let valid_dims scope n dims =
  List.filter
    (fun d ->
      List.exists (fun (s, t) -> s = d.src && t = d.dst) scope
      &&
      match d.kind with
      | Forward -> d.src = n
      | Backward -> d.src <> n)
    dims

(* Incremental construction. [node_map] maps each node of the synopsis
   being built to the node of [prev] with the {e identical} extent, if
   one exists:

   - when [prev] is built over the same (physically equal) synopsis,
     the map is the identity;
   - when [prev] is built over {e another synopsis of the same
     document}, a new node maps to the previous node holding its first
     element, provided their extents coincide. After
     [Graph_synopsis.split] every untouched node shares its extent
     array with the previous synopsis, so [==] settles it without
     reading an element; extents from any other construction are
     compared elementwise. Splits refine the partition, so the only
     nodes without an image are the split products.

   A built histogram can be reused whenever its owning node and every
   dimension endpoint have identical extents in both synopses: edge
   distributions depend only on those extents (children membership for
   forward counts, the B-stable ancestor chain for backward counts)
   and on the immutable document. Value summaries depend only on the
   owning node's extent and the budget. *)
let node_map_of prev syn =
  let n_nodes = G.node_count syn in
  match prev with
  | None -> (fun _ -> -1)
  | Some p when p.syn == syn -> (fun n -> n)
  | Some p when G.doc p.syn == G.doc syn ->
      let psyn = p.syn in
      let map =
        Array.init n_nodes (fun n ->
            let ext = G.extent syn n in
            let o = G.node_of_elem psyn ext.(0) in
            let pext = G.extent psyn o in
            if
              pext == ext
              || Array.length pext = Array.length ext
                 && Array.for_all2 Int.equal pext ext
            then o
            else -1)
      in
      fun n -> map.(n)
  | Some _ -> (fun _ -> -1)

let t_build_ns = Metrics.counter "sketch.build_ns"

(* The full construction, parameterized over the node correspondence.
   [node_map] maps each node of [syn] to the node of [prev] whose
   extent is elementwise identical under the caller's element
   correspondence (identity for [build]; the splice survivor map for
   [apply_delta]), or [-1]. Reuse soundness only needs that invariant:
   edge distributions depend on the extents of the owning node and of
   every dimension endpoint, value summaries on the owning node's
   extent alone. *)
let build_with ?prev ~node_map syn config =
  Metrics.time_ns t_build_ns @@ fun () ->
  Metrics.incr c_builds;
  let n_nodes = G.node_count syn in
  if Array.length config.especs <> n_nodes || Array.length config.vbudgets <> n_nodes
  then invalid_arg "Sketch.build: config arity mismatch";
  (* the previous histogram at [n]'s image whose dimensions are [dims]
     mapped into [prev]'s node ids, with this budget *)
  let reuse_hist n dims budget =
    let o = node_map n in
    match prev with
    | Some p when o >= 0 ->
        let same dims' =
          Array.length dims' = Array.length dims
          && Array.for_all2
               (fun d d' ->
                 node_map d.src = d'.src && node_map d.dst = d'.dst && d.kind = d'.kind)
               dims dims'
        in
        let rec scan hs bs =
          match (hs, bs) with
          | (dims', h) :: hs', b' :: bs' ->
              if b' = budget && same dims' then Some h else scan hs' bs'
          | _, _ -> None
        in
        scan p.ehists.(o) p.ebudgets.(o)
    | _ -> None
  in
  let ehists = Array.make n_nodes [] in
  let ebudgets = Array.make n_nodes [] in
  for n = 0 to n_nodes - 1 do
    (* node-level fast path: same synopsis and unchanged spec list
       share the previous node's histogram list wholesale *)
    match prev with
    | Some p
      when p.syn == syn
           && (p.config.especs.(n) == config.especs.(n)
              || p.config.especs.(n) = config.especs.(n)) ->
        Metrics.incr ~by:(List.length p.ehists.(n)) c_ehists_reused;
        ehists.(n) <- p.ehists.(n);
        ebudgets.(n) <- p.ebudgets.(n)
    | _ ->
    let scope =
      match config.especs.(n) with [] -> [] | _ -> Tsn.scope_edges syn n
    in
    let built =
      List.filter_map
        (fun spec ->
          match valid_dims scope n spec.dims with
          | [] -> None
          | dims ->
              let dims = Array.of_list dims in
              let h =
                match reuse_hist n dims spec.budget with
                | Some h ->
                    Metrics.incr c_ehists_reused;
                    h
                | None ->
                    Metrics.incr c_ehists_built;
                    Edge_hist.build ~budget:spec.budget
                      (distribution_of syn n dims)
              in
              Some (dims, h, spec.budget))
        config.especs.(n)
    in
    ehists.(n) <- List.map (fun (d, h, _) -> (d, h)) built;
    ebudgets.(n) <- List.map (fun (_, _, b) -> b) built
  done;
  let doc = G.doc syn in
  let vhists = Array.make n_nodes None in
  let vcats = Array.make n_nodes None in
  for n = 0 to n_nodes - 1 do
    let vb = config.vbudgets.(n) in
    let reused =
      let o = node_map n in
      match prev with
      | Some p when o >= 0 && p.config.vbudgets.(o) = vb ->
          vhists.(n) <- p.vhists.(o);
          vcats.(n) <- p.vcats.(o);
          true
      | _ -> false
    in
    if reused then Metrics.incr c_vals_reused
    else if vb > 0 then begin
      Metrics.incr c_vals_built;
      (* one extent pass collecting both the numeric values and the
         text values that are not merely numbers in disguise *)
      let nums = ref [] and texts = ref [] in
      Array.iter
        (fun e ->
          let v = Doc.value doc e in
          match Value.as_float v with
          | Some x -> nums := x :: !nums
          | None -> (
              match v with
              | Value.Text s -> texts := s :: !texts
              | Value.Null | Value.Int _ | Value.Float _ -> ()))
        (G.extent syn n);
      (match !nums with
      | [] -> ()
      | l -> vhists.(n) <- Some (Hist1d.build ~budget:vb (Array.of_list (List.rev l))));
      match !texts with
      | [] -> ()
      | l -> vcats.(n) <- Some (Xtwig_hist.Mcv.build ~budget:vb (List.rev l))
    end
  done;
  (* Changed-node summary for the estimation-skip optimisation in
     XBUILD: an old node is {e unchanged} when some new node carries
     the elementwise-identical extent and physically the same summary
     objects, hist for hist (same list position) and value summary.
     Estimates of queries whose embeddings only touch unchanged nodes
     are then provably identical to the previous sketch's. *)
  let changed_vs_prev =
    match prev with
    | None -> None
    | Some p ->
        let pn = Array.length p.ehists in
        let ok = Array.make pn false in
        for n = 0 to n_nodes - 1 do
          let o = node_map n in
          if o >= 0 then begin
            let same_hists =
              List.compare_lengths ehists.(n) p.ehists.(o) = 0
              && List.for_all2
                   (fun (_, h) (_, h') -> h == h')
                   ehists.(n) p.ehists.(o)
            in
            let same_opt a b =
              match (a, b) with
              | None, None -> true
              | Some x, Some y -> x == y
              | _ -> false
            in
            if
              same_hists
              && same_opt vhists.(n) p.vhists.(o)
              && same_opt vcats.(n) p.vcats.(o)
            then ok.(o) <- true
          end
        done;
        let changed = ref [] in
        for o = pn - 1 downto 0 do
          if not ok.(o) then changed := o :: !changed
        done;
        Some !changed
  in
  { syn; config; ehists; ebudgets; vhists; vcats; changed_vs_prev }

let build ?prev syn config =
  build_with ?prev ~node_map:(node_map_of prev syn) syn config

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)

type delta =
  | Insert of { parent : Doc.node; fragment : Doc.t }
  | Delete of Doc.node

let c_deltas = Metrics.counter "sketch.deltas"
let c_delta_nodes_kept = Metrics.counter "sketch.delta_nodes_kept"
let t_delta_ns = Metrics.counter "sketch.delta_ns"

(* Smallest synopsis node carrying [tname], if any — where inserted
   elements of an already-known tag are filed. *)
let min_node_with_label syn tname =
  match G.nodes_with_label syn tname with
  | [] -> -1
  | n :: rest -> List.fold_left Stdlib.min n rest

let apply_delta ?(reuse = true) t delta =
  Xtwig_fault.Fault.point "sketch.delta";
  Metrics.time_ns t_delta_ns @@ fun () ->
  Metrics.incr c_deltas;
  let syn = t.syn in
  let doc = G.doc syn in
  let n_nodes = G.node_count syn in
  (* 1. splice the document; [emap] maps each old element to its new
     id, -1 for deleted ones (the identity under an insert: survivors
     keep their ids, the fragment is appended) *)
  let doc', emap =
    match delta with
    | Insert { parent; fragment } ->
        (Doc.splice_insert doc ~parent ~fragment, Array.init (Doc.size doc) Fun.id)
    | Delete node -> Doc.splice_delete doc node
  in
  (* 2. partition keys in the new numbering. Survivors keep their old
     synopsis node as the key, so every surviving group persists (and
     [of_partition]'s dense first-appearance renumbering preserves
     their relative order). Inserted elements of a known tag join that
     tag's smallest node; fresh tags get keys disjoint from the old
     node ids, one group per tag. *)
  let n_new = Doc.size doc' in
  let keys = Array.make n_new (-1) in
  Array.iteri
    (fun e e' -> if e' >= 0 then keys.(e') <- G.node_of_elem syn e)
    emap;
  for e' = 0 to n_new - 1 do
    if keys.(e') < 0 then
      keys.(e') <-
        (match min_node_with_label syn (Doc.tag_name doc' e') with
        | -1 -> n_nodes + Doc.tag doc' e'
        | n -> n)
  done;
  let syn' = G.of_partition doc' keys in
  let n_nodes' = G.node_count syn' in
  (* 3. node correspondences. [image]: old node -> the new node its
     survivors landed in (every survivor shares the key, hence the
     group), -1 when the whole extent was deleted. [nmap]: new node ->
     old node, defined only when the extents are elementwise identical
     through [emap] — the reuse precondition of [build_with]. *)
  let image = Array.make n_nodes (-1) in
  let nmap = Array.make n_nodes' (-1) in
  for o = 0 to n_nodes - 1 do
    let ext = G.extent syn o in
    let surv = ref (-1) in
    let intact = ref true in
    Array.iter
      (fun e ->
        let e' = Array.unsafe_get emap e in
        if e' < 0 then intact := false else if !surv < 0 then surv := e')
      ext;
    if !surv >= 0 then begin
      let n' = G.node_of_elem syn' !surv in
      image.(o) <- n';
      if !intact then begin
        let ext' = G.extent syn' n' in
        if Array.length ext' = Array.length ext then begin
          let same = ref true in
          Array.iteri
            (fun i e -> if emap.(e) <> Array.unsafe_get ext' i then same := false)
            ext;
          if !same then begin
            nmap.(n') <- o;
            Metrics.incr c_delta_nodes_kept
          end
        end
      end
    end
  done;
  (* 4. carry the configuration across: specs follow their owning node
     through [image]; dimensions whose endpoint vanished are dropped
     (exactly the silent-drop rule [build] applies to scope-ineligible
     dims). Nodes of fresh tags start with the coarsest defaults — no
     edge histograms (Forward Uniformity serves their edges) and a
     2-bucket value summary, matching [coarsest]. *)
  let especs' = Array.make n_nodes' [] in
  let vbudgets' = Array.make n_nodes' 2 in
  for o = 0 to n_nodes - 1 do
    let n' = image.(o) in
    if n' >= 0 then begin
      vbudgets'.(n') <- t.config.vbudgets.(o);
      especs'.(n') <-
        List.filter_map
          (fun spec ->
            match
              List.filter_map
                (fun d ->
                  let s = image.(d.src) and dst = image.(d.dst) in
                  if s < 0 || dst < 0 then None
                  else Some { d with src = s; dst })
                spec.dims
            with
            | [] -> None
            | dims -> Some { spec with dims })
          t.config.especs.(o)
    end
  done;
  let config' = { especs = especs'; vbudgets = vbudgets' } in
  if reuse then build_with ~prev:t ~node_map:(fun n -> nmap.(n)) syn' config'
  else build_with ~node_map:(fun _ -> -1) syn' config'

let coarsest ?(ebudget = 1) ?(vbudget = 2) syn =
  let n_nodes = G.node_count syn in
  let especs =
    Array.init n_nodes (fun n ->
        List.filter_map
          (fun (e : G.edge) ->
            if e.f_stable then
              Some
                {
                  dims = [ { src = n; dst = e.dst; kind = Forward } ];
                  budget = ebudget;
                }
            else None)
          (G.out_edges syn n))
  in
  let vbudgets = Array.make n_nodes vbudget in
  build syn { especs; vbudgets }

let default_of_doc ?ebudget ?vbudget doc =
  coarsest ?ebudget ?vbudget (G.label_split doc)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let synopsis t = t.syn
let doc t = G.doc t.syn
let config t = t.config
let changed_nodes t = t.changed_vs_prev
let hists t n = t.ehists.(n)
let vhist t n = t.vhists.(n)
let vcat t n = t.vcats.(n)
let node_count t = G.node_count t.syn

let covering_hist t n d =
  let rec scan = function
    | [] -> None
    | (dims, h) :: rest -> (
        let idx = ref (-1) in
        Array.iteri (fun i d' -> if d' = d then idx := i) dims;
        match !idx with -1 -> scan rest | i -> Some (dims, h, i))
  in
  scan t.ehists.(n)

let avg_fanout t ~src ~dst =
  match G.edge t.syn ~src ~dst with
  | None -> 0.0
  | Some e ->
      let n = G.extent_size t.syn src in
      if n = 0 then 0.0 else float_of_int e.count /. float_of_int n

let exist_frac t ~src ~dst =
  match G.edge t.syn ~src ~dst with
  | None -> 0.0
  | Some e ->
      let n = G.extent_size t.syn src in
      if n = 0 then 0.0 else float_of_int e.src_with_child /. float_of_int n

let value_frac t n pred =
  match (pred : Xtwig_path.Path_types.value_pred) with
  (* string equality goes to the categorical summary *)
  | Cmp (Eq, Value.Text s) when Value.as_float (Value.Text s) = None -> (
      match t.vcats.(n) with
      | Some m -> Xtwig_hist.Mcv.frac_eq m s
      | None -> 0.1)
  | Cmp (Ne, Value.Text s) when Value.as_float (Value.Text s) = None -> (
      match t.vcats.(n) with
      | Some m -> Xtwig_hist.Mcv.frac_ne m s
      | None -> 0.9)
  | _ -> (
      match t.vhists.(n) with
      | None -> 0.1
      | Some h -> (
          match pred with
          | Range (lo, hi) -> Hist1d.frac_range h lo hi
          | Cmp (op, v) -> (
              match Value.as_float v with
              | None -> 0.1
              | Some x ->
                  let op' =
                    match op with
                    | Xtwig_path.Path_types.Lt -> `Lt
                    | Le -> `Le
                    | Eq -> `Eq
                    | Ne -> `Ne
                    | Ge -> `Ge
                    | Gt -> `Gt
                  in
                  Hist1d.frac_cmp h op' x)))

(* ------------------------------------------------------------------ *)
(* Size accounting                                                     *)

let size_bytes t =
  let structural = G.structure_bytes t.syn in
  let ebytes =
    Array.fold_left
      (fun acc hs ->
        List.fold_left
          (fun acc (dims, h) ->
            acc + Edge_hist.size_bytes h + (8 * Array.length dims))
          acc hs)
      0 t.ehists
  in
  let vbytes =
    Array.fold_left
      (fun acc vh ->
        match vh with None -> acc | Some h -> acc + Hist1d.size_bytes h)
      0 t.vhists
  in
  let cbytes =
    Array.fold_left
      (fun acc vc ->
        match vc with None -> acc | Some m -> acc + Xtwig_hist.Mcv.size_bytes m)
      0 t.vcats
  in
  structural + ebytes + vbytes + cbytes

let pp_stats ppf t =
  let nh = Array.fold_left (fun a l -> a + List.length l) 0 t.ehists in
  let nv =
    Array.fold_left (fun a v -> match v with Some _ -> a + 1 | None -> a) 0 t.vhists
  in
  Format.fprintf ppf "xsketch: %a; %d edge-hists, %d value-hists, %d bytes"
    G.pp_stats t.syn nh nv (size_bytes t)

(* ------------------------------------------------------------------ *)
(* Exact references                                                    *)

let exact_for_scopes syn groupings =
  let n_nodes = G.node_count syn in
  if Array.length groupings <> n_nodes then
    invalid_arg "Sketch.exact_for_scopes: arity mismatch";
  let especs =
    Array.map
      (fun groups -> List.map (fun dims -> { dims; budget = max_int }) groups)
      groupings
  in
  let vbudgets = Array.make n_nodes max_int in
  build syn { especs; vbudgets }

let dim_edges_of_node t n = Tsn.scope_edges t.syn n

let distribution t n dims = distribution_of t.syn n dims
