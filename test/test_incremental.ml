(* Incremental construction tests: [Sketch.build ~prev] (used by every
   refinement op) must produce a sketch indistinguishable from a
   from-scratch build of the same configuration — same size, same
   estimates — for all six refinement-op kinds, while actually reusing
   previous histograms (checked through the counters). Also covers the
   embedding cache: cached estimation is bit-identical to uncached. *)

module G = Xtwig_synopsis.Graph_synopsis
module Sketch = Xtwig_sketch.Sketch
module Refinement = Xtwig_sketch.Refinement
module Embed = Xtwig_sketch.Embed
module Est = Xtwig_sketch.Estimator
module Wgen = Xtwig_workload.Wgen
module Prng = Xtwig_util.Prng
module Counters = Xtwig_util.Counters

let doc = lazy (Xtwig_datagen.Imdb.generate ~scale:0.03 ())
let base = lazy (Sketch.coarsest ~ebudget:2 ~vbudget:4 (G.label_split (Lazy.force doc)))

let queries =
  lazy
    (Wgen.generate
       { Wgen.paper_p with Wgen.n_queries = 25 }
       (Prng.create 11) (Lazy.force doc))

(* One op of each kind that actually changes the base sketch. *)
let op_of_kind base kind =
  let syn = Sketch.synopsis base in
  let cfg = Sketch.config base in
  let nodes = List.init (G.node_count syn) Fun.id in
  let candidates =
    match kind with
    | `B_stabilize ->
        List.filter_map
          (fun (e : G.edge) ->
            if e.b_stable then None
            else Some (Refinement.B_stabilize { src = e.src; dst = e.dst }))
          (G.edges syn)
    | `F_stabilize ->
        List.filter_map
          (fun (e : G.edge) ->
            if e.f_stable then None
            else Some (Refinement.F_stabilize { src = e.src; dst = e.dst }))
          (G.edges syn)
    | `Edge_refine ->
        List.filter_map
          (fun n ->
            if cfg.Sketch.especs.(n) = [] then None
            else Some (Refinement.Edge_refine { node = n; hist = 0; extra_buckets = 4 }))
          nodes
    | `Edge_expand ->
        List.concat_map
          (fun n ->
            List.map
              (fun (s, d) ->
                let kind = if s = n then Sketch.Forward else Sketch.Backward in
                Refinement.Edge_expand
                  { node = n; dim = { Sketch.src = s; dst = d; kind }; into = None })
              (Sketch.dim_edges_of_node base n))
          nodes
    | `Value_refine ->
        List.filter_map
          (fun n ->
            if Sketch.vhist base n = None then None
            else Some (Refinement.Value_refine { node = n; extra_buckets = 4 }))
          nodes
    | `Value_split ->
        List.map (fun n -> Refinement.Value_split { node = n; ways = 2 }) nodes
  in
  let changes op =
    let applied = Refinement.apply base op in
    if applied != base then Some (op, applied) else None
  in
  match List.find_map changes candidates with
  | Some r -> r
  | None -> Alcotest.failf "no effective op of the requested kind"

let kinds =
  [
    ("B_stabilize", `B_stabilize);
    ("F_stabilize", `F_stabilize);
    ("Edge_refine", `Edge_refine);
    ("Edge_expand", `Edge_expand);
    ("Value_refine", `Value_refine);
    ("Value_split", `Value_split);
  ]

(* 1. For every op kind: incremental result == from-scratch rebuild of
   the same (synopsis, config) — identical size and estimates. *)
let test_incremental_equals_scratch () =
  let base = Lazy.force base in
  let queries = Lazy.force queries in
  List.iter
    (fun (name, kind) ->
      let _op, applied = op_of_kind base kind in
      let scratch =
        Sketch.build (Sketch.synopsis applied) (Sketch.config applied)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: size" name)
        (Sketch.size_bytes scratch) (Sketch.size_bytes applied);
      List.iteri
        (fun i q ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s: estimate q%d" name i)
            (Est.estimate scratch q) (Est.estimate applied q))
        queries)
    kinds

(* 2. The incremental path really reuses: a non-structural refinement
   reuses histograms of the same synopsis, and a structural split
   reuses histograms across the split. *)
let test_counters_show_reuse () =
  let base = Lazy.force base in
  Counters.reset ();
  let _op, applied = op_of_kind base `Edge_refine in
  assert (applied != base);
  Alcotest.(check bool)
    "Edge_refine reuses same-synopsis histograms" true
    (Counters.get "sketch.ehists_reused" > 0);
  Counters.reset ();
  let _op, applied = op_of_kind base `F_stabilize in
  assert (applied != base);
  Alcotest.(check bool)
    "F_stabilize reuses histograms across the split" true
    (Counters.get "sketch.ehists_reused" > 0)

(* 3. Cached estimation is identical to uncached and actually hits. *)
let test_embed_cache_identical () =
  let base = Lazy.force base in
  let queries = Lazy.force queries in
  let cache = Embed.create_cache (Sketch.synopsis base) in
  Counters.reset ();
  List.iter
    (fun q ->
      let plain = Est.estimate base q in
      let c1 = Est.estimate ~cache base q in
      let c2 = Est.estimate ~cache base q in
      Alcotest.(check (float 0.0)) "cold cache estimate" plain c1;
      Alcotest.(check (float 0.0)) "warm cache estimate" plain c2)
    queries;
  Alcotest.(check bool)
    "cache hits recorded" true
    (Counters.get "embed.cache_hits" > 0);
  (* a frozen cache serves hits but swallows new insertions *)
  Embed.freeze cache;
  let fresh = Est.estimate ~cache base (List.hd queries) in
  Alcotest.(check (float 0.0))
    "frozen cache still correct" (Est.estimate base (List.hd queries)) fresh

(* ---------------- structural rebuild oracles ---------------- *)

module Doc = Xtwig_xml.Doc
module Sketch_io = Xtwig_sketch.Sketch_io

(* [syn] (from [split]) against [of_partition] of its own partition,
   accessor by accessor; [of_partition] numbers groups by first
   element, so equal ids mean [split] numbered them that way too *)
let check_split_equals_rederive syn =
  let fail fmt = Printf.ksprintf QCheck2.Test.fail_report fmt in
  let doc = G.doc syn in
  let ref_ = G.of_partition doc (Array.init (Doc.size doc) (G.node_of_elem syn)) in
  let n = G.node_count ref_ in
  if G.node_count syn <> n then fail "node_count";
  if G.edge_count syn <> G.edge_count ref_ then fail "edge_count";
  if G.root_node syn <> G.root_node ref_ then fail "root_node";
  if G.structure_bytes syn <> G.structure_bytes ref_ then fail "structure_bytes";
  if G.edges syn <> G.edges ref_ then fail "edges";
  for e = 0 to Doc.size doc - 1 do
    if G.node_of_elem syn e <> G.node_of_elem ref_ e then fail "node_of_elem %d" e;
    for z = 0 to n - 1 do
      if G.child_count syn e z <> G.child_count ref_ e z then fail "child_count %d %d" e z
    done
  done;
  for v = 0 to n - 1 do
    if G.extent syn v <> G.extent ref_ v then fail "extent %d" v;
    if G.extent_size syn v <> G.extent_size ref_ v then fail "extent_size %d" v;
    if G.node_tag syn v <> G.node_tag ref_ v then fail "node_tag %d" v;
    if G.tag_name syn v <> G.tag_name ref_ v then fail "tag_name %d" v;
    if G.out_edges syn v <> G.out_edges ref_ v then fail "out_edges %d" v;
    if G.in_edges syn v <> G.in_edges ref_ v then fail "in_edges %d" v;
    for w = 0 to n - 1 do
      if G.edge syn ~src:v ~dst:w <> G.edge ref_ ~src:v ~dst:w then fail "edge %d->%d" v w
    done
  done;
  for tag = 0 to Doc.tag_count doc - 1 do
    if G.nodes_with_tag syn tag <> G.nodes_with_tag ref_ tag then fail "nodes_with_tag %d" tag;
    let label = Doc.tag_to_string doc tag in
    if G.nodes_with_label syn label <> G.nodes_with_label ref_ label then
      fail "nodes_with_label %s" label
  done

(* Every structural op on the current sketch: b-stabilize on each edge
   that is not B-stable, f-stabilize on each that is not F-stable, and
   a value-split of every node with categorical values. *)
let structural_ops sk =
  let syn = Sketch.synopsis sk in
  List.concat_map
    (fun (e : G.edge) ->
      (if e.b_stable then [] else [ Refinement.B_stabilize { src = e.src; dst = e.dst } ])
      @ if e.f_stable then [] else [ Refinement.F_stabilize { src = e.src; dst = e.dst } ])
    (G.edges syn)
  @ List.filter_map
      (fun n ->
        if Sketch.vcat sk n = None then None
        else Some (Refinement.Value_split { node = n; ways = 1 + (n mod 4) }))
      (List.init (G.node_count syn) Fun.id)

(* Walks XBUILD-like refinement paths over tiny IMDB and XMark
   documents: each step checks a sample of the structural ops through
   [Refinement.apply] — the split against a re-derivation, the
   remapped configuration against the reference remap — then advances
   by one op that changed the sketch, structural or not, so later
   configurations carry expanded and remapped multi-dimensional
   specs. *)
let prop_structural_apply =
  QCheck2.Test.make ~name:"Refinement.apply: split == of_partition, config == reference"
    ~count:12
    QCheck2.Gen.(pair (0 -- 10_000) bool)
    (fun (seed, xmark) ->
      let doc =
        if xmark then Xtwig_datagen.Xmark.generate ~seed ~scale:0.005 ()
        else Xtwig_datagen.Imdb.generate ~seed ~scale:0.005 ()
      in
      let prng = Prng.create seed in
      let sk = ref (Sketch.coarsest ~ebudget:2 ~vbudget:4 (G.label_split doc)) in
      for _ = 1 to 8 do
        let sample = List.filter (fun _ -> Prng.int prng 3 = 0) (structural_ops !sk) in
        List.iter
          (fun op ->
            let applied = Refinement.apply !sk op in
            let syn = Sketch.synopsis !sk and syn' = Sketch.synopsis applied in
            if syn' != syn then begin
              check_split_equals_rederive syn';
              if
                Sketch.config applied
                <> Remap_reference.remap_config syn (Sketch.config !sk) syn'
              then QCheck2.Test.fail_reportf "config after %s" (Refinement.describe !sk op)
            end)
          sample;
        let ops = sample @ Refinement.gen_candidates !sk prng in
        match List.filter (fun op -> Refinement.apply !sk op != !sk) ops with
        | [] -> ()
        | moves -> sk := Refinement.apply !sk (Prng.pick_list prng moves)
      done;
      true)

(* A build across a split where every untouched node shares its extent
   with [prev] takes [node_map_of]'s [==] path; the same synopsis over
   deep-copied extents takes the elementwise one. Both must give the
   same bytes, changed nodes and reuse. *)
let test_shared_extents_equal_copied () =
  let base = Lazy.force base in
  let syn0 = Sketch.synopsis base in
  let doc = Lazy.force doc in
  List.iter
    (fun (name, kind) ->
      let _op, applied = op_of_kind base kind in
      let syn = Sketch.synopsis applied and cfg = Sketch.config applied in
      let copy = G.of_partition doc (Array.init (Doc.size doc) (G.node_of_elem syn)) in
      let shared = ref 0 in
      for v = 0 to G.node_count syn - 1 do
        for o = 0 to G.node_count syn0 - 1 do
          if G.extent copy v == G.extent syn0 o then
            Alcotest.failf "%s: the copy shares an extent" name;
          if G.extent syn v == G.extent syn0 o then incr shared
        done
      done;
      Alcotest.(check bool) (name ^ ": the split shares extents") true (!shared > 0);
      let build syn =
        let r0 = Counters.get "sketch.ehists_reused" in
        let sk = Sketch.build ~prev:base syn cfg in
        (sk, Counters.get "sketch.ehists_reused" - r0)
      in
      let a, reused_a = build syn in
      let b, reused_b = build copy in
      Alcotest.(check string) (name ^ ": bytes") (Sketch_io.to_string b)
        (Sketch_io.to_string a);
      Alcotest.(check (option (list int))) (name ^ ": changed nodes")
        (Sketch.changed_nodes b) (Sketch.changed_nodes a);
      Alcotest.(check int) (name ^ ": ehists reused") reused_b reused_a;
      Alcotest.(check bool) (name ^ ": something reused") true (reused_a > 0))
    [ ("B_stabilize", `B_stabilize); ("F_stabilize", `F_stabilize);
      ("Value_split", `Value_split) ]

let () =
  Alcotest.run "incremental"
    [
      ( "incremental-build",
        [
          Alcotest.test_case "incremental == scratch (all six op kinds)" `Slow
            test_incremental_equals_scratch;
          Alcotest.test_case "counters show reuse" `Quick
            test_counters_show_reuse;
          Alcotest.test_case "embed cache identical + hits" `Quick
            test_embed_cache_identical;
          Alcotest.test_case "shared extents == copied extents" `Quick
            test_shared_extents_equal_copied;
        ] );
      ( "structural-apply",
        List.map QCheck_alcotest.to_alcotest [ prop_structural_apply ] );
    ]
