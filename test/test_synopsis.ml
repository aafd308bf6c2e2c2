module G = Xtwig_synopsis.Graph_synopsis
module Tsn = Xtwig_synopsis.Tsn
module Doc = Xtwig_xml.Doc
module Fx = Xtwig_fixtures.Fixtures

let bib = Fx.bibliography ()

let node_named syn label =
  match G.nodes_with_label syn label with
  | [ n ] -> n
  | l -> Alcotest.failf "expected one %s node, got %d" label (List.length l)

(* ---------------- label split ---------------- *)

let test_label_split_counts () =
  let syn = G.label_split bib in
  Alcotest.(check int) "one node per tag" (Doc.tag_count bib) (G.node_count syn);
  Alcotest.(check int) "author extent" 3 (G.extent_size syn (node_named syn "author"));
  Alcotest.(check int) "paper extent" 4 (G.extent_size syn (node_named syn "paper"));
  Alcotest.(check int) "keyword extent" 6 (G.extent_size syn (node_named syn "keyword"))

let test_extent_partition () =
  let syn = G.label_split bib in
  let total = ref 0 in
  for n = 0 to G.node_count syn - 1 do
    total := !total + G.extent_size syn n;
    Array.iter
      (fun e ->
        Alcotest.(check int) "node_of matches extent" n (G.node_of_elem syn e);
        Alcotest.(check string) "uniform tag" (G.tag_name syn n) (Doc.tag_name bib e))
      (G.extent syn n)
  done;
  Alcotest.(check int) "extents partition the document" (Doc.size bib) !total

let test_root_node () =
  let syn = G.label_split bib in
  Alcotest.(check string) "root node tag" "bibliography"
    (G.tag_name syn (G.root_node syn))

(* ---------------- edges and stability ---------------- *)

let test_edges () =
  let syn = G.label_split bib in
  let a = node_named syn "author" and p = node_named syn "paper" in
  (match G.edge syn ~src:a ~dst:p with
  | Some e ->
      Alcotest.(check int) "4 paper edges" 4 e.count;
      Alcotest.(check bool) "A->P backward stable (every paper under author)" true
        e.b_stable;
      Alcotest.(check bool) "A->P forward stable (every author has a paper)" true
        e.f_stable
  | None -> Alcotest.fail "author->paper edge missing");
  Alcotest.(check (option bool)) "no keyword->author edge" None
    (Option.map (fun _ -> true) (G.edge syn ~src:(node_named syn "keyword") ~dst:a))

let test_fstability_book () =
  let syn = G.label_split bib in
  let a = node_named syn "author" and b = node_named syn "book" in
  match G.edge syn ~src:a ~dst:b with
  | Some e ->
      Alcotest.(check bool) "A->B not F-stable (only a1 has a book)" false e.f_stable;
      Alcotest.(check bool) "A->B backward stable" true e.b_stable;
      Alcotest.(check int) "one book" 1 e.count
  | None -> Alcotest.fail "author->book edge missing"

let test_bstability_title () =
  (* titles live under both paper and book: neither incoming edge is
     B-stable *)
  let syn = G.label_split bib in
  let t = node_named syn "title" in
  let incoming = G.in_edges syn t in
  Alcotest.(check int) "two incoming edges" 2 (List.length incoming);
  List.iter
    (fun (e : G.edge) ->
      Alcotest.(check bool) "title not B-stable" false e.b_stable)
    incoming

let test_src_with_child () =
  let syn = G.label_split bib in
  let a = node_named syn "author" and p = node_named syn "paper" in
  match G.edge syn ~src:a ~dst:p with
  | Some e -> Alcotest.(check int) "3 authors have papers" 3 e.src_with_child
  | None -> Alcotest.fail "edge missing"

let test_perfect_synopsis () =
  let syn = G.perfect bib in
  Alcotest.(check int) "one node per element" (Doc.size bib) (G.node_count syn);
  (* every edge of a perfect synopsis of a tree is trivially stable *)
  List.iter
    (fun (e : G.edge) ->
      Alcotest.(check bool) "b-stable" true e.b_stable;
      Alcotest.(check bool) "f-stable" true e.f_stable;
      Alcotest.(check int) "count 1" 1 e.count)
    (G.edges syn)

(* ---------------- splits ---------------- *)

let test_split_by_parent () =
  let syn = G.label_split bib in
  let t = node_named syn "title" in
  let syn' = G.split syn ~node:t ~group_of:(G.b_stabilize_groups syn) in
  (* title splits into paper-titles and book-titles *)
  Alcotest.(check int) "one extra node" (G.node_count syn + 1) (G.node_count syn');
  let titles = G.nodes_with_label syn' "title" in
  Alcotest.(check int) "two title nodes" 2 (List.length titles);
  List.iter
    (fun tn ->
      List.iter
        (fun (e : G.edge) ->
          Alcotest.(check bool) "incoming edges now B-stable" true e.b_stable)
        (G.in_edges syn' tn))
    titles

let test_split_noop () =
  let syn = G.label_split bib in
  let p = node_named syn "paper" in
  (* papers all share the author parent: b-stabilize grouping is a no-op *)
  let syn' = G.split syn ~node:p ~group_of:(G.b_stabilize_groups syn) in
  Alcotest.(check bool) "physically unchanged" true (syn' == syn)

let test_split_f_stabilize () =
  let syn = G.label_split bib in
  let a = node_named syn "author" and b = node_named syn "book" in
  let syn' = G.split syn ~node:a ~group_of:(G.f_stabilize_groups syn ~dst:b) in
  let authors = G.nodes_with_label syn' "author" in
  Alcotest.(check int) "authors split in two" 2 (List.length authors);
  let with_book =
    List.filter
      (fun n ->
        match G.nodes_with_label syn' "book" with
        | [ bn ] -> G.edge syn' ~src:n ~dst:bn <> None
        | _ -> false)
      authors
  in
  (match with_book with
  | [ n ] -> (
      Alcotest.(check int) "1 author with book" 1 (G.extent_size syn' n);
      let bn = List.hd (G.nodes_with_label syn' "book") in
      match G.edge syn' ~src:n ~dst:bn with
      | Some e -> Alcotest.(check bool) "edge now F-stable" true e.f_stable
      | None -> Alcotest.fail "edge vanished")
  | _ -> Alcotest.fail "expected exactly one author node with book edge");
  (* document partition is preserved *)
  let total = ref 0 in
  for n = 0 to G.node_count syn' - 1 do
    total := !total + G.extent_size syn' n
  done;
  Alcotest.(check int) "still a partition" (Doc.size bib) !total

let test_of_partition_validation () =
  Alcotest.(check bool) "mixed tags rejected" true
    (match G.of_partition bib (Array.make (Doc.size bib) 0) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "wrong length rejected" true
    (match G.of_partition bib [| 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------- TSN ---------------- *)

let test_b_stable_ancestors () =
  let syn = G.label_split bib in
  let k = node_named syn "keyword" in
  let chain = Tsn.b_stable_ancestors syn k in
  let names = List.map (G.tag_name syn) chain in
  Alcotest.(check (list string)) "keyword chain"
    [ "keyword"; "paper"; "author"; "bibliography" ]
    names

let test_b_stable_ancestors_break () =
  let syn = G.label_split bib in
  let t = node_named syn "title" in
  let names = List.map (G.tag_name syn) (Tsn.b_stable_ancestors syn t) in
  (* title has no B-stable incoming edge: the chain stops at itself *)
  Alcotest.(check (list string)) "title chain" [ "title" ] names

let test_scope_edges () =
  let syn = G.label_split bib in
  let p = node_named syn "paper" in
  let scope = Tsn.scope_edges syn p in
  let name (u, v) = (G.tag_name syn u, G.tag_name syn v) in
  let names = List.map name scope in
  (* F-stable out-edges of paper: title, year, keyword; of author: name,
     paper; of bibliography: author. Book is not F-stable. *)
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "scope has %s->%s" (fst expected) (snd expected))
        true (List.mem expected names))
    [
      ("paper", "title"); ("paper", "year"); ("paper", "keyword");
      ("author", "name"); ("author", "paper"); ("bibliography", "author");
    ];
  Alcotest.(check bool) "book not in scope" false (List.mem ("author", "book") names)

let test_eligible () =
  let syn = G.label_split bib in
  let p = node_named syn "paper" in
  let a = node_named syn "author" in
  let k = node_named syn "keyword" in
  let b = node_named syn "book" in
  Alcotest.(check bool) "own F-stable edge" true (Tsn.eligible syn p ~src:p ~dst:k);
  Alcotest.(check bool) "ancestor edge" true (Tsn.eligible syn p ~src:a ~dst:p);
  Alcotest.(check bool) "unstable edge refused" false (Tsn.eligible syn p ~src:a ~dst:b)

let test_tsn_nodes_dedup () =
  let syn = G.label_split bib in
  let p = node_named syn "paper" in
  let nodes = Tsn.nodes syn p in
  Alcotest.(check int) "no duplicates" (List.length nodes)
    (List.length (List.sort_uniq compare nodes))

(* ---------------- structure bytes ---------------- *)

let test_structure_bytes () =
  let syn = G.label_split bib in
  Alcotest.(check int) "8/node + 9/edge"
    ((8 * G.node_count syn) + (9 * G.edge_count syn))
    (G.structure_bytes syn)

(* property: on random documents, stability flags match their definition *)
let prop_stability_definition =
  QCheck2.Test.make ~name:"stability flags match definitions" ~count:60
    QCheck2.Gen.(0 -- 10_000)
    (fun seed ->
      let doc = Xtwig_datagen.Imdb.generate ~seed ~scale:0.002 () in
      let syn = G.label_split doc in
      List.for_all
        (fun (e : G.edge) ->
          let b_def =
            Array.for_all
              (fun el ->
                match Doc.parent doc el with
                | Some p -> G.node_of_elem syn p = e.src
                | None -> false)
              (G.extent syn e.dst)
          in
          let f_def =
            Array.for_all
              (fun el ->
                Array.exists
                  (fun k -> G.node_of_elem syn k = e.dst)
                  (Doc.children doc el))
              (G.extent syn e.src)
          in
          e.b_stable = b_def && e.f_stable = f_def)
        (G.edges syn))

let prop_split_preserves_partition =
  QCheck2.Test.make ~name:"split preserves element partition" ~count:40
    QCheck2.Gen.(pair (0 -- 1000) (0 -- 5))
    (fun (seed, node_pick) ->
      let doc = Xtwig_datagen.Sprot.generate ~seed ~scale:0.01 () in
      let syn = G.label_split doc in
      let n = node_pick mod G.node_count syn in
      let syn' = G.split syn ~node:n ~group_of:(fun e -> e mod 2) in
      let total = ref 0 in
      for v = 0 to G.node_count syn' - 1 do
        total := !total + G.extent_size syn' v
      done;
      !total = Doc.size doc)

(* ---------------- brute-force oracle ---------------- *)

module Sketch = Xtwig_sketch.Sketch
module Sparse_dist = Xtwig_hist.Sparse_dist

(* A partition as an element -> node array, numbered densely by first
   appearance in document order. *)
let canon keys =
  let ids = Hashtbl.create 16 in
  Array.map
    (fun k ->
      match Hashtbl.find_opt ids k with
      | Some i -> i
      | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids k i;
          i)
    keys

let model_split part ~node ~group_of =
  canon (Array.mapi (fun e v -> if v = node then (v, group_of e) else (v, -1)) part)

let node_total part = Array.fold_left max (-1) part + 1
let elems part v =
  List.filter (fun e -> part.(e) = v) (List.init (Array.length part) Fun.id)

(* children of [e] in node [v] *)
let kids_in doc part e v =
  Array.fold_left (fun n k -> if part.(k) = v then n + 1 else n) 0 (Doc.children doc e)

let parent_in doc part e u =
  match Doc.parent doc e with Some p -> part.(p) = u | None -> false

(* Every synopsis edge from the definitions, in (src, dst) order. *)
let model_edges doc part =
  let nodes = List.init (node_total part) Fun.id in
  List.concat_map
    (fun u ->
      List.filter_map
        (fun v ->
          let us = elems part u in
          let with_child = List.filter (fun e -> kids_in doc part e v > 0) us in
          match List.fold_left (fun n e -> n + kids_in doc part e v) 0 us with
          | 0 -> None
          | count ->
              Some
                {
                  G.src = u;
                  dst = v;
                  count;
                  src_with_child = List.length with_child;
                  b_stable =
                    List.for_all (fun e -> parent_in doc part e u) (elems part v);
                  f_stable = List.length with_child = List.length us;
                })
        nodes)
    nodes

let check_against_model doc part syn =
  let fail fmt = Printf.ksprintf QCheck2.Test.fail_report fmt in
  let n_nodes = node_total part in
  if G.node_count syn <> n_nodes then
    fail "node_count %d, not %d" (G.node_count syn) n_nodes;
  Array.iteri
    (fun e v -> if G.node_of_elem syn e <> v then fail "element %d not in node %d" e v)
    part;
  for v = 0 to n_nodes - 1 do
    let ext = Array.of_list (elems part v) in
    if G.extent syn v <> ext then fail "extent of node %d" v;
    if G.node_tag syn v <> Doc.tag doc ext.(0) then fail "tag of node %d" v
  done;
  if G.root_node syn <> part.(Doc.root doc) then fail "root node";
  let es = model_edges doc part in
  if G.edges syn <> es then fail "edges (fields or (src, dst) order)";
  if G.edge_count syn <> List.length es then fail "edge_count";
  for u = 0 to n_nodes - 1 do
    if G.out_edges syn u <> List.filter (fun (e : G.edge) -> e.src = u) es then
      fail "out_edges of %d" u;
    (* [es] is in (src, dst) order, so the filter keeps sources sorted *)
    if G.in_edges syn u <> List.filter (fun (e : G.edge) -> e.dst = u) es then
      fail "in_edges of %d" u;
    for v = 0 to n_nodes - 1 do
      let expected = List.find_opt (fun (e : G.edge) -> e.src = u && e.dst = v) es in
      if G.edge syn ~src:u ~dst:v <> expected then fail "edge %d->%d" u v
    done
  done;
  Array.iteri
    (fun e _ ->
      for z = 0 to n_nodes - 1 do
        if G.child_count syn e z <> kids_in doc part e z then
          fail "child_count %d %d" e z
      done)
    part

(* The distribution of [n] over [dims] from the definitions: a forward
   dimension counts the element's children in [dst], a backward one the
   children in [dst] of its nearest ancestor-or-self in [src]. *)
let model_distribution doc part n (dims : Sketch.dim array) =
  let rec anc e a =
    if part.(e) = a then Some e
    else match Doc.parent doc e with Some p -> anc p a | None -> None
  in
  let count e (d : Sketch.dim) =
    match (d.kind, anc e d.src) with
    | Sketch.Forward, _ -> kids_in doc part e d.dst
    | Sketch.Backward, Some a -> kids_in doc part a d.dst
    | Sketch.Backward, None -> 0
  in
  Sparse_dist.of_vectors ~dims:(Array.length dims)
    (List.map (fun e -> Array.map (count e) dims) (elems part n))

(* Backward dimensions over every edge not leaving [n], alone and
   paired with each of [n]'s forward dimensions. *)
let check_distributions doc part syn =
  let sk = Sketch.coarsest syn in
  let points d = List.sort compare (Sparse_dist.points d) in
  for n = 0 to G.node_count syn - 1 do
    let backward =
      List.filter_map
        (fun (e : G.edge) ->
          if e.src = n then None
          else Some { Sketch.src = e.src; dst = e.dst; kind = Backward })
        (G.edges syn)
    in
    let forward =
      List.map
        (fun (e : G.edge) -> { Sketch.src = n; dst = e.dst; kind = Forward })
        (G.out_edges syn n)
    in
    let dim_sets =
      List.concat_map
        (fun b -> [| b |] :: List.map (fun f -> [| f; b |]) forward)
        backward
    in
    List.iter
      (fun dims ->
        let got = Sketch.distribution sk n dims in
        if points got <> points (model_distribution doc part n dims) then
          QCheck2.Test.fail_reportf "distribution of node %d" n)
      dim_sets
  done

(* The starting synopsis: the label split, or [of_partition] over
   seeded keys that keep tags apart, either small (renumbered through
   an array) or negative (renumbered through the hashtable fallback). *)
let initial doc = function
  | None -> (G.label_split doc, canon (Array.init (Doc.size doc) (Doc.tag doc)))
  | Some (seed, exotic) ->
      let keys =
        Array.init (Doc.size doc) (fun e ->
            let k = (4 * Doc.tag doc e) + (Hashtbl.hash (seed, e) mod 4) in
            if exotic then -1 - (k * 1_000_003) else k)
      in
      (G.of_partition doc keys, canon keys)

(* A split of node [pick mod node_count] by a seeded hash into [k]
   groups. *)
let split_gen = QCheck2.Gen.(triple small_nat small_nat (1 -- 3))

(* What [split] shares with its input: the group holding [node]'s first
   element keeps [node]'s id, every other old node moves up by the
   number of new groups whose first element precedes its own, and keeps
   its extent array physically. [part'] is the refined partition. *)
let check_shared syn syn' part' ~node =
  let fail fmt = Printf.ksprintf QCheck2.Test.fail_report fmt in
  let first v = (G.extent syn v).(0) in
  (* the first element of each new group but [node]'s first one *)
  let seen = Hashtbl.create 8 in
  let new_firsts =
    List.filter
      (fun e ->
        let v' = part'.(e) in
        let fresh = not (Hashtbl.mem seen v') in
        Hashtbl.replace seen v' ();
        fresh && e <> first node)
      (Array.to_list (G.extent syn node))
  in
  if syn' == syn then begin
    if new_firsts <> [] then fail "a real split returned its input"
  end
  else begin
    if G.node_of_elem syn' (first node) <> node then
      fail "the first group of node %d moved" node;
    for v = 0 to G.node_count syn - 1 do
      if v <> node then begin
        let v' = v + List.length (List.filter (fun e -> e < first v) new_firsts) in
        if G.node_of_elem syn' (first v) <> v' then
          fail "node %d moved to %d, not %d" v (G.node_of_elem syn' (first v)) v';
        if G.extent syn' v' != G.extent syn v then
          fail "node %d's extent is not shared" v
      end
    done
  end

let prop_synopsis_oracle =
  QCheck2.Test.make ~name:"of_partition/split match the definitions" ~count:200
    QCheck2.Gen.(
      triple
        (oneof [ Xtwig_testgen.Testgen.doc; Xtwig_testgen.Testgen.deep_doc ])
        (opt (pair small_nat bool))
        (list_size (0 -- 6) split_gen))
    (fun (doc, init, splits) ->
      let syn, part = initial doc init in
      check_against_model doc part syn;
      let syn, part =
        List.fold_left
          (fun (syn, part) (pick, seed, k) ->
            let node = pick mod G.node_count syn in
            let group_of e = Hashtbl.hash (seed, e) mod k in
            let syn' = G.split syn ~node ~group_of in
            let part = model_split part ~node ~group_of in
            check_against_model doc part syn';
            check_shared syn syn' part ~node;
            (syn', part))
          (syn, part) splits
      in
      check_distributions doc part syn;
      true)

(* Elements of [x] whose nearest [a]-ancestor changes between
   consecutive extent elements, including from an outer [a] to one
   nested inside it, where the outer one is still an ancestor: every
   change must recount. *)
let test_backward_nested () =
  let b = Doc.Builder.create () in
  let r = Doc.Builder.root b "r" in
  let a1 = Doc.Builder.child b r "a" in
  ignore (Doc.Builder.child b a1 "x");
  let a3 = Doc.Builder.child b a1 "a" in
  for _ = 1 to 3 do
    ignore (Doc.Builder.child b a3 "x")
  done;
  ignore (Doc.Builder.child b a1 "x");
  let a2 = Doc.Builder.child b r "a" in
  ignore (Doc.Builder.child b a2 "x");
  let doc = Doc.Builder.finish b in
  let syn = G.label_split doc in
  let a = node_named syn "a" and x = node_named syn "x" in
  let dim = { Sketch.src = a; dst = x; kind = Backward } in
  let d = Sketch.distribution (Sketch.coarsest syn) x [| dim |] in
  Alcotest.(check (list (pair (array int) int)))
    "x-children of each x's nearest a" [ ([| 1 |], 1); ([| 2 |], 2); ([| 3 |], 3) ]
    (List.sort compare (Sparse_dist.points d))

let () =
  Alcotest.run "synopsis"
    [
      ( "label-split",
        [
          Alcotest.test_case "node counts" `Quick test_label_split_counts;
          Alcotest.test_case "extents partition" `Quick test_extent_partition;
          Alcotest.test_case "root node" `Quick test_root_node;
        ] );
      ( "stability",
        [
          Alcotest.test_case "edges" `Quick test_edges;
          Alcotest.test_case "F-stability" `Quick test_fstability_book;
          Alcotest.test_case "B-stability" `Quick test_bstability_title;
          Alcotest.test_case "src_with_child" `Quick test_src_with_child;
          Alcotest.test_case "perfect synopsis" `Quick test_perfect_synopsis;
        ] );
      ( "split",
        [
          Alcotest.test_case "b-stabilize split" `Quick test_split_by_parent;
          Alcotest.test_case "no-op split" `Quick test_split_noop;
          Alcotest.test_case "f-stabilize split" `Quick test_split_f_stabilize;
          Alcotest.test_case "partition validation" `Quick test_of_partition_validation;
        ] );
      ( "tsn",
        [
          Alcotest.test_case "b-stable ancestors" `Quick test_b_stable_ancestors;
          Alcotest.test_case "broken chain" `Quick test_b_stable_ancestors_break;
          Alcotest.test_case "scope edges" `Quick test_scope_edges;
          Alcotest.test_case "eligibility" `Quick test_eligible;
          Alcotest.test_case "nodes dedup" `Quick test_tsn_nodes_dedup;
        ] );
      ( "size",
        [ Alcotest.test_case "structure bytes" `Quick test_structure_bytes ] );
      ( "oracle",
        [
          Alcotest.test_case "backward counts in nested nodes" `Quick
            test_backward_nested;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_stability_definition;
            prop_split_preserves_partition;
            prop_synopsis_oracle;
          ] );
    ]
