module Doc = Xtwig_xml.Doc

type edge = {
  src : int;
  dst : int;
  count : int;
  src_with_child : int;
  b_stable : bool;
  f_stable : bool;
}

type t = {
  doc : Doc.t;
  node_of : int array;
  n_nodes : int;
  node_tag : int array;
  extents : int array array;
  out : edge list array;
  inc : edge list array;
  n_edges : int;
  by_tag : int list array; (* tag -> node ids *)
  root_node : int;
}

(* Edges are tallied one source node at a time over the children of
   its extent: count(u,v) is the number of v-children of u-elements,
   src_with_child(u,v) the number of u-elements with at least one.
   [tally doc node_of extents] returns the function from a source to
   its out-edges, ordered by destination; its scratch arrays are shared
   by the sources it is applied to ([stamp] remembers the last element
   counted for v; element ids are unique and each is scanned under one
   source only, so it never needs resetting). [derive] tallies every
   source, [split] only the sources its split can change. Each element
   has exactly one parent, so b_stable(u,v) <=> count = |v| and
   f_stable(u,v) <=> src_with_child = |u|. *)
let tally doc node_of extents =
  let n = Array.length extents in
  let cnt = Array.make n 0 and swc = Array.make n 0 in
  let stamp = Array.make n (-1) and touched = Array.make n 0 in
  fun u ->
    let nt = ref 0 in
    Array.iter
      (fun el ->
        let kids = Doc.children doc el in
        for i = 0 to Array.length kids - 1 do
          let v = node_of.(kids.(i)) in
          if cnt.(v) = 0 then begin
            touched.(!nt) <- v;
            Stdlib.incr nt
          end;
          cnt.(v) <- cnt.(v) + 1;
          if stamp.(v) <> el then begin
            stamp.(v) <- el;
            swc.(v) <- swc.(v) + 1
          end
        done)
      extents.(u);
    let dsts = Array.sub touched 0 !nt in
    Array.sort Int.compare dsts;
    let size_u = Array.length extents.(u) in
    let es = ref [] in
    for j = !nt - 1 downto 0 do
      let v = dsts.(j) in
      es :=
        {
          src = u;
          dst = v;
          count = cnt.(v);
          src_with_child = swc.(v);
          b_stable = cnt.(v) = Array.length extents.(v);
          f_stable = swc.(v) = size_u;
        }
        :: !es;
      cnt.(v) <- 0;
      swc.(v) <- 0
    done;
    !es

(* The record around a partition's extents and out-edge lists. The
   in-lists are consed over sources in decreasing id order, so they
   come out sorted by source. *)
let make doc node_of node_tag extents out =
  let n_nodes = Array.length extents in
  let inc = Array.make n_nodes [] in
  for u = n_nodes - 1 downto 0 do
    List.iter (fun e -> inc.(e.dst) <- e :: inc.(e.dst)) out.(u)
  done;
  let by_tag = Array.make (Doc.tag_count doc) [] in
  for v = n_nodes - 1 downto 0 do
    let t = node_tag.(v) in
    by_tag.(t) <- v :: by_tag.(t)
  done;
  {
    doc;
    node_of;
    n_nodes;
    node_tag;
    extents;
    out;
    inc;
    n_edges = Array.fold_left (fun n l -> n + List.length l) 0 out;
    by_tag;
    root_node = node_of.(Doc.root doc);
  }

let derive doc node_of =
  let n_elems = Doc.size doc in
  if Array.length node_of <> n_elems then
    invalid_arg "Graph_synopsis.of_partition: wrong array length";
  (* dense renumbering in order of first appearance; group ids from
     every in-repo producer ([label_split], [perfect],
     [Sketch.apply_delta]) are
     small non-negative ints, so an array-backed remap applies — the
     hashtable is only a fallback for exotic caller-supplied ids *)
  let n_nodes = ref 0 in
  let dense = Array.make n_elems 0 in
  let lo = ref max_int and hi = ref min_int in
  for e = 0 to n_elems - 1 do
    let g = node_of.(e) in
    if g < !lo then lo := g;
    if g > !hi then hi := g
  done;
  if !lo >= 0 && !hi <= (2 * n_elems) + 64 then begin
    let remap = Array.make (!hi + 1) (-1) in
    for e = 0 to n_elems - 1 do
      let g = node_of.(e) in
      let id =
        if remap.(g) >= 0 then remap.(g)
        else begin
          let id = !n_nodes in
          incr n_nodes;
          remap.(g) <- id;
          id
        end
      in
      dense.(e) <- id
    done
  end
  else begin
    let remap = Hashtbl.create 64 in
    for e = 0 to n_elems - 1 do
      let g = node_of.(e) in
      let id =
        match Hashtbl.find_opt remap g with
        | Some id -> id
        | None ->
            let id = !n_nodes in
            incr n_nodes;
            Hashtbl.add remap g id;
            id
      in
      dense.(e) <- id
    done
  end;
  let n_nodes = !n_nodes in
  let node_tag = Array.make n_nodes (-1) in
  let sizes = Array.make n_nodes 0 in
  for e = 0 to n_elems - 1 do
    let v = dense.(e) in
    let t = Doc.tag doc e in
    if node_tag.(v) = -1 then node_tag.(v) <- t
    else if node_tag.(v) <> t then
      invalid_arg "Graph_synopsis.of_partition: mixed tags in one node";
    sizes.(v) <- sizes.(v) + 1
  done;
  let extents = Array.map (fun s -> Array.make s 0) sizes in
  let fill = Array.make n_nodes 0 in
  for e = 0 to n_elems - 1 do
    let v = dense.(e) in
    extents.(v).(fill.(v)) <- e;
    fill.(v) <- fill.(v) + 1
  done;
  make doc dense node_tag extents (Array.init n_nodes (tally doc dense extents))

let of_partition doc node_of = derive doc node_of

let label_split doc =
  of_partition doc (Array.init (Doc.size doc) (fun e -> Doc.tag doc e))

let perfect doc = of_partition doc (Array.init (Doc.size doc) Fun.id)

let doc t = t.doc
let node_count t = t.n_nodes
let edge_count t = t.n_edges
let extent t v = t.extents.(v)
let extent_size t v = Array.length t.extents.(v)
let node_tag t v = t.node_tag.(v)
let tag_name t v = Doc.tag_to_string t.doc t.node_tag.(v)
let node_of_elem t e = t.node_of.(e)

let nodes_with_tag t tag =
  if tag >= 0 && tag < Array.length t.by_tag then t.by_tag.(tag) else []

let nodes_with_label t label =
  match Doc.tag_of_string t.doc label with
  | None -> []
  | Some tag -> nodes_with_tag t tag

let child_count t e z =
  let kids = Doc.children t.doc e in
  let n = ref 0 in
  for i = 0 to Array.length kids - 1 do
    if t.node_of.(kids.(i)) = z then Stdlib.incr n
  done;
  !n

let edge t ~src ~dst =
  let rec find = function
    | [] -> None
    | e :: rest ->
        if e.dst < dst then find rest else if e.dst = dst then Some e else None
  in
  find t.out.(src)

let out_edges t v = t.out.(v)
let in_edges t v = t.inc.(v)
let edges t = List.concat (Array.to_list t.out)
let root_node t = t.root_node

(* [derive] numbers nodes by their first element and a split keeps
   that order, so ids move by a rule instead of a re-derivation:
   - the group holding [node]'s first element keeps [node]'s id;
   - group [j >= 1] (groups in first-appearance order) takes id
     [l.(j) + j - 1], where [l.(j)] old nodes start before it;
   - an untouched node [v] moves up by the number of groups [j >= 1]
     with [l.(j) <= v].
   Untouched nodes keep their extent arrays (shared: [==] identifies
   them) and, ids shifted, the out-edges of every source without an
   edge into [node]; only the images and the sources of [node]'s
   in-edges are tallied again. *)
let split t ~node ~group_of =
  let ext = t.extents.(node) in
  (* the group of each extent element, groups numbered by first
     appearance, and each group's first element *)
  let keys = Hashtbl.create 8 in
  let gidx = Array.make (Array.length ext) 0 in
  let firsts = ref [] in
  Array.iteri
    (fun i e ->
      let g = group_of e in
      match Hashtbl.find_opt keys g with
      | Some j -> gidx.(i) <- j
      | None ->
          let j = Hashtbl.length keys in
          Hashtbl.add keys g j;
          gidx.(i) <- j;
          firsts := e :: !firsts)
    ext;
  let k = Hashtbl.length keys in
  if k <= 1 then t
  else begin
    let firsts = Array.of_list (List.rev !firsts) in
    let n = t.n_nodes in
    let n' = n + k - 1 in
    (* old nodes whose first element precedes [x]: extents are sorted
       and ids follow first elements, so a binary search finds them *)
    let before x =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.extents.(mid).(0) < x then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let l = Array.map before firsts in
    let gid = Array.mapi (fun j lj -> if j = 0 then node else lj + j - 1) l in
    let remap = Array.make n 0 in
    let j = ref 1 in
    for v = 0 to n - 1 do
      while !j < k && l.(!j) <= v do
        Stdlib.incr j
      done;
      remap.(v) <- v + !j - 1
    done;
    let n_elems = Array.length t.node_of in
    let node_of = Array.make n_elems 0 in
    for e = 0 to n_elems - 1 do
      Array.unsafe_set node_of e (Array.unsafe_get remap (Array.unsafe_get t.node_of e))
    done;
    Array.iteri (fun i e -> node_of.(e) <- gid.(gidx.(i))) ext;
    let sizes = Array.make k 0 in
    Array.iter (fun j -> sizes.(j) <- sizes.(j) + 1) gidx;
    let groups = Array.map (fun s -> Array.make s 0) sizes in
    let fill = Array.make k 0 in
    Array.iteri
      (fun i e ->
        let j = gidx.(i) in
        groups.(j).(fill.(j)) <- e;
        fill.(j) <- fill.(j) + 1)
      ext;
    let extents = Array.make n' [||] in
    let node_tag = Array.make n' t.node_tag.(node) in
    let old_of = Array.make n' (-1) in
    for v = 0 to n - 1 do
      if v <> node then begin
        let v' = remap.(v) in
        extents.(v') <- t.extents.(v);
        node_tag.(v') <- t.node_tag.(v);
        old_of.(v') <- v
      end
    done;
    Array.iteri (fun j g -> extents.(gid.(j)) <- g) groups;
    let dirty = Array.make n false in
    List.iter (fun e -> dirty.(e.src) <- true) t.inc.(node);
    let moved v = remap.(v) <> v in
    let tally = tally t.doc node_of extents in
    make t.doc node_of node_tag extents
      (Array.init n' (fun u' ->
           let u = old_of.(u') in
           if u < 0 || dirty.(u) then tally u'
           else if moved u || List.exists (fun e -> moved e.dst) t.out.(u) then
             List.map (fun e -> { e with src = u'; dst = remap.(e.dst) }) t.out.(u)
           else t.out.(u)))
  end

let b_stabilize_groups t e =
  match Doc.parent t.doc e with
  | None -> t.n_nodes (* reserved fresh key for the root *)
  | Some p -> t.node_of.(p)

let f_stabilize_groups t ~dst =
  fun e ->
    let kids = Doc.children t.doc e in
    let has =
      Array.exists (fun k -> t.node_of.(k) = dst) kids
    in
    if has then 0 else 1

let structure_bytes t = (8 * t.n_nodes) + (9 * edge_count t)

let pp_stats ppf t =
  Format.fprintf ppf "synopsis: %d nodes, %d edges over %d elements"
    t.n_nodes (edge_count t) (Doc.size t.doc)

let pp ppf t =
  pp_stats ppf t;
  Format.pp_print_newline ppf ();
  for v = 0 to t.n_nodes - 1 do
    Format.fprintf ppf "  node %d %s |%d|@." v (tag_name t v) (extent_size t v)
  done;
  List.iter
    (fun e ->
      Format.fprintf ppf "  edge %d->%d count=%d%s%s@." e.src e.dst e.count
        (if e.b_stable then " B" else "")
        (if e.f_stable then " F" else ""))
    (List.sort compare (edges t))
