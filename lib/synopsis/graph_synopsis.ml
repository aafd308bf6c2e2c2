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

let derive doc node_of =
  let n_elems = Doc.size doc in
  if Array.length node_of <> n_elems then
    invalid_arg "Graph_synopsis.of_partition: wrong array length";
  (* dense renumbering in order of first appearance; group ids from
     every in-repo producer ([label_split], [perfect], [split]) are
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
  (* Edges are tallied one source node at a time over the children of
     its extent: count(u,v) is the number of v-children of u-elements,
     src_with_child(u,v) the number of u-elements with at least one
     ([stamp] remembers the last element counted for v; element ids
     are unique, so it never needs resetting). This runs once per
     split candidate in XBUILD, so it allocates little beyond the
     edges themselves. Sources go in decreasing id order and
     destinations in decreasing id order within a source, so the
     consed lists come out sorted. *)
  let cnt = Array.make n_nodes 0 in
  let swc = Array.make n_nodes 0 in
  let stamp = Array.make n_nodes (-1) in
  let touched = Array.make n_nodes 0 in
  let out = Array.make n_nodes [] in
  let inc = Array.make n_nodes [] in
  let n_edges = ref 0 in
  for u = n_nodes - 1 downto 0 do
    let nt = ref 0 in
    Array.iter
      (fun el ->
        let kids = Doc.children doc el in
        for i = 0 to Array.length kids - 1 do
          let v = dense.(kids.(i)) in
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
    n_edges := !n_edges + !nt;
    (* count(u,v) = number of v-elements whose parent is in u (each
       element has exactly one parent); b_stable(u,v) <=> count = |v|,
       f_stable(u,v) <=> src_with_child = |u| *)
    for j = !nt - 1 downto 0 do
      let v = dsts.(j) in
      let e =
        {
          src = u;
          dst = v;
          count = cnt.(v);
          src_with_child = swc.(v);
          b_stable = cnt.(v) = sizes.(v);
          f_stable = swc.(v) = sizes.(u);
        }
      in
      cnt.(v) <- 0;
      swc.(v) <- 0;
      out.(u) <- e :: out.(u);
      inc.(v) <- e :: inc.(v)
    done
  done;
  let by_tag = Array.make (Doc.tag_count doc) [] in
  for v = n_nodes - 1 downto 0 do
    let t = node_tag.(v) in
    by_tag.(t) <- v :: by_tag.(t)
  done;
  {
    doc;
    node_of = dense;
    n_nodes;
    node_tag;
    extents;
    out;
    inc;
    n_edges = !n_edges;
    by_tag;
    root_node = dense.(Doc.root doc);
  }

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

let split t ~node ~group_of =
  let ext = t.extents.(node) in
  (* how many distinct groups? *)
  let groups = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      let g = group_of e in
      if not (Hashtbl.mem groups g) then Hashtbl.add groups g ())
    ext;
  if Hashtbl.length groups <= 1 then t
  else begin
    let node_of = Array.copy t.node_of in
    (* the first group keeps [node]'s id and the others take fresh ids
       beyond n_nodes; [derive] then renumbers every node by first
       appearance, so no id is stable across a split (a sketch maps
       its nodes through their extents, see [Sketch.node_map_of]) *)
    let fresh = ref t.n_nodes in
    let assign = Hashtbl.create 8 in
    Array.iter
      (fun e ->
        let g = group_of e in
        let id =
          match Hashtbl.find_opt assign g with
          | Some id -> id
          | None ->
              let id = if Hashtbl.length assign = 0 then node else !fresh in
              if id <> node then incr fresh;
              Hashtbl.add assign g id;
              id
        in
        node_of.(e) <- id)
      ext;
    derive t.doc node_of
  end

let b_stabilize_groups t ~dst =
  ignore dst;
  fun e ->
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

let stabilize_fixpoint ?(max_rounds = 100) t =
  let rec round t k =
    if k = 0 then t
    else
      let unstable =
        List.find_opt (fun e -> not (e.b_stable && e.f_stable)) (edges t)
      in
      match unstable with
      | None -> t
      | Some e ->
          let t' =
            if not e.b_stable then
              split t ~node:e.dst ~group_of:(b_stabilize_groups t ~dst:e.dst)
            else split t ~node:e.src ~group_of:(f_stabilize_groups t ~dst:e.dst)
          in
          if t' == t then
            (* the split was a no-op (cannot happen for a genuinely
               unstable edge, but guard against looping) *)
            t
          else round t' (k - 1)
  in
  round t max_rounds

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
