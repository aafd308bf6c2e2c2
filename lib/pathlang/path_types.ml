type comparison = Lt | Le | Eq | Ne | Ge | Gt

type value_pred =
  | Cmp of comparison * Xtwig_xml.Value.t
  | Range of float * float

type axis = Child | Descendant

type step = {
  axis : axis;
  label : string;
  vpred : value_pred option;
  branches : path list;
}

and path = step list

type twig = { path : path; subs : twig list }

let step ?(axis = Child) ?vpred ?(branches = []) label =
  { axis; label; vpred; branches }

let twig path subs = { path; subs }

let rec twig_size t = 1 + List.fold_left (fun acc s -> acc + twig_size s) 0 t.subs

let twig_fanouts t =
  let rec go t acc =
    let acc = if t.subs = [] then acc else List.length t.subs :: acc in
    List.fold_left (fun acc s -> go s acc) acc t.subs
  in
  List.rev (go t [])

let twig_fold t ~init ~f =
  let rec go acc t = List.fold_left go (f acc t) t.subs in
  go init t

let rec path_has_value_pred p =
  List.exists
    (fun s -> s.vpred <> None || List.exists path_has_value_pred s.branches)
    p

let twig_has_value_pred t =
  twig_fold t ~init:false ~f:(fun acc n -> acc || path_has_value_pred n.path)

let twig_has_branches t =
  twig_fold t ~init:false ~f:(fun acc n ->
      acc || List.exists (fun s -> s.branches <> []) n.path)

let twig_labels t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      out := l :: !out
    end
  in
  let rec go_path p =
    List.iter
      (fun s ->
        add s.label;
        List.iter go_path s.branches)
      p
  in
  let rec go_twig t =
    go_path t.path;
    List.iter go_twig t.subs
  in
  go_twig t;
  List.rev !out

(* Exact identity: floats compare by their bits (so [-0.0] and [0.0]
   differ), strings by content. Printed text is not an identity:
   [%.6g] maps distinct range bounds to one string. *)
let equal_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal_vpred a b =
  match (a, b) with
  | Range (lo, hi), Range (lo', hi') -> equal_float lo lo' && equal_float hi hi'
  | Cmp (o, Xtwig_xml.Value.Float f), Cmp (o', Float f') -> o = o' && equal_float f f'
  | _ -> a = b

let rec equal_step a b =
  a.axis = b.axis
  && String.equal a.label b.label
  && Option.equal equal_vpred a.vpred b.vpred
  && List.equal (List.equal equal_step) a.branches b.branches

let rec equal_twig a b =
  a == b || (List.equal equal_step a.path b.path && List.equal equal_twig a.subs b.subs)

(* Every node enters the hash: the polymorphic [Hashtbl.hash] stops
   after ten meaningful words, which leaves twigs that differ only
   deep down (a range bound, a last label) colliding. *)
let mix h x = (h * 0x100000001b3) + x

let rec hash_path h p =
  List.fold_left
    (fun h s ->
      let h = mix (mix h (Hashtbl.hash s.label)) (Hashtbl.hash s.vpred) in
      let h = mix h (match s.axis with Child -> 1 | Descendant -> 2) in
      List.fold_left (fun h b -> mix (hash_path h b) 3) h s.branches)
    h p

let hash_twig t =
  let rec go h t = mix (List.fold_left go (hash_path (mix h 4) t.path) t.subs) 5 in
  Hashtbl.hash (go 0 t)

module Twig_tbl = Hashtbl.Make (struct
  type t = twig

  let equal = equal_twig
  let hash = hash_twig
end)
