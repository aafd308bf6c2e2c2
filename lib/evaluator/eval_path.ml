module P = Xtwig_path.Path_types
module Doc = Xtwig_xml.Doc
module Value = Xtwig_xml.Value

let value_pred_holds pred (v : Value.t) =
  match pred with
  | P.Range (lo, hi) -> (
      match Value.as_float v with
      | Some f -> lo <= f && f <= hi
      | None -> false)
  | P.Cmp (op, bound) -> (
      let test c =
        match op with
        | P.Lt -> c < 0
        | P.Le -> c <= 0
        | P.Eq -> c = 0
        | P.Ne -> c <> 0
        | P.Ge -> c >= 0
        | P.Gt -> c > 0
      in
      match (Value.as_float v, Value.as_float bound) with
      | Some a, Some b -> test (Float.compare a b)
      | _ -> (
          match (v, bound) with
          | Text a, Text b -> test (String.compare a b)
          | _ -> false))

(* A path compiled against one document. Labels are resolved to
   interned tag codes once, at compile time, so matching compares ints;
   candidates for root-anchored descendant steps come from the
   document's tag index. Matches are folded over in
   document order without building lists.

   Results of one step from one context are distinct, and child steps
   from distinct contexts yield distinct nodes, so a step's results can
   only repeat when it is a descendant step after the first (nested
   contexts share descendants). Only those steps carry a dedupe table;
   a node already expanded at such a step has had all its results
   visited, so skipping it yields exactly the first-occurrence order of
   the full expansion. *)
type cstep = {
  axis : P.axis;
  code : Doc.tag;  (** -1: the label does not occur in the document *)
  vpred : P.value_pred option;
  branches : compiled array;
  dedupe : bool;
  bare : bool;  (** no value or branching predicate to check *)
}

and compiled = {
  doc : Doc.t;
  steps : cstep array;
  any_dedupe : bool;
}

let rec compile doc p =
  let steps =
    Array.of_list
      (List.mapi
         (fun i (s : P.step) ->
           {
             axis = s.axis;
             code = Option.value ~default:(-1) (Doc.tag_of_string doc s.label);
             vpred = s.vpred;
             branches = Array.of_list (List.map (compile doc) s.branches);
             dedupe = i > 0 && s.axis = P.Descendant;
             bare = s.vpred = None && s.branches = [];
           })
         p)
  in
  { doc; steps; any_dedupe = Array.exists (fun s -> s.dedupe) steps }

(* value- and branching-predicate checks for a node whose label is
   already known to match *)
let rec residual doc s k =
  (match s.vpred with
  | None -> true
  | Some p -> value_pred_holds p (Doc.value doc k))
  && branches_hold s.branches k 0

and branches_hold bs k i =
  i = Array.length bs || (exists_at bs.(i) 0 k && branches_hold bs k (i + 1))

(* some match of steps [i..] from context [ctx] (-1: the virtual root
   above the document root); stops at the first full match *)
and exists_at c i ctx =
  i = Array.length c.steps
  ||
  let s = c.steps.(i) in
  s.code >= 0
  &&
  match s.axis with
  | P.Child ->
      if ctx < 0 then hit c i s (Doc.root c.doc)
      else any_of c i s (Doc.children c.doc ctx) 0
  | P.Descendant ->
      if ctx < 0 then any_of c i s (Doc.nodes_with_tag c.doc s.code) 0
      else any_below c i s ctx

and hit c i s k =
  Doc.tag c.doc k = s.code && residual c.doc s k && exists_at c (i + 1) k

and any_of c i s ks j =
  j < Array.length ks && (hit c i s ks.(j) || any_of c i s ks (j + 1))

and any_below c i s n =
  let kids = Doc.children c.doc n in
  any_below_from c i s kids 0

and any_below_from c i s kids j =
  j < Array.length kids
  && (hit c i s kids.(j) || any_below c i s kids.(j) || any_below_from c i s kids (j + 1))

(* shared by the steps that never dedupe; never written *)
let no_table : (Doc.node, unit) Hashtbl.t = Hashtbl.create 1

(* Fold [f x] over the matches of steps [i..] from context [ctx] (-1:
   the virtual root), each match once, in document order. The
   traversal is a group of top-level functions threading its state as
   arguments and loops over sibling arrays (their accumulator refs do
   not escape, so none is allocated): a fold allocates nothing but its
   dedupe tables. *)
let rec fold_at c seen f x i ctx acc =
  let s = c.steps.(i) in
  let code = s.code in
  if code < 0 then acc
  else
    match s.axis with
    | P.Child ->
        if ctx < 0 then
          let r = Doc.root c.doc in
          if Doc.tag c.doc r = code then visit c seen f x i s r acc else acc
        else fold_kids c seen f x i s (Doc.children c.doc ctx) acc
    | P.Descendant ->
        if ctx < 0 then fold_tagged c seen f x i s (Doc.nodes_with_tag c.doc code) acc
        else fold_below c seen f x i s (Doc.children c.doc ctx) acc

and fold_kids c seen f x i s kids acc =
  let acc = ref acc in
  for j = 0 to Array.length kids - 1 do
    let k = kids.(j) in
    if Doc.tag c.doc k = s.code then acc := visit c seen f x i s k !acc
  done;
  !acc

and fold_tagged c seen f x i s ks acc =
  let acc = ref acc in
  for j = 0 to Array.length ks - 1 do
    acc := visit c seen f x i s ks.(j) !acc
  done;
  !acc

(* pre-order over the subtrees rooted at [kids] *)
and fold_below c seen f x i s kids acc =
  let acc = ref acc in
  for j = 0 to Array.length kids - 1 do
    let k = kids.(j) in
    if Doc.tag c.doc k = s.code then acc := visit c seen f x i s k !acc;
    acc := fold_below c seen f x i s (Doc.children c.doc k) !acc
  done;
  !acc

(* [k] carries step [i]'s label *)
and visit c seen f x i s k acc =
  if s.dedupe && Hashtbl.mem seen.(i) k then acc
  else begin
    if s.dedupe then Hashtbl.add seen.(i) k ();
    if not (s.bare || residual c.doc s k) then acc
    else if i = Array.length c.steps - 1 then f x acc k
    else fold_at c seen f x (i + 1) k acc
  end

let fold c from f x acc =
  if Array.length c.steps = 0 then
    match from with Some n -> f x acc n | None -> acc
  else
    let seen =
      if c.any_dedupe then
        Array.map (fun s -> if s.dedupe then Hashtbl.create 16 else no_table) c.steps
      else [||]
    in
    fold_at c seen f x 0 (Option.value from ~default:(-1)) acc

let iter_from c from g = fold c from (fun g () k -> g k) g ()

let count_from c from = fold c from (fun () n _ -> n + 1) () 0

let eval doc ~from p =
  let acc = ref [] in
  iter_from (compile doc p) from (fun k -> acc := k :: !acc);
  List.rev !acc

let count doc ~from p = count_from (compile doc p) from
let exists doc ~from p = exists_at (compile doc p) 0 from
