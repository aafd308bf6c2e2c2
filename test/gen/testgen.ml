module Doc = Xtwig_xml.Doc
module Value = Xtwig_xml.Value
module Sketch = Xtwig_sketch.Sketch
module Fault = Xtwig_fault.Fault
open Xtwig_path.Path_types

(* ------------------------------------------------------------------ *)
(* Documents *)

let label = QCheck2.Gen.oneofl [ "a"; "bb"; "c0"; "movie"; "year" ]

let value =
  QCheck2.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) small_int;
        map
          (fun s -> Value.Text s)
          (string_size ~gen:(char_range 'a' 'z') (1 -- 8));
      ])

let doc =
  QCheck2.Gen.(
    sized @@ fun budget ->
    let budget = 1 + (budget mod 40) in
    map
      (fun seeds ->
        let b = Doc.Builder.create () in
        let root = Doc.Builder.root b "root" in
        let nodes = ref [| root |] in
        List.iter
          (fun (pi, (t, v)) ->
            let parent = !nodes.(pi mod Array.length !nodes) in
            let n = Doc.Builder.child b parent ~value:v t in
            nodes := Array.append !nodes [| n |])
          seeds;
        Doc.Builder.finish b)
      (list_size (return budget) (pair small_int (pair label value))))

(* Deeply nested documents: each element hangs under one of the three
   most recent ones, so same-tag ancestor/descendant pairs abound. *)
let deep_doc =
  QCheck2.Gen.(
    sized @@ fun budget ->
    let budget = 1 + (budget mod 40) in
    map
      (fun seeds ->
        let b = Doc.Builder.create () in
        let root = Doc.Builder.root b "a" in
        let nodes = ref [| root |] in
        List.iter
          (fun (pi, (t, v)) ->
            let n = Array.length !nodes in
            let parent = !nodes.(Stdlib.max 0 (n - 1 - (pi mod 3))) in
            nodes := Array.append !nodes [| Doc.Builder.child b parent ~value:v t |])
          seeds;
        Doc.Builder.finish b)
      (list_size (return budget) (pair small_int (pair label value))))

let doc_equal d1 d2 =
  let rec eq n1 n2 =
    Doc.tag_name d1 n1 = Doc.tag_name d2 n2
    && Value.equal (Doc.value d1 n1) (Doc.value d2 n2)
    && Array.length (Doc.children d1 n1) = Array.length (Doc.children d2 n2)
    && Array.for_all2 eq (Doc.children d1 n1) (Doc.children d2 n2)
  in
  eq (Doc.root d1) (Doc.root d2)

(* ------------------------------------------------------------------ *)
(* Paths and twigs *)

let step_gen =
  QCheck2.Gen.(
    map3
      (fun axis label vp -> { axis; label; vpred = vp; branches = [] })
      (oneofl [ Child; Descendant ])
      label
      (oneof
         [
           return None;
           map
             (fun (a, b) ->
               Some (Range (float_of_int (min a b), float_of_int (max a b))))
             (pair small_int small_int);
         ]))

let path =
  QCheck2.Gen.(
    map2 (fun first rest -> first :: rest) step_gen
      (list_size (0 -- 2) step_gen))

let rec twig_sized depth =
  QCheck2.Gen.(
    if depth = 0 then map (fun p -> { path = p; subs = [] }) path
    else
      map2
        (fun p subs -> { path = p; subs })
        path
        (list_size (0 -- 2) (twig_sized (depth - 1))))

let twig ?(depth = 2) () = twig_sized depth

(* Twigs grown along a document's own edges, so that counts are mostly
   non-zero: every twig node's path follows a random downward chain of
   elements from its parent's witness. Chain elements may be skipped
   (the next step then takes the descendant axis), a child step may
   take the descendant axis anyway, and steps may carry a value
   predicate built from the element's own value, a branching
   predicate grown the same way, or, rarely, a label the document
   lacks. *)
let chain_below doc w =
  let open QCheck2.Gen in
  let rec go w n =
    let kids = Doc.children doc w in
    if n = 0 || Array.length kids = 0 then return []
    else
      let* k = oneofa kids in
      let* rest = go k (n - 1) in
      return (k :: rest)
  in
  let* n = int_range 1 3 in
  go w n

let ancestors doc w =
  let rec up acc w =
    match Doc.parent doc w with None -> w :: acc | Some p -> up (w :: acc) p
  in
  up [] w

let vpred_for doc n =
  let open QCheck2.Gen in
  let own = Doc.value doc n in
  frequency
    [
      (8, return None);
      ( 1,
        match Value.as_float own with
        | Some f ->
            map2
              (fun d up -> Some (Range (f -. float_of_int d, f +. float_of_int up)))
              (0 -- 3) (0 -- 3)
        | None -> map (fun v -> Some (Cmp (Eq, v))) (oneof [ return own; value ]) );
      ( 1,
        map
          (fun op -> Some (Cmp (op, own)))
          (oneofl [ Lt; Le; Eq; Ne; Ge; Gt ]) );
    ]

let rec steps_along doc chain ~adjacent ~depth =
  let open QCheck2.Gen in
  match chain with
  | [] -> return []
  | c :: rest ->
      let* keep = if rest = [] then return true else frequencyl [ (2, true); (1, false) ] in
      if not keep then steps_along doc rest ~adjacent:false ~depth
      else
        let* axis =
          if adjacent then frequencyl [ (3, Child); (1, Descendant) ]
          else return Descendant
        in
        let* label = frequencyl [ (19, Doc.tag_name doc c); (1, "zz") ] in
        let* vpred = vpred_for doc c in
        let* branches =
          if depth = 0 then return []
          else
            frequency
              [
                (4, return []);
                ( 1,
                  let* chain = chain_below doc c in
                  if chain = [] then return []
                  else
                    map (fun p -> [ p ])
                      (steps_along doc chain ~adjacent:true ~depth:(depth - 1)) );
              ]
        in
        let* tail = steps_along doc rest ~adjacent:true ~depth in
        return ({ axis; label; vpred; branches } :: tail)

let rec subtwigs doc w ~depth =
  let open QCheck2.Gen in
  if depth = 0 || Array.length (Doc.children doc w) = 0 then return []
  else
    let* n = frequencyl [ (1, 0); (3, 1); (3, 2); (1, 3) ] in
    list_repeat n
      (let* chain = chain_below doc w in
       let last = List.nth chain (List.length chain - 1) in
       let* path = steps_along doc chain ~adjacent:true ~depth:1 in
       let* subs = subtwigs doc last ~depth:(depth - 1) in
       return { path; subs })

let twig_in doc =
  let open QCheck2.Gen in
  (* root the twig where it can branch, when the document allows *)
  let inner = List.filter (fun n -> Array.length (Doc.children doc n) > 0) (List.init (Doc.size doc) Fun.id) in
  let* r = if inner = [] then return (Doc.root doc) else oneofl inner in
  let chain = ancestors doc r in
  (* an absolute path, or a '//'-anchored suffix of it *)
  let* drop = int_bound (List.length chain - 1) in
  let chain = List.filteri (fun i _ -> i >= drop) chain in
  let* path = steps_along doc chain ~adjacent:(drop = 0) ~depth:1 in
  let* subs = subtwigs doc r ~depth:2 in
  return { path; subs }

(* ------------------------------------------------------------------ *)
(* Sketches *)

let doc_with_sketch =
  QCheck2.Gen.map (fun d -> (d, Sketch.default_of_doc d)) doc

(* ------------------------------------------------------------------ *)
(* Fault scenarios *)

let fault_points =
  [
    "sketch_io.write";
    "sketch_io.fsync";
    "sketch_io.rename";
    "sketch_io.read";
    "sketch_io.*";
    "xml.parse";
    "xml.write";
    "pool.task";
    "embed.fill";
    "plan.fill";
    "engine.query";
    "opt.plan";
  ]

let fault_trigger =
  QCheck2.Gen.(
    oneof
      [
        return Fault.Always;
        map (fun p -> Fault.Prob (float_of_int p /. 40.0)) (0 -- 20);
        map (fun n -> Fault.Nth n) (1 -- 20);
        map (fun n -> Fault.Every n) (1 -- 20);
        map
          (fun hits -> Fault.Script (List.sort_uniq compare hits))
          (list_size (1 -- 4) (1 -- 20));
      ])

let fault_spec ?(points = fault_points) () =
  QCheck2.Gen.(
    map2
      (fun seed rules -> { Fault.seed; rules })
      (0 -- 1000)
      (list_size (0 -- 4)
         (map2
            (fun pattern trigger -> { Fault.pattern; trigger })
            (oneofl points) fault_trigger)))
