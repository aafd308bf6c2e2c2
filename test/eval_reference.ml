(* The interpretive exact evaluator, kept as the differential oracle for
   the compiled one in lib/evaluator: it resolves every step label with
   a string hash at every context node, materializes each step's
   matches as a list, dedupes every multi-step result and memoizes
   every (element, twig node) pair. Slow and obviously faithful to the
   path semantics; test_eval_oracle checks the library against it. *)

open Xtwig_path.Path_types
module Doc = Xtwig_xml.Doc
module Eval_path = Xtwig_eval.Eval_path
module Eval_twig = Xtwig_eval.Eval_twig

module Path = struct
  let value_pred_holds = Eval_path.value_pred_holds

  (* value- and branching-predicate checks for a node whose label is
     already known to match *)
  let rec residual_matches doc s n =
    (match s.vpred with
    | None -> true
    | Some p -> value_pred_holds p (Doc.value doc n))
    && List.for_all (fun b -> exists doc ~from:n b) s.branches

  (* matches of one step, in document order *)
  and step_results doc from s =
    match Doc.tag_of_string doc s.label with
    | None -> []
    | Some code -> (
        match (from, s.axis) with
        | None, Child ->
            let r = Doc.root doc in
            if Doc.tag doc r = code && residual_matches doc s r then [ r ]
            else []
        | None, Descendant ->
            List.filter
              (residual_matches doc s)
              (Array.to_list (Doc.nodes_with_tag doc code))
        | Some n, Child ->
            Array.fold_right
              (fun k acc ->
                if Doc.tag doc k = code && residual_matches doc s k then
                  k :: acc
                else acc)
              (Doc.children doc n) []
        | Some n, Descendant ->
            let acc = ref [] in
            let rec go n =
              Array.iter
                (fun k ->
                  if Doc.tag doc k = code && residual_matches doc s k then
                    acc := k :: !acc;
                  go k)
                (Doc.children doc n)
            in
            go n;
            List.rev !acc)

  and eval doc ~from p =
    match p with
    | [] -> ( match from with None -> [] | Some n -> [ n ])
    | s :: rest ->
        let here = step_results doc from s in
        if rest = [] then here
        else
          let seen = Hashtbl.create 16 in
          List.concat_map
            (fun n ->
              List.filter
                (fun m ->
                  if Hashtbl.mem seen m then false
                  else begin
                    Hashtbl.add seen m ();
                    true
                  end)
                (eval doc ~from:(Some n) rest))
            here

  and exists doc ~from p =
    match p with [] -> true | s :: rest -> exists_step doc (Some from) s rest

  and exists_step doc from s rest =
    match Doc.tag_of_string doc s.label with
    | None -> false
    | Some code -> (
        let check n =
          Doc.tag doc n = code
          && residual_matches doc s n
          &&
          match rest with
          | [] -> true
          | s' :: rest' -> exists_step doc (Some n) s' rest'
        in
        match (from, s.axis) with
        | None, Child -> check (Doc.root doc)
        | None, Descendant -> Array.exists check (Doc.nodes_with_tag doc code)
        | Some n, Child -> Array.exists check (Doc.children doc n)
        | Some n, Descendant ->
            let exception Found in
            let rec go n =
              Array.iter
                (fun k ->
                  if check k then raise Found;
                  go k)
                (Doc.children doc n)
            in
            (try
               go n;
               false
             with Found -> true))

  let count doc ~from p = List.length (eval doc ~from p)
end

module Twig = struct
  let sat_add = Eval_twig.sat_add
  let sat_mul = Eval_twig.sat_mul

  type itwig = { paths : path array; subs : int list array }

  let index_twig t =
    let n = twig_size t in
    let paths = Array.make n [] in
    let subs = Array.make n [] in
    let counter = ref 0 in
    let rec go t =
      let id = !counter in
      incr counter;
      paths.(id) <- t.path;
      let kids = List.map go t.subs in
      subs.(id) <- kids;
      id
    in
    ignore (go t);
    { paths; subs }

  let run doc it =
    let width = Array.length it.paths in
    let memo : (int, int) Hashtbl.t = Hashtbl.create 1024 in
    let rec tuples_at e tn =
      match it.subs.(tn) with
      | [] -> 1
      | subs -> (
          let key = (e * width) + tn in
          match Hashtbl.find_opt memo key with
          | Some v -> v
          | None ->
              let v =
                List.fold_left
                  (fun acc sub ->
                    if acc = 0 then 0
                    else
                      let matches =
                        Path.eval doc ~from:(Some e) it.paths.(sub)
                      in
                      let s =
                        List.fold_left
                          (fun s e' -> sat_add s (tuples_at e' sub))
                          0 matches
                      in
                      sat_mul acc s)
                  1 subs
              in
              Hashtbl.add memo key v;
              v)
    in
    let roots = Path.eval doc ~from:None it.paths.(0) in
    List.fold_left (fun acc e -> sat_add acc (tuples_at e 0)) 0 roots

  let selectivity doc t = run doc (index_twig t)

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
    let it = index_twig t in
    let subs =
      Array.mapi
        (fun tn kids ->
          let perm = if tn < Array.length orders then orders.(tn) else [||] in
          let k = List.length kids in
          if k >= 2 && is_permutation perm k then
            let a = Array.of_list kids in
            Array.to_list (Array.map (fun i -> a.(i)) perm)
          else kids)
        it.subs
    in
    run doc { it with subs }

  let bindings ?(limit = 1000) doc t =
    let it = index_twig t in
    let width = Array.length it.paths in
    let out = ref [] in
    let n_out = ref 0 in
    let tuple = Array.make width (-1) in
    let exception Done in
    let rec emit e tn k =
      tuple.(tn) <- e;
      match it.subs.(tn) with
      | [] -> k ()
      | subs ->
          let rec across = function
            | [] -> k ()
            | sub :: more ->
                let matches = Path.eval doc ~from:(Some e) it.paths.(sub) in
                List.iter (fun e' -> emit e' sub (fun () -> across more)) matches
          in
          across subs
    in
    (try
       let roots = Path.eval doc ~from:None it.paths.(0) in
       List.iter
         (fun e ->
           emit e 0 (fun () ->
               out := Array.copy tuple :: !out;
               incr n_out;
               if !n_out >= limit then raise Done))
         roots
     with Done -> ());
    List.rev !out
end
