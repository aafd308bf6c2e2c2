(* The fully stable reference synopsis of the differential and
   estimator tests. *)

module G = Xtwig_synopsis.Graph_synopsis

(* Repeatedly applies b-stabilize / f-stabilize splits until every edge
   is both backward and forward stable (or [max_rounds], default 100,
   is hit). On such a synopsis every edge is scope-eligible for
   full-information histograms: exact histograms over it estimate
   structure-only twigs with zero error. Can grow large on irregular
   documents. *)
let fixpoint ?(max_rounds = 100) t =
  let rec round t k =
    if k = 0 then t
    else
      let unstable =
        List.find_opt (fun (e : G.edge) -> not (e.b_stable && e.f_stable)) (G.edges t)
      in
      match unstable with
      | None -> t
      | Some e ->
          let t' =
            if not e.b_stable then
              G.split t ~node:e.dst ~group_of:(G.b_stabilize_groups t)
            else G.split t ~node:e.src ~group_of:(G.f_stabilize_groups t ~dst:e.dst)
          in
          (* a genuinely unstable edge always splits; guard against
             looping anyway *)
          if t' == t then t else round t' (k - 1)
  in
  round t max_rounds
