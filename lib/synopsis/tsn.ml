module G = Graph_synopsis

(* chains are short: the chain so far is the visited set *)
let b_stable_ancestors syn n =
  let rec up cur acc =
    if List.mem cur acc then List.rev acc
    else
      let acc = cur :: acc in
      match List.find_opt (fun (e : G.edge) -> e.b_stable) (G.in_edges syn cur) with
      | Some e -> up e.src acc
      | None -> List.rev acc
  in
  up n []

let scope_edges syn n =
  let anc = b_stable_ancestors syn n in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun (e : G.edge) -> if e.f_stable then Some (e.src, e.dst) else None)
        (G.out_edges syn a))
    anc

let nodes syn n =
  let anc = b_stable_ancestors syn n in
  let fkids = List.map snd (scope_edges syn n) in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    (anc @ fkids)

let eligible syn n ~src ~dst =
  List.mem (src, dst) (scope_edges syn n)
