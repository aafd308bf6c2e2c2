(* The reference for [Refinement.remap_config]: the hashtable-backed
   remap that expands every dimension through the image lists of both
   endpoints, kept as the oracle of the array-backed one in [lib/]. *)

module G = Xtwig_synopsis.Graph_synopsis
module Sketch = Xtwig_sketch.Sketch

let remap_config old_syn (cfg : Sketch.config) new_syn : Sketch.config =
  let n_new = G.node_count new_syn in
  let old_of_new =
    Array.init n_new (fun n' ->
        let ext = G.extent new_syn n' in
        G.node_of_elem old_syn ext.(0))
  in
  (* images of each old node *)
  let images = Hashtbl.create 64 in
  Array.iteri
    (fun n' o ->
      Hashtbl.replace images o (n' :: Option.value ~default:[] (Hashtbl.find_opt images o)))
    old_of_new;
  let images o = Option.value ~default:[] (Hashtbl.find_opt images o) in
  let especs =
    Array.init n_new (fun n' ->
        let o = old_of_new.(n') in
        List.map
          (fun (spec : Sketch.hist_spec) ->
            let dims =
              List.concat_map
                (fun (d : Sketch.dim) ->
                  let srcs = if d.kind = Sketch.Forward then [ n' ] else images d.src in
                  List.concat_map
                    (fun s ->
                      List.filter_map
                        (fun t ->
                          match G.edge new_syn ~src:s ~dst:t with
                          | Some _ -> Some { d with Sketch.src = s; dst = t }
                          | None -> None)
                        (images d.dst))
                    srcs)
                spec.dims
              |> List.sort_uniq compare
            in
            let dims = List.filteri (fun i _ -> i < 6) dims in
            { spec with Sketch.dims })
          cfg.especs.(o))
  in
  let vbudgets = Array.init n_new (fun n' -> cfg.vbudgets.(old_of_new.(n'))) in
  { Sketch.especs; vbudgets }
