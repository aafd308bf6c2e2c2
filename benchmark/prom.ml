(* xtwigd exposes its metrics registry only as the Prometheus text its
   [metrics] verb returns. The serve workload reads that text before and
   after each phase and diffs the two readings, as an operator's scraper
   would. Series keys are kept verbatim: [name{label="v",...}]. *)

module Metrics = Xtwig_obs.Metrics

type t = (string, float) Hashtbl.t

let parse text : t =
  let h = Hashtbl.create 512 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | Some v -> Hashtbl.replace h (String.sub line 0 i) v
            | None -> ())
        | None -> ())
    (String.split_on_char '\n' text);
  h

(* counters and histogram buckets as deltas; gauges are not used *)
let diff (before : t) (after : t) : t =
  let d = Hashtbl.create (Hashtbl.length after) in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace d k (v -. Option.value ~default:0.0 (Hashtbl.find_opt before k)))
    after;
  d

let split_key key =
  match String.index_opt key '{' with
  | None -> (key, [])
  | Some i ->
      let body = String.sub key (i + 1) (String.length key - i - 2) in
      let labels =
        List.filter_map
          (fun kv ->
            match String.index_opt kv '=' with
            | Some j ->
                let v = String.sub kv (j + 1) (String.length kv - j - 1) in
                Some (String.sub kv 0 j, String.sub v 1 (String.length v - 2))
            | None -> None)
          (String.split_on_char ',' body)
      in
      (String.sub key 0 i, labels)

(* sum over every series of a family, whatever its labels; names are in
   the rendered form, dots already replaced by underscores *)
let sum (t : t) name =
  Hashtbl.fold (fun k v acc -> if fst (split_key k) = name then acc +. v else acc) t 0.0

(* the histogram series of [name] whose labels include [labels] *)
let histogram (t : t) name labels =
  let buckets =
    Hashtbl.fold
      (fun k v acc ->
        let base, ls = split_key k in
        if base = name ^ "_bucket" && List.for_all (fun l -> List.mem l ls) labels then
          match List.assoc_opt "le" ls with
          | Some "+Inf" -> (infinity, v) :: acc
          | Some le -> (float_of_string le, v) :: acc
          | None -> acc
        else acc)
      t []
    |> List.sort compare
  in
  match List.rev buckets with
  | [] -> None
  | (_, total) :: _ ->
      let cumulative = Array.of_list (List.map snd buckets) in
      let counts =
        Array.mapi (fun i c -> int_of_float (if i = 0 then c else c -. cumulative.(i - 1))) cumulative
      in
      let bounds =
        Array.of_list (List.filter_map (fun (le, _) -> if le = infinity then None else Some le) buckets)
      in
      Some { Metrics.bounds; counts; count = int_of_float total; sum = 0.0 }

(* a histogram percentile in the histogram's unit; 0 with no samples *)
let percentile t name labels p =
  match histogram t name labels with
  | Some h when h.Metrics.count > 0 -> Metrics.percentile_of h p
  | _ -> 0.0
