(* Thin compatibility adapter over Xtwig_obs.Metrics: the flat counter
   table the perf work of PR 1/2 was built on is now one view of the
   generalized metrics registry, so counters registered here appear in
   Metrics snapshots/expositions and vice versa. *)

module Metrics = Xtwig_obs.Metrics

type t = { cname : string; cell : Metrics.counter }

let counter name = { cname = name; cell = Metrics.counter name }
let incr ?by t = Metrics.incr ?by t.cell
let value t = Metrics.counter_value t.cell
let name t = t.cname

(* ------------------------------------------------------------------ *)

let timer = counter

let now_ns = Monotonic_clock.now

let time t f =
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () -> incr ~by:(Int64.to_int (Int64.sub (now_ns ()) t0)) t)
    f

(* ------------------------------------------------------------------ *)

let reset () = Metrics.reset_all ()

let label_suffix = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
      ^ "}"

let snapshot () =
  List.filter_map
    (fun (e : Metrics.entry) ->
      match e.Metrics.value with
      | Metrics.Counter n -> Some (e.Metrics.name ^ label_suffix e.Metrics.labels, n)
      | _ -> None)
    (Metrics.snapshot ())

let get name =
  match List.assoc_opt name (snapshot ()) with Some v -> v | None -> 0
