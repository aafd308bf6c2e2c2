(* Self-time ledger of a Chrome trace written by [Xtwig_obs.Trace].

   A span's self time is its duration minus the time its direct children
   cover. Spans are named [bench.<layer>.<fn>] when the benchmark
   recorded them around a public call, and [<module>.<what>] when the
   program did; both map to a layer named after a [lib/] module, so the
   benchmark's span around [Eval_twig.selectivity] and XBUILD's own
   [xbuild.score] land in [evaluator] and [xbuild]. X (complete) events
   have no nesting; xtwigd books waits (queue wait, response write) that
   way, so they are summed by name apart from the self times. *)

type t = {
  self : (string * float) list;  (** layer -> self seconds *)
  waits : (string * float) list;  (** X event name -> summed seconds *)
  covered_s : float;  (** union of the top-level spans' intervals *)
  spans : int;
}

let layer_of name =
  match String.split_on_char '.' name with
  | "bench" :: layer :: _ -> layer
  | "treeparse" :: _ -> "estimator"
  | first :: _ -> first
  | [] -> name

type frame = { name : string; start : float; mutable child : float }

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) when s <= ce -> (total, Some (cs, Float.max ce e))
        | Some (cs, ce) -> (total +. (ce -. cs), Some (s, e)))
      (0.0, None) sorted
  in
  match last with Some (s, e) -> total +. (e -. s) | None -> total

(* [during] (monotonic ns) keeps the spans that lie inside it: xtwigd's
   trace covers its whole life, the benchmark's window only part *)
let of_string ?during text =
  let self = Hashtbl.create 16 and waits = Hashtbl.create 16 in
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 4 in
  let top = ref [] and spans = ref 0 in
  let event line =
    let line =
      if String.ends_with ~suffix:"," line then String.sub line 0 (String.length line - 1)
      else line
    in
    let ev = Json.parse line in
    let str k = Option.bind (Json.member k ev) Json.to_str |> Option.value ~default:"" in
    let num k = Option.bind (Json.member k ev) Json.to_num |> Option.value ~default:0.0 in
    (* trace timestamps are microseconds *)
    let ts = num "ts" /. 1e6 and tid = int_of_float (num "tid") in
    let inside start stop =
      match during with
      | None -> true
      | Some (t0, t1) -> start >= Int64.to_float t0 /. 1e9 && stop <= Int64.to_float t1 /. 1e9
    in
    let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
    match str "ph" with
    | "B" -> Hashtbl.replace stacks tid ({ name = str "name"; start = ts; child = 0.0 } :: stack)
    | "E" -> (
        match stack with
        | f :: rest ->
            let dur = ts -. f.start in
            if inside f.start ts then begin
              incr spans;
              add self (layer_of f.name) (dur -. f.child);
              if rest = [] then top := (f.start, ts) :: !top
            end;
            (match rest with parent :: _ -> parent.child <- parent.child +. dur | [] -> ());
            Hashtbl.replace stacks tid rest
        | [] -> ())
    | "X" ->
        let dur = num "dur" /. 1e6 in
        if inside ts (ts +. dur) then begin
          incr spans;
          add waits (str "name") dur;
          top := (ts, ts +. dur) :: !top
        end
    | _ -> ()
  in
  List.iter
    (fun line -> if String.starts_with ~prefix:"{\"name\"" line then event line)
    (String.split_on_char '\n' text);
  let sorted tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl)) in
  { self = sorted self; waits = sorted waits; covered_s = union_length !top; spans = !spans }

let self_s t layer = Option.value ~default:0.0 (List.assoc_opt layer t.self)

(* the printed ledger: self time per layer as a share of [wall_s], then
   what no span covers *)
let print ~title ~wall_s t =
  Printf.eprintf "ledger %s (%d spans, wall %.3f s)\n" title t.spans wall_s;
  let share v = if wall_s > 0.0 then 100.0 *. v /. wall_s else 0.0 in
  List.iter
    (fun (layer, s) -> Printf.eprintf "  %-12s self %10.4f s  %5.1f%%\n" layer s (share s))
    t.self;
  List.iter (fun (name, s) -> Printf.eprintf "  %-24s wait %10.4f s\n" name s) t.waits;
  if wall_s > 0.0 then
    Printf.eprintf "  %-12s      %10.4f s  %5.1f%%\n" "(uncovered)"
      (wall_s -. t.covered_s)
      (share (wall_s -. t.covered_s))
