(* A process-wide metrics registry: counters, gauges and fixed-bucket
   histograms, optionally labeled. Cells are registered once (module
   initialization) and updated from any domain; reads tolerate
   concurrent writers (a snapshot is consistent per cell, not across
   cells, which is all the harness needs). *)

type counter = { cr_cell : int Atomic.t }
type gauge = { ga_cell : float Atomic.t }

type histogram = {
  h_bounds : float array; (* strictly increasing upper bounds *)
  h_counts : int Atomic.t array; (* length bounds + 1; last = overflow *)
  h_sum : float Atomic.t;
}

type cell = Counter_cell of counter | Gauge_cell of gauge | Hist_cell of histogram

type key = { k_name : string; k_labels : (string * string) list }

let registry : (key, cell) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

(* one help string per metric family (by name); first writer wins *)
let helps : (string, string) Hashtbl.t = Hashtbl.create 16

let norm_labels labels = List.sort compare labels

let register ?help name labels make check =
  let key = { k_name = name; k_labels = norm_labels labels } in
  Mutex.lock registry_lock;
  (match help with
  | Some h when not (Hashtbl.mem helps name) -> Hashtbl.add helps name h
  | _ -> ());
  let cell =
    match Hashtbl.find_opt registry key with
    | Some c -> c
    | None ->
        let c = make () in
        Hashtbl.add registry key c;
        c
  in
  Mutex.unlock registry_lock;
  match check cell with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered with another kind" name)

let counter ?help ?(labels = []) name =
  register ?help name labels
    (fun () -> Counter_cell { cr_cell = Atomic.make 0 })
    (function Counter_cell c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cr_cell by)
let counter_value c = Atomic.get c.cr_cell

let time_ns c f =
  let t0 = Monotonic_clock.now () in
  Fun.protect
    ~finally:(fun () ->
      incr ~by:(Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0)) c)
    f

let gauge ?help ?(labels = []) name =
  register ?help name labels
    (fun () -> Gauge_cell { ga_cell = Atomic.make 0.0 })
    (function Gauge_cell g -> Some g | _ -> None)

let set g v = Atomic.set g.ga_cell v
let gauge_value g = Atomic.get g.ga_cell

let rec atomic_add_float cell x =
  let v = Atomic.get cell in
  if not (Atomic.compare_and_set cell v (v +. x)) then atomic_add_float cell x

(* default bounds: 1us .. ~134s in x2 steps — latency in seconds *)
let exponential ~start ~factor ~n =
  if n < 1 || start <= 0.0 || factor <= 1.0 then
    invalid_arg "Metrics.exponential";
  Array.init n (fun i -> start *. (factor ** float_of_int i))

let default_bounds = exponential ~start:1e-6 ~factor:2.0 ~n:28

let histogram ?help ?(labels = []) ?(bounds = default_bounds) name =
  let sorted = Array.copy bounds in
  Array.sort compare sorted;
  if sorted <> bounds then invalid_arg "Metrics.histogram: bounds not sorted";
  register ?help name labels
    (fun () ->
      Hist_cell
        {
          h_bounds = bounds;
          h_counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0.0;
        })
    (function Hist_cell h -> Some h | _ -> None)

let bucket_index bounds x =
  (* first bucket whose upper bound admits x; length bounds = overflow *)
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if x <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe h x =
  ignore (Atomic.fetch_and_add h.h_counts.(bucket_index h.h_bounds x) 1);
  atomic_add_float h.h_sum x

let time h f =
  let t0 = Monotonic_clock.now () in
  Fun.protect
    ~finally:(fun () ->
      observe h (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9))
    f

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type hview = { bounds : float array; counts : int array; count : int; sum : float }

type value = Counter of int | Gauge of float | Histogram of hview

type entry = { name : string; labels : (string * string) list; value : value }

type snapshot = entry list

let histogram_view h =
  let counts = Array.map Atomic.get h.h_counts in
  {
    bounds = Array.copy h.h_bounds;
    counts;
    count = Array.fold_left ( + ) 0 counts;
    sum = Atomic.get h.h_sum;
  }

let snapshot () =
  Mutex.lock registry_lock;
  let entries =
    Hashtbl.fold
      (fun k c acc ->
        let value =
          match c with
          | Counter_cell c -> Counter (counter_value c)
          | Gauge_cell g -> Gauge (gauge_value g)
          | Hist_cell h -> Histogram (histogram_view h)
        in
        { name = k.k_name; labels = k.k_labels; value } :: acc)
      registry []
  in
  Mutex.unlock registry_lock;
  List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels)) entries

let find snap name =
  List.find_opt (fun e -> e.name = name && e.labels = []) snap
  |> Option.map (fun e -> e.value)

let counter_of snap name =
  match find snap name with Some (Counter n) -> n | _ -> 0

(* [diff before after]: counters and histograms become deltas (entries
   new in [after] count from zero); gauges keep their [after] value. *)
let diff before after =
  let prior name labels =
    List.find_opt (fun e -> e.name = name && e.labels = labels) before
  in
  List.map
    (fun e ->
      match (e.value, prior e.name e.labels) with
      | Counter a, Some { value = Counter b; _ } -> { e with value = Counter (a - b) }
      | Histogram a, Some { value = Histogram b; _ }
        when Array.length a.counts = Array.length b.counts ->
          let counts = Array.mapi (fun i c -> c - b.counts.(i)) a.counts in
          {
            e with
            value =
              Histogram
                {
                  a with
                  counts;
                  count = a.count - b.count;
                  sum = a.sum -. b.sum;
                };
          }
      | _ -> e)
    after

let reset_all () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ c ->
      match c with
      | Counter_cell c -> Atomic.set c.cr_cell 0
      | Gauge_cell g -> Atomic.set g.ga_cell 0.0
      | Hist_cell h ->
          Array.iter (fun a -> Atomic.set a 0) h.h_counts;
          Atomic.set h.h_sum 0.0)
    registry;
  Mutex.unlock registry_lock

(* ------------------------------------------------------------------ *)
(* Percentiles from bucket counts (linear interpolation inside the
   selected bucket; the overflow bucket reports the largest bound)     *)

let percentile_of (h : hview) p =
  if h.count = 0 then Float.nan
  else begin
    let rank = p /. 100.0 *. float_of_int h.count in
    let nb = Array.length h.bounds in
    let acc = ref 0.0 and result = ref Float.nan and i = ref 0 in
    while Float.is_nan !result && !i <= nb do
      let c = float_of_int h.counts.(!i) in
      if !acc +. c >= rank && c > 0.0 then begin
        if !i >= nb then result := h.bounds.(nb - 1)
        else
          let lo = if !i = 0 then 0.0 else h.bounds.(!i - 1) in
          let hi = h.bounds.(!i) in
          let frac = (rank -. !acc) /. c in
          result := lo +. ((hi -. lo) *. Float.min 1.0 (Float.max 0.0 frac))
      end;
      acc := !acc +. c;
      Stdlib.incr i
    done;
    if Float.is_nan !result then h.bounds.(nb - 1) else !result
  end

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

(* Prometheus exposition-format label-value escaping: backslash,
   double quote and line feed — and only those — get a backslash.
   OCaml's %S is wrong here (it emits decimal \ddd escapes scrapers
   reject). *)
let prom_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_text labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) (prom_escape v))
             labels)
      ^ "}"

let render snap =
  let buf = Buffer.create 1024 in
  (* snapshots are (name, labels)-sorted, so every series of a family
     is adjacent: emit # HELP/# TYPE when the family changes, never per
     series — scrapers reject repeated metadata lines *)
  let announced = ref "" in
  let announce name kind =
    if name <> !announced then begin
      announced := name;
      let base = sanitize name in
      (match Hashtbl.find_opt helps name with
      | Some h -> Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" base h)
      | None -> ());
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun e ->
      let base = sanitize e.name in
      match e.value with
      | Counter n ->
          announce e.name "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" base (label_text e.labels) n)
      | Gauge v ->
          announce e.name "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %g\n" base (label_text e.labels) v)
      | Histogram h ->
          announce e.name "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              cum := !cum + h.counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" base
                   (label_text (e.labels @ [ ("le", Printf.sprintf "%g" b) ]))
                   !cum))
            h.bounds;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" base
               (label_text (e.labels @ [ ("le", "+Inf") ]))
               h.count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %g\n" base (label_text e.labels) h.sum);
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" base (label_text e.labels) h.count))
    snap;
  Buffer.contents buf

(* a float rendered as a JSON number token; non-finite values (empty
   percentiles are nan) become null, which every JSON parser accepts —
   nan/inf literals are not JSON *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_key e =
  e.name
  ^
  match e.labels with
  | [] -> ""
  | ls -> "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"

let to_json snap =
  let buf = Buffer.create 1024 in
  let sect kind f =
    let entries = List.filter f snap in
    Buffer.add_string buf (Printf.sprintf "  \"%s\": {" kind);
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\n    \"%s\": " (json_escape (json_key e)));
        match e.value with
        | Counter n -> Buffer.add_string buf (string_of_int n)
        | Gauge v -> Buffer.add_string buf (Printf.sprintf "%g" v)
        | Histogram h ->
            Buffer.add_string buf
              (Printf.sprintf
                 "{\"count\": %d, \"sum\": %g, \"bounds\": [%s], \"counts\": [%s]}"
                 h.count h.sum
                 (String.concat ", "
                    (List.map (Printf.sprintf "%g") (Array.to_list h.bounds)))
                 (String.concat ", "
                    (List.map string_of_int (Array.to_list h.counts)))))
      entries;
    Buffer.add_string buf (if entries = [] then "},\n" else "\n  },\n")
  in
  Buffer.add_string buf "{\n";
  sect "counters" (fun e -> match e.value with Counter _ -> true | _ -> false);
  sect "gauges" (fun e -> match e.value with Gauge _ -> true | _ -> false);
  let b = Buffer.contents buf in
  Buffer.clear buf;
  Buffer.add_string buf b;
  sect "histograms" (fun e ->
      match e.value with Histogram _ -> true | _ -> false);
  (* drop the trailing comma of the last section *)
  let s = Buffer.contents buf in
  let s =
    let n = String.length s in
    if n >= 2 && String.sub s (n - 2) 2 = ",\n" then String.sub s 0 (n - 2) ^ "\n"
    else s
  in
  s ^ "}\n"

let dump_json path snap =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json snap))
