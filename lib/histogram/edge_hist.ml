type bucket = {
  frac : float;
  count : int;
  mean : float array;
  lo : int array;
  hi : int array;
}

(* Flat bucket table: the bucket list of one histogram laid out as
   dense arrays (bucket-major for the per-dimension columns), with the
   context bounds pre-widened by the ±0.5 compatibility slack and
   P(count >= 1) precomputed per (bucket, dim). *)
type table = {
  tdims : int;
  tn : int;  (* bucket count *)
  tfrac : float array;  (* tn *)
  tmean : float array;  (* tn * tdims, bucket-major *)
  tp1 : float array;  (* tn * tdims: p_ge1 per (bucket, dim) *)
  tlo : float array;  (* tn * tdims: float lo - 0.5 *)
  thi : float array;  (* tn * tdims: float hi + 0.5 *)
}

type t = {
  dims : int;
  buckets : bucket list;
  exact : bool;
  (* the flat table, computed on first use and published through the
     atomic, whose store orders the table's array writes before it for
     a reader on another domain; two domains computing it at once
     publish one of two equal tables *)
  tbl : table option Atomic.t;
}

(* A cell groups points during construction. *)
type cell = { pts : (int array * int) list; weight : int }

let cell_of_points pts =
  { pts; weight = List.fold_left (fun a (_, m) -> a + m) 0 pts }

let bucket_of_cell dims total cell =
  let mean = Array.make dims 0.0 in
  let lo = Array.make dims max_int in
  let hi = Array.make dims min_int in
  List.iter
    (fun (v, m) ->
      for d = 0 to dims - 1 do
        mean.(d) <- mean.(d) +. (float_of_int (v.(d) * m));
        if v.(d) < lo.(d) then lo.(d) <- v.(d);
        if v.(d) > hi.(d) then hi.(d) <- v.(d)
      done)
    cell.pts;
  let w = float_of_int cell.weight in
  for d = 0 to dims - 1 do
    mean.(d) <- mean.(d) /. w
  done;
  { frac = w /. float_of_int total; count = cell.weight; mean; lo; hi }

(* Weighted variance of a cell along one dimension. *)
let variance cell d =
  let w = float_of_int cell.weight in
  let mean =
    List.fold_left (fun a (v, m) -> a +. float_of_int (v.(d) * m)) 0.0 cell.pts
    /. w
  in
  List.fold_left
    (fun a (v, m) ->
      let dx = float_of_int v.(d) -. mean in
      a +. (float_of_int m *. dx *. dx))
    0.0 cell.pts
  /. w

(* Split a cell along dimension [d] at the weighted median value,
   keeping equal values together. Returns None if all values equal. *)
let split_cell cell d =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a.(d) b.(d)) cell.pts in
  match sorted with
  | [] | [ _ ] -> None
  | (first, _) :: _ ->
      let vmin = first.(d) in
      let half = cell.weight / 2 in
      let rec cut acc accw = function
        | [] -> None
        | ((v, m) as p) :: rest ->
            if accw >= half && accw > 0 && v.(d) > vmin then
              Some (List.rev acc, p :: rest)
            else cut (p :: acc) (accw + m) rest
      in
      (match cut [] 0 sorted with
      | Some (l, r) when l <> [] && r <> [] ->
          Some (cell_of_points l, cell_of_points r)
      | _ -> (
          (* fall back: cut at the first value change *)
          let rec cut2 acc = function
            | [] -> None
            | ((v, _) as p) :: rest ->
                if v.(d) > vmin && acc <> [] then Some (List.rev acc, p :: rest)
                else cut2 (p :: acc) rest
          in
          match cut2 [] sorted with
          | Some (l, r) -> Some (cell_of_points l, cell_of_points r)
          | None -> None))

let build ?(budget = 32) dist =
  let budget = Stdlib.max 1 budget in
  let dims = Sparse_dist.dims dist in
  let total = Sparse_dist.total dist in
  let points = Sparse_dist.points dist in
  if total = 0 then { dims; buckets = []; exact = true; tbl = Atomic.make None }
  else begin
    let cells = ref [ cell_of_points points ] in
    let n_cells = ref 1 in
    let continue = ref true in
    while !continue && !n_cells < budget do
      (* pick the (cell, dim) with the largest weighted variance *)
      let best = ref None in
      List.iter
        (fun c ->
          if List.length c.pts > 1 then
            for d = 0 to dims - 1 do
              let score = float_of_int c.weight *. variance c d in
              match !best with
              | Some (s, _, _) when s >= score -> ()
              | _ -> if score > 0.0 then best := Some (score, c, d)
            done)
        !cells;
      match !best with
      | None -> continue := false
      | Some (_, cell, d) -> (
          match split_cell cell d with
          | None -> continue := false
          | Some (l, r) ->
              cells := l :: r :: List.filter (fun c -> c != cell) !cells;
              incr n_cells)
    done;
    let buckets = List.map (bucket_of_cell dims total) !cells in
    let exact = List.for_all (fun c -> List.length c.pts = 1) !cells in
    { dims; buckets; exact; tbl = Atomic.make None }
  end

let exact dist = build ~budget:max_int dist

let dims t = t.dims
let bucket_count t = List.length t.buckets
let buckets t = t.buckets
let total_frac t = List.fold_left (fun a b -> a +. b.frac) 0.0 t.buckets
let is_exact t = t.exact

let compatible b ctx =
  List.for_all
    (fun (d, v) ->
      v >= float_of_int b.lo.(d) -. 0.5 && v <= float_of_int b.hi.(d) +. 0.5)
    ctx

let p_ge1 b d =
  if b.lo.(d) >= 1 then 1.0
  else if b.hi.(d) = 0 then 0.0
  else Stdlib.min 1.0 b.mean.(d)

(* ------------------------------------------------------------------ *)
(* Hash-consed flat tables                                             *)

let table t =
  match Atomic.get t.tbl with
  | Some tb -> tb
  | None ->
      let n = List.length t.buckets in
      let k = t.dims in
      let tfrac = Array.make n 0.0 in
      let nk = n * k in
      let tmean = Array.make nk 0.0 in
      let tp1 = Array.make nk 0.0 in
      let tlo = Array.make nk 0.0 in
      let thi = Array.make nk 0.0 in
      List.iteri
        (fun b bucket ->
          tfrac.(b) <- bucket.frac;
          for d = 0 to k - 1 do
            let o = (b * k) + d in
            tmean.(o) <- bucket.mean.(d);
            tp1.(o) <- p_ge1 bucket d;
            tlo.(o) <- float_of_int bucket.lo.(d) -. 0.5;
            thi.(o) <- float_of_int bucket.hi.(d) +. 0.5
          done)
        t.buckets;
      let tb = { tdims = k; tn = n; tfrac; tmean; tp1; tlo; thi } in
      Atomic.set t.tbl (Some tb);
      tb

let marginal_frac t ~ctx =
  List.fold_left
    (fun a b -> if compatible b ctx then a +. b.frac else a)
    0.0 t.buckets

let expected_product t ~over =
  List.fold_left
    (fun acc b ->
      let p = List.fold_left (fun p d -> p *. b.mean.(d)) 1.0 over in
      acc +. (b.frac *. p))
    0.0 t.buckets

let mean t d = expected_product t ~over:[ d ]

let size_bytes t = bucket_count t * 4 * ((2 * t.dims) + 1)

let pp ppf t =
  Format.fprintf ppf "@[<v>edge-hist: %d dims, %d buckets%s@," t.dims
    (bucket_count t)
    (if t.exact then " (exact)" else "");
  List.iter
    (fun b ->
      Format.fprintf ppf "  f=%.4f n=%d mean=[%s]@," b.frac b.count
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "%.2f") b.mean))))
    t.buckets;
  Format.fprintf ppf "@]"
