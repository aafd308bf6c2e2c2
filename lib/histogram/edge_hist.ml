type t = {
  dims : int;
  n : int;
  frac : float array;
  mean : float array;  (* n * dims, bucket-major *)
  lo : float array;  (* n * dims: minimum - 0.5 *)
  hi : float array;  (* n * dims: maximum + 0.5 *)
}

(* A cell groups points during construction. *)
type cell = { pts : (int array * int) list; weight : int }

let cell_of_points pts =
  { pts; weight = List.fold_left (fun a (_, m) -> a + m) 0 pts }

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

(* MHIST splitting: the cells of a non-empty point list, at most
   [budget] of them *)
let split_cells budget dims points =
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
  !cells

(* One bucket per cell, in cell order: a mean is the point-by-point sum
   divided by the cell's weight, a fraction is weight / total, and the
   bounds take their slack once, here. *)
let build ?(budget = 32) dist =
  let dims = Sparse_dist.dims dist in
  let total = Sparse_dist.total dist in
  let cells =
    if total = 0 then []
    else split_cells (Stdlib.max 1 budget) dims (Sparse_dist.points dist)
  in
  let n = List.length cells in
  let frac = Array.make n 0.0 in
  let mean = Array.make (n * dims) 0.0 in
  let lo = Array.make (n * dims) infinity in
  let hi = Array.make (n * dims) neg_infinity in
  List.iteri
    (fun b cell ->
      let o = b * dims in
      List.iter
        (fun (v, m) ->
          for d = 0 to dims - 1 do
            let x = float_of_int v.(d) in
            mean.(o + d) <- mean.(o + d) +. float_of_int (v.(d) * m);
            if x < lo.(o + d) then lo.(o + d) <- x;
            if x > hi.(o + d) then hi.(o + d) <- x
          done)
        cell.pts;
      let w = float_of_int cell.weight in
      for i = o to o + dims - 1 do
        mean.(i) <- mean.(i) /. w;
        lo.(i) <- lo.(i) -. 0.5;
        hi.(i) <- hi.(i) +. 0.5
      done;
      frac.(b) <- w /. float_of_int total)
    cells;
  { dims; n; frac; mean; lo; hi }

let size_bytes t = t.n * 4 * ((2 * t.dims) + 1)
