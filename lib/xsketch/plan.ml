(* Compiled estimation plans: the paper's TREEPARSE estimate (§4)
   lowered into flat arrays — the only estimation kernel (see
   DESIGN.md §12, "Plan compilation").

   [compile] analyses one embedding against one sketch once — which
   histograms need bucket enumeration, which kid alternatives depend
   on the enumerated combination, which environment entries are bound
   at each program point, the dense slot layout and the scratch-cell
   layout of the interpreter — and reads the edge histograms, value
   fractions, average fanouts and branch constants it needs from the
   sketch. Histograms are read in place: [Edge_hist.t] is already
   flat arrays. A node's branching predicates fold into one constant,
   because every histogram dimension is an F-stable edge, on which
   the bucket-conditioned P(count >= 1) is the existence fraction 1.0.

   The run-time interpreter [run] is a flat numeric kernel: per-node
   index arrays live in one preallocated int32 Bigarray slab, and all
   mutable float state (environment slots, fixed values, per-node and
   per-enumeration-level accumulator cells) lives in a per-domain
   float64 Bigarray arena. The kernel allocates nothing on the OCaml
   heap: no closures, no float refs, no boxed float arguments or
   returns (we are compiled without flambda, so each of those would
   allocate) — held by a [Gc.minor_words] delta test over
   {!run_batch} in test/test_plan.ml.

   Byte-identity contract: [run] replays the recursive reference
   evaluator's float operations in the exact same order (fold orders,
   the [w' < 1e-9] pruning, the reverse-dimension context distance,
   the renormalization in bucket order), so [run (compile_in cx e)]
   equals that evaluator's estimate of [e] (test/estimate_reference.ml)
   bit-for-bit. test/test_plan.ml holds this differentially across
   datasets, workloads and refinement budgets. *)

module G = Xtwig_synopsis.Graph_synopsis
module Edge_hist = Xtwig_hist.Edge_hist
module Counters = Xtwig_util.Counters
module Trace = Xtwig_obs.Trace
module A1 = Bigarray.Array1
module Twig_tbl = Xtwig_path.Path_types.Twig_tbl
open Embed

let t_compile = Counters.timer "plan.compile_ns"
let c_compiles = Counters.counter "plan.compiles"
let c_runs = Counters.counter "plan.runs"
let c_hits = Counters.counter "plan.cache_hits"
let c_misses = Counters.counter "plan.cache_misses"

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t
type iarr = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

(* ------------------------------------------------------------------ *)
(* Plan representation                                                 *)

(* One enumerated histogram at a node. Its context dimensions (the
   correlation set D at this program point) and the dimensions it
   binds live in the plan's int32 slab: [ctx_off] addresses [n_ctx]
   dimension indices followed by [n_ctx] environment slots, [bind_off]
   likewise for the bound dimensions. *)
type hplan = {
  tb : Edge_hist.t;
  n_ctx : int;
  ctx_off : int;
  n_bind : int;
  bind_off : int;
}

(* One alternative of one twig kid. [count_slot >= 0] when the edge
   count comes from an enumerated bucket, else [count_const] (average
   fanout). [fixed_idx >= 0] when the alternative sits under a
   bucket-dependent kid but its own subtree value is combo-invariant
   and is precomputed once into the fixed scratch. *)
type aplan = {
  child : int;  (* plan-node index *)
  a_vfrac : float;
  count_slot : int;
  count_const : float;
  fixed_idx : int;
}

type kplan = { k_dep : bool; alts : aplan array }

(* [scr] is the node's base offset in the float64 scratch arena:
   +0 result, +1 independent-kid product, +2 kid alternative sum,
   +3 leaf factor, then one 5-cell block per enumeration level
   (including the leaf level): +0 incoming weight, +1 combination sum,
   +2 compatible mass, +3 best distance, +4 distance accumulator.
   [branch_const] is the product of the node's branching-predicate
   fractions; [branch_dep] says where it is applied: as each bucket
   combination's initial leaf factor when an enumerated histogram
   covers a branch edge, else once at the node (the reference
   evaluator's float order either way). *)
type pnode = {
  kids : kplan array;
  enum : hplan array;
  branch_dep : bool;
  branch_const : float;
  scr : int;
}

type t = {
  nodes : pnode array;  (* children before parents *)
  root : int;
  root_const : float;  (* extent size x root value fraction *)
  o_fixed : int;  (* scratch offset of the fixed values (= slot count) *)
  scr_len : int;  (* total scratch cells the kernel touches *)
  islab : iarr;  (* int32 slab: ctx/bind dims and slots *)
}

(* ------------------------------------------------------------------ *)
(* Compile-time constants                                              *)

let vfrac sketch snode = function
  | None -> 1.0
  | Some p -> Sketch.value_frac sketch snode p

(* Existence fraction of one branching predicate (a list of alternative
   embedded paths) below an element of node [u]: expected number of
   matching children, capped at 1. The synopsis records the exact
   unconditioned existence fraction of every edge. *)
let rec branch_frac sketch u (alts : ebranch list) =
  let one (b : ebranch) =
    let expected = Sketch.exist_frac sketch ~src:u ~dst:b.bnode in
    let nested =
      List.fold_left
        (fun acc pred -> acc *. branch_frac sketch b.bnode pred)
        (vfrac sketch b.bnode b.bvpred)
        b.bsubs
    in
    Stdlib.min 1.0 (expected *. nested)
  in
  Stdlib.min 1.0 (List.fold_left (fun acc b -> acc +. one b) 0.0 alts)

(* Sorted int-array sets: the needs-sets and enumerated-edge sets are
   consulted per (alternative, histogram) pair during analysis, so
   they are flat sorted arrays with binary-search membership and
   two-pointer intersection instead of nested list scans. *)

let sorted_uniq (a : int array) =
  let n = Array.length a in
  if n = 0 then a
  else begin
    Array.sort (fun (x : int) (y : int) -> compare x y) a;
    let m = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    if !m = n then a else Array.sub a 0 !m
  end

let mem_sorted (x : int) (a : int array) =
  let lo = ref 0 in
  let hi = ref (Array.length a) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = a.(mid) in
    if v = x then found := true else if v < x then lo := mid + 1 else hi := mid
  done;
  !found

let intersects (a : int array) (b : int array) =
  let na = Array.length a in
  let nb = Array.length b in
  let i = ref 0 in
  let j = ref 0 in
  let hit = ref false in
  while (not !hit) && !i < na && !j < nb do
    let x = a.(!i) in
    let y = b.(!j) in
    if x = y then hit := true else if x < y then incr i else incr j
  done;
  !hit

let concat_arrays (parts : int array list) =
  let total = List.fold_left (fun s a -> s + Array.length a) 0 parts in
  let buf = Array.make (Stdlib.max 1 total) 0 in
  let off = ref 0 in
  List.iter
    (fun a ->
      Array.blit a 0 buf !off (Array.length a);
      off := !off + Array.length a)
    parts;
  if total = Array.length buf then buf else Array.sub buf 0 total

(* Closure-free scans for the compiler's per-node analysis:
   top-level recursive functions taking every capture as an argument
   allocate nothing, where the equivalent local closures cost a block
   each per node visited. *)

(* does [dims] contain a Forward dimension src->dst? *)
let rec dims_cover (dims : Sketch.dim array) src dst i =
  i < Array.length dims
  && ((let d = dims.(i) in
       d.src = src && d.dst = dst
       && match d.kind with Sketch.Forward -> true | _ -> false)
     || dims_cover dims src dst (i + 1))

(* index of the first histogram whose dimensions cover src->dst, -1
   when none does *)
let rec cover_scan (harr : (Sketch.dim array * Xtwig_hist.Edge_hist.t) array)
    nh src dst i =
  if i = nh then -1
  else if dims_cover (fst harr.(i)) src dst 0 then i
  else cover_scan harr nh src dst (i + 1)

let rec arr_mem (a : int array) (x : int) i =
  i < Array.length a && (a.(i) = x || arr_mem a x (i + 1))

(* prefix membership: x in a.(0 .. n-1) *)
let rec arr_mem_n (a : int array) (x : int) n i =
  i < n && (a.(i) = x || arr_mem_n a x n (i + 1))

(* any element of [bfe] present in [es] *)
let rec edges_hit (es : int array) (bfe : int array) i =
  i < Array.length bfe && (arr_mem es bfe.(i) 0 || edges_hit es bfe (i + 1))

(* any element of [es] present in the sorted set [nd] *)
let rec es_hit_sorted (es : int array) (nd : int array) i =
  i < Array.length es && (mem_sorted es.(i) nd || es_hit_sorted es nd (i + 1))

(* any alternative's needs-set intersecting [es] *)
let rec needs_hit (es : int array) (aneeds : int array array) j =
  j < Array.length aneeds
  && (es_hit_sorted es aneeds.(j) 0 || needs_hit es aneeds (j + 1))

let rec all_true (a : bool array) i = i >= Array.length a || (a.(i) && all_true a (i + 1))

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)

(* mutable staging record for one kid alternative, filled across the
   two child-compilation phases *)
type tmp_alt = {
  ta : enode;
  t_subdep : bool;
  mutable t_child : int;
  mutable t_fix : int;
}

(* Shared compile context: the needs-sets and per-node edge-key arrays
   depend only on (sketch, enode), and the factored embeddings of one
   query share subtree enodes, so one context amortizes the analysis
   across the plans of a whole query; the per-node arrays also carry
   over between the queries a session compiles against one sketch. *)
type cctx = {
  cx_sketch : Sketch.t;
  cx_syn : G.t;
  cx_nn : int;
  cx_sedges : (int, int array array) Hashtbl.t;
  cx_nhists : (int, (Sketch.dim array * Edge_hist.t) array) Hashtbl.t;
      (* per-synopsis-node histogram list as an array, for indexed
         closure-free scans *)
  cx_nkeys : (int, int array) Hashtbl.t;
      (* per-synopsis-node sorted-uniq union of every histogram's edge
         keys — the node's own contribution to any needs-set, shared
         across all embeddings that visit the node *)
  cx_needs : (int, int array) Hashtbl.t;
}

let context sketch =
  let syn = Sketch.synopsis sketch in
  {
    cx_sketch = sketch;
    cx_syn = syn;
    cx_nn = G.node_count syn;
    cx_sedges = Hashtbl.create 16;
    cx_nhists = Hashtbl.create 16;
    cx_nkeys = Hashtbl.create 16;
    cx_needs = Hashtbl.create 64;
  }

let compile_in cx (root : enode) : t =
  Counters.incr c_compiles;
  Trace.with_span ~name:"plan.compile" @@ fun () ->
  Counters.time t_compile @@ fun () ->
  let sketch = cx.cx_sketch in
  let syn = cx.cx_syn in
  let nn = cx.cx_nn in
  let ekey u v = (u * nn) + v in
  (* per-synopsis-node edge-key arrays, one per histogram (embeddings
     revisit synopsis nodes across alternatives, so memoized) *)
  let snode_edges = cx.cx_sedges in
  let hist_edge_arrays n hs =
    match Hashtbl.find_opt snode_edges n with
    | Some a -> a
    | None ->
        let a =
          Array.of_list
            (List.map
               (fun ((dims : Sketch.dim array), _) ->
                 Array.map (fun (d : Sketch.dim) -> ekey d.src d.dst) dims)
               hs)
        in
        Hashtbl.add snode_edges n a;
        a
  in
  let memo_needs = cx.cx_needs in
  (* the node's own keys, sorted once per synopsis node *)
  let node_hists n hs =
    match Hashtbl.find_opt cx.cx_nhists n with
    | Some a -> a
    | None ->
        let a = Array.of_list hs in
        Hashtbl.add cx.cx_nhists n a;
        a
  in
  let node_keys n hs =
    match Hashtbl.find_opt cx.cx_nkeys n with
    | Some a -> a
    | None ->
        let arrs = hist_edge_arrays n hs in
        let a = sorted_uniq (concat_arrays (Array.to_list arrs)) in
        Hashtbl.add cx.cx_nkeys n a;
        a
  in
  (* needs-set of a subtree: the sorted-uniq union of the node's own
     keys with the kids' needs-sets, built by sorted merges — each
     input is already sorted-uniq, so no re-sort of the whole set.
     Intermediate unions ping-pong between two reusable buffers (safe:
     the kids' sets are materialized before any merging starts), so
     the only allocation is the final exact-size memoized array. *)
  let mbuf_a = ref (Array.make 64 0) in
  let mbuf_b = ref (Array.make 64 0) in
  let rec needs_of (e : enode) : int array =
    match Hashtbl.find_opt memo_needs e.eid with
    | Some a -> a
    | None ->
        let own = node_keys e.snode (Sketch.hists sketch e.snode) in
        let kid_sets =
          List.concat_map (fun alts -> List.map needs_of alts) e.kids
        in
        let a =
          match kid_sets with
          | [] -> own
          | _ ->
              (* merge [cur] (length [len], in mbuf_a) with each kid
                 set into mbuf_b, swapping after each pass *)
              let len = ref (Array.length own) in
              let cap = List.fold_left (fun c k -> c + Array.length k) !len
                  kid_sets in
              if Array.length !mbuf_a < cap then begin
                mbuf_a := Array.make cap 0;
                mbuf_b := Array.make cap 0
              end;
              Array.blit own 0 !mbuf_a 0 !len;
              List.iter
                (fun (k : int array) ->
                  let a = !mbuf_a and b = !mbuf_b in
                  let nk = Array.length k in
                  let i = ref 0 and j = ref 0 and m = ref 0 in
                  while !i < !len && !j < nk do
                    let x = a.(!i) and y = k.(!j) in
                    if x < y then begin
                      b.(!m) <- x;
                      incr i
                    end
                    else if y < x then begin
                      b.(!m) <- y;
                      incr j
                    end
                    else begin
                      b.(!m) <- x;
                      incr i;
                      incr j
                    end;
                    incr m
                  done;
                  while !i < !len do
                    b.(!m) <- a.(!i);
                    incr i;
                    incr m
                  done;
                  while !j < nk do
                    b.(!m) <- k.(!j);
                    incr j;
                    incr m
                  done;
                  len := !m;
                  mbuf_a := b;
                  mbuf_b := a)
                kid_sets;
              Array.sub !mbuf_a 0 !len
        in
        Hashtbl.add memo_needs e.eid a;
        a
  in
  (* A compile sees a handful of distinct slots, bound keys and visited
     nodes, so the dynamic sets below are flat arrays with linear scans
     — measurably cheaper than hash tables at this size, in both
     lookups and allocation. *)
  (* dense environment slots, one per distinct edge key bound anywhere *)
  let slot_keys = ref (Array.make 8 0) in
  let n_slots = ref 0 in
  let slot_of key =
    let a = !slot_keys in
    let n = !n_slots in
    let rec find i = if i = n then -1 else if a.(i) = key then i else find (i + 1) in
    let s = find 0 in
    if s >= 0 then s
    else begin
      let a =
        if n = Array.length a then begin
          let b = Array.make (2 * n) 0 in
          Array.blit a 0 b 0 n;
          slot_keys := b;
          b
        end
        else a
      in
      a.(n) <- key;
      n_slots := n + 1;
      n
    end
  in
  (* edge keys bound at the current program point — the static mirror
     of the reference evaluator's environment threading. Binds nest strictly
     (pushed in a node's phase 2, popped at its exit), so a stack. *)
  let bstack = ref (Array.make 16 0) in
  let n_bound = ref 0 in
  let bound_mem key = arr_mem_n !bstack key !n_bound 0 in
  let bound_push key =
    let a =
      if !n_bound = Array.length !bstack then begin
        let b = Array.make (2 * !n_bound) 0 in
        Array.blit !bstack 0 b 0 !n_bound;
        bstack := b;
        b
      end
      else !bstack
    in
    a.(!n_bound) <- key;
    incr n_bound
  in
  (* the int32 slab under construction (ctx/bind dims and slots) *)
  let ibuf = ref (Array.make 64 0) in
  let ilen = ref 0 in
  let ipush v =
    let a =
      if !ilen = Array.length !ibuf then begin
        let b = Array.make (2 * !ilen) 0 in
        Array.blit !ibuf 0 b 0 !ilen;
        ibuf := b;
        b
      end
      else !ibuf
    in
    a.(!ilen) <- v;
    incr ilen
  in
  (* phase-2 scratch, grown to the widest histogram seen; safe to
     share across the recursion because a node's phase-2 loop flushes
     each histogram's layout into the slab before the next iteration,
     and child compiles run strictly before (phase 1) or after
     (phase 4) the parent's phase 2 *)
  let s_ctx_d = ref (Array.make 8 0) in
  let s_ctx_s = ref (Array.make 8 0) in
  let s_bind_d = ref (Array.make 8 0) in
  let s_bind_s = ref (Array.make 8 0) in
  let s_bind_k = ref (Array.make 8 0) in
  let ensure_k k =
    if Array.length !s_ctx_d < k then begin
      s_ctx_d := Array.make k 0;
      s_ctx_s := Array.make k 0;
      s_bind_d := Array.make k 0;
      s_bind_s := Array.make k 0;
      s_bind_k := Array.make k 0
    end
  in
  (* scratch-cell layout: node blocks are assigned relative offsets
     here and shifted past the slot/fixed regions once their sizes are
     final *)
  let scr_off = ref 0 in
  let n_fixed = ref 0 in
  let rev_nodes = ref [] in
  let n_nodes = ref 0 in
  let push p =
    rev_nodes := p :: !rev_nodes;
    let i = !n_nodes in
    incr n_nodes;
    i
  in
  let rec compile_node (e : enode) : int =
    let n = e.snode in
    let hs = Sketch.hists sketch n in
    let harr = node_hists n hs in
    let edge_arrs = hist_edge_arrays n hs in
    let nh = Array.length edge_arrs in
    let branch_first_edges =
      match e.branches with
      | [] -> [||]
      | bs ->
          Array.of_list
            (List.concat_map
               (fun alts -> List.map (fun (b : ebranch) -> ekey n b.bnode) alts)
               bs)
    in
    (* per-alternative facts, each computed once: the first histogram
       covering the kid edge (monomorphic field compares — the generic
       structural equality on [Sketch.dim] records dominated compile
       time) and the subtree needs-set *)
    let alts_arr = Array.of_list (List.concat e.kids) in
    let na = Array.length alts_arr in
    let aneeds = Array.map needs_of alts_arr in
    let cover = Array.make (Stdlib.max 1 na) (-1) in
    for j = 0 to na - 1 do
      cover.(j) <- cover_scan harr nh n alts_arr.(j).snode 0
    done;
    let enum_flag = Array.make (Stdlib.max 1 nh) false in
    for i = 0 to nh - 1 do
      let es = edge_arrs.(i) in
      enum_flag.(i) <-
        arr_mem_n cover i na 0
        || edges_hit es branch_first_edges 0
        || needs_hit es aneeds 0
    done;
    let enum_edges =
      (* every histogram enumerated (the common case: most nodes carry
         one histogram) — the union is the node's memoized key set *)
      if all_true enum_flag 0 then node_keys n hs
      else begin
        let parts = ref [] in
        Array.iteri
          (fun i es -> if enum_flag.(i) then parts := es :: !parts)
          edge_arrs;
        sorted_uniq (concat_arrays !parts)
      end
    in
    let kid_tmp : (bool * tmp_alt array) array =
      let ai = ref (-1) in
      Array.of_list
        (List.map
           (fun alts ->
             let dep = ref false in
             let tas =
               Array.of_list
                 (List.map
                    (fun (a : enode) ->
                      incr ai;
                      let sub = intersects aneeds.(!ai) enum_edges in
                      if sub || mem_sorted (ekey n a.snode) enum_edges then
                        dep := true;
                      { ta = a; t_subdep = sub; t_child = -1; t_fix = -1 })
                    alts)
             in
             (!dep, tas))
           e.kids)
    in
    (* phase 1 — children evaluated under the entry environment:
       independent kids, plus the combo-invariant alternatives of
       dependent kids (the reference evaluator's fixed_values) *)
    for gi = 0 to Array.length kid_tmp - 1 do
      let dep, alts = kid_tmp.(gi) in
      for aj = 0 to Array.length alts - 1 do
        let a = alts.(aj) in
        if not dep then a.t_child <- compile_node a.ta
        else if not a.t_subdep then begin
          a.t_child <- compile_node a.ta;
          a.t_fix <- !n_fixed;
          incr n_fixed
        end
      done
    done;
    (* phase 2 — the enumerated histograms, in order: dimensions bound
       upstream (or by an earlier histogram of this node) join the
       context; the rest bind new slots. A key repeated within one
       histogram neither conditions nor binds twice, mirroring the
       reference evaluator's env_mem guard. *)
    let node_binds = ref 0 in
    let rev_enum = ref [] in
    let n_enum = ref 0 in
    for i = 0 to nh - 1 do
      if enum_flag.(i) then begin
          let dims, h = harr.(i) in
          let k = Array.length dims in
          ensure_k k;
          let ctx_d = !s_ctx_d and ctx_s = !s_ctx_s in
          let bind_d = !s_bind_d and bind_s = !s_bind_s in
          let bind_k = !s_bind_k in
          let nctx = ref 0 and nbind = ref 0 in
          for di = 0 to k - 1 do
            let d = dims.(di) in
            let key = ekey d.src d.dst in
            if bound_mem key then begin
              ctx_d.(!nctx) <- di;
              ctx_s.(!nctx) <- slot_of key;
              incr nctx
            end
            else if not (arr_mem_n bind_k key !nbind 0) then begin
              bind_k.(!nbind) <- key;
              bind_d.(!nbind) <- di;
              bind_s.(!nbind) <- slot_of key;
              incr nbind
            end
          done;
          for j = 0 to !nbind - 1 do
            bound_push bind_k.(j)
          done;
          node_binds := !node_binds + !nbind;
          incr n_enum;
          (* flatten into the slab: ctx dims, ctx slots, bind dims,
             bind slots *)
          let ctx_off = !ilen in
          for j = 0 to !nctx - 1 do
            ipush ctx_d.(j)
          done;
          for j = 0 to !nctx - 1 do
            ipush ctx_s.(j)
          done;
          let bind_off = !ilen in
          for j = 0 to !nbind - 1 do
            ipush bind_d.(j)
          done;
          for j = 0 to !nbind - 1 do
            ipush bind_s.(j)
          done;
          rev_enum :=
            {
              tb = h;
              n_ctx = !nctx;
              ctx_off;
              n_bind = !nbind;
              bind_off;
            }
            :: !rev_enum
        end
    done;
    let enum =
      match !rev_enum with
      | [] -> [||]
      | hd :: _ ->
          let arr = Array.make !n_enum hd in
          List.iteri (fun i hp -> arr.(!n_enum - 1 - i) <- hp) !rev_enum;
          arr
    in
    (* phase 3 — branching predicates: one compile-time constant. A
       branch edge an enumerated histogram covers is one of its
       dimensions, an F-stable edge, so the bucket-conditioned
       P(count >= 1) the reference evaluator reads for it is 1.0, the
       edge's existence fraction; [branch_dep] keeps only where the
       constant enters the float order *)
    let branch_dep =
      Array.exists (fun ed -> mem_sorted ed enum_edges) branch_first_edges
    in
    let branch_const =
      List.fold_left
        (fun acc alts -> acc *. branch_frac sketch n alts)
        1.0 e.branches
    in
    (* phase 4 — children evaluated per bucket combination, under the
       extended environment *)
    for gi = 0 to Array.length kid_tmp - 1 do
      let dep, alts = kid_tmp.(gi) in
      if dep then
        for aj = 0 to Array.length alts - 1 do
          let a = alts.(aj) in
          if a.t_subdep then a.t_child <- compile_node a.ta
        done
    done;
    (* assemble, then pop this node's bindings *)
    let kids =
      Array.map
        (fun (dep, alts) ->
          {
            k_dep = dep;
            alts =
              Array.map
                (fun a ->
                  let ckey = ekey n a.ta.snode in
                  {
                    child = a.t_child;
                    a_vfrac = vfrac sketch a.ta.snode a.ta.vpred;
                    count_slot =
                      (if bound_mem ckey then slot_of ckey else -1);
                    count_const = Sketch.avg_fanout sketch ~src:n ~dst:a.ta.snode;
                    fixed_idx = a.t_fix;
                  })
                alts;
          })
        kid_tmp
    in
    n_bound := !n_bound - !node_binds;
    let scr = !scr_off in
    scr_off := !scr_off + 4 + (5 * (!n_enum + 1));
    push { kids; enum; branch_dep; branch_const; scr }
  in
  let root_idx = compile_node root in
  let root_const =
    float_of_int (G.extent_size syn root.snode) *. vfrac sketch root.snode root.vpred
  in
  let shift = !n_slots + !n_fixed in
  let nodes =
    Array.map
      (fun p -> { p with scr = p.scr + shift })
      (Array.of_list (List.rev !rev_nodes))
  in
  let islab = A1.create Bigarray.Int32 Bigarray.C_layout (Stdlib.max 1 !ilen) in
  for i = 0 to !ilen - 1 do
    A1.unsafe_set islab i (Int32.of_int !ibuf.(i))
  done;
  {
    nodes;
    root = root_idx;
    root_const;
    o_fixed = !n_slots;
    scr_len = shift + !scr_off;
    islab;
  }

(* ------------------------------------------------------------------ *)
(* Interpreter: a zero-allocation flat kernel                          *)

(* All mutable float state lives in the caller-provided float64 arena
   [ba] (layout in {!pnode}); per-histogram index arrays live in the
   plan's int32 slab. Helpers return only unit, int or bool and take
   no float arguments — without flambda, closures, float refs and
   boxed float calls would each allocate, and the [Gc.minor_words]
   test holds this kernel to zero. Float lets below stay unboxed:
   they are consumed only by float arithmetic, comparisons and
   Bigarray stores. *)

let rec expand (t : t) (ba : farr) (slab : iarr) (idx : int) : unit =
  let p = Array.unsafe_get t.nodes idx in
  let base = p.scr in
  let nk = Array.length p.kids in
  (* independent kids: entry-environment contributions *)
  A1.unsafe_set ba (base + 1) 1.0;
  for i = 0 to nk - 1 do
    let kid = Array.unsafe_get p.kids i in
    if not kid.k_dep then begin
      A1.unsafe_set ba (base + 2) 0.0;
      let alts = kid.alts in
      for j = 0 to Array.length alts - 1 do
        let a = Array.unsafe_get alts j in
        let count =
          if a.count_slot >= 0 then A1.unsafe_get ba a.count_slot
          else a.count_const
        in
        expand t ba slab a.child;
        let cres =
          A1.unsafe_get ba (Array.unsafe_get t.nodes a.child).scr
        in
        A1.unsafe_set ba (base + 2)
          (A1.unsafe_get ba (base + 2) +. (count *. (a.a_vfrac *. cres)))
      done;
      A1.unsafe_set ba (base + 1)
        (A1.unsafe_get ba (base + 1) *. A1.unsafe_get ba (base + 2))
    end
  done;
  (* combo-invariant alternative values inside dependent kids *)
  for i = 0 to nk - 1 do
    let kid = Array.unsafe_get p.kids i in
    if kid.k_dep then begin
      let alts = kid.alts in
      for j = 0 to Array.length alts - 1 do
        let a = Array.unsafe_get alts j in
        if a.fixed_idx >= 0 then begin
          expand t ba slab a.child;
          A1.unsafe_set ba (t.o_fixed + a.fixed_idx)
            (a.a_vfrac
            *. A1.unsafe_get ba (Array.unsafe_get t.nodes a.child).scr)
        end
      done
    end
  done;
  let ne = Array.length p.enum in
  let dep =
    if ne = 0 then 1.0
    else begin
      A1.unsafe_set ba (base + 4) 1.0;
      combos t ba slab p 0;
      A1.unsafe_get ba (base + 5)
    end
  in
  let ibf = if p.branch_dep then 1.0 else p.branch_const in
  A1.unsafe_set ba base (ibf *. A1.unsafe_get ba (base + 1) *. dep)

(* per-combination leaf (level [l] = enum length): the branch factor
   first (when an enumerated histogram covers a branch edge), then the
   dependent kids in order — the reference evaluator's combos base
   case. Result (weight x factor) goes into the level's sum cell. *)
and leaf (t : t) (ba : farr) (slab : iarr) (p : pnode) (l : int) : unit =
  let base = p.scr in
  let lb = base + 4 + (5 * l) in
  A1.unsafe_set ba (base + 3) (if p.branch_dep then p.branch_const else 1.0);
  let nk = Array.length p.kids in
  for i = 0 to nk - 1 do
    let kid = Array.unsafe_get p.kids i in
    if kid.k_dep then begin
      A1.unsafe_set ba (base + 2) 0.0;
      let alts = kid.alts in
      for j = 0 to Array.length alts - 1 do
        let a = Array.unsafe_get alts j in
        let count =
          if a.count_slot >= 0 then A1.unsafe_get ba a.count_slot
          else a.count_const
        in
        if a.fixed_idx >= 0 then
          A1.unsafe_set ba (base + 2)
            (A1.unsafe_get ba (base + 2)
            +. (count *. A1.unsafe_get ba (t.o_fixed + a.fixed_idx)))
        else begin
          expand t ba slab a.child;
          A1.unsafe_set ba (base + 2)
            (A1.unsafe_get ba (base + 2)
            +. count
               *. (a.a_vfrac
                  *. A1.unsafe_get ba (Array.unsafe_get t.nodes a.child).scr))
        end
      done;
      A1.unsafe_set ba (base + 3)
        (A1.unsafe_get ba (base + 3) *. A1.unsafe_get ba (base + 2))
    end
  done;
  A1.unsafe_set ba (lb + 1) (A1.unsafe_get ba lb *. A1.unsafe_get ba (base + 3))

(* write bucket [b]'s means into the bound slots *)
and bind_bucket (ba : farr) (slab : iarr) (h : hplan) (b : int) : unit =
  let tb = h.tb in
  let k = tb.Edge_hist.dims in
  for m = 0 to h.n_bind - 1 do
    let o = (b * k) + Int32.to_int (A1.unsafe_get slab (h.bind_off + m)) in
    let s = Int32.to_int (A1.unsafe_get slab (h.bind_off + h.n_bind + m)) in
    A1.unsafe_set ba s (Array.unsafe_get tb.Edge_hist.mean o)
  done

(* bucket [b] compatible with every bound context dimension? *)
and compat_from (ba : farr) (slab : iarr) (h : hplan) (tb : Edge_hist.t)
    (b : int) (m : int) : bool =
  m >= h.n_ctx
  ||
  let k = tb.Edge_hist.dims in
  let o = (b * k) + Int32.to_int (A1.unsafe_get slab (h.ctx_off + m)) in
  let v =
    A1.unsafe_get ba (Int32.to_int (A1.unsafe_get slab (h.ctx_off + h.n_ctx + m)))
  in
  v >= Array.unsafe_get tb.Edge_hist.lo o
  && v <= Array.unsafe_get tb.Edge_hist.hi o
  && compat_from ba slab h tb b (m + 1)

(* one pass over the buckets accumulating compatible mass (into cell
   lb+2, in bucket order) and counting the compatible buckets *)
and count_mass (ba : farr) (slab : iarr) (h : hplan) (tb : Edge_hist.t)
    (lb : int) (b : int) (nb : int) (acc : int) : int =
  if b >= nb then acc
  else if compat_from ba slab h tb b 0 then begin
    A1.unsafe_set ba (lb + 2)
      (A1.unsafe_get ba (lb + 2) +. Array.unsafe_get tb.Edge_hist.frac b);
    count_mass ba slab h tb lb (b + 1) nb (acc + 1)
  end
  else count_mass ba slab h tb lb (b + 1) nb acc

(* context distance of bucket [b], accumulated in the reference evaluator's
   reverse-dimension order, into cell lb+4 *)
and dist_to (ba : farr) (slab : iarr) (h : hplan) (tb : Edge_hist.t)
    (lb : int) (b : int) : unit =
  A1.unsafe_set ba (lb + 4) 0.0;
  let k = tb.Edge_hist.dims in
  for m = h.n_ctx - 1 downto 0 do
    let o = (b * k) + Int32.to_int (A1.unsafe_get slab (h.ctx_off + m)) in
    let dx =
      Array.unsafe_get tb.Edge_hist.mean o
      -. A1.unsafe_get ba
           (Int32.to_int (A1.unsafe_get slab (h.ctx_off + h.n_ctx + m)))
    in
    A1.unsafe_set ba (lb + 4) (A1.unsafe_get ba (lb + 4) +. (dx *. dx))
  done

(* nearest-bucket scan: cell lb+3 holds the best distance so far *)
and best_from (ba : farr) (slab : iarr) (h : hplan) (tb : Edge_hist.t)
    (lb : int) (b : int) (nb : int) (best : int) : int =
  if b >= nb then best
  else begin
    dist_to ba slab h tb lb b;
    if not (A1.unsafe_get ba (lb + 3) <= A1.unsafe_get ba (lb + 4)) then begin
      A1.unsafe_set ba (lb + 3) (A1.unsafe_get ba (lb + 4));
      best_from ba slab h tb lb (b + 1) nb b
    end
    else best_from ba slab h tb lb (b + 1) nb best
  end

(* enumeration level [l]: reads its incoming weight from its own cell,
   writes its combination sum into the next one *)
and combos (t : t) (ba : farr) (slab : iarr) (p : pnode) (l : int) : unit =
  let ne = Array.length p.enum in
  if l = ne then leaf t ba slab p l
  else begin
    let lb = p.scr + 4 + (5 * l) in
    let h = Array.unsafe_get p.enum l in
    let tb = h.tb in
    let nb = tb.Edge_hist.n in
    A1.unsafe_set ba (lb + 1) 0.0;
    if nb = 0 then ()
    else if h.n_ctx = 0 then begin
      let frac = tb.Edge_hist.frac in
      for b = 0 to nb - 1 do
        let w' = A1.unsafe_get ba lb *. Array.unsafe_get frac b in
        if not (w' < 1e-9) then begin
          bind_bucket ba slab h b;
          A1.unsafe_set ba (lb + 5) w';
          combos t ba slab p (l + 1);
          A1.unsafe_set ba (lb + 1)
            (A1.unsafe_get ba (lb + 1) +. A1.unsafe_get ba (lb + 6))
        end
      done
    end
    else begin
      A1.unsafe_set ba (lb + 2) 0.0;
      let nok = count_mass ba slab h tb lb 0 nb 0 in
      if nok = 0 then begin
        (* nearest-bucket fallback *)
        dist_to ba slab h tb lb 0;
        A1.unsafe_set ba (lb + 3) (A1.unsafe_get ba (lb + 4));
        let best = best_from ba slab h tb lb 1 nb 0 in
        let w' = A1.unsafe_get ba lb *. 1.0 in
        if not (w' < 1e-9) then begin
          bind_bucket ba slab h best;
          A1.unsafe_set ba (lb + 5) w';
          combos t ba slab p (l + 1);
          A1.unsafe_set ba (lb + 1) (0.0 +. A1.unsafe_get ba (lb + 6))
        end
      end
      else begin
        let frac = tb.Edge_hist.frac in
        for b = 0 to nb - 1 do
          if compat_from ba slab h tb b 0 then begin
            let w' =
              A1.unsafe_get ba lb
              *. (Array.unsafe_get frac b /. A1.unsafe_get ba (lb + 2))
            in
            if not (w' < 1e-9) then begin
              bind_bucket ba slab h b;
              A1.unsafe_set ba (lb + 5) w';
              combos t ba slab p (l + 1);
              A1.unsafe_set ba (lb + 1)
                (A1.unsafe_get ba (lb + 1) +. A1.unsafe_get ba (lb + 6))
            end
          end
        done
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Per-domain scratch arena                                            *)

(* One float64 slab per domain, grown to the largest plan it has run
   (growth allocates; steady state does not). Plans are immutable and
   may be shared across domains — every run's mutable state is
   domain-local here, so concurrent runs of one plan are safe. *)
type arena = { mutable abuf : farr }

let arena_key : arena Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { abuf = A1.create Bigarray.Float64 Bigarray.C_layout 256 })

let arena_for (t : t) : farr =
  let ar = Domain.DLS.get arena_key in
  if A1.dim ar.abuf < t.scr_len then
    ar.abuf <-
      A1.create Bigarray.Float64 Bigarray.C_layout
        (Stdlib.max t.scr_len (2 * A1.dim ar.abuf));
  ar.abuf

let run (t : t) : float =
  Counters.incr c_runs;
  let ba = arena_for t in
  expand t ba t.islab t.root;
  t.root_const *. A1.unsafe_get ba (Array.unsafe_get t.nodes t.root).scr

let run_batch (ts : t array) (out : float array) : unit =
  if Array.length out < Array.length ts then
    invalid_arg "Plan.run_batch: output array too short";
  for i = 0 to Array.length ts - 1 do
    let t = Array.unsafe_get ts i in
    Counters.incr c_runs;
    let ba = arena_for t in
    expand t ba t.islab t.root;
    out.(i) <-
      t.root_const *. A1.unsafe_get ba (Array.unsafe_get t.nodes t.root).scr
  done

let compile_roots sketch roots =
  Array.of_list (List.map (compile_in (context sketch)) roots)

(* One-shot: each plan is dropped once run, so a query's plans are
   never all live at once. *)
let estimate_roots sketch roots =
  let cx = context sketch in
  List.fold_left (fun acc e -> acc +. run (compile_in cx e)) 0.0 roots

(* ------------------------------------------------------------------ *)
(* Session table                                                       *)

(* One entry per query under its exact identity: its guard facts and
   either its plans (none for a guarded query) or, once they have run
   clean, their sum. The sketch is immutable, so an entry never goes
   stale; a new sketch gets a new table. Owned by one domain (the
   engine session's owner), the only reader and writer; the plan
   arrays it hands out are immutable and may be run on any domain. *)
type held = Plans of t array | Answer of float

type entry = { mutable e_held : held; e_embeddings : int; e_nodes : int }

type cache = {
  c_cx : cctx;  (* its per-node arrays carry over between queries *)
  c_max_embeddings : int;
  c_max_nodes : int;
  c_entries : entry Twig_tbl.t;
  c_chains : Embed.chains_memo;
  mutable c_pending : (Xtwig_path.Path_types.twig * enode list) option;
      (* the enumeration of a query whose [plan.fill] raised *)
}

type found = {
  held : held;
  embeddings : int;
  guarded : bool;
  compiled : bool;
  compile_ns : int;
}

let create_cache ~max_embeddings ~max_embed_nodes sketch =
  {
    c_cx = context sketch;
    c_max_embeddings = max_embeddings;
    c_max_nodes = max_embed_nodes;
    c_entries = Twig_tbl.create 64;
    c_chains = Embed.chains_memo ();
    c_pending = None;
  }

let guarded c e = e.e_embeddings > c.c_max_embeddings || e.e_nodes > c.c_max_nodes

let lookup c q =
  match Twig_tbl.find_opt c.c_entries q with
  | Some e ->
      Counters.incr c_hits;
      {
        held = e.e_held;
        embeddings = e.e_embeddings;
        guarded = guarded c e;
        compiled = false;
        compile_ns = 0;
      }
  | None ->
      Counters.incr c_misses;
      let roots =
        match c.c_pending with
        | Some (q', roots) when Xtwig_path.Path_types.equal_twig q q' -> roots
        | _ ->
            (* the fills that chaos scenarios target; the engine
               retries them *)
            Xtwig_fault.Fault.point "embed.fill";
            let roots = Embed.embeddings ~chains:c.c_chains c.c_cx.cx_syn q in
            c.c_pending <- Some (q, roots);
            roots
      in
      let n = List.length roots in
      let e_nodes =
        if n > c.c_max_embeddings then 0
        else List.fold_left (fun a e -> a + Embed.size e) 0 roots
      in
      let e = { e_held = Plans [||]; e_embeddings = n; e_nodes } in
      let found =
        if guarded c e then
          { held = e.e_held; embeddings = n; guarded = true; compiled = false; compile_ns = 0 }
        else begin
          Xtwig_fault.Fault.point "plan.fill";
          let t0 = Counters.now_ns () in
          (* the needs memo is keyed by embedding ids, unique only
             within one enumeration, so each query starts a fresh one *)
          let cx = { c.c_cx with cx_needs = Hashtbl.create 64 } in
          let plans = Array.of_list (List.map (compile_in cx) roots) in
          let compile_ns = Int64.to_int (Int64.sub (Counters.now_ns ()) t0) in
          e.e_held <- Plans plans;
          { held = e.e_held; embeddings = n; guarded = false; compiled = true; compile_ns }
        end
      in
      Twig_tbl.replace c.c_entries q e;
      c.c_pending <- None;
      found

let record c q v =
  match Twig_tbl.find_opt c.c_entries q with
  | Some e -> e.e_held <- Answer v
  | None -> ()
