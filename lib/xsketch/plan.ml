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

   A plan is three flat arrays (layout at {!t}): an int32 slab of node
   blocks and dimension tables, its float constants, and the
   histograms it enumerates. The compiler builds them, with all of its
   working state, in a per-domain scratch record ({!scratch}), so a
   steady-state compile allocates only the few boxed floats the
   sketch's accessors return. A one-shot estimate runs each plan in
   place and drops it; a plan that outlives the call (a session
   table's) is copied out into arrays it owns. Both are the same
   layout, run by the same kernel.

   The run-time interpreter [expand] is a flat numeric kernel: all
   mutable float state (environment slots, fixed values, per-node and
   per-enumeration-level accumulator cells) lives in the scratch's
   float64 Bigarray arena. The kernel allocates nothing on the OCaml
   heap: no closures, no float refs, no boxed float arguments or
   returns (we are compiled without flambda, so each of those would
   allocate) — held by a [Gc.minor_words] delta test over
   {!run_batch} in test/test_plan.ml, which also bounds the words of
   a one-shot compile.

   Byte-identity contract: [expand] replays the recursive reference
   evaluator's float operations in the exact same order (fold orders,
   the [w' < 1e-9] pruning, the reverse-dimension context distance,
   the renormalization in bucket order), so a plan compiled from [e]
   runs to that evaluator's estimate of [e]
   (test/estimate_reference.ml) bit-for-bit. test/test_plan.ml holds
   this differentially across datasets, workloads and refinement
   budgets. *)

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

(* One plan, three flat arrays. A node is named by the slab offset of
   its block, children before parents:

     nd+0  scr: the node's cell block, relative to [o_nodes]
     nd+1  nk: twig kids
     nd+2  ne: enumerated histograms
     nd+3  branch_dep (0/1)
     nd+4  consts index of branch_const
     nd+5  ne histogram entries of 5: tabs index, n_ctx, ctx_off,
           n_bind, bind_off
     then  nk kid entries: k_dep (0/1), n_alts, and n_alts alternative
           entries of 4: child node, count_slot, fixed_idx, consts
           index ci (value fraction at ci, average fanout at ci+1)

   A histogram's context dimensions (the correlation set D at this
   program point) and the dimensions it binds live elsewhere in the
   slab: [ctx_off] addresses [n_ctx] dimension indices followed by
   [n_ctx] environment slots, [bind_off] likewise for the bound
   dimensions. An alternative's edge count comes from slot
   [count_slot] when an enumerated bucket binds it, else from its
   average fanout; [fixed_idx >= 0] when it sits under a
   bucket-dependent kid but its own subtree value is combo-invariant
   and is precomputed once into the fixed cells. [consts.(0)] is the
   root constant (extent size x root value fraction).

   The arena holds the environment slots at [0, o_fixed), the fixed
   values at [o_fixed, o_nodes) and the node blocks from [o_nodes]: +0
   result, +1 independent-kid product, +2 kid alternative sum, +3 leaf
   factor, then one 5-cell block per enumeration level (including the
   leaf level): +0 incoming weight, +1 combination sum, +2 compatible
   mass, +3 best distance, +4 distance accumulator. [branch_const] is
   the product of the node's branching-predicate fractions;
   [branch_dep] says where it is applied: as each bucket combination's
   initial leaf factor when an enumerated histogram covers a branch
   edge, else once at the node (the reference evaluator's float order
   either way). *)
type t = {
  prog : iarr;
  consts : float array;
  tabs : Edge_hist.t array;
  root : int;
  o_fixed : int;  (* = slot count *)
  o_nodes : int;
  scr_len : int;  (* arena cells the kernel touches *)
}

(* ------------------------------------------------------------------ *)
(* The per-domain scratch                                              *)

(* Everything a compile and a run work in. The plan under
   construction is [prog]/[consts]/[tabs] up to their lengths; the rest
   is the compiler's working state, reset on entry to every compile
   ([start_plan]) or every query ([start_query]), so a raise leaves
   nothing stale. Arrays grow to the largest plan seen and never
   shrink. *)
type scratch = {
  mutable arena : farr;  (* the run's float cells *)
  mutable prog : iarr;
  mutable plen : int;
  mutable consts : float array;
  mutable clen : int;
  mutable tabs : Edge_hist.t array;
  mutable tlen : int;
  (* dense environment slots, one per distinct edge key bound anywhere;
     a compile sees a handful, so flat arrays with linear scans *)
  mutable slot_keys : int array;
  mutable n_slots : int;
  (* edge keys bound at the current program point — the static mirror
     of the reference evaluator's environment threading. Binds nest
     strictly (pushed in a node's phase 2, popped at its exit), so a
     stack. *)
  mutable bstack : int array;
  mutable n_bound : int;
  (* per-node staging, a stack of frames (layout in [compile_node]):
     a node's frame outlives its children's compiles *)
  mutable stg : int array;
  mutable stg_len : int;
  mutable estg : enode array;  (* the frames' kid alternatives *)
  mutable estg_len : int;
  mutable ebuf : int array;  (* the staged node's enumerated edge keys *)
  (* phase-2 scratch, grown to the widest histogram seen *)
  mutable s_ctx_d : int array;
  mutable s_ctx_s : int array;
  mutable s_bind_d : int array;
  mutable s_bind_s : int array;
  mutable s_bind_k : int array;
  mutable scr_off : int;
  mutable n_fixed : int;
  (* needs-sets per embedding node, for one query: [eid] restarts at 0
     with every enumeration, so an entry is valid only while its stamp
     is the current query's [qgen]; the sets live in [npool] *)
  mutable qgen : int;
  mutable nd_gen : int array;
  mutable nd_off : int array;
  mutable nd_len : int array;
  mutable npool : int array;
  mutable npool_len : int;
  mutable mbuf_a : int array;
  mutable mbuf_b : int array;
  (* per-synopsis-node sorted-uniq union of every histogram's edge keys
     (the node's own contribution to any needs-set), valid for one
     sketch: an entry is valid while its stamp is [sgen], which moves
     whenever a compile's sketch is not [cx_sketch] *)
  mutable cx_sketch : Sketch.t option;
  mutable nn : int;  (* synopsis node count: edge key = src * nn + dst *)
  mutable sgen : int;
  mutable nk_gen : int array;
  mutable nk_off : int array;
  mutable nk_len : int array;
  mutable kpool : int array;
  mutable kpool_len : int;
}

let no_enode = { eid = -1; snode = 0; vpred = None; branches = []; kids = [] }

(* Arrays start at one cell (the histogram and per-node tables empty)
   and double on demand, so the suites drive each growth path. *)
let fresh_scratch () =
  let ints () = Array.make 1 0 in
  {
    arena = A1.create Bigarray.Float64 Bigarray.C_layout 1;
    prog = A1.create Bigarray.Int32 Bigarray.C_layout 1;
    plen = 0;
    consts = Array.make 1 0.0;
    clen = 0;
    tabs = [||];
    tlen = 0;
    slot_keys = ints ();
    n_slots = 0;
    bstack = ints ();
    n_bound = 0;
    stg = ints ();
    stg_len = 0;
    estg = [| no_enode |];
    estg_len = 0;
    ebuf = ints ();
    s_ctx_d = ints ();
    s_ctx_s = ints ();
    s_bind_d = ints ();
    s_bind_s = ints ();
    s_bind_k = ints ();
    scr_off = 0;
    n_fixed = 0;
    qgen = 0;
    nd_gen = ints ();
    nd_off = ints ();
    nd_len = ints ();
    npool = ints ();
    npool_len = 0;
    mbuf_a = ints ();
    mbuf_b = ints ();
    cx_sketch = None;
    nn = 0;
    sgen = 0;
    nk_gen = [||];
    nk_off = [||];
    nk_len = [||];
    kpool = ints ();
    kpool_len = 0;
  }

(* Borrowed, never shared: a call takes its domain's record with
   [Atomic.exchange], leaving [vacant] in the slot, and puts it back
   when done. A call that finds [vacant] (a second systhread of the
   domain mid-call, a reentrant call) works in a fresh record; a raise
   before the put-back only costs the record. *)
let vacant = fresh_scratch ()

let slot_key : scratch Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make (fresh_scratch ()))

let borrow () =
  let s = Atomic.exchange (Domain.DLS.get slot_key) vacant in
  if s == vacant then fresh_scratch () else s

let give_back s = Atomic.set (Domain.DLS.get slot_key) s

(* [a] with room for [n] cells, its first [len] kept *)
let grown (a : int array) len n =
  let b = Array.make (Stdlib.max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 len;
  b

let arena_for s n =
  if A1.dim s.arena < n then
    s.arena <-
      A1.create Bigarray.Float64 Bigarray.C_layout
        (Stdlib.max n (2 * A1.dim s.arena));
  s.arena

(* append to the plan under construction: [cpush] and [tpush] return
   the new element's index *)
let ipush s v =
  if s.plen = A1.dim s.prog then begin
    let b = A1.create Bigarray.Int32 Bigarray.C_layout (2 * s.plen) in
    A1.blit s.prog (A1.sub b 0 s.plen);
    s.prog <- b
  end;
  A1.unsafe_set s.prog s.plen (Int32.of_int v);
  s.plen <- s.plen + 1

let cpush s (v : float) =
  if s.clen = Array.length s.consts then begin
    let b = Array.make (2 * s.clen) 0.0 in
    Array.blit s.consts 0 b 0 s.clen;
    s.consts <- b
  end;
  Array.unsafe_set s.consts s.clen v;
  s.clen <- s.clen + 1;
  s.clen - 1

let tpush s (h : Edge_hist.t) =
  if s.tlen = Array.length s.tabs then begin
    let b = Array.make (Stdlib.max 8 (2 * s.tlen)) h in
    Array.blit s.tabs 0 b 0 s.tlen;
    s.tabs <- b
  end;
  s.tabs.(s.tlen) <- h;
  s.tlen <- s.tlen + 1;
  s.tlen - 1

(* ------------------------------------------------------------------ *)
(* Compile-time constants                                              *)

let vfrac sketch snode = function
  | None -> 1.0
  | Some p -> Sketch.value_frac sketch snode p

(* Existence fraction of one branching predicate (a list of alternative
   embedded paths) below an element of node [u]: expected number of
   matching children, capped at 1. The synopsis records the exact
   unconditioned existence fraction of every edge. Closure-free (see
   below): the sum and the product fold left, as the reference
   evaluator's do. *)
let rec branch_frac sketch u (alts : ebranch list) =
  Stdlib.min 1.0 (alts_sum sketch u alts 0.0)

and alts_sum sketch u (alts : ebranch list) acc =
  match alts with
  | [] -> acc
  | b :: rest ->
      let expected = Sketch.exist_frac sketch ~src:u ~dst:b.bnode in
      let nested = preds_prod sketch b.bnode b.bsubs (vfrac sketch b.bnode b.bvpred) in
      alts_sum sketch u rest (acc +. Stdlib.min 1.0 (expected *. nested))

(* [acc] times each predicate's existence fraction below [u], in order *)
and preds_prod sketch u (preds : ebranch list list) acc =
  match preds with
  | [] -> acc
  | alts :: rest -> preds_prod sketch u rest (acc *. branch_frac sketch u alts)

(* Closure-free scans for the compiler's per-node analysis:
   top-level recursive functions taking every capture as an argument
   allocate nothing, where the equivalent local closures cost a block
   each per node visited. Sets are sorted-uniq ranges of int arrays
   with binary-search membership and two-pointer intersection. *)

(* x in the sorted range a.(off .. off+len-1) *)
let mem_sorted (x : int) (a : int array) off len =
  let lo = ref off in
  let hi = ref (off + len) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = a.(mid) in
    if v = x then found := true else if v < x then lo := mid + 1 else hi := mid
  done;
  !found

(* do two sorted ranges share an element? *)
let intersects (a : int array) aoff alen (b : int array) blen =
  let i = ref aoff and j = ref 0 in
  let hit = ref false in
  while (not !hit) && !i < aoff + alen && !j < blen do
    let x = a.(!i) and y = b.(!j) in
    if x = y then hit := true else if x < y then incr i else incr j
  done;
  !hit

(* sort a.(off .. off+len-1) ascending and drop duplicates in place
   (insertion sort: a node's keys are a handful); the new length *)
let sort_uniq (a : int array) off len =
  for i = off + 1 to off + len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= off && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  if len = 0 then 0
  else begin
    let m = ref (off + 1) in
    for i = off + 1 to off + len - 1 do
      if a.(i) <> a.(!m - 1) then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    !m - off
  end

(* does [dims] contain a Forward dimension src->dst? *)
let rec dims_cover (dims : Sketch.dim array) src dst i =
  i < Array.length dims
  && ((let d = dims.(i) in
       d.src = src && d.dst = dst
       && match d.kind with Sketch.Forward -> true | _ -> false)
     || dims_cover dims src dst (i + 1))

(* index of the first histogram whose dimensions cover src->dst, -1
   when none does *)
let rec cover_scan (hs : (Sketch.dim array * Edge_hist.t) list) src dst i =
  match hs with
  | [] -> -1
  | (dims, _) :: rest ->
      if dims_cover dims src dst 0 then i else cover_scan rest src dst (i + 1)

(* prefix membership: x in a.(0 .. n-1) *)
let rec arr_mem_n (a : int array) (x : int) n i =
  i < n && (a.(i) = x || arr_mem_n a x n (i + 1))

(* index of x in a.(0 .. n-1), -1 when absent *)
let rec index_of (a : int array) (x : int) n i =
  if i = n then -1 else if a.(i) = x then i else index_of a x n (i + 1)

(* is [key] the edge from [u] to the first node of a branching
   alternative? *)
let rec branch_hit (bs : ebranch list list) u nn key =
  match bs with
  | [] -> false
  | alts :: rest -> alt_hit alts u nn key || branch_hit rest u nn key

and alt_hit (alts : ebranch list) u nn key =
  match alts with
  | [] -> false
  | b :: rest -> (u * nn) + b.bnode = key || alt_hit rest u nn key

(* is some branch edge of [u] in the sorted a.(0 .. len-1)? *)
let rec branch_in (bs : ebranch list list) u nn (a : int array) len =
  match bs with
  | [] -> false
  | alts :: rest -> alt_in alts u nn a len || branch_in rest u nn a len

and alt_in (alts : ebranch list) u nn a len =
  match alts with
  | [] -> false
  | b :: rest -> mem_sorted ((u * nn) + b.bnode) a 0 len || alt_in rest u nn a len

(* is some dimension of [dims] a branch edge of [u]? *)
let rec dims_hit_branches (dims : Sketch.dim array) bs u nn i =
  i < Array.length dims
  && (let d = dims.(i) in
      branch_hit bs u nn ((d.src * nn) + d.dst)
      || dims_hit_branches dims bs u nn (i + 1))

(* is some dimension of [dims] in the sorted range? *)
let rec dims_in (dims : Sketch.dim array) nn (a : int array) off len i =
  i < Array.length dims
  && (let d = dims.(i) in
      mem_sorted ((d.src * nn) + d.dst) a off len || dims_in dims nn a off len (i + 1))

let rec count_alts (groups : enode list list) acc =
  match groups with [] -> acc | g :: rest -> count_alts rest (acc + List.length g)

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)

let start_query s sketch =
  s.qgen <- s.qgen + 1;
  s.npool_len <- 0;
  match s.cx_sketch with
  | Some sk when sk == sketch -> ()
  | _ ->
      let nn = G.node_count (Sketch.synopsis sketch) in
      s.cx_sketch <- Some sketch;
      s.nn <- nn;
      s.sgen <- s.sgen + 1;
      s.kpool_len <- 0;
      if Array.length s.nk_gen < nn then begin
        s.nk_gen <- Array.make nn 0;
        s.nk_off <- Array.make nn 0;
        s.nk_len <- Array.make nn 0
      end

let start_plan s =
  s.plen <- 0;
  s.clen <- 1;  (* consts.(0): the root constant *)
  s.tlen <- 0;
  s.n_slots <- 0;
  s.n_bound <- 0;
  s.stg_len <- 0;
  s.estg_len <- 0;
  s.scr_off <- 0;
  s.n_fixed <- 0

(* every histogram's edge keys, appended to kpool.(off + len ..); the
   new length *)
let rec gather_keys s off (hs : (Sketch.dim array * Edge_hist.t) list) len =
  match hs with
  | [] -> len
  | (dims, _) :: rest ->
      let k = Array.length dims and nn = s.nn in
      if Array.length s.kpool < off + len + k then
        s.kpool <- grown s.kpool (off + len) (off + len + k);
      for i = 0 to k - 1 do
        let d = dims.(i) in
        s.kpool.(off + len + i) <- (d.src * nn) + d.dst
      done;
      gather_keys s off rest (len + k)

(* the node's own keys, sorted once per synopsis node and sketch *)
let node_keys s sketch n =
  if s.nk_gen.(n) <> s.sgen then begin
    let off = s.kpool_len in
    let len = sort_uniq s.kpool off (gather_keys s off (Sketch.hists sketch n) 0) in
    s.kpool_len <- off + len;
    s.nk_off.(n) <- off;
    s.nk_len.(n) <- len;
    s.nk_gen.(n) <- s.sgen
  end

(* both merge buffers with room for [n], mbuf_a's first [len] kept *)
let ensure_mbuf s len n =
  if Array.length s.mbuf_a < n || Array.length s.mbuf_b < n then begin
    s.mbuf_a <- grown s.mbuf_a len n;
    s.mbuf_b <- Array.make (Array.length s.mbuf_a) 0
  end

(* merge the current union (mbuf_a, [len]) with the sorted set
   npool.(off .. off+klen-1) into mbuf_b, then swap; the new length *)
let merge_into s len off klen =
  ensure_mbuf s len (len + klen);
  let a = s.mbuf_a and b = s.mbuf_b and k = s.npool in
  let i = ref 0 and j = ref off and m = ref 0 in
  while !i < len && !j < off + klen do
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
  while !i < len do
    b.(!m) <- a.(!i);
    incr i;
    incr m
  done;
  while !j < off + klen do
    b.(!m) <- k.(!j);
    incr j;
    incr m
  done;
  s.mbuf_a <- b;
  s.mbuf_b <- a;
  !m

(* Needs-set of a subtree: the sorted-uniq union of the node's own
   keys with the kids' needs-sets, built by sorted merges — each input
   is already sorted-uniq, so no re-sort of the whole set.
   Intermediate unions ping-pong between two buffers (safe: the kids'
   sets are materialized before any merging starts); the result is
   appended to [npool] under the node's [eid]. *)
let rec needs_of s sketch (e : enode) =
  let id = e.eid in
  if id >= Array.length s.nd_gen then begin
    let len = Array.length s.nd_gen in
    s.nd_gen <- grown s.nd_gen len (id + 1);
    s.nd_off <- grown s.nd_off len (id + 1);
    s.nd_len <- grown s.nd_len len (id + 1)
  end;
  if s.nd_gen.(id) <> s.qgen then begin
    node_keys s sketch e.snode;
    needs_groups s sketch e.kids;
    let n = e.snode in
    let own = s.nk_len.(n) in
    ensure_mbuf s 0 own;
    Array.blit s.kpool s.nk_off.(n) s.mbuf_a 0 own;
    let len = merge_groups s e.kids own in
    let off = s.npool_len in
    if Array.length s.npool < off + len then s.npool <- grown s.npool off (off + len);
    Array.blit s.mbuf_a 0 s.npool off len;
    s.npool_len <- off + len;
    s.nd_off.(id) <- off;
    s.nd_len.(id) <- len;
    s.nd_gen.(id) <- s.qgen
  end

and needs_groups s sketch = function
  | [] -> ()
  | alts :: rest ->
      needs_alts s sketch alts;
      needs_groups s sketch rest

and needs_alts s sketch = function
  | [] -> ()
  | a :: rest ->
      needs_of s sketch a;
      needs_alts s sketch rest

and merge_groups s groups len =
  match groups with
  | [] -> len
  | alts :: rest -> merge_groups s rest (merge_alts s alts len)

and merge_alts s (alts : enode list) len =
  match alts with
  | [] -> len
  | a :: rest -> merge_alts s rest (merge_into s len s.nd_off.(a.eid) s.nd_len.(a.eid))

let slot_of s key =
  let n = s.n_slots in
  let i = index_of s.slot_keys key n 0 in
  if i >= 0 then i
  else begin
    if n = Array.length s.slot_keys then s.slot_keys <- grown s.slot_keys n (n + 1);
    s.slot_keys.(n) <- key;
    s.n_slots <- n + 1;
    n
  end

let bound_mem s key = arr_mem_n s.bstack key s.n_bound 0

let bound_push s key =
  if s.n_bound = Array.length s.bstack then
    s.bstack <- grown s.bstack s.n_bound (s.n_bound + 1);
  s.bstack.(s.n_bound) <- key;
  s.n_bound <- s.n_bound + 1

(* is some alternative j.. covered by histogram [i]? *)
let rec covered (stg : int array) aa na i j =
  j < na && (stg.(aa + (4 * j)) = i || covered stg aa na i (j + 1))

(* does some alternative j.. need an edge of [dims]? *)
let rec needed s (dims : Sketch.dim array) eb na j =
  j < na
  && (let id = s.estg.(eb + j).eid in
      dims_in dims s.nn s.npool s.nd_off.(id) s.nd_len.(id) 0
      || needed s dims eb na (j + 1))

(* the histograms' enumeration flags into stg.(fa + i): those covering
   a kid edge (some alternative's [cover] is [i]), a branch edge, or
   an edge some alternative's subtree needs; true when every histogram
   is enumerated *)
let rec flag_hists s (e : enode) aa eb na fa hs i all =
  match hs with
  | [] -> all
  | (dims, _) :: rest ->
      let f =
        covered s.stg aa na i 0
        || dims_hit_branches dims e.branches e.snode s.nn 0
        || needed s dims eb na 0
      in
      s.stg.(fa + i) <- (if f then 1 else 0);
      flag_hists s e aa eb na fa rest (i + 1) (all && f)

(* the flagged histograms' edge keys, appended to ebuf.(len ..); the
   new length *)
let rec gather_flagged s fa (hs : (Sketch.dim array * Edge_hist.t) list) i len =
  match hs with
  | [] -> len
  | (dims, _) :: rest ->
      if s.stg.(fa + i) = 0 then gather_flagged s fa rest (i + 1) len
      else begin
        let k = Array.length dims and nn = s.nn in
        if Array.length s.ebuf < len + k then s.ebuf <- grown s.ebuf len (len + k);
        for d = 0 to k - 1 do
          let dm = dims.(d) in
          s.ebuf.(len + d) <- (dm.src * nn) + dm.dst
        done;
        gather_flagged s fa rest (i + 1) (len + k)
      end

(* the enumerated histograms' edge keys, sorted-uniq, into ebuf; the
   length *)
let enum_edges s sketch n fa hs all =
  if all then begin
    (* the common case (most nodes carry one histogram): the union is
       the node's memoized key set *)
    node_keys s sketch n;
    let len = s.nk_len.(n) in
    if Array.length s.ebuf < len then s.ebuf <- grown s.ebuf 0 len;
    Array.blit s.kpool s.nk_off.(n) s.ebuf 0 len;
    len
  end
  else sort_uniq s.ebuf 0 (gather_flagged s fa hs 0 0)

(* stage kid groups and their alternatives, in order: the group's
   alternative count, and each alternative's enode, needs-set and
   covering histogram *)
let rec stage_groups s sketch hs n fb aa eb (groups : enode list list) gi j =
  match groups with
  | [] -> ()
  | alts :: rest ->
      s.stg.(fb + (2 * gi)) <- 0;
      s.stg.(fb + (2 * gi) + 1) <- List.length alts;
      let j = stage_alts s sketch hs n aa eb alts j in
      stage_groups s sketch hs n fb aa eb rest (gi + 1) j

and stage_alts s sketch hs n aa eb (alts : enode list) j =
  match alts with
  | [] -> j
  | a :: rest ->
      let o = aa + (4 * j) in
      s.estg.(eb + j) <- a;
      needs_of s sketch a;
      s.stg.(o) <- cover_scan hs n a.snode 0;
      s.stg.(o + 1) <- 0;
      s.stg.(o + 2) <- -1;
      s.stg.(o + 3) <- -1;
      stage_alts s sketch hs n aa eb rest (j + 1)

(* Phase 2 for one enumerated histogram: dimensions bound upstream (or
   by an earlier histogram of this node) join the context; the rest
   bind new slots. A key repeated within one histogram neither
   conditions nor binds twice, mirroring the reference evaluator's
   env_mem guard. The layout is flattened into the slab (ctx dims, ctx
   slots, bind dims, bind slots) and the histogram's entry staged at
   stg.(h); the number of keys bound. *)
let stage_hist s (dims : Sketch.dim array) tb h =
  let nn = s.nn in
  let k = Array.length dims in
  if Array.length s.s_ctx_d < k then begin
    s.s_ctx_d <- Array.make k 0;
    s.s_ctx_s <- Array.make k 0;
    s.s_bind_d <- Array.make k 0;
    s.s_bind_s <- Array.make k 0;
    s.s_bind_k <- Array.make k 0
  end;
  let nctx = ref 0 and nbind = ref 0 in
  for di = 0 to k - 1 do
    let d = dims.(di) in
    let key = (d.src * nn) + d.dst in
    if bound_mem s key then begin
      s.s_ctx_d.(!nctx) <- di;
      s.s_ctx_s.(!nctx) <- slot_of s key;
      incr nctx
    end
    else if not (arr_mem_n s.s_bind_k key !nbind 0) then begin
      s.s_bind_k.(!nbind) <- key;
      s.s_bind_d.(!nbind) <- di;
      s.s_bind_s.(!nbind) <- slot_of s key;
      incr nbind
    end
  done;
  for j = 0 to !nbind - 1 do
    bound_push s s.s_bind_k.(j)
  done;
  let ctx_off = s.plen in
  for j = 0 to !nctx - 1 do
    ipush s s.s_ctx_d.(j)
  done;
  for j = 0 to !nctx - 1 do
    ipush s s.s_ctx_s.(j)
  done;
  let bind_off = s.plen in
  for j = 0 to !nbind - 1 do
    ipush s s.s_bind_d.(j)
  done;
  for j = 0 to !nbind - 1 do
    ipush s s.s_bind_s.(j)
  done;
  let tab = tpush s tb in
  let g = s.stg in
  g.(h) <- tab;
  g.(h + 1) <- !nctx;
  g.(h + 2) <- ctx_off;
  g.(h + 3) <- !nbind;
  g.(h + 4) <- bind_off;
  !nbind

(* Compile the subtree at [e] into the scratch; its node offset. The
   node's staging frame, above its ancestors' on [stg]:
     fb + 2gi     kid group gi: dep (0/1), n_alts
     aa + 4j      alternative j: cover, subdep (0/1), child, fixed_idx
     fa + i       histogram i: enumerated (0/1)
     ha + 5l      enumerated histogram l: its staged entry
   with alternative j's enode at estg.(eb + j). *)
let rec compile_node s sketch (e : enode) : int =
  let n = e.snode and nn = s.nn in
  let hs = Sketch.hists sketch n in
  let nh = List.length hs in
  let ng = List.length e.kids in
  let na = count_alts e.kids 0 in
  let fb = s.stg_len and eb = s.estg_len in
  let aa = fb + (2 * ng) in
  let fa = aa + (4 * na) in
  let ha = fa + nh in
  let top = ha + (5 * nh) in
  if Array.length s.stg < top then s.stg <- grown s.stg fb top;
  if Array.length s.estg < eb + na then begin
    let b = Array.make (Stdlib.max (eb + na) (2 * Array.length s.estg)) no_enode in
    Array.blit s.estg 0 b 0 eb;
    s.estg <- b
  end;
  s.stg_len <- top;
  s.estg_len <- eb + na;
  (* per-alternative facts, each computed once: the first histogram
     covering the kid edge (monomorphic field compares — the generic
     structural equality on [Sketch.dim] records dominated compile
     time) and the subtree needs-set *)
  stage_groups s sketch hs n fb aa eb e.kids 0 0;
  let all = flag_hists s e aa eb na fa hs 0 true in
  let elen = enum_edges s sketch n fa hs all in
  (* kid dependence: an alternative whose subtree needs an enumerated
     edge, or whose own edge is enumerated, makes its kid per-combo *)
  let j = ref 0 in
  for gi = 0 to ng - 1 do
    let dep = ref false in
    for _ = 1 to s.stg.(fb + (2 * gi) + 1) do
      let a = s.estg.(eb + !j) in
      let sub = intersects s.npool s.nd_off.(a.eid) s.nd_len.(a.eid) s.ebuf elen in
      if sub || mem_sorted ((n * nn) + a.snode) s.ebuf 0 elen then dep := true;
      s.stg.(aa + (4 * !j) + 1) <- (if sub then 1 else 0);
      incr j
    done;
    s.stg.(fb + (2 * gi)) <- (if !dep then 1 else 0)
  done;
  (* phase 3's placement, decided while [ebuf] is this node's: a
     branch edge an enumerated histogram covers is one of its
     dimensions, an F-stable edge, so the bucket-conditioned
     P(count >= 1) the reference evaluator reads for it is 1.0, the
     edge's existence fraction; [bdep] keeps only where the constant
     enters the float order *)
  let bdep = branch_in e.branches n nn s.ebuf elen in
  (* phase 1 — children evaluated under the entry environment:
     independent kids, plus the combo-invariant alternatives of
     dependent kids (the reference evaluator's fixed_values) *)
  let j = ref 0 in
  for gi = 0 to ng - 1 do
    let dep = s.stg.(fb + (2 * gi)) = 1 in
    for _ = 1 to s.stg.(fb + (2 * gi) + 1) do
      let o = aa + (4 * !j) in
      if not dep then begin
        let c = compile_node s sketch s.estg.(eb + !j) in
        s.stg.(o + 2) <- c
      end
      else if s.stg.(o + 1) = 0 then begin
        let c = compile_node s sketch s.estg.(eb + !j) in
        s.stg.(o + 2) <- c;
        s.stg.(o + 3) <- s.n_fixed;
        s.n_fixed <- s.n_fixed + 1
      end;
      incr j
    done
  done;
  (* phase 2 — the enumerated histograms, in order *)
  let node_binds = ref 0 and ne = ref 0 in
  let rest = ref hs in
  for i = 0 to nh - 1 do
    match !rest with
    | [] -> ()
    | (dims, tb) :: tl ->
        rest := tl;
        if s.stg.(fa + i) = 1 then begin
          node_binds := !node_binds + stage_hist s dims tb (ha + (5 * !ne));
          incr ne
        end
  done;
  (* phase 3 — branching predicates: one compile-time constant *)
  let bconst = preds_prod sketch n e.branches 1.0 in
  (* phase 4 — children evaluated per bucket combination, under the
     extended environment *)
  let j = ref 0 in
  for gi = 0 to ng - 1 do
    let dep = s.stg.(fb + (2 * gi)) = 1 in
    for _ = 1 to s.stg.(fb + (2 * gi) + 1) do
      let o = aa + (4 * !j) in
      if dep && s.stg.(o + 1) = 1 then begin
        let c = compile_node s sketch s.estg.(eb + !j) in
        s.stg.(o + 2) <- c
      end;
      incr j
    done
  done;
  (* assemble the node block, then pop this node's bindings and frame *)
  let nd = s.plen in
  ipush s s.scr_off;
  ipush s ng;
  ipush s !ne;
  ipush s (if bdep then 1 else 0);
  ipush s (cpush s bconst);
  for m = ha to ha + (5 * !ne) - 1 do
    ipush s s.stg.(m)
  done;
  let j = ref 0 in
  for gi = 0 to ng - 1 do
    let len = s.stg.(fb + (2 * gi) + 1) in
    ipush s s.stg.(fb + (2 * gi));
    ipush s len;
    for _ = 1 to len do
      let a = s.estg.(eb + !j) and o = aa + (4 * !j) in
      let ckey = (n * nn) + a.snode in
      let ci = cpush s (vfrac sketch a.snode a.vpred) in
      ignore (cpush s (Sketch.avg_fanout sketch ~src:n ~dst:a.snode));
      ipush s s.stg.(o + 2);
      ipush s (if bound_mem s ckey then slot_of s ckey else -1);
      ipush s s.stg.(o + 3);
      ipush s ci;
      incr j
    done
  done;
  s.n_bound <- s.n_bound - !node_binds;
  s.scr_off <- s.scr_off + 4 + (5 * (!ne + 1));
  s.stg_len <- fb;
  s.estg_len <- eb;
  nd

(* ------------------------------------------------------------------ *)
(* Interpreter: a zero-allocation flat kernel                          *)

(* All mutable float state lives in the arena [ba] (layout at {!t});
   the program is the plan's int32 slab. Helpers return only unit, int
   or bool and take no float arguments — without flambda, closures,
   float refs and boxed float calls would each allocate, and the
   [Gc.minor_words] test holds this kernel to zero. Float lets below
   stay unboxed: they are consumed only by float arithmetic,
   comparisons and Bigarray stores. A histogram entry [h] holds its
   context dimensions from [coff] = slab.(h + 2), [nctx] =
   slab.(h + 1) of them. *)

let[@inline] ig (slab : iarr) i = Int32.to_int (A1.unsafe_get slab i)

(* write bucket [b]'s means into the bound slots of entry [h] *)
let bind_bucket (ba : farr) (slab : iarr) h (tb : Edge_hist.t) b =
  let k = tb.Edge_hist.dims in
  let nbind = ig slab (h + 3) and off = ig slab (h + 4) in
  for m = 0 to nbind - 1 do
    let o = (b * k) + ig slab (off + m) in
    let s = ig slab (off + nbind + m) in
    A1.unsafe_set ba s (Array.unsafe_get tb.Edge_hist.mean o)
  done

(* bucket [b] compatible with every bound context dimension? *)
let rec compat_from (ba : farr) (slab : iarr) coff nctx (tb : Edge_hist.t) b m =
  m >= nctx
  ||
  let k = tb.Edge_hist.dims in
  let o = (b * k) + ig slab (coff + m) in
  let v = A1.unsafe_get ba (ig slab (coff + nctx + m)) in
  v >= Array.unsafe_get tb.Edge_hist.lo o
  && v <= Array.unsafe_get tb.Edge_hist.hi o
  && compat_from ba slab coff nctx tb b (m + 1)

(* one pass over the buckets accumulating compatible mass (into cell
   lb+2, in bucket order) and counting the compatible buckets *)
let rec count_mass (ba : farr) (slab : iarr) coff nctx (tb : Edge_hist.t) lb b nb
    acc =
  if b >= nb then acc
  else if compat_from ba slab coff nctx tb b 0 then begin
    A1.unsafe_set ba (lb + 2)
      (A1.unsafe_get ba (lb + 2) +. Array.unsafe_get tb.Edge_hist.frac b);
    count_mass ba slab coff nctx tb lb (b + 1) nb (acc + 1)
  end
  else count_mass ba slab coff nctx tb lb (b + 1) nb acc

(* context distance of bucket [b], accumulated in the reference
   evaluator's reverse-dimension order, into cell lb+4 *)
let dist_to (ba : farr) (slab : iarr) coff nctx (tb : Edge_hist.t) lb b =
  A1.unsafe_set ba (lb + 4) 0.0;
  let k = tb.Edge_hist.dims in
  for m = nctx - 1 downto 0 do
    let o = (b * k) + ig slab (coff + m) in
    let dx =
      Array.unsafe_get tb.Edge_hist.mean o
      -. A1.unsafe_get ba (ig slab (coff + nctx + m))
    in
    A1.unsafe_set ba (lb + 4) (A1.unsafe_get ba (lb + 4) +. (dx *. dx))
  done

(* nearest-bucket scan: cell lb+3 holds the best distance so far *)
let rec best_from (ba : farr) (slab : iarr) coff nctx (tb : Edge_hist.t) lb b nb
    best =
  if b >= nb then best
  else begin
    dist_to ba slab coff nctx tb lb b;
    if not (A1.unsafe_get ba (lb + 3) <= A1.unsafe_get ba (lb + 4)) then begin
      A1.unsafe_set ba (lb + 3) (A1.unsafe_get ba (lb + 4));
      best_from ba slab coff nctx tb lb (b + 1) nb b
    end
    else best_from ba slab coff nctx tb lb (b + 1) nb best
  end

(* node [nd]'s value into its result cell *)
let rec expand (t : t) (ba : farr) (nd : int) : unit =
  let slab = t.prog and cs = t.consts in
  let base = t.o_nodes + ig slab nd in
  let nk = ig slab (nd + 1) in
  let ne = ig slab (nd + 2) in
  let kids = nd + 5 + (5 * ne) in
  (* independent kids: entry-environment contributions *)
  A1.unsafe_set ba (base + 1) 1.0;
  let k = ref kids in
  for _ = 1 to nk do
    let na = ig slab (!k + 1) in
    if ig slab !k = 0 then begin
      A1.unsafe_set ba (base + 2) 0.0;
      for j = 0 to na - 1 do
        let a = !k + 2 + (4 * j) in
        let slot = ig slab (a + 1) and ci = ig slab (a + 3) in
        let count =
          if slot >= 0 then A1.unsafe_get ba slot else Array.unsafe_get cs (ci + 1)
        in
        let child = ig slab a in
        expand t ba child;
        let cres = A1.unsafe_get ba (t.o_nodes + ig slab child) in
        A1.unsafe_set ba (base + 2)
          (A1.unsafe_get ba (base + 2)
          +. (count *. (Array.unsafe_get cs ci *. cres)))
      done;
      A1.unsafe_set ba (base + 1)
        (A1.unsafe_get ba (base + 1) *. A1.unsafe_get ba (base + 2))
    end;
    k := !k + 2 + (4 * na)
  done;
  (* combo-invariant alternative values inside dependent kids *)
  let k = ref kids in
  for _ = 1 to nk do
    let na = ig slab (!k + 1) in
    if ig slab !k <> 0 then
      for j = 0 to na - 1 do
        let a = !k + 2 + (4 * j) in
        let fx = ig slab (a + 2) in
        if fx >= 0 then begin
          let child = ig slab a in
          expand t ba child;
          A1.unsafe_set ba (t.o_fixed + fx)
            (Array.unsafe_get cs (ig slab (a + 3))
            *. A1.unsafe_get ba (t.o_nodes + ig slab child))
        end
      done;
    k := !k + 2 + (4 * na)
  done;
  let dep =
    if ne = 0 then 1.0
    else begin
      A1.unsafe_set ba (base + 4) 1.0;
      combos t ba nd base 0;
      A1.unsafe_get ba (base + 5)
    end
  in
  let ibf =
    if ig slab (nd + 3) <> 0 then 1.0 else Array.unsafe_get cs (ig slab (nd + 4))
  in
  A1.unsafe_set ba base (ibf *. A1.unsafe_get ba (base + 1) *. dep)

(* per-combination leaf (level [l] = enum length): the branch factor
   first (when an enumerated histogram covers a branch edge), then the
   dependent kids in order — the reference evaluator's combos base
   case. Result (weight x factor) goes into the level's sum cell. *)
and leaf (t : t) (ba : farr) (nd : int) (base : int) (l : int) : unit =
  let slab = t.prog and cs = t.consts in
  let lb = base + 4 + (5 * l) in
  A1.unsafe_set ba (base + 3)
    (if ig slab (nd + 3) <> 0 then Array.unsafe_get cs (ig slab (nd + 4)) else 1.0);
  let nk = ig slab (nd + 1) in
  let k = ref (nd + 5 + (5 * l)) in
  for _ = 1 to nk do
    let na = ig slab (!k + 1) in
    if ig slab !k <> 0 then begin
      A1.unsafe_set ba (base + 2) 0.0;
      for j = 0 to na - 1 do
        let a = !k + 2 + (4 * j) in
        let slot = ig slab (a + 1) and ci = ig slab (a + 3) in
        let count =
          if slot >= 0 then A1.unsafe_get ba slot else Array.unsafe_get cs (ci + 1)
        in
        let fx = ig slab (a + 2) in
        if fx >= 0 then
          A1.unsafe_set ba (base + 2)
            (A1.unsafe_get ba (base + 2)
            +. (count *. A1.unsafe_get ba (t.o_fixed + fx)))
        else begin
          let child = ig slab a in
          expand t ba child;
          A1.unsafe_set ba (base + 2)
            (A1.unsafe_get ba (base + 2)
            +. count
               *. (Array.unsafe_get cs ci
                  *. A1.unsafe_get ba (t.o_nodes + ig slab child)))
        end
      done;
      A1.unsafe_set ba (base + 3)
        (A1.unsafe_get ba (base + 3) *. A1.unsafe_get ba (base + 2))
    end;
    k := !k + 2 + (4 * na)
  done;
  A1.unsafe_set ba (lb + 1) (A1.unsafe_get ba lb *. A1.unsafe_get ba (base + 3))

(* enumeration level [l]: reads its incoming weight from its own cell,
   writes its combination sum into the next one *)
and combos (t : t) (ba : farr) (nd : int) (base : int) (l : int) : unit =
  let slab = t.prog in
  if l = ig slab (nd + 2) then leaf t ba nd base l
  else begin
    let lb = base + 4 + (5 * l) in
    let h = nd + 5 + (5 * l) in
    let tb = Array.unsafe_get t.tabs (ig slab h) in
    let nctx = ig slab (h + 1) and coff = ig slab (h + 2) in
    let nb = tb.Edge_hist.n in
    A1.unsafe_set ba (lb + 1) 0.0;
    if nb = 0 then ()
    else if nctx = 0 then begin
      let frac = tb.Edge_hist.frac in
      for b = 0 to nb - 1 do
        let w' = A1.unsafe_get ba lb *. Array.unsafe_get frac b in
        if not (w' < 1e-9) then begin
          bind_bucket ba slab h tb b;
          A1.unsafe_set ba (lb + 5) w';
          combos t ba nd base (l + 1);
          A1.unsafe_set ba (lb + 1)
            (A1.unsafe_get ba (lb + 1) +. A1.unsafe_get ba (lb + 6))
        end
      done
    end
    else begin
      A1.unsafe_set ba (lb + 2) 0.0;
      let nok = count_mass ba slab coff nctx tb lb 0 nb 0 in
      if nok = 0 then begin
        (* nearest-bucket fallback *)
        dist_to ba slab coff nctx tb lb 0;
        A1.unsafe_set ba (lb + 3) (A1.unsafe_get ba (lb + 4));
        let best = best_from ba slab coff nctx tb lb 1 nb 0 in
        let w' = A1.unsafe_get ba lb *. 1.0 in
        if not (w' < 1e-9) then begin
          bind_bucket ba slab h tb best;
          A1.unsafe_set ba (lb + 5) w';
          combos t ba nd base (l + 1);
          A1.unsafe_set ba (lb + 1) (0.0 +. A1.unsafe_get ba (lb + 6))
        end
      end
      else begin
        let frac = tb.Edge_hist.frac in
        for b = 0 to nb - 1 do
          if compat_from ba slab coff nctx tb b 0 then begin
            let w' =
              A1.unsafe_get ba lb
              *. (Array.unsafe_get frac b /. A1.unsafe_get ba (lb + 2))
            in
            if not (w' < 1e-9) then begin
              bind_bucket ba slab h tb b;
              A1.unsafe_set ba (lb + 5) w';
              combos t ba nd base (l + 1);
              A1.unsafe_set ba (lb + 1)
                (A1.unsafe_get ba (lb + 1) +. A1.unsafe_get ba (lb + 6))
            end
          end
        done
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Compile and run                                                     *)

let compile_timed s sketch (root : enode) : t =
  let t0 = Counters.now_ns () in
  start_plan s;
  let nd = compile_node s sketch root in
  s.consts.(0) <-
    float_of_int (G.extent_size (Sketch.synopsis sketch) root.snode)
    *. vfrac sketch root.snode root.vpred;
  let o_nodes = s.n_slots + s.n_fixed in
  let t =
    {
      prog = s.prog;
      consts = s.consts;
      tabs = s.tabs;
      root = nd;
      o_fixed = s.n_slots;
      o_nodes;
      scr_len = o_nodes + s.scr_off;
    }
  in
  Counters.incr ~by:(Int64.to_int (Int64.sub (Counters.now_ns ()) t0)) t_compile;
  t

(* One embedding compiled into the scratch: the plan's arrays are the
   scratch's, valid until its next compile. The span's closure is
   built only while a trace records it. *)
let compile s sketch root =
  Counters.incr c_compiles;
  if Trace.enabled () then
    Trace.with_span ~name:"plan.compile" (fun () -> compile_timed s sketch root)
  else compile_timed s sketch root

(* a plan compiled into [s], copied out into arrays it owns *)
let owned s (t : t) =
  let prog = A1.create Bigarray.Int32 Bigarray.C_layout s.plen in
  A1.blit (A1.sub s.prog 0 s.plen) prog;
  { t with prog; consts = Array.sub s.consts 0 s.clen; tabs = Array.sub s.tabs 0 s.tlen }

let run (t : t) : float =
  Counters.incr c_runs;
  let s = borrow () in
  let ba = arena_for s t.scr_len in
  expand t ba t.root;
  let v = Array.unsafe_get t.consts 0 *. A1.unsafe_get ba (t.o_nodes + ig t.prog t.root) in
  give_back s;
  v

let run_batch (ts : t array) (out : float array) : unit =
  if Array.length out < Array.length ts then
    invalid_arg "Plan.run_batch: output array too short";
  let s = borrow () in
  for i = 0 to Array.length ts - 1 do
    let t = Array.unsafe_get ts i in
    Counters.incr c_runs;
    let ba = arena_for s t.scr_len in
    expand t ba t.root;
    out.(i) <-
      Array.unsafe_get t.consts 0 *. A1.unsafe_get ba (t.o_nodes + ig t.prog t.root)
  done;
  give_back s

let compile_roots sketch roots =
  let s = borrow () in
  start_query s sketch;
  match Array.of_list (List.map (fun e -> owned s (compile s sketch e)) roots) with
  | plans ->
      give_back s;
      plans
  | exception ex ->
      give_back s;
      raise ex

(* each root compiled into the scratch, run in place and dropped *)
let rec sum_roots s sketch acc = function
  | [] -> acc
  | e :: rest ->
      let t = compile s sketch e in
      Counters.incr c_runs;
      let ba = arena_for s t.scr_len in
      expand t ba t.root;
      sum_roots s sketch
        (acc
        +. (Array.unsafe_get t.consts 0
           *. A1.unsafe_get ba (t.o_nodes + ig t.prog t.root)))
        rest

let estimate_roots sketch roots =
  let s = borrow () in
  start_query s sketch;
  match sum_roots s sketch 0.0 roots with
  | v ->
      give_back s;
      v
  | exception ex ->
      give_back s;
      raise ex

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
  c_sketch : Sketch.t;
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
    c_sketch = sketch;
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
            let roots = Embed.embeddings ~chains:c.c_chains (Sketch.synopsis c.c_sketch) q in
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
          (* the entry keeps its plans until a batch joins: copied out
             of the scratch *)
          let plans = compile_roots c.c_sketch roots in
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
