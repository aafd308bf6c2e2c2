(** Budgeted multidimensional histograms over integer count vectors —
    the edge-histograms [H_i(C_1, ..., C_k)] of Definition 3.1.

    The exact {!Sparse_dist} is compressed into at most [budget]
    buckets by recursive MHIST-style splitting: starting from a single
    bucket holding every point, the bucket/dimension pair with the
    largest weighted variance is split at its weighted median until
    the budget is reached or every bucket is a single point. When the
    distribution's support fits the budget the histogram is exact and
    estimation over it is error-free (the property the paper's
    zero-error discussions rely on).

    Within a bucket, dimensions are treated as independent and
    concentrated at their (weighted) mean — the standard uniform-
    bucket assumption. *)

type bucket = {
  frac : float;  (** fraction of elements in this bucket *)
  count : int;  (** number of underlying elements *)
  mean : float array;  (** weighted mean count per dimension *)
  lo : int array;  (** per-dimension minimum *)
  hi : int array;  (** per-dimension maximum *)
}

type t

val build : ?budget:int -> Sparse_dist.t -> t
(** [budget] is the maximum bucket count (default 32, min 1). *)

val exact : Sparse_dist.t -> t
(** One bucket per distinct vector, regardless of size. *)

val dims : t -> int
val bucket_count : t -> int
val buckets : t -> bucket list
val total_frac : t -> float
(** 1.0 for non-empty distributions, 0.0 for empty ones. *)

val is_exact : t -> bool
(** True when every bucket holds a single distinct vector. *)

val p_ge1 : bucket -> int -> float
(** [P(count on dim >= 1)] within a bucket: 1 when the bucket's lower
    bound is >= 1, 0 when its upper bound is 0, and the capped mean
    otherwise (the within-bucket uniformity approximation). Exact on
    single-point buckets. *)

val marginal_frac : t -> ctx:(int * float) list -> float
(** Unnormalized mass of the buckets compatible with the context (a
    [dim -> value] partial assignment): those whose per-dimension range
    holds each context value, with ±0.5 slack. This is the
    [H_i(C ∩ C')] denominator of the Correlation-Scope Independence
    assumption, by which the estimator renormalizes the compatible
    buckets. *)

val expected_product : t -> over:int list -> float
(** [Σ_b frac(b) · Π_{d ∈ over} mean_b(d)]; repeats allowed. *)

val mean : t -> int -> float

(** {1 Flat bucket tables}

    The estimation kernel (see [lib/xsketch/plan.ml]) iterates buckets
    in tight array loops. Under a context it enumerates the compatible
    buckets (as in {!marginal_frac}) with their fractions renormalized
    to sum to 1; when none is compatible, it takes the nearest bucket
    by squared mean distance on the context dimensions with weight 1,
    so an estimate never loses mass merely because two bucketizations
    disagree. {!table} lays the bucket list out as dense arrays, once
    per histogram: the per-histogram memo field makes repeated calls
    free. *)

type table = private {
  tdims : int;
  tn : int;  (** bucket count *)
  tfrac : float array;  (** [tn] bucket fractions, in bucket order *)
  tmean : float array;  (** [tn * tdims], bucket-major mean vectors *)
  tp1 : float array;  (** [tn * tdims], {!p_ge1} per (bucket, dim) *)
  tlo : float array;  (** [tn * tdims], lower bounds minus the 0.5 slack *)
  thi : float array;  (** [tn * tdims], upper bounds plus the 0.5 slack *)
}

val table : t -> table
(** The flat table of this histogram (memoized). *)

val size_bytes : t -> int
(** Storage charge: 4 bytes per stored scalar — per bucket one
    fraction plus a packed (mean, range) scalar pair per dimension:
    [4 * (2*dims + 1)] bytes per bucket. *)

val pp : Format.formatter -> t -> unit
