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

val enum : t -> ctx:(int * float) list -> (float * float array) list
(** Conditional enumeration: the buckets compatible with the context
    (a [dim -> value] partial assignment), with their fractions
    renormalized to sum to 1, paired with their mean vectors. A bucket
    is compatible when the context value falls within its per-
    dimension range (±0.5 slack). If no bucket is compatible, the
    nearest bucket by mean distance on the context dimensions is
    returned with weight 1 — the estimator must not lose mass merely
    because bucketizations disagree. [ctx = \[\]] enumerates all
    buckets. Empty histograms enumerate nothing. *)

val enum_buckets : t -> ctx:(int * float) list -> (float * bucket) list
(** As {!enum}, but returning the full buckets, so callers can read
    per-dimension bounds (e.g. to bound [P(count >= 1)] within a
    bucket). *)

val p_ge1 : bucket -> int -> float
(** [P(count on dim >= 1)] within a bucket: 1 when the bucket's lower
    bound is >= 1, 0 when its upper bound is 0, and the capped mean
    otherwise (the within-bucket uniformity approximation). Exact on
    single-point buckets. *)

val marginal_frac : t -> ctx:(int * float) list -> float
(** Unnormalized mass of the context-compatible buckets — the
    [H_i(C ∩ C')] denominator of the Correlation-Scope Independence
    assumption. *)

val expected_product : t -> over:int list -> float
(** [Σ_b frac(b) · Π_{d ∈ over} mean_b(d)]; repeats allowed. *)

val mean : t -> int -> float

(** {1 Flat bucket tables}

    The compiled estimation kernel (see [lib/xsketch/plan.ml]) iterates
    buckets in tight array loops. {!table} lays the bucket list out as
    dense arrays, once per histogram: the per-histogram memo field
    makes repeated calls free. *)

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
