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
    bucket assumption.

    {1 Layout}

    A histogram is one immutable record of flat arrays, written once by
    {!build} and read in place by the estimation kernel
    ([lib/xsketch/plan.ml]), which iterates buckets in tight array
    loops. The per-dimension columns are bucket-major: bucket [b]'s
    entry on dimension [d] is at [b * dims + d]. The bounds carry the
    ±0.5 compatibility slack, so a context value [v] is compatible with
    that entry when [lo <= v <= hi].

    In a sketch every dimension is an F-stable edge of its node's twig
    stable neighbourhood ([Tsn.scope_edges]), so every element counts
    at least one child on it and every bucket's integer lower bound is
    at least 1: within any bucket, P(count >= 1) is 1. *)

type t = private {
  dims : int;
  n : int;  (** bucket count *)
  frac : float array;  (** [n] bucket fractions: bucket weight / total *)
  mean : float array;  (** [n * dims], bucket-major weighted means *)
  lo : float array;  (** [n * dims], per-dimension minimum minus 0.5 *)
  hi : float array;  (** [n * dims], per-dimension maximum plus 0.5 *)
}

val build : ?budget:int -> Sparse_dist.t -> t
(** [budget] is the maximum bucket count (default 32, min 1). An empty
    distribution has no bucket. *)

val size_bytes : t -> int
(** Storage charge: 4 bytes per stored scalar — per bucket one
    fraction plus a packed (mean, range) scalar pair per dimension:
    [4 * (2*dims + 1)] bytes per bucket. *)
