(** Log-bucketed histograms for latencies, burst sizes, and I/O counts.

    Buckets grow geometrically (each bucket covers values up to ~4% above
    the previous bound), so percentile error is bounded at ~4% across the
    full [0, 2^62] range with a few hundred buckets. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record a non-negative observation. *)

(* lsm-lint: allow R14 — read side of the histograms Db.stats publishes *)
val count : t -> int
(* lsm-lint: allow R14 — read side of the histograms Db.stats publishes *)
val total : t -> int
(* lsm-lint: allow R14 — read side of the histograms Db.stats publishes *)
val min_value : t -> int
(** Smallest recorded value; 0 if empty. *)

val max_value : t -> int
(* lsm-lint: allow R14 — read side of the histograms Db.stats publishes *)
val mean : t -> float
val percentile : t -> float -> int
(** [percentile t p] with [p] in [0, 100]; upper bound of the bucket holding
    the p-th percentile observation. 0 if empty. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line [count/mean/p50/p95/p99/max] rendering. *)
