(** Zipfian item selection (YCSB-compatible).

    Items are ranks [0 .. n-1]; rank 0 is the hottest. The scrambled
    variant spreads the hot ranks across the whole keyspace, as YCSB does,
    so skew does not correlate with key order. *)

type t

val create : ?theta:float -> int -> t
(** [create ~theta n] prepares a generator over [n] items.
    [theta] (default [0.99], YCSB's constant) controls skew; must be in
    (0, 1). Preprocessing is O(n) (computes the zeta normalizer). *)

val next : t -> Rng.t -> int
(** Draw a rank in [0, n). *)

val next_scrambled : t -> Rng.t -> int
(** Draw a rank and scramble it with a fixed hash into [0, n). *)
