(** Deterministic pseudo-random number generation (splitmix64 stream).

    Every workload generator and randomized test takes an explicit [Rng.t]
    so experiments are reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] starts a stream. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent stream (also advances [t]). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val bytes : t -> int -> string
(** [bytes t n] is an [n]-byte uniformly random string. *)
