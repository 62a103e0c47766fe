(** Standard Bloom filter (§2.1.3), one per sorted run.

    Uses Kirsch–Mitzenmacher double hashing: [k] probe positions derived
    from one 64-bit hash, which is what RocksDB does and what keeps filter
    probes cheap. *)

type t

val create : bits_per_key:float -> expected:int -> t
(** Sizes the bit array for [expected] keys at [bits_per_key] (may be
    fractional, as Monkey's allocation produces). The number of probes is
    [round(ln 2 * bits_per_key)], clamped to [1, 30].
    [bits_per_key <= 0] yields an always-true filter of zero bits. *)

val add : t -> string -> unit

val mem : t -> string -> bool
(** No false negatives; false-positive probability ~[0.6185 ^ bits_per_key]
    when filled to [expected]. *)

val bit_count : t -> int
(** Total bits of the array (0 for the always-true filter). *)

val encode : t -> string
val decode : string -> t
(** @raise Lsm_util.Codec.Corrupt on malformed input. *)

(* lsm-lint: allow R14 — reference false-positive rate the measured one is tested against *)
val theoretical_fpr : bits_per_key:float -> float
(** [0.6185 ^ bits_per_key] — the textbook optimum used by the cost models. *)
