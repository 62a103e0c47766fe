(** Rosetta-style range filter (§2.1.3): a hierarchy of Bloom filters over
    dyadic bit-prefix ranges, best for {e short} range queries.

    Keys are mapped to 64-bit integers (their first 8 bytes, big-endian,
    zero-padded — order-preserving for fixed-length keys, which is what
    the range-filter experiment uses). Level [l] holds a Bloom filter of
    all [l]-bit prefixes. A range query is decomposed into dyadic
    intervals; each positive probe is "doubted" by recursing into its
    children until a leaf-level probe confirms — Rosetta's segment-tree
    construction. Short ranges decompose into few deep dyadic intervals,
    so their false-positive rate approaches the leaf Bloom filter's. *)

type t

val build :
  ?levels:int -> ?bits_per_key:float -> keys:string list -> unit -> t
(** [levels] (default 64, i.e. down to exact keys) is how many of the
    deepest prefix levels carry Bloom filters; queries needing shallower
    levels conservatively return "maybe". [bits_per_key] (default 10.0) is
    the per-level budget. *)

val may_overlap : t -> lo:string -> hi:string option -> bool
(** Overlap with the key range [\[lo, hi)]. *)

val bit_count : t -> int
val encode : t -> string
val decode : string -> t
