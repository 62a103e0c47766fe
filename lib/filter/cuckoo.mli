(** Cuckoo filter — the updatable filter behind Chucky (§2.1.3).

    Unlike a Bloom filter, fingerprints can be {e deleted}, which is what
    lets Chucky maintain one filter across compactions instead of
    rebuilding per run. Four slots per bucket, partial-key cuckoo
    relocation with a bounded kick chain. *)

type t

val create : ?fingerprint_bits:int -> expected:int -> unit -> t
(** [fingerprint_bits] defaults to 12 (≈0.1% FPR at 95% load). The table is
    sized to hold [expected] keys at ≤95% load. *)

val add : t -> string -> bool
(** [false] when the kick chain overflows (table effectively full); the
    caller should rebuild larger. No-op duplicates are still inserted
    (multiset semantics), as deletions require. *)

val mem : t -> string -> bool

val bit_count : t -> int
val encode : t -> string
val decode : string -> t
