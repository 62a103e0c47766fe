(** 64-bit hash functions for filters, hash-based memtables, and sharding.

    All hashes are deterministic across runs (no per-process salt) so that
    on-disk filter blocks remain valid when re-read. *)

val splitmix64 : int64 -> int64
(** One step of the splitmix64 finalizer; a strong bijective mixer. *)

val fnv1a64 : string -> int64
(** FNV-1a over the bytes of the string. *)

val string64 : ?seed:int64 -> string -> int64
(** Default string hash: FNV-1a followed by a splitmix finalizer, optionally
    keyed by [seed]. *)

val bucket : buckets:int -> string -> int
(** The bucket in [\[0, buckets)] of a hash-bucketed write buffer that
    [key] falls in: {!string64} of the whole key. The one bucketing rule
    of both hash buffers; allocates nothing. *)

val double_hash : string -> int * int
(** [double_hash s] derives two positive 62-bit ints [(h1, h2)] from one hash
    of [s], for Kirsch–Mitzenmacher double hashing ([g_i = h1 + i*h2]).
    [h2] is forced odd so successive probes cycle through power-of-two
    table sizes. *)

val double_hash_with : string -> 'a -> ('a -> int -> int -> 'b) -> 'b
(** [double_hash_with s x k] is [let h1, h2 = double_hash s in k x h1 h2]
    without building the pair: the filter probe path passes a top-level
    [k] and its state [x], so one probe allocates nothing. *)

val fingerprint : string -> bits:int -> int
(** [fingerprint s ~bits] is a non-zero fingerprint of [s] in [1, 2^bits - 1]
    (Cuckoo filters reserve 0 for "empty slot"). *)
