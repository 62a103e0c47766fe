(** Fixed-length prefix Bloom filter (RocksDB's prefix seek, §2.1.3).

    Stores the distinct [prefix_len]-byte prefixes of all keys in a Bloom
    filter. A range query whose endpoints share a full prefix is answered
    with one probe; ranges spanning prefix boundaries fall back to "maybe"
    — the behaviour that makes prefix filters suit {e long} range queries
    scoped to a common prefix, per §2.1.3. *)

type t

val build : prefix_len:int -> bits_per_key:float -> keys:string list -> t

val may_overlap : t -> lo:string -> hi:string option -> bool
(** Conservative range-overlap test for [\[lo, hi)]; [None] = unbounded. *)

val bit_count : t -> int
val encode : t -> string
val decode : string -> t
