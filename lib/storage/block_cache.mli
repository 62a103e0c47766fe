(** A byte-budgeted, sharded LRU cache of decoded blocks, keyed by
    (file, offset).

    This is the block cache of §2.1.3: it can hold data, index, and filter
    blocks alike. It exposes the statistics the cache experiments need
    (hit/miss/eviction counters) and the two hooks the compaction–cache
    interaction study (E13) uses: {!evict_file} (what happens implicitly
    when compaction deletes an input file) and pre-populating via
    {!insert} (Leaper-style refill after compaction).

    The cache is polymorphic in its entry type so the engine can store
    blocks {e decoded}: verified, decompressed, restart-array-parsed.
    A hit then pays neither CRC nor decompression — decode-once caching.
    Because entries are arbitrary values, every {!insert} declares an
    explicit byte charge (the decoded footprint), which is what
    {!used_bytes} and the eviction budget account.

    The cache is striped into [shards] independent {!Lru}s, each guarded
    by its own mutex, with keys routed by hash — so it is safe (and
    cheap) to hit from several domains at once. One shard (the default)
    is one global LRU. Statistics aggregate across shards; capacity is
    split evenly between them. A {!find} hit allocates nothing. *)

type 'a t

val create : ?shards:int -> capacity:int -> unit -> 'a t
(** [capacity] in bytes, split across [shards] (default 1) stripes. A
    zero capacity disables caching (every lookup misses, inserts are
    dropped). *)

val shard_count : 'a t -> int

val capacity : 'a t -> int

val set_capacity : 'a t -> int -> unit
(** Adjust the byte budget at runtime (evicting LRU entries if shrinking) —
    the hook adaptive memory management (§2.3.1) turns. *)

val used_bytes : 'a t -> int
val block_count : 'a t -> int

val find : 'a t -> file:string -> off:int -> 'a option
(** Moves the block to most-recently-used on hit. *)

val insert : 'a t -> file:string -> off:int -> bytes:int -> 'a -> unit
(** Inserts (replacing any previous entry at that key) charging [bytes]
    against the budget, then evicts LRU entries until within capacity.
    Entries charged more than the whole capacity are not cached.
    @raise Invalid_argument if [bytes] is negative. *)

val remove : 'a t -> file:string -> off:int -> unit
(** Drop exactly one (file, offset) entry if present. Used to invalidate
    a single block found corrupt in cache without disturbing the file's
    other hot blocks. Not counted as an eviction. *)

val evict_file : 'a t -> string -> int
(** Drop every cached block of a file; returns how many were dropped. *)

(** {1 Statistics} *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
val hit_rate : 'a t -> float
(** hits / (hits + misses); 0 when no lookups happened. *)

val reset_stats : 'a t -> unit
