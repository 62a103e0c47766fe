(** Bounded LRU cache of opened {!Sstable.reader}s, so each file's footer,
    index, and filter blocks are parsed once and their in-memory form is
    shared by every get/scan/compaction touching the file.

    The cache holds at most [capacity] readers (RocksDB's
    [max_open_files]); opening the (capacity+1)-th file silently drops
    the least recently used reader, whose parsed blocks are re-read on
    the next touch. A dropped reader that is still in use by an iterator
    stays valid — readers are immutable once opened.

    The readers live in one {!Lsm_storage.Lru}, each charged 1 at
    offset 0, behind one mutex: parallel subcompactions and fanned-out
    point lookups hit the cache from several domains. A {!get} hit
    allocates nothing. *)

type t

val create :
  ?capacity:int ->
  ?on_ecc:(Sstable.ecc_event -> unit) ->
  cmp:Lsm_util.Comparator.t ->
  dev:Lsm_storage.Device.t ->
  cache:Sstable.cached_block Lsm_storage.Block_cache.t ->
  unit ->
  t
(** [capacity] (default unbounded) is the maximum number of readers kept
    open, >= 1. [on_ecc] is threaded to every {!Sstable.open_reader}, so
    ECC repair outcomes on any cached table reach the db's counters. *)

val get : t -> string -> Sstable.reader
(** Open (or return the cached) reader for a file name; marks it most
    recently used. *)

val evict : t -> string -> unit
(** Drop the reader (call when the file is deleted); also drops the
    file's data blocks from the block cache. *)

(* lsm-lint: allow R14 — the reader bound as configured; tests check that max_open_tables
   reaches the engine *)
val capacity : t -> int

(** {1 Statistics} *)

(* lsm-lint: allow R14 — open readers; the reader-bound tests check it never exceeds
   capacity *)
val open_count : t -> int
(** Readers currently cached (<= capacity). *)

val total_opens : t -> int
(** Cumulative file opens — [total_opens - open_count] re-opens indicate
    a too-small capacity. *)

(* lsm-lint: allow R14 — the reader-bound tests count the readers capacity dropped *)
val evictions : t -> int
(** Readers dropped by the capacity bound (not by {!evict}). *)
