(** Hash-skiplist memtable — RocksDB's prefix-bucketed buffer (§2.2.1).

    Keys are bucketed by a hash of the whole key; each bucket is a small
    skiplist. Point lookups touch one bucket (near O(1) for
    short buckets); a full sorted iteration must merge all buckets, so
    flushes and scans pay an O(n log n) collect-and-sort. *)

type t

val implementation_name : string
val default_buckets : int

val create_sized : cmp:Lsm_util.Comparator.t -> buckets:int -> unit -> t
(** Explicit bucket count, used by [Memtable]. *)

val add : t -> Lsm_record.Entry.t -> unit
val find : t -> max_seqno:int -> string -> Lsm_record.Entry.t option
val count : t -> int
val footprint : t -> int

val iterator : t -> Lsm_record.Iter.t
(** O(n log n): collects every bucket and sorts. *)
