(** Probabilistic skiplist memtable — RocksDB's default buffer.

    Expected O(log n) insert and lookup, O(1) sorted-iterator creation.
    Ordered by [Entry.compare]: user key ascending, seqno descending, so
    the first node matching a key is its newest version. Single writer:
    the engine serializes [add] above this layer. Readers on other
    domains may run {!find} and iterators concurrently with it, and
    reach every entry whose insert happened before they captured their
    ceiling (DESIGN.md §12.5, §18). *)

type t

val implementation_name : string
val create : cmp:Lsm_util.Comparator.t -> unit -> t
val add : t -> Lsm_record.Entry.t -> unit

val find : t -> max_seqno:int -> string -> Lsm_record.Entry.t option
(** Newest visible version of the key with [seqno <= max_seqno];
    range-delete entries are never returned. Allocates nothing on a
    miss. *)

val count : t -> int
val footprint : t -> int

val iterator : t -> Lsm_record.Iter.t
(** O(1) creation; coherent until the next [add]. *)
