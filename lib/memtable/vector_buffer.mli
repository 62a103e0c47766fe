(** Unsorted append vector memtable — RocksDB's "vector" buffer (§2.2.1).

    O(1) amortized insert: the fastest ingestion path for write-only
    phases (bulk loading), at the price of sorting on the first read or
    at flush. Interleaved reads each pay the (amortized) sort, which is
    why the paper notes its performance "degrades in presence of
    interleaved reads". *)

type t

val implementation_name : string
val create : cmp:Lsm_util.Comparator.t -> unit -> t
val add : t -> Lsm_record.Entry.t -> unit

val find : t -> max_seqno:int -> string -> Lsm_record.Entry.t option
(** Sorts the buffer if a write happened since the last sort. *)

val count : t -> int
val footprint : t -> int

val iterator : t -> Lsm_record.Iter.t
(** Sorts the buffer on creation (and again on [seek]/[seek_to_first]
    if writes interleave). *)
