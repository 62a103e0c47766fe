(** Hash-linkedlist memtable — RocksDB's cheapest hash buffer (§2.2.1).

    Buckets hold unsorted singly-linked lists with the newest entry at
    the head. Insert is O(1); a point lookup scans one bucket; sorted
    iteration pays a full collect-and-sort. Best for tiny buffers with
    strong key locality. *)

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
