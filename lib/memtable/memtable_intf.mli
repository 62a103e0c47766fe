(** The in-memory write buffer interface (§2.1.1.A, §2.2.1).

    A memtable buffers versioned entries. It never discards versions
    (snapshots may still need them); shadowing is resolved at read and
    flush time. Implementations differ in the insert/lookup/scan cost
    profile — that is exactly the design choice the paper's §2.2.1
    discusses (RocksDB's vector vs skiplist vs hash-* buffers). *)

module type S = sig
  type t

  val implementation_name : string

  val create : cmp:Lsm_util.Comparator.t -> unit -> t

  val add : t -> Lsm_record.Entry.t -> unit
  (** Inserts one versioned entry. Sequence numbers must be unique per
      memtable (the engine guarantees this). *)

  val find : t -> max_seqno:int -> string -> Lsm_record.Entry.t option
  (** Newest entry for the user key with [seqno <= max_seqno] ([max_int]:
      no bound). A plain [int], not an optional argument, which would box
      the bound on every lookup. Range-delete entries are not returned by
      [find]; the engine tracks them separately. *)

  val count : t -> int
  (** Number of buffered entries. *)

  val footprint : t -> int
  (** Approximate bytes of buffered data, for flush triggering. *)

  val iterator : t -> Lsm_record.Iter.t
  (** Iterator in [Entry.compare] order over the entries present when it was
      created; it is only guaranteed coherent until the next [add]. Creation
      cost varies: O(1) for the skiplist, O(n log n) for hash buckets and
      unsorted vectors — the flush-cost asymmetry §2.2.1 alludes to. *)
end
