(** Unified front-end over the four buffer implementations of §2.2.1.

    The engine is configured with a {!kind}; everything downstream goes
    through this module, so switching the buffer implementation is a
    one-knob change, as in RocksDB. *)

type kind =
  | Skiplist  (** the default: balanced insert/lookup/scan *)
  | Vector  (** fastest write-only ingestion; sorts on read/flush *)
  | Hash_skiplist of { buckets : int }
  | Hash_linkedlist of { buckets : int }
      (** The hash buffers bucket a key by a hash of the whole key
          ({!Lsm_util.Hashing.bucket}): bucketing by a fixed prefix would
          put every key that shares it — one tenant's, on the server —
          in one bucket. *)

val default_hash_skiplist : kind
val default_hash_linkedlist : kind
(** Each kind with its default bucket count. *)

val kind_name : kind -> string
val all_kinds : kind list
(** One representative of each implementation, for tests and benchmarks. *)

type t

val create : ?kind:kind -> budget:int -> cmp:Lsm_util.Comparator.t -> unit -> t
(** [kind] defaults to {!Skiplist}. [budget] is the byte footprint at
    which the engine rotates the buffer; it sizes the buffer's key
    filter once, for the most entries that many bytes can hold. A buffer
    that outgrows its budget stays correct, with a denser filter. *)

val kind : t -> kind
val add : t -> Lsm_record.Entry.t -> unit

val find : t -> max_seqno:int -> string -> Lsm_record.Entry.t option
(** Newest visible version of the key with [seqno <= max_seqno] (pass
    [max_int] for no bound). A key the buffer's filter has never seen,
    or any key of an empty buffer, answers [None] without touching the
    buffer itself. *)

val count : t -> int
val footprint : t -> int
val iterator : t -> Lsm_record.Iter.t

val range_tombstones : t -> Lsm_record.Entry.t list
(** Range-delete entries buffered here, newest first. [add] routes
    [Range_delete] entries into this side list {e and} the main structure
    (so they flush with everything else); [find] never returns them. *)
