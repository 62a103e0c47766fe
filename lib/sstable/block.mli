(** Data blocks: the unit of disk I/O and caching inside an SSTable.

    Entries are stored in [Entry.compare] order with prefix-compressed
    keys and periodic {e restart points} (full keys) that support binary
    search, exactly as in LevelDB/RocksDB. Each block carries a trailing
    CRC-32C so corruption is detected at read time.

    Record layout (relative to the previous key in the block):
    [varint shared | varint unshared | unshared-bytes | varint seqno |
     u8 kind | lp value]. Trailer: restart offsets (u32 each), restart
    count (u32), masked CRC-32C (u32).

    The read path is zero-copy: {!parse_checked} verifies the CRC in
    place and returns a {!parsed} view that borrows the input buffer;
    {!Cursor} iterates it keeping the current key in one reusable arena
    and the current value as an [(off, len)] window. Per-record
    allocation happens only when a caller materializes. *)

module Builder : sig
  type t

  val create : ?restart_interval:int -> unit -> t
  (** [restart_interval] defaults to 16. *)

  val add : t -> Lsm_record.Entry.t -> unit
  (** Entries must arrive in [Entry.compare] order (not checked here; the
      SSTable builder enforces it). *)

  val size_estimate : t -> int
  (** Current encoded size including the trailer. *)

  val count : t -> int
  val is_empty : t -> bool

  val finish : t -> string
  (** Encodes, seals, and resets the builder for the next block. *)
end

type parsed = private {
  pbody : string;  (** the backing buffer, retained whole *)
  pbase : int;  (** where records start inside [pbody] *)
  pdata_end : int;  (** where records end (restart trailer begins) *)
  prestarts : int array;  (** absolute restart offsets into [pbody] *)
}
(** A verified, decoded block: what the block cache stores, so hits pay
    neither CRC nor trailer parsing. Borrows its input buffer. *)

val parse_checked : ?base:int -> string -> parsed
(** Verify the CRC of [block[base..]] {e in place} (no copy) and parse
    the restart trailer. [base] defaults to 0; a nonzero base lets the
    caller keep a framing prefix (e.g. the compression tag byte) in the
    same buffer.
    @raise Lsm_util.Codec.Corrupt on checksum mismatch or bad trailer. *)

val parsed_cost : parsed -> int
(** Approximate resident bytes of a parsed block (backing buffer plus
    restart array) — the cache byte charge. *)

(** An arena cursor over one parsed block: the current key lives in a
    single reusable buffer (extended in place as the shared prefix
    grows), the current value is a borrowed window of the block body.
    Accessors raise [Invalid_argument] when the cursor is not
    positioned. Borrowed views ({!Cursor.value_slice}) are valid only
    while the parsed block stays reachable. *)
module Cursor : sig
  type t

  val make : Lsm_util.Comparator.t -> parsed -> t
  (** Starts invalid; position with {!seek} or {!seek_to_first}. *)

  val create : unit -> t
  (** An invalid cursor over an empty block, to be aimed with {!reset}:
      scratch that a caller reuses across lookups. *)

  val reset : t -> Lsm_util.Comparator.t -> parsed -> unit
  (** Re-aim the cursor at another block (and order), keeping its key
      arena. Starts invalid, as after {!make}. *)

  val seek : t -> string -> unit
  (** Position at the first record with key >= target: binary search
      over the restart points (comparing borrowed key windows, no
      materialization), then a forward scan. Under the bytewise order
      the scan tracks the common prefix of the current key and the
      target, so most records are passed over without a key compare;
      other orders compare the arena key against the target for every
      record. *)

  val seek_to_first : t -> unit
  val next : t -> unit
  val valid : t -> bool

  val key : t -> string
  (** Materializes the current key (copies out of the arena). *)

  val key_compare : t -> string -> int
  (** Compare the current key against [target] without materializing. *)

  val seqno : t -> int
  val kind : t -> Lsm_record.Entry.kind

  val value : t -> string
  (** Materializes the current value. *)

  val value_slice : t -> Lsm_record.Slice.t
  (** Borrowed view of the current value; no copy. *)

  val entry : t -> Lsm_record.Entry.t
  (** Materialize the current record (the only per-record allocation on
      the taken path). *)
end

val iterator : Lsm_util.Comparator.t -> parsed -> Lsm_record.Iter.t
(** Iterator over a parsed block, backed by a {!Cursor}; [entry] is
    memoized so merging iterators materialize each record at most once.
    [seek] binary-searches the restart points then scans forward. *)
