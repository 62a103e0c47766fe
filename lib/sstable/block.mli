(** Data blocks: the unit of disk I/O and caching inside an SSTable.

    Entries are stored in [Entry.compare] order with prefix-compressed
    keys and periodic {e restart points} (full keys) that support binary
    search, exactly as in LevelDB/RocksDB. Each block carries a trailing
    CRC-32C so corruption is detected at read time.

    Record layout (relative to the previous key in the block):
    [varint shared | varint unshared | unshared-bytes | varint seqno |
     u8 kind | lp value]. Trailer: restart offsets (u32 each), restart
    count (u32), masked CRC-32C (u32).

    The read path is zero-copy: {!parse} verifies the CRC in place and
    returns a {!parsed} view that borrows the input buffer;
    {!Cursor} iterates it keeping the current key in one reusable arena
    and the current value as an [(off, len)] window. Per-record
    allocation happens only when a caller materializes. *)

module Builder : sig
  type t

  val create : ?restart_interval:int -> unit -> t
  (** [restart_interval] defaults to 16. *)

  val add_view : t -> Lsm_record.Iter.view -> unit
  (** Append the viewed record: its key, seqno and kind, and the bytes of
      its value window, copied into the block here, so the view may move
      on afterwards. Records must arrive in [Entry.compare] order (not
      checked here; the SSTable builder enforces it). *)

  val add : t -> Lsm_record.Entry.t -> unit
  (** {!add_view} of an entry, through the same encoder. *)

  val size_estimate : t -> int
  (** Current encoded size including the trailer. *)

  val count : t -> int
  val is_empty : t -> bool

  val finish_into : t -> int
  (** Encodes and seals the block into the builder's one reused layout
      buffer, resets the builder for the next block, and returns the
      block's length [n]: the block is [(window t).[0 .. n)]. It is laid
      out behind one leading byte, set to 0, that the SSTable keeps as
      its raw-block frame tag: the window parses with
      [parse w ~start:0 ~base:1 ~stop:n], and its bytes from offset 1 are
      the block itself. *)

  val window : t -> string
  (** The layout buffer, borrowed: valid until the next {!finish_into}
      overwrites it. Longer than the block; only [\[0, n)] is the block. *)
end

type parsed = private {
  pbody : string;
      (** the backing buffer, retained whole: a buffer of the block's
          own, or a device chunk it shares with its neighbours *)
  pbase : int;  (** where records start inside [pbody] *)
  pdata_end : int;  (** where records end (restart trailer begins) *)
  prestarts : int array;  (** absolute restart offsets into [pbody] *)
  pbytes : int;  (** the block's own bytes, framing prefix included *)
}
(** A verified, decoded block: what the block cache stores, so hits pay
    neither CRC nor trailer parsing. Borrows its input buffer, which may
    be a window of a device chunk ({!Lsm_storage.Device.read_view}). *)

val parse : string -> start:int -> base:int -> stop:int -> parsed
(** [parse buf ~start ~base ~stop] verifies the CRC of [buf[base..stop)]
    {e in place} (no copy) and parses the restart trailer of the block
    whose bytes are [buf[start..stop)], so a block may lie anywhere
    inside a larger buffer, such as a device chunk. A [base] past
    [start] keeps a framing prefix (e.g. the compression tag byte) in
    front of the records; [pbytes] counts it.
    @raise Lsm_util.Codec.Corrupt on checksum mismatch or bad trailer. *)

val parsed_cost : parsed -> int
(** The cache byte charge of a parsed block: its own bytes ([pbytes])
    plus its restart array. It never counts the rest of a shared
    buffer, so a block charges the same whether it was copied out of
    the device or parsed where it lies. *)

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

  val fill_view : t -> Lsm_record.Iter.view -> unit
  (** Show the current record in a view: the key is materialized (the
      one copy), the value is a window of the block body. *)

  val value : t -> string
  (** Materializes the current value. *)

  val value_slice : t -> Lsm_record.Slice.t
  (** Borrowed view of the current value; no copy. *)

  val entry : t -> Lsm_record.Entry.t
  (** Materialize the current record (the only per-record allocation on
      the taken path). *)
end
