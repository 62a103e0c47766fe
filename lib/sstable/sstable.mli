(** SSTable: the immutable sorted-run file (§2.1.1.C).

    Layout: a sequence of prefix-compressed data {!Block}s, then a point
    {!Lsm_filter.Point_filter} block, a {!Lsm_filter.Range_filter} block,
    the fence-pointer index (one entry per data block: §2.1.3's fence
    pointers), a properties block, and a fixed-size footer.

    Readers keep the index, the filters, and the properties in memory —
    the "auxiliary in-memory data structures per immutable file" of the
    paper — and fetch data blocks through the shared {!Lsm_storage.Block_cache}. *)

module Props : sig
  type t = {
    entries : int;  (** total entries, all versions *)
    point_tombstones : int;
    range_tombstones : Lsm_record.Entry.t list;  (** the actual entries *)
    min_key : string;
    max_key : string;
    min_seqno : int;
    max_seqno : int;
    created_at : int;  (** logical clock tick of the flush/compaction *)
    data_bytes : int;  (** uncompressed user key+value bytes *)
    ecc : (int * int * int) option;
        (** [(k, m, page)] when the table carries a Reed–Solomon parity
            section: stripes of [k] data pages of [page] bytes protected
            by [m] parity pages. Lets a scrub rebuild a rotted parity
            section deterministically. [None] for legacy tables. *)
  }
end

(** {1 Building} *)

type compression = C_none | C_lz
(** Block compression: [C_lz] runs each data block through
    {!Lsm_util.Lz}, falling back to raw storage when a block does not
    shrink. Self-describing per block, so mixed files read fine. *)

type build_config = {
  block_size : int;  (** target data-block size in bytes *)
  restart_interval : int;
  filter : Lsm_filter.Point_filter.policy;
  filter_bits_override : float option;
      (** per-table bits-per-key override (Monkey allocation); [None] uses
          the policy's own parameter *)
  range_filter : Lsm_filter.Range_filter.policy;
  compression : compression;
  ecc : (int * int) option;
      (** [(k, m)]: append a Reed–Solomon parity section after the footer
          — stripes of [k] device pages carry [m] parity pages, so up to
          [m] rotted pages per stripe are reconstructible on read
          (DESIGN.md §14). [None] (the default) emits the legacy format
          byte-for-byte. The section lives entirely {e after} the legacy
          image and is found via a self-checksummed trailing locator, so
          pre-ECC readers and ECC readers accept both formats. *)
}

(* lsm-lint: allow R14 — the table layer's defaults, as Config.default is the engine's:
   tests derive every table build configuration from it *)
val default_build_config : build_config

val build :
  ?config:build_config ->
  cmp:Lsm_util.Comparator.t ->
  dev:Lsm_storage.Device.t ->
  cls:Lsm_storage.Io_stats.op_class ->
  name:string ->
  created_at:int ->
  Lsm_record.Iter.t ->
  Props.t
(** Drains the iterator (which must yield [Entry.compare]-ordered entries)
    into a new file [name] and returns its properties: {!build_from}
    after [seek_to_first].
    @raise Invalid_argument if the iterator yields nothing or out of order. *)

val build_from :
  ?config:build_config ->
  ?limit:int ->
  ?cut:(prev:string -> string -> bool) ->
  cmp:Lsm_util.Comparator.t ->
  dev:Lsm_storage.Device.t ->
  cls:Lsm_storage.Io_stats.op_class ->
  name:string ->
  created_at:int ->
  Lsm_record.Iter.t ->
  Props.t
(** Writes records from the iterator's current position into a new file
    [name], leaving the iterator on the first record it did not take.
    Each record moves from the iterator's {!Lsm_record.Iter.view} into
    the block: no entry is built, and each data block is laid out in one
    reused buffer and appended from it. The file ends at the first user-key
    boundary where [limit] (default unbounded) bytes of records, counted
    as [Entry.encoded_size] counts them, have gone in, or where
    [cut ~prev key] accepts the next key.
    @raise Invalid_argument if the iterator is exhausted or out of order. *)

(** {1 Reading} *)

type cached_block = Block.parsed
(** What the shared block cache stores for SSTables: blocks that are
    already CRC-verified, decompressed, and restart-parsed — decode-once
    caching, so a hit re-pays neither checksum nor decompression. *)

type reader

type ecc_event =
  | Ecc_repaired of { pages : int; ns : int }
      (** a read or scrub reconstructed [pages] rotted pages in place
          from parity, in [ns] nanoseconds *)
  | Ecc_unrecoverable
      (** rot exceeded the per-stripe parity budget; the original
          corruption propagates and the caller quarantines as before *)

val open_reader :
  cmp:Lsm_util.Comparator.t ->
  dev:Lsm_storage.Device.t ->
  cache:cached_block Lsm_storage.Block_cache.t ->
  ?on_ecc:(ecc_event -> unit) ->
  string ->
  reader
(** Reads footer, index, filters, and properties into memory, verifying
    the footer magic and the shared meta-block CRC (which covers the
    filters, index, props, and the footer's offset table). On a table
    carrying an ECC section, a corrupt meta region or footer is first
    repaired in place from parity and the open retried; [on_ecc]
    observes every repair outcome (here and on later block reads).
    @raise Lsm_util.Lsm_error.Error with [Corruption] on a malformed
    file; retriable [Io_error]s are retried with bounded backoff. *)

val props : reader -> Props.t

(* lsm-lint: allow R14 — where the ECC parity section starts; the ECC layout tests check
   the locator against it *)
val file_size : reader -> int
(** Bytes of the table image, without a trailing ECC section. *)

val may_contain_key : reader -> string -> bool
(** Point-filter probe only (no I/O). *)

val may_overlap_range : reader -> lo:string -> hi:string option -> bool
(** Key-range check against (min_key, max_key) and the range filter. *)

val get_unfiltered :
  reader ->
  cls:Lsm_storage.Io_stats.op_class ->
  max_seqno:int ->
  string ->
  Lsm_record.Entry.t option
(** Newest visible version of the key in this table (may be a tombstone —
    the caller interprets it; never a [Range_delete] entry). It does not
    probe the point filter: the caller asks {!may_contain_key} first and
    reads only on [true], so one lookup hashes the key and probes the
    filter once per table. *)

val iterator :
  reader ->
  cls:Lsm_storage.Io_stats.op_class ->
  ?use_cache:bool ->
  unit ->
  Lsm_record.Iter.t
(** Full-table iterator (includes tombstones and range-delete entries —
    compaction needs them), walking every block through one reused
    {!Block.Cursor}; a record's key is materialized at most once, on the
    first [view] or [entry], and its value only by [entry]. [use_cache]
    defaults to [true]; compactions pass [false] so they do not pollute
    the block cache (§2.1.3 / E13). Without the cache, a block the cache
    does not hold is read with {!Lsm_storage.Device.read_view}: on the
    in-memory device it is parsed where it lies in the device's chunk,
    and on disk it is copied into a buffer the iterator reuses for every
    block; a compressed block is decompressed into a second reused
    buffer. So a view's value window is valid only until the iterator
    moves; CRC checks and the ECC repair path are the same as for cached
    reads. *)

val prefetch_into_cache : reader -> cls:Lsm_storage.Io_stats.op_class -> int
(** Load every data block into the block cache (Leaper-style refill after
    compaction, E13); returns the number of blocks loaded. Like every
    read path, blocks are checksum-validated {e before} insertion — a
    corrupt block raises and never enters the cache. *)

(** {1 Integrity verification and salvage}

    Hooks for the scrubber ([Db.verify_integrity]) and the offline
    [lsm-doctor] tool. Reads bypass the block cache. *)

type index_entry = { fence : string; off : int; len : int; first_key : string }

val index_entries : reader -> index_entry array
(** The fence-pointer index: one entry per data block, in key order. *)

val block_entries :
  reader ->
  cls:Lsm_storage.Io_stats.op_class ->
  index_entry ->
  Lsm_record.Entry.t list
(** Decode one data block straight from the device (checksum-verified,
    uncached). Salvage walks blocks individually so one rotten block
    doesn't condemn its neighbours.
    @raise Lsm_util.Lsm_error.Error with [Corruption] on a bad block. *)

val verify : reader -> cls:Lsm_storage.Io_stats.op_class -> unit
(** Scrub the whole table: every data block re-read and CRC-checked,
    fence-pointer ordering and index/block agreement verified (the meta
    blocks were already CRC-verified by {!open_reader}).
    @raise Lsm_util.Lsm_error.Error with [Corruption] on the first
    defect found. *)

val scrub_ecc : reader -> cls:Lsm_storage.Io_stats.op_class -> int
(** Proactive ECC maintenance for one table, intended right after a
    clean {!verify}: reconstruct every silently rotted covered or parity
    page in place, rebuild the parity section from the verified content
    if the section itself rotted, and heal a damaged locator copy from
    its twin. Returns pages rewritten (0 for a legacy table or a clean
    ECC table); repairs are also reported through [on_ecc]. *)
