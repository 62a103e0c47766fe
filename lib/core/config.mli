(** Every tuning knob of the engine in one record — the paper's point is
    that these knobs {e are} the LSM design space (§2.3), so the full
    space is reachable from here: data layout, compaction primitives,
    buffer implementation and size, filter choice and memory, cache size,
    key-value separation threshold.

    Use {!default} and override fields:
    {[ { Config.default with compaction = Policy.tiered (); write_buffer_size = 1 lsl 20 } ]} *)

type backend =
  | Inline  (** a zero-width lane: flush/compaction jobs run inside the triggering write *)
  | Background
      (** flush/compaction run as jobs on the process-wide scheduler lane;
          writes return after WAL+memtable and are throttled by
          backpressure instead of absorbing merge work *)

type t = {
  comparator : Lsm_util.Comparator.t;
  (* -- write path (§2.2.1) -- *)
  memtable : Lsm_memtable.Memtable.kind;
  write_buffer_size : int;  (** bytes buffered before rotation *)
  max_immutable_buffers : int;
      (** rotated buffers allowed to pile up before the writer must flush
          (absorbs ingestion bursts) *)
  wal_enabled : bool;
  wal_sync_every_write : bool;
  (* -- data layout & compaction (§2.2.2–§2.2.4) -- *)
  compaction : Lsm_compaction.Policy.t;
  level1_capacity : int;  (** bytes; level L holds [level1_capacity * T^(L-1)] *)
  target_file_size : int;  (** output files are cut at about this size *)
  (* -- sstable format -- *)
  block_size : int;
  restart_interval : int;
  compression : Lsm_sstable.Sstable.compression;
      (** per-block compression; trades CPU for device bytes (space and
          write amplification) *)
  (* -- read path (§2.1.3) -- *)
  filter : Lsm_filter.Point_filter.policy;
  monkey_filters : bool;
      (** allocate filter bits per level with Monkey instead of uniformly;
          uses [filter_memory_bits] as the total budget *)
  filter_memory_bits : int;
      (** total filter memory budget (bits), only meaningful with
          [monkey_filters] *)
  range_filter : Lsm_filter.Range_filter.policy;
  block_cache_bytes : int;
  block_cache_shards : int;
      (** stripe the block cache into this many independent mutex-guarded
          LRUs (>= 1); raise alongside [compaction_parallelism] so
          concurrent domains do not serialize on one cache lock *)
  max_open_tables : int;
      (** bound on cached open SSTable readers (RocksDB's
          [max_open_files]); the LRU reader is dropped beyond it *)
  cache_refill_after_compaction : bool;
      (** Leaper-style: prefetch output blocks into the cache right after a
          compaction (E13) *)
  (* -- read-modify-write (§2.2.6) -- *)
  merge_operator : (string -> string option -> string list -> string) option;
      (** [f key base operands] combines a base value (if any) with merge
          operands, oldest first, at read time. [None] makes the newest
          operand behave like a put. *)
  (* -- scheduling (§2.2.3, §2.3.2) -- *)
  allow_trivial_move : bool;
      (** move files down without rewriting when they overlap nothing at
          the target and no garbage collection would fire (RocksDB's
          trivial move); pure WA reduction, ablated in the benches *)
  compaction_bytes_per_round : int option;
      (** Luo & Carey-style throttling, at every lane width: cap the
          compaction traffic of one round (the cascade after a flush, or
          one resumed by a later write), trading a transiently deeper
          tree for stable write latency. [None] = drain immediately. *)
  compaction_parallelism : int;
      (** number of worker domains for subcompactions and {!Db.multi_get}
          fan-out (>= 1). 1 (the default) keeps today's fully serial,
          deterministic execution — no domains are spawned, and every
          cost-model experiment is unaffected. K > 1 partitions each
          merge's key space by fence-pointer boundaries into up to K
          disjoint ranges compacted in parallel, RocksDB-subcompaction
          style. *)
  compaction_backend : backend;
      (** The width of the db's maintenance lane (DESIGN.md §10): the
          same jobs in the same commit order at every width, so
          [Db.dump_entries] after quiesce is identical. [Inline]
          (default, width 0) runs them inside the triggering write, the
          deterministic shape every cost-model experiment depends on;
          [Background] runs them on the shared lane and writes pay
          bounded backpressure delays instead. The default follows
          [LSM_COMPACTION_BACKEND] in the environment (CI matrix leg). *)
  compaction_workers : int;
      (** background mode only: how many of this db's flush/compaction
          jobs may execute concurrently on the shared lane (>= 1).
          Only jobs with non-conflicting keys overlap (same level
          always conflicts; adjacent levels conflict when key ranges
          overlap), and version edits still apply strictly in enqueue
          order through the commit sequencer, so [Db.dump_entries]
          after quiesce is identical for any worker count. 1 (the
          default) is a strict FIFO lane. The default follows
          [LSM_COMPACTION_WORKERS] in the environment (CI matrix
          leg). *)
  write_slowdown_trigger : int;
      (** backpressure (background mode only): a {e byte} threshold on
          compaction debt = immutable-buffer bytes + L0 run bytes +
          enqueued-but-unapplied compaction input bytes. Once debt
          reaches this many bytes, each write sleeps a bounded delay
          that ramps with the overshoot (RocksDB's slowdown trigger).
          Must be at least [block_size]; scale it off
          [write_buffer_size] (the default is 20 buffers' worth). *)
  write_stop_trigger : int;
      (** backpressure (background mode only): once the same byte debt
          reaches this, writes block on a condition variable until the
          scheduler catches up; must exceed [write_slowdown_trigger]
          (the gap is the slowdown ramp) *)
  paranoid_checks : bool;
      (** verify version invariants after every flush/compaction *)
  scrub_delay : float;
      (** rate limit for the integrity scrubber ({!Db.scrub}): seconds
          of deliberate idle after each table verification, so a scrub
          pass trickles through the tree instead of monopolizing the
          lane; 0 (the default) scrubs at full speed *)
  scrub_interval : float;
      (** scheduled scrubbing: at most every this many seconds, a write
          that rotates the memtable also kicks off a {!Db.scrub} pass
          (per-table maintenance jobs on the scheduler lane, honoring
          [scrub_delay]), so rot is found — and, with [ecc] on, healed —
          before a user read trips on it. 0 (the default) disables
          scheduled scrubbing. *)
  ecc : ecc option;
      (** read-path error correction: when set, every new table is
          written with a trailing Reed–Solomon parity section — stripes
          of [ecc_data_pages] device pages carry [ecc_parity_pages]
          parity pages — and a CRC failure on read reconstructs the
          rotted page(s) in place instead of quarantining the table
          (DESIGN.md §14). [None] (the default) writes the legacy
          format, byte-identical to pre-ECC builds. Tables written
          either way are readable either way. *)
}

and ecc = {
  ecc_data_pages : int;  (** data pages per parity stripe (k >= 1) *)
  ecc_parity_pages : int;
      (** parity pages per stripe (m >= 1): up to [m] rotted pages per
          stripe are repairable; [k + m <= 255] *)
}

val default : t
(** Small-scale defaults tuned for the in-memory device: 1 MiB buffer,
    leveled compaction T=10, 4 MiB level 1, 10-bit Bloom filters, 8 MiB
    block cache. *)

val validate : t -> unit
(** @raise Invalid_argument on nonsensical settings. *)

val level_capacity : t -> int -> int
(** [level_capacity t level] in bytes (level >= 1). *)

val describe : t -> string
