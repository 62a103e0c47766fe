(** The LSM-tree storage engine: the paper's object of study, assembled
    from the substrate libraries.

    Single-{e writer} by design; concurrent readers ({!get},
    {!multi_get}, {!fold}, {!scan}) are safe from any domain at every
    setting: each pins the version it reads (a lock-free refcount), so
    compaction never deletes a table under it. Flush and compaction run
    as jobs on the db's scheduler lane (DESIGN.md §10), in the same
    commit order at every width. With the default
    [Config.compaction_backend = Inline] the lane has zero width: they
    run inside the triggering write, and their cost is {e accounted}
    (stall bursts, compaction I/O histograms) rather than hidden — which
    is exactly what the stall/burst experiments measure. With
    [Background] a rotation enqueues a job and returns, and writes are
    throttled by [write_slowdown_trigger]/[write_stop_trigger]
    backpressure instead; after {!quiesce} (or {!flush}) the contents
    are identical. With [Config.compaction_parallelism] > 1 the
    {e inside} of each merge fans out across a fixed pool of worker
    domains (RocksDB-style subcompactions over disjoint key ranges), and
    {!multi_get} shards batched point lookups over the same pool;
    results are identical to serial execution, only wall-clock
    changes.

    External operations: {!put}, {!get}, {!scan}, {!delete} (plus
    {!single_delete}, {!range_delete}, {!merge} — §2.1.2). Internal
    operations: {!flush} and compaction (automatic; {!compact_once} /
    {!major_compact} force it). A read captures its context and pins
    its version here, then resolves its keys in {!Read_path}
    (DESIGN.md §20). *)

type t

val open_db : ?config:Config.t -> dev:Lsm_storage.Device.t -> unit -> t
(** Opens (or recovers) the database living on [dev]: replays the
    manifest, then the write-ahead logs. *)

val close : t -> unit
(** Flushes nothing (buffers are recoverable from the WAL); seals the
    manifest and WAL files. *)

val config : t -> Config.t
val device : t -> Lsm_storage.Device.t

(** {1 External operations} *)

val put : t -> key:string -> string -> unit
val delete : t -> string -> unit
(* lsm-lint: allow R14 — public API: the single-delete tombstone of the write path *)
val single_delete : t -> string -> unit
(** Deletion of a key guaranteed to have been put at most once since the
    last delete; cheaper to purge (§2.3.3, [101]). *)

val range_delete : t -> lo:string -> hi:string -> unit
(** Deletes all keys in [\[lo, hi)]. *)

val merge : t -> key:string -> string -> unit
(** Read-modify-write operand (§2.2.6); resolved by
    [Config.merge_operator] at read time. *)

val apply_batch : t -> Write_batch.t -> unit
(** Apply all operations of the batch atomically: one sequence-number
    range, one WAL record — after a crash, all or none recover. *)

val get : t -> ?snapshot:Snapshot.t -> string -> string option

val multi_get : t -> ?snapshot:Snapshot.t -> string list -> string option list
(** Point-lookup fan-out: resolves every key against ONE captured read
    context — one snapshot ceiling, one memtable stack, one version — so
    the result list is a point-in-time cut of the database on {e both}
    execution paths. A concurrent {!apply_batch} is observed either
    entirely or not at all, matching the batch's crash atomicity. With
    [Config.compaction_parallelism] > 1 the lookups are sharded across
    the worker-domain pool; otherwise they resolve sequentially on the
    calling domain (against the same single context). *)

val scan :
  t -> ?snapshot:Snapshot.t -> ?limit:int -> lo:string -> hi:string option ->
  unit -> (string * string) list
(** Latest visible version of every key in [\[lo, hi)], ascending, at most
    [limit] results. *)

val fold :
  t -> ?snapshot:Snapshot.t -> ?limit:int -> lo:string -> hi:string option ->
  init:'a -> f:('a -> string -> string -> 'a) -> unit -> 'a
(** Streaming variant of {!scan}: folds over resolved (key, value) pairs
    in ascending order without materializing the result. *)

(** {1 Snapshots} *)

val snapshot : t -> Snapshot.t
(** Pin the current visible state: reads through the returned handle see
    exactly the entries published at this instant, until {!release}.
    Registration is synchronized (a ranked [Ordered_mutex]) with the
    flush/compaction planners that consult the registry, so a snapshot
    taken from any domain is never lost to a concurrently planned merge. *)

val release : t -> Snapshot.t -> unit
(** Unregister one registration of the snapshot's seqno (idempotent per
    registration; releasing twice only affects duplicate pins). *)

(* lsm-lint: allow R14 — public API: how many snapshots pin old versions *)
val live_snapshots : t -> int list
(** Consistent copy of the registered snapshot seqnos, newest first —
    what flush/merge planning passes to the merge filter. Test hook. *)

(** {1 Internal operations} *)

val flush : t -> unit
(** Rotate and flush every buffer to level 0, then run any triggered
    compactions. *)

(* lsm-lint: allow R14 — public API: one synchronous compaction step for callers that
   drive maintenance *)
val compact_once : t -> bool
(** If a compaction is due, drain the lane and run one budget round of
    the cascade now ([Config.compaction_bytes_per_round]); [false] if
    none was due. *)

val quiesce : t -> unit
(** Block until every enqueued flush/compaction job has finished,
    re-raising on this domain any exception a job hit. No-op inline,
    where jobs finish inside the call that submits them. *)

val backpressure_debt : t -> int
(** The write-throttle debt measure, in bytes: immutable buffer bytes
    + level-0 run bytes + input bytes of enqueued-but-unapplied
    compactions (always 0 on a zero-width lane). Compared against
    [Config.write_slowdown_trigger] / [write_stop_trigger].
    Observability/tests. *)

val major_compact : t -> unit
(** Flush and run one budget round of the triggered compactions; then
    force-merge every run of every level into one run at the deepest
    populated level (at least level 1) as the bottom, so tombstones
    retire. The merge runs even when that level already holds the only
    run: versions kept for since-released snapshots and tombstones go
    too (RocksDB's forced CompactRange). Its commit starts another
    budget round. Returns once the lane has drained. *)

(** {1 Health, quarantine, and integrity (DESIGN.md §11)}

    Every failure that escapes this API is a typed
    [Lsm_util.Lsm_error.Error]: [Corruption] when on-disk bytes are
    provably wrong, [Io_error] for device trouble, [Read_only] for
    mutations rejected in fail-safe mode, [Shutdown] after close. The
    engine never serves data it cannot prove intact — a read that hits a
    corrupt or quarantined table raises instead of falling through to an
    older (stale) version of the key. *)

type health =
  | Healthy
  | Degraded
      (** at least one table is quarantined; reads outside the fenced
          ranges and all writes still work *)
  | Failsafe_read_only
      (** a flush/compaction job failed: mutations
          raise [Lsm_error.Read_only], reads keep working,
          {!try_resume} re-arms *)

type quarantine_entry = {
  q_file : string;
  q_min : string;
  q_max : string;  (** key range whose reads now fail loudly *)
  q_detail : string;
}

(* lsm-lint: allow R14 — public API: the engine health state an operator polls after a
   background error *)
val health : t -> health
val quarantined_tables : t -> quarantine_entry list

(* lsm-lint: allow R14 — public API: the operator's recovery step out of a degraded state *)
val try_resume : t -> health
(** Leave fail-safe mode: drains the lane, discards the parked failure
    (abandoned flushes retry) and returns the resulting health —
    [Healthy], or [Degraded] when quarantined tables remain. *)

val verify_integrity : t -> Lsm_util.Lsm_error.t list
(** Synchronous integrity scrub: manifest frame chain, then every live
    table (block CRCs, fence order — see [Sstable.verify]) under a
    version pin, then the WALs. Defective tables are quarantined; all
    findings are returned (never raised — the scrubber reports, it does
    not abort on the first defect). *)

(* lsm-lint: allow R14 — public API: the online integrity sweep *)
val scrub : t -> unit
(** Lane variant of {!verify_integrity}'s table pass: one verification
    job per live table, rate-limited by [Config.scrub_delay], so
    foreground work interleaves (inline, the pass runs before [scrub]
    returns). Findings land in {!stats} and {!quarantined_tables};
    {!quiesce} waits for completion. *)

(* lsm-lint: allow R14 — public API: consistent on-device checkpoints *)
val checkpoint : t -> dest:Lsm_storage.Device.t -> unit
(** Consistent full backup: flush, copy every live table to [dest], and
    write a manifest describing exactly this version — [dest] then opens
    as an independent database with the same contents.
    @raise Invalid_argument if [dest] already holds a database. *)

val wake : t -> int
(** Advance the logical clock without writing (models idle time for
    TTL-based policies); returns the new tick. *)

(** {1 Runtime memory knobs (§2.3.1)} *)

(* lsm-lint: allow R14 — public API: the live write-buffer budget *)
val write_buffer_size : t -> int
val set_write_buffer_size : t -> int -> unit
(** Change the rotation threshold on the fly (rotating immediately if the
    active buffer already exceeds it). *)

val set_block_cache_bytes : t -> int -> unit
(** Resize the block cache, evicting LRU blocks when shrinking. Together
    with {!set_write_buffer_size} this is the lever adaptive memory
    management (Luo & Carey, §2.3.1) turns. *)

(** {1 Introspection} *)

val stats : t -> Stats.t
val io_stats : t -> Lsm_storage.Io_stats.t
val version : t -> Version.t
val block_cache : t -> Lsm_sstable.Sstable.cached_block Lsm_storage.Block_cache.t
val table_cache : t -> Lsm_sstable.Table_cache.t
(* lsm-lint: allow R14 — public API: advances the logical clock that TTL compaction reads *)
val tick : t -> int

(* lsm-lint: allow R14 — public API: the full logical contents, the inline-vs-background
   equivalence witness *)
val dump_entries : t -> (int * Lsm_record.Entry.t) list
(** Every on-disk entry paired with its level, in probe order: the
    verification hook the parallel-compaction determinism test compares
    across engines (identical logical state = identical dumps, whatever
    the physical file boundaries). Reads every table; debug/test only. *)

(* lsm-lint: allow R14 — public API: the newest committed sequence number *)
val last_seqno : t -> int
val write_amplification : t -> float
(** Device bytes written (flush + compaction + WAL) / user bytes. *)

val space_amplification : t -> float
(** Live device bytes / logical user data bytes (latest versions only). *)

(* lsm-lint: allow R14 — public API: the tree-shape invariant check *)
val check_invariants : t -> (unit, string) result
val pp_tree : Format.formatter -> t -> unit
