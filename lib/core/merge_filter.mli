(** The merge-time garbage-collection logic of compaction (§2.1.2):
    "participating entries are merged, retaining only the latest version
    of each key" — refined by snapshots, tombstone rules, and range
    tombstones.

    Given the k-way-merged input stream (key asc, seqno desc), the
    filtered iterator drops:
    - versions shadowed by a newer version of the same key in the same
      {e snapshot stripe} (no active snapshot separates them),
    - point/single-delete tombstones at the bottom level once no snapshot
      older than them exists (this is when deletes become {e persistent} —
      Lethe's clock, §2.3.3),
    - entries covered by a same-stripe newer range tombstone,
    - a [Single_delete] together with the put it cancels (same stripe),
      mirroring RocksDB's single-delete contract [101],
    - range-delete entries themselves at the bottom level / oldest stripe.

    [Merge] operands are never dropped by shadowing (read-time resolution
    needs the chain down to its base); a newer same-stripe [Put] or
    tombstone still shadows them. *)

val filtered :
  cmp:Lsm_util.Comparator.t ->
  snapshots:int list ->
  bottom:bool ->
  range_tombstones:Lsm_record.Entry.t list ->
  Lsm_record.Iter.t ->
  Lsm_record.Iter.t
(** [snapshots] are the active snapshot seqnos (any order). The result
    supports [seek_to_first]/[next]/[valid]/[entry] (what the SSTable
    builder consumes); [seek] degrades to a full rescan and is not meant
    for use. *)
