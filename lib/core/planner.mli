(** The compaction planner: which compaction is due next, described once,
    as a pure function of the tree (§2.2.4).

    A compaction is four primitives ({!Lsm_compaction.Policy}). A
    {e trigger} names a level: level 0's run count, a tiered level's run
    count, a level's bytes, Lethe's tombstone TTL, or one of PebblesDB's
    guard triggers (fragment count, capacity), which also name the guard.
    Single-file movement also names the file. The {e layout} and
    {e granularity} of that level alone then decide the job's shape:

    - a whole-level merge of every run of level [l] into [l + 1] —
      appended there as a fresh run when [l + 1] is tiered, merged with
      its run when it is leveled;
    - a single-file merge of one file of a leveled level into the
      overlapping files of the leveled level below;
    - a guard merge: one guard's fragments, merged into a fresh run of
      the next level (in place at the last level while it is under
      capacity).

    The planner reads no device, takes no lock and keeps no state; every
    side effect of submitting a pick (the cursor write, the group
    allocation, the merge plan, the choice to move instead of merge)
    belongs to {!Db}. *)

module Table_meta = Lsm_sstable.Table_meta

type output =
  | Fresh_run  (** the output starts a new run at the target level *)
  | Join of int
      (** the output replaces the target's one leveled run, keeping its
          group *)

type pick = {
  level : int;  (** source level: the level of the conflict key *)
  inputs : Version.run list;  (** newest first *)
  target : int;
  output : output;
  bottom : bool;
      (** for every key range the inputs cover, no data at or below
          [target] lies outside them: tombstones may retire *)
  trivial_move : bool;
      (** the inputs may be relocated unchanged instead of merged:
          nothing at the target overlaps them *)
  lo : string;
  hi : string;  (** inclusive key span the conflict key must cover *)
  cursor : (int * string) option;
      (** round-robin cursor to record on submit: (level, key) *)
}

val next :
  Config.t ->
  Version.t ->
  now:int ->
  cursor:(int -> string option) ->
  reach:(Table_meta.t -> string) ->
  pick option
(** The compaction due in the tree, if any. Level 0 first, then
    capacity and run-count triggers shallowest level first, then the
    TTL trigger. [now] is the logical clock; [cursor l] the round-robin
    position of level [l]; [reach f] the largest key [f]'s entries can
    affect ([f.max_key] widened by its range tombstones). *)

val major : Config.t -> Version.t -> pick option
(** The full compaction: every run of every level merged into one run
    at the deepest populated level (at least level 1), with [bottom]
    set, even when that level holds a lone run already. [None] on an
    empty tree. Its conflict key is [Scheduler.Maintenance]. *)

val input_files : pick -> Table_meta.t list
