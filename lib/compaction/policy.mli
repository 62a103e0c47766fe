(** The compaction design space as four first-order primitives (§2.2.4,
    after Sarkar et al., "Constructing and Analyzing the LSM Compaction
    Design Space", VLDB 2021):

    1. the {e data layout} (how many sorted runs a level may hold),
    2. the {e trigger} (when a level must compact),
    3. the {e granularity} (how much data moves per compaction), and
    4. the {e data-movement policy} (which files move).

    Any classical or hybrid strategy is a point in this space: RocksDB
    leveled = (Leveling, Level_size, File, Least_overlap); Cassandra
    STCS ≈ (Tiering T, Run_count, Whole_level, —); Dostoevsky =
    (Lazy_leveling, …); Lethe = (…, movement = Expired_ttl); PebblesDB =
    (Guarded, fragment count or level size, one guard, —). *)

type data_layout =
  | Leveling  (** at most one run per level (§2.1.2) *)
  | Tiering of { runs : int }  (** up to [runs] runs per level *)
  | Lazy_leveling of { runs : int }
      (** Dostoevsky: tiered intermediate levels, leveled last level *)
  | Hybrid of { tiered_levels : int; runs : int }
      (** the first [tiered_levels] levels tiered (RocksDB-style L0 burst
          absorption), deeper levels leveled *)
  | Run_caps of int array
      (** the continuum (E14): explicit per-level run caps; levels beyond
          the array reuse its last element *)
  | Guarded of { stride_base : int }
      (** PebblesDB's fragmented LSM (§2.2.2). Guard keys ({!is_guard})
          partition each level >= 1; a guard holds any number of
          overlapping runs (fragments). A guard compacts when it holds
          more than [size_ratio] runs, or, as the heaviest guard of a
          level over capacity: its runs merge and the output, cut at the
          next level's guards, is appended there as one new run without
          rewriting that level (in place at the last level while it is
          under capacity). ~1 in [stride_base] keys guards level 1;
          deeper levels divide the stride by [size_ratio]. [granularity]
          and [movement] do not apply to guarded levels; level 0 merges
          whole into a fresh level-1 run. *)

type granularity =
  | Whole_level  (** AsterixDB-style full-level merges (§2.2.3) *)
  | Single_file  (** partial compaction: one file at a time *)

type movement =
  | Round_robin  (** next file after the last compacted key *)
  | Least_overlap  (** file with the least next-level overlap [38, 71] *)
  | Oldest_file  (** cold-first: the file written longest ago *)
  | Most_tombstones  (** highest tombstone density, purges deletes early *)
  | Expired_ttl of { ttl : int }
      (** Lethe's FADE: prefer files holding tombstones older than [ttl]
          logical ticks; fall back to least overlap *)

type t = {
  layout : data_layout;
  granularity : granularity;
  movement : movement;
  size_ratio : int;  (** T: capacity growth factor between levels *)
  level0_limit : int;  (** runs in level 0 that trigger a flush-out *)
}

val default : t
(** RocksDB-ish: leveled, single-file granularity, least-overlap movement,
    T=10, level0_limit=4. *)

val leveled : ?size_ratio:int -> unit -> t
val tiered : ?size_ratio:int -> unit -> t
(** Tiering with [runs = size_ratio], the classical coupling. *)

val lazy_leveled : ?size_ratio:int -> unit -> t

val run_cap : t -> level:int -> last_level:int -> int
(** Maximum sorted runs the layout allows in [level] (1-based; level 0 is
    governed by [level0_limit] separately). [max_int] for guarded levels:
    their runs are bounded per guard, not per level. *)

val is_guard : stride_base:int -> size_ratio:int -> level:int -> string -> bool
(** Whether [key] is a guard of [level] under [Guarded { stride_base }]: a
    key hash divisible by the level's stride ([stride_base] divided by
    [size_ratio] once per level below 1, floored at 64). Pure, so guards
    are never persisted; a guard of level [l] is one of every deeper level
    whenever each stride divides the one above. *)

val layout_name : data_layout -> string
val movement_name : movement -> string
val granularity_name : granularity -> string
val describe : t -> string
val pp : Format.formatter -> t -> unit
