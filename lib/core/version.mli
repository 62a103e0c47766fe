(** The tree shape: which files live in which sorted run of which level.

    - Level 0 holds one single-file run per flush; runs may overlap.
    - Levels >= 1 hold up to [run_cap] runs (per the layout); each run is
      a key-ordered list of non-overlapping files.
    - Run recency: within a level, higher [group] ids are newer. The LSM
      invariant (§2.1.1.E) — shallower/newer data shadows deeper/older —
      is exactly (level asc, group desc) probe order.

    A version is a persistent value; {!apply} returns a new version, so
    iterators and in-flight reads keep a coherent snapshot of the shape. *)

module Table_meta = Lsm_sstable.Table_meta

type run = { group : int; files : Table_meta.t list (* key-ascending *) }
type level = run list (* newest group first *)

type t = {
  levels : level array;  (** index 0 = level 0; fixed max depth, sparse *)
  next_file_id : int;
  next_group : int;
  last_seqno : int;
}

val max_levels : int
val empty : t

type edit = {
  added : (int * int * Table_meta.t) list;  (** (level, group, meta) *)
  removed : int list;  (** file ids *)
  seqno_watermark : int;
}

val apply : t -> edit -> t
(** Applies removals then additions; bumps [next_file_id]/[next_group]
    past any ids seen; raises [Invalid_argument] on unknown removed ids. *)

(** {1 Queries} *)

val level_runs : t -> int -> run list
val run_count : t -> int -> int

val level_files : t -> int -> Table_meta.t list
(** Every file of the level, its runs newest first. *)

val level_bytes : t -> int -> int
val level_entries : t -> int -> int

val runs_key_range : cmp:Lsm_util.Comparator.t -> run list -> (string * string) option
(** Inclusive [lo, hi] key span of every file in the runs, or [None]
    when the runs are empty — the key-range half of the scheduler's
    compaction conflict keys. *)

val last_level : t -> int
(** Deepest non-empty level; 0 when the tree is empty. *)

val file_count : t -> int
val total_bytes : t -> int
val all_files : t -> Table_meta.t list
val find_file : t -> int -> (int * int * Table_meta.t) option
(** [find_file t id] = (level, group, meta). *)

val check_invariants : cmp:Lsm_util.Comparator.t -> t -> (unit, string) result
(** Structural soundness: runs internally non-overlapping and sorted;
    no duplicate file ids. Used by tests and the paranoid mode. *)

(** {1 Lifetime pinning}

    Versions are persistent values, but the [.sst] files they reference
    are deleted after compaction, while a reader can hold a version
    across the install, so deletion is deferred: the registry numbers
    installs with a sequence, readers {!Pins.pin} the current sequence
    (lock-free), and a deletion deferred after install [d] runs only
    once no pin older than [d] remains. *)
module Pins : sig
  type registry
  type pin

  val create_registry : unit -> registry

  val advance : registry -> unit
  (** Record that a new version was installed. Call after every
      [install_edit] (under the serialized maintenance lane). *)

  val pin : registry -> pin
  (** Pin the currently installed version. Allocates nothing. *)

  val unpin : registry -> pin -> unit
  (** Drop a pin taken from this registry; runs any deferred deletions
      it was blocking (on the calling domain, outside the registry
      lock). *)

  val with_pin : registry -> (unit -> 'a) -> 'a

  val defer : registry -> (unit -> unit) -> unit
  (** [defer reg delete] — run [delete] once every pin taken before the
      latest {!advance} has dropped; immediately if none is live. *)

  val deferred_count : registry -> int
  (** Deletions still waiting on a pin (observability / tests). *)

  val drain : registry -> unit
  (** Run every deferred deletion unconditionally. Only sound once no
      reader can touch the files again (db close). *)
end

(** {1 Manifest encoding} *)

val encode_edit : Buffer.t -> edit -> unit
val decode_edit : Lsm_util.Codec.reader -> edit
val pp : Format.formatter -> t -> unit
