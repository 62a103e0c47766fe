(** The read path (§2.1.1): a point lookup checks the buffers newest
    first, then the runs newest first, each run guarded by its filter
    and its fence pointers; a range read merges every overlapping run.

    Everything here reads a captured {!ctx} through an explicit {!env}:
    no lock, no clock, no statistics. Capturing the context (under the
    buffer lock, in the order DESIGN.md §12.4 explains), pinning the
    version it names, ticking the clock and accounting the {!tally}
    belong to {!Db}. *)

module Table_meta = Lsm_sstable.Table_meta

(** {1 Environment} *)

type env = {
  cmp : Lsm_util.Comparator.t;
  merge_operator : (string -> string option -> string list -> string) option;
  tables : Lsm_sstable.Table_cache.t;
  fence : Table_meta.t -> unit;
      (** the quarantine fence: raises when the table is quarantined *)
  table_failed : 'a. Table_meta.t -> exn -> 'a;
      (** a table read failed with a decode error or a missing file:
          quarantine the table and raise the typed error *)
}
(** Built once per database, at open. *)

(** {1 Read view} *)

type view
(** An installed version plus what readers derive from it, built once
    per install rather than once per read: the table range tombstones
    and every run's files in probe order (level ascending, newest run
    first), as arrays for the binary search. *)

val empty_view : view
val view_of : env -> Version.t -> view
val view_version : view -> Version.t

val rds_of_files : env -> Table_meta.t list -> Lsm_record.Entry.t list
(** The range tombstones the given tables hold. *)

(** {1 File selection} *)

val seek_run : Lsm_util.Comparator.t -> Table_meta.t array -> string -> int
(** The first file of one run (sorted, disjoint) whose [max_key >= key],
    or the run's length: where a seek into the run lands. *)

val run_file : Lsm_util.Comparator.t -> Table_meta.t array -> string -> int
(** The index of the one file of the run that may hold [key], or [-1]:
    {!seek_run}, kept when the file starts at or below [key]. *)

val run_iter :
  Lsm_util.Comparator.t ->
  open_file:(Table_meta.t -> Lsm_record.Iter.t option) ->
  failed:(Table_meta.t -> exn -> unit) ->
  lo:string option ->
  hi:string option ->
  Table_meta.t array ->
  Lsm_record.Iter.t
(** One run (sorted, disjoint files) as one iterator over [\[lo, hi)]
    (an absent bound is open); a seek below [lo] lands on [lo]. A file
    is opened — [open_file] called and its iterator positioned — only
    when the iterator reaches it, so a read that stops early never
    touches the files past its stop. [open_file] returns the file's
    unpositioned iterator, or [None] to pass over the file. A decode
    failure or missing file while positioning or stepping a file is
    handed to [failed] with that file, which must raise. Scans and
    subcompaction inputs read runs through it. *)

(** {1 Reads} *)

type ctx
(** One coherent view of the database, captured once and then used to
    resolve any number of keys: the snapshot ceiling, the memtable
    stack, and the read view. Valid only while the version pin taken
    before the capture is held. *)

val ctx :
  snap:int -> active:Lsm_memtable.Memtable.t -> immutables:Lsm_memtable.Memtable.t list ->
  view -> ctx
(** [immutables] newest first. *)

type tally = private {
  mutable probed : int;  (** runs whose table was searched past its filter *)
  mutable negatives : int;
      (** tables a filter ruled out: the point filter for a lookup, the
          range filter for a scan *)
  mutable false_positives : int;  (** searched past the filter, key absent *)
}
(** What one read did below the memtables. Reader domains must not
    touch shared counters, so every read fills its own tally and the
    caller accounts it on its own domain. *)

val tally : unit -> tally

val lookup : env -> ctx -> tally -> string -> string option
(** [key]'s visible value in the context. *)

val fold :
  env -> ctx -> tally -> limit:int -> lo:string -> hi:string option -> init:'a ->
  f:('a -> string -> string -> 'a) -> 'a
(** Folds over the visible [(key, value)] pairs of [\[lo, hi)] in
    ascending key order, at most [limit] of them. *)
