(** Ranked mutex with optional runtime lock-order checking ("lockdep").

    Each mutex carries an integer rank; the engine-wide discipline is
    that a domain acquires locks in strictly increasing rank order and
    never re-enters a lock it holds. When checking is enabled (the
    [LSM_LOCKDEP=1] environment variable, or {!set_enforce}) any
    acquisition violating the discipline raises {!Violation} before the
    underlying mutex is touched, turning a potential cross-domain
    deadlock into a deterministic failure at the guilty call site.
    Checking off costs one atomic load per acquisition.

    This module is the sole blessed user of raw [Mutex.lock]/[unlock]
    in [lib/] (lint rule R1); everything else uses {!with_lock} or
    {!protect}. *)

(** The engine's lock hierarchy, lowest (outermost) rank first. See
    DESIGN.md §9 for the rationale behind each edge. *)
module Rank : sig
  val db_buffers : int
  (** [Db] memtable-rotation lock — active/immutable buffer list,
      backpressure condition. Outermost: held across no other lock
      except those below it. *)

  val db_snapshots : int
  (** [Db] snapshot registry — the list of live snapshot seqnos, mutated
      by [Db.snapshot]/[Db.release] from any domain and copied by
      flush/compaction planning. *)

  val db : int  (** [Db.id_mutex] — file-id allocation *)

  val version_pins : int
  (** [Version.Pins] registry — version pin counts and deferred
      file-deletion queue. *)

  val table_cache : int  (** [Table_cache] LRU structure lock *)

  val block_cache_shard : int  (** one [Block_cache] shard *)

  val device : int  (** [Device] file-table / crash-plan lock *)

  val stats : int  (** [Io_stats] counter lock *)

  val scheduler : int
  (** [Scheduler] pending-job count / failure latch. Ranked below
      [domain_pool] so [enqueue] may submit to the shared pool while
      updating its own bookkeeping. *)

  val domain_pool : int  (** [Domain_pool] work-queue lock *)

  val future : int  (** one [Domain_pool] future's settle lock *)
end

type t

exception Violation of string
(** Raised at the acquisition site on rank inversion, same-rank double
    acquisition, or re-entrancy — only when enforcement is on, and
    always before the underlying mutex is acquired. *)

val create : rank:int -> name:string -> t
(** [name] appears in {!Violation} messages; [rank] orders this lock in
    the hierarchy. Raises [Invalid_argument] on negative rank. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Runs [f] with the lock held; exception-safe (the lock is released
    on raise). This is the blessed combinator lint rule R1 points
    raw-mutex call sites at. *)

val protect : t -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [protect t f a b] is [with_lock t (fun () -> f a b)] without the
    closure: the form for per-read and per-append sections, where [f] is
    a top-level function and so nothing is allocated. *)

val lock : t -> unit
(** Low-level acquire, for code whose hold scope cannot be a closure.
    Prefer {!with_lock}. *)

val unlock : t -> unit

val wait : Condition.t -> t -> unit
(** [wait cond t] — [Condition.wait] against [t]'s underlying mutex,
    which must be held (normally: called inside [with_lock t]). The
    lock stays attributed to the calling domain for the duration of the
    wait; see the implementation comment for why that is sound. *)

val set_enforce : bool -> unit
(** Toggle checking at runtime (tests). Toggle only while the calling
    domain holds no ordered mutexes. *)

(* lsm-lint: allow R14 — lockdep (synchronisation checking): tests save and restore
   enforcement *)
val enabled : unit -> bool

(* lsm-lint: allow R14 — lockdep: tests check a violation unwinds the held stack *)
val held_names : unit -> string list
(** Names of the locks the calling domain currently holds, outermost
    first. Debugging aid; meaningful only while enforcement or graph
    recording is on. *)

(** Acquired-before graph recorder (RocksDB-style lockdep debug mode).

    When recording is on — [LSM_LOCKDEP_GRAPH=path] in the environment,
    or {!Graph.set_path} — every acquisition taken while other ordered
    mutexes are held appends (held-name → acquired-name) edges to a
    per-run table, each edge carrying one sample stack from its first
    sighting. At process exit the run's edges are merged into the
    persisted graph file (read, union, atomic tmp+rename) and any cycle
    in the {e merged} graph is reported on stderr: two acquisition
    orders that never interleave in a single run — and that rank
    enforcement therefore never sees racing — still meet across runs.
    [lsm-lint --lockdep-graph FILE] loads the same file, turns cycles
    into failing findings, and cross-checks the observed relation
    against the statically inferred one (DESIGN.md §9.4).

    Recording is independent of {!set_enforce}: with enforcement off
    nothing raises, but the held stack is still tracked and edges still
    recorded — that is what lets a deliberately inverted order from one
    run meet its mirror image from another in the merged file. *)
module Graph : sig
  type edge = { src : string; dst : string; stack : string list }
  (** One observed acquired-before pair: [dst] was acquired while [src]
      was held; [stack] is the full held-stack sample (outermost first,
      [dst] last) from the edge's first sighting. *)

  (* lsm-lint: allow R14 — lockdep graph recording: tests point it at a scratch file *)
  val set_path : string option -> unit
  (** [set_path (Some file)] starts recording and registers the
      exit-time merge into [file]; [set_path None] stops recording
      (already-recorded edges of this run are kept until
      {!reset_run}). *)

  (* lsm-lint: allow R14 — lockdep graph recording: tests save and restore the recording
     path *)
  val path : unit -> string option

  (* lsm-lint: allow R14 — lockdep graph recording: tests simulate separate runs *)
  val reset_run : unit -> unit
  (** Clear this run's edge table (tests simulate multiple runs). *)

  (* lsm-lint: allow R14 — lockdep graph recording: tests merge a simulated run now rather
     than at exit *)
  val merge_to_file : unit -> edge list
  (** Merge this run's edges into the configured file now and return
      the merged graph; [[]] and a no-op when no path is set. Called
      automatically at exit. *)

  val load : string -> edge list
  (** Parse a persisted graph file; [[]] if the file does not exist. *)

  val cycles : edge list -> string list list
  (** One representative cycle per knot in the given graph, each as a
      node list whose last element repeats the first. Deterministic. *)
end
