(** Background flush/compaction scheduler: multi-worker lane with a
    deterministic commit sequencer.

    Background jobs from all open dbs execute on one process-wide
    [Lsm_util.Domain_pool], grown to the largest [workers] any open db
    requested. Each db owns a [t] that dispatches up to [workers] of its
    jobs concurrently — but only jobs whose {!key}s do not conflict —
    and applies their version edits strictly in commit order: a job's
    [execute] phase returns a commit thunk, and a thunk that finishes
    out of order parks until every earlier ticket has committed. Commit
    order is ordinarily submission order, except that submissions made
    from inside the post-commit hook are sequenced at the head of the
    uncommitted queue (see {!set_on_commit}). With [workers = 1] this
    degenerates to a strict FIFO lane.

    With [workers = 0] the lane has zero width: no domain, and {!submit}
    runs the job, its commit and every follow-up the hook submits on
    the calling domain before returning.

    Conflict relation: jobs at the same level conflict; jobs at adjacent
    levels conflict iff their key ranges overlap; [Flush] is a
    full-range job at level -1 (serializes with flushes and L0
    compactions); [Maintenance] conflicts with everything.

    Failure: the first exception (from an execute phase or a commit
    thunk) latches, and every ticket behind the failing one in commit
    order is discarded — its
    parked edit is dropped rather than applied over the failure — while
    earlier tickets commit normally. Discarded tickets still drain, so
    {!quiesce} and {!shutdown} never deadlock on parked edits.

    Lock rank: [Rank.scheduler]. Commit thunks and the post-commit hook
    run with no scheduler lock held. *)

type t

type key =
  | Flush  (** memtable flush: full key range at pseudo-level -1 *)
  | Compact of { level : int; lo : string; hi : string }
      (** compaction sourced at [level], touching [level] and
          [level + 1] within the inclusive key range [lo..hi] *)
  | Maintenance  (** scrub or other serialized housekeeping *)

val create : ?workers:int -> ?cmp:(string -> string -> int) -> ?stats:Stats.t -> unit -> t
(** New per-db scheduler, sharing (and on first call creating, or
    growing to [workers]) the process-wide background lane, unless
    [workers = 0]. [cmp] orders user keys for the conflict relation.
    [stats] receives per-worker counters and sequencer histograms
    ({!Stats.provision_workers} is called with [workers]).
    @raise Invalid_argument if [workers < 0]. *)

val workers : t -> int
(** The concurrency cap this scheduler was created with. *)

val submit : t -> key:key -> input_bytes:int -> execute:(unit -> unit -> unit) -> unit
(** Queue a two-phase job; returns immediately (zero width: once it has
    committed). [execute ()] runs on a pool worker (concurrently with
    non-conflicting jobs) and returns the commit thunk, which the
    sequencer runs in commit order.
    Ordinary submissions append to the commit order; submissions made
    from inside the post-commit hook are front-inserted right after the
    commit that triggered them, ahead of already-queued tickets —
    overtaking is sound only because the overtaken tickets (flushes,
    maintenance) have version-independent effects. [input_bytes] feeds
    {!unapplied_bytes} (backpressure debt) and the per-worker
    bytes-moved counter until the ticket commits. Re-raises a
    previously recorded background failure before queueing (zero
    width: also the failure of the job it just ran). *)

val enqueue : t -> (unit -> unit) -> unit
(** [submit] of a [Maintenance] job that does all its work in the
    execute phase and commits nothing. *)

val set_on_commit : t -> (unit -> unit) -> unit
(** Install the post-commit hook, run by the sequencer after every
    successful commit with no scheduler lock held. This is where the db
    picks follow-up compactions: picks made here observe version edits
    in commit order, and {!submit} calls from inside the hook are
    sequenced at the commit head (before every already-queued ticket),
    which makes the pick sequence — and therefore the whole tree
    evolution — independent of the worker count and identical to the
    inline scheduler's synchronous cascade. The hook may call
    {!submit}/{!conflicts_pending}. An exception from the hook latches
    as a failure and discards everything still queued. *)

val conflicts_pending : t -> key -> bool
(** Would a job with this key conflict with any uncommitted non-flush
    ticket? Used by the pick hook to stop picking (rather than skip
    ahead) when the canonical next compaction overlaps in-flight work.
    Pending [Flush] tickets are skipped: a flush's edit only adds a
    brand-new L0 run, so it never invalidates a pick's captured
    inputs — refusing on it would defer L0 compaction
    indefinitely under sustained ingest (the writer keeps one flush in
    flight almost always) and leave a backlog whose eventual shape
    depends on timing. The dispatch-level Flush/Compact-L0 conflict is
    unaffected: execution still serializes, only the pick decision
    looks through flushes. *)

val unapplied_bytes : t -> int
(** Sum of [input_bytes] over uncommitted tickets — the
    enqueued-but-unapplied component of byte-denominated backpressure
    debt. *)

val wait_until : t -> (pending:int -> unapplied_bytes:int -> bool) -> unit
(** Block until [pred ~pending ~unapplied_bytes] holds. [pred] is
    called under the scheduler lock on every commit — it must not
    acquire ordered mutexes of rank <= [Rank.scheduler]. Returns
    (rather than hanging) when the scheduler drains or a job fails with
    the predicate still false; failures re-raise. *)

val quiesce : t -> unit
(** Wait until every ticket has committed (or been discarded) and the
    sequencer is idle, then re-raise any recorded failure. *)

val shutdown : t -> unit
(** Wait for every ticket to drain, discarding any recorded failure
    ([Db.close], and [Db.try_resume] re-arming after one). The shared
    lane keeps running (it is shut down at process exit). *)
