(** A fixed pool of worker domains.

    OCaml 5 domains are heavyweight (each owns a minor heap and takes part
    in every stop-the-world section), so the engine spawns them once and
    reuses them for every parallel job — RocksDB's background-thread-pool
    shape, minus the priority lanes. Tasks are closures: {!submit} runs
    one for its effect, {!map_list} joins a batch and returns its
    results, re-raising a task's exception in the submitting domain.

    A pool of size 0 degenerates to inline execution: {!submit} runs the
    task immediately on the calling domain. This is what
    [compaction_parallelism = 1] uses, so the serial configuration spawns
    no domains at all. *)

type t

val create : size:int -> t
(** Spawn [size] worker domains ([size >= 0]). *)

val size : t -> int
(** Number of worker domains (0 = inline pool). *)

val ensure_size : t -> int -> unit
(** Grow the pool to at least [n] workers by spawning the difference.
    Never shrinks; a target at or below the current size is a no-op.
    Concurrent growers are not supported.
    @raise Invalid_argument if the pool has been shut down or [n < 0]. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task; an exception it raises is dropped. On a size-0
    pool the task runs before [submit] returns.
    @raise Invalid_argument if the pool has been shut down. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Submit one task per element and await them all, preserving order.
    Exceptions re-raise after every task has settled (no worker is left
    running a task whose input list entry was dropped). *)

val shutdown : t -> unit
(** Finish queued tasks, then join every worker. Idempotent; further
    {!submit}s raise. *)
