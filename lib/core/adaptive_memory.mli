(** Adaptive memory management between the write buffer and the block
    cache (Luo & Carey, "Breaking Down Memory Walls", §2.3.1).

    A fixed total budget is split between the write path (buffer: a larger
    one means fewer flushes and less compaction churn) and the read path
    (cache: a larger one means fewer data-block reads). The right split
    depends on the workload — and shifts when the workload shifts (E10
    shows no static split wins both phases).

    The controller runs an epoch loop: each {!epoch} call compares the
    I/O pain accrued on each side since the last call — write pain =
    flush + compaction bytes written, read pain = user-read bytes fetched
    from the device (i.e. cache misses) — and moves a step of budget
    toward the side that hurt more, within configured bounds. Both pains
    are device bytes, so the comparison needs no tuning constants. *)

type t

val create :
  ?step_fraction:float ->
  ?min_fraction:float ->
  db:Db.t ->
  total_bytes:int ->
  unit ->
  t
(** [step_fraction] (default 0.10) of the total moves per epoch;
    [min_fraction] (default 0.10) of the total is the floor for each side.
    The initial split is 50/50 (applied immediately). *)

val epoch : t -> unit
(** Observe the interval since the last call and rebalance. Call it every
    N operations or on a timer — the controller is indifferent. *)

val buffer_bytes : t -> int
val cache_bytes : t -> int
val moves_to_buffer : t -> int
val moves_to_cache : t -> int
