(** The serving front door: a RESP-speaking, multi-tenant, sharded KV
    server over Unix-domain sockets.

    One event loop, no server-side threads: a [select]-driven reactor
    accepts connections, accumulates partial frames, and executes every
    complete pipelined command in arrival order, encoding replies into a
    per-connection output buffer that one socket write per step drains.
    Concurrency lives below the loop —
    cross-shard fan-out on the shard map's domain pool, per-shard
    background flush/compaction lanes — so the protocol layer stays
    sequentially consistent per connection while the engine work runs
    wide. Drive it either with {!run} (blocking; the [bin/lsm_server]
    entry point) or by calling {!step} from an enclosing loop (the
    in-process harness and tests).

    Commands (first argument, case-insensitive):
    - [PING] → [+PONG]
    - [TENANT name] → bind this connection to a tenant namespace; every
      data command below requires it ([-NOTENANT] otherwise)
    - [PUT key value] / [DEL key] → [+OK]
    - [GET key] → bulk value or nil
    - [MGET k1 .. kn] → array, one bulk/nil per key, input order; the
      whole batch reads one point-in-time cut per shard
    - [MSET k1 v1 .. kn vn] → [+OK]; applied as one atomic
      [Write_batch] per touched shard
    - [QUOTA tenant ops bytes] → set a tenant's per-window limits
      ([-] = unlimited)
    - [STATS] → bulk text: per-shard debt/stall counters, op totals,
      socket write calls, connection buffer bytes
    - [FLUSH] → flush every shard's memtable
    - [SHUTDOWN] → [+OK], then graceful drain: stop accepting, flush
      every connection's pending replies, quiesce every shard's
      background lane, and only then let the listener exit. Commands
      pipelined behind [SHUTDOWN] on its connection are not executed.

    A malformed frame gets one [-ERR protocol: ...] reply, after which
    the connection is neither read nor parsed again and closes once the
    reply is flushed.

    Error replies use a leading code word: [-ERR ...], [-NOTENANT ...],
    [-QUOTA_EXCEEDED ...], [-BADARG ...]. *)

type t

type stats = {
  accepted : int;  (** connections accepted over the server's life *)
  active : int;  (** connections currently open *)
  commands : int;  (** commands executed *)
  quota_denials : int;
  protocol_errors : int;  (** connections dropped for malformed frames *)
  bytes_in : int;
  bytes_out : int;
  writes : int;  (** socket write calls: at most one per connection per {!step} *)
  buffer_bytes : int;
      (** bytes held by the input and output stores of open connections
          (gauge) *)
}

val create :
  ?quota:Quota.t -> ?backlog:int -> shards:Shard_map.t -> sock_path:string -> unit -> t
(** Bind and listen on [sock_path] (an existing socket file is removed
    first), non-blocking. The shard map stays owned by the caller —
    {!run} quiesces it on [SHUTDOWN] but never closes it. Sets SIGPIPE
    to ignored for the whole process, so a peer that hangs up costs
    only its own connection. *)

val step : t -> timeout:float -> bool
(** One reactor round: wait up to [timeout] seconds for readiness, then
    accept/read/execute/write what is ready. Returns [false] once the
    server has fully drained after [SHUTDOWN] (or {!request_shutdown})
    — the listener is closed and no connection remains. *)

val run : t -> unit
(** [step] until drained. *)

val request_shutdown : t -> unit
(** Programmatic [SHUTDOWN] (signal handlers, tests). *)

val draining : t -> bool
val stats : t -> stats
val sock_path : t -> string

val close : t -> unit
(** Force-close listener and every connection without draining. Safe
    after {!run}; does not touch the shard map. *)
