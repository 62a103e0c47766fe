(** Power-loss fault-injection harness for the recovery path.

    Drives a seeded mixed workload (puts, deletes, range deletes, atomic
    write batches, explicit flushes) against a {!Lsm_core.Db} on the
    in-memory {!Lsm_storage.Device}, crashes it at chosen instants via
    {!Lsm_storage.Device.plan_crash}, reopens, and checks the {b recovery
    invariant}: the recovered store equals the logical model after
    exactly [k] completed ops with [acked <= k <= acked+1] — no
    acknowledged write lost, at most the one in-flight op additionally
    durable, batches all-or-nothing, deleted keys never resurrected —
    and a second power loss immediately after recovery loses nothing.

    Sweeps exhaust a whole coordinate axis of crash points (every sync
    boundary, every mutating device op, sampled mid-append byte offsets,
    every device op of the recovery itself), each under several torn-tail
    modes. All runs are deterministic in the workload seed. *)

(** The workload alphabet — concrete so sibling harnesses (the
    corruption sweep) can reuse the generator, the db/model appliers,
    and recognize explicit flush points. *)
type op =
  | Put of string * string
  | Delete of string
  | Range_delete of string * string
  | Batch of (bool * string * string) list  (** (is_delete, key, value) *)
  | Flush

module SMap : Map.S with type key = string

type report = {
  runs : int;  (** crash/reopen/check cycles executed *)
  points : int;  (** distinct crash points covered *)
  failures : string list;  (** human-readable invariant violations *)
}

val merge_reports : report -> report -> report

val gen_ops : seed:int -> count:int -> op array
(** Deterministic mixed workload over a small key space; values embed the
    op index so torn batches are detectable. *)

val default_config : unit -> Lsm_core.Config.t
(** Per-write WAL syncs (every completed op is acknowledged-durable) and
    a 4 KiB write buffer (many flush/compaction boundaries). *)

val key_of : int -> string
(** The [i]-th key of the workload's (small, collision-heavy) key space. *)

val apply_db : Lsm_core.Db.t -> op -> unit

val drain_crashed : Lsm_core.Db.t -> unit
(** Model the death of the process that owned a crashed database: wait
    until its maintenance lane is idle, dropping the failure the crash
    left there, so none of its jobs outlives [Device.revive] and writes
    into the recovered store. *)

val models_of : op array -> string SMap.t array
(** [models.(i)] = logical store contents after the first [i] ops. *)

val dry_run : ?config:Lsm_core.Config.t -> ops:op array -> unit -> int * int * int
(** [(syncs, mutating_ops, bytes)] one full run of the workload spans —
    the coordinate space the sweeps enumerate. [config] defaults to
    {!default_config}. *)

val check_crash :
  ?tear:Lsm_storage.Device.tear ->
  ?recovery:Lsm_storage.Device.tear * Lsm_storage.Device.crash_point ->
  ?config:Lsm_core.Config.t ->
  ops:op array ->
  Lsm_storage.Device.crash_point ->
  (unit, string) result
(** One crash/recover/check cycle. [recovery], if given, injects a second
    crash into the recovery run itself before the final reopen. [config]
    (default {!default_config}) is used for every open of the cycle. *)

val default_tears : Lsm_storage.Device.tear list
(** Clean truncation, an intact torn tail, and a scrambled torn tail. *)

val sweep_sync_points :
  ?config:Lsm_core.Config.t ->
  ?tears:Lsm_storage.Device.tear list ->
  ?stride:int ->
  ops:op array ->
  unit ->
  report
(** Crash after every [stride]-th sync boundary of the workload, running
    it under [config] (default {!default_config}). *)

val sweep_op_points :
  ?tears:Lsm_storage.Device.tear list -> ?stride:int -> ops:op array -> unit -> report
(** Crash after every [stride]-th mutating device op — reaches the
    windows between an unsynced append/delete/rename and the next sync. *)

val sweep_mid_append :
  ?tears:Lsm_storage.Device.tear list -> samples:int -> ops:op array -> unit -> report
(** Crash mid-append at [samples] byte offsets (torn frames). *)

val sweep_recovery_crashes :
  ?tears:Lsm_storage.Device.tear list -> ops:op array -> unit -> report
(** Crash mid-workload once, then crash the {e recovery} at every
    mutating device-op boundary it performs — the sweep that would catch
    manifest-rewrite and WAL-re-log windows in [open_db]. *)
