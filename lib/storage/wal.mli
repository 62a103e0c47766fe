(** Write-ahead log: crash durability for the memtable.

    Each user write batch is one record of a {!Framed_log}: this module
    holds only the batch codec and the log file names; the frame, the
    seal and the torn-tail-versus-rot rule are {!Framed_log}'s. A batch
    payload is a varint entry count followed by the encoded entries.

    On a clean {!close} the log is sealed: a sealed log must parse
    perfectly, so any bad frame inside one is silent corruption and
    raises a typed [Lsm_util.Lsm_error.Corruption]. A log {e without} a
    seal is a crash-truncated log: {!replay} folds over the intact
    prefix and silently stops at a torn tail — the standard contract
    that makes a crashed tail harmless (the lost suffix was never
    acknowledged if the caller synced per batch) — unless the damage
    bears a bit-rot tell. *)

type t

val file_name_of_seq : int -> string
(** ["wal-%06d.log"]: the name of the [n]th log. *)

val files : Device.t -> (int * string) list
(** Every log file on the device, as [(seq, name)] in sequence order:
    the order recovery replays them in. A file is listed exactly when
    {!file_name_of_seq} generates its name; any other file (a stray
    ["wal-backup"], ["wal-0x10.log"]) the engine and its repair tool
    must neither replay nor delete. *)

val create : Device.t -> name:string -> t
(** Opens a fresh log file for appending (truncates an existing one). *)

val append : t -> ?sync:bool -> Lsm_record.Entry.t list -> unit
(** Appends one batch as one record. [sync] (default [true]) makes the
    record crash-durable before returning. Empty batches are ignored —
    including their [sync]; use {!sync} to force durability alone. *)

val sync : t -> unit
(** Make every record appended so far crash-durable. Needed after a run
    of [append ~sync:false] (e.g. recovery re-logging) before anything
    that assumed durability — like deleting the logs replayed from. *)

val close : t -> unit
(** Appends the seal frame and seals the file (implies sync). *)

val replay :
  Device.t -> name:string -> (Lsm_record.Entry.t list -> unit) -> int
(** [replay dev ~name f] applies [f] to each intact batch in order and
    returns the number of batches recovered: {!Framed_log.replay} over
    the batch codec. A missing file recovers zero batches. The seal
    frame itself is not counted or passed to [f]. *)

val salvage :
  Device.t -> name:string -> (Lsm_record.Entry.t list -> unit) -> int * (int * int) list
(** Tolerant scan for repair tools ({!Framed_log.salvage} over the batch
    codec): batches on {e both} sides of mid-log damage are recovered;
    returns the batch count and the disclosed byte ranges skipped as
    lost. A benign crash-torn tail is truncated silently, not disclosed. *)

val verify : Device.t -> Lsm_util.Lsm_error.t list
(** The WAL chain's report: a {!Framed_log.salvage} of every log in
    {!files}, each disclosed gap as a [Corruption] naming the log and
    the gap's start. Each batch is stepped over where it lies rather
    than decoded, but fails exactly where the decoder would, so the
    gaps are {!salvage}'s. A log deleted between listing and reading is
    skipped. *)
