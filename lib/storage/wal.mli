(** Write-ahead log: crash durability for the memtable.

    Each user write batch is framed as one checksummed record. On a clean
    {!close} the log is terminated with a {e seal} sentinel frame, which
    tells replay the file is complete: a sealed log must parse perfectly,
    so any bad frame inside one is silent corruption (bit-rot) and raises
    a typed [Lsm_util.Lsm_error.Corruption]. A log {e without} a seal is
    a crash-truncated log: {!replay} folds over the intact prefix and
    silently stops at the first torn or corrupt record — the standard
    contract that makes a crashed tail harmless (the lost suffix was
    never acknowledged if the caller synced per batch).

    Frame layout: [u32 masked-crc32c | u32 payload-len | payload], where the
    payload is a varint entry count followed by the encoded entries. The
    seal frame's payload is the 8-byte sentinel ["LSM!SEAL"], which no real
    batch payload can collide with. *)

type t

val file_name_of_seq : int -> string
(** ["wal-%06d.log"]: the name of the [n]th log. *)

val seq_of_file_name : string -> int option
(** The inverse of {!file_name_of_seq}: [Some n] exactly for the names it
    generates, [None] for every other file (which the engine and its
    repair tool must neither replay nor delete). *)

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

val size : t -> int
(** Bytes of batch records appended so far (the seal frame, written at
    {!close}, is not yet included). *)

val name : t -> string

val close : t -> unit
(** Appends the seal frame and seals the file (implies sync). *)

val seal_size : int
(** On-device size of the seal frame. *)

val is_sealed : Device.t -> name:string -> bool
(** Whether the file ends with a valid seal frame (i.e. was closed
    cleanly). Missing files are not sealed. *)

val replay :
  Device.t -> name:string -> (Lsm_record.Entry.t list -> unit) -> int
(** [replay dev ~name f] applies [f] to each intact batch in order and
    returns the number of batches recovered. A missing file recovers zero
    batches. An unsealed (crash-truncated) log ignores corruption past
    the intact prefix; a sealed log raises
    [Lsm_util.Lsm_error.Corruption] on any bad frame instead — batches
    before the bad frame may already have been applied when it raises.
    The seal frame itself is not counted or passed to [f]. *)

val salvage :
  Device.t -> name:string -> (Lsm_record.Entry.t list -> unit) -> int * (int * int) list
(** Tolerant scan for repair tools: applies [f] to each intact batch in
    file order regardless of seal state, re-synchronizing past
    undecodable frames so batches on {e both} sides of mid-log damage
    are recovered. Returns the batch count and the disclosed byte ranges
    [(start, stop)] that were skipped as lost. A benign crash-torn tail
    (a final unparseable stretch bearing none of the rot tells) is
    truncated silently — exactly as {!replay} would — and not disclosed;
    every disclosed gap is real damage an operator should know about. *)
