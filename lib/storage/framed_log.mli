(** The one framed log: the frame, the seal and the torn-tail-versus-rot
    rule that the WAL and the MANIFEST share. {!Wal} and the manifest
    keep only their payload codecs and file names.

    Layout per frame: [u32 masked-crc32c | u32 payload-len | payload].
    A cleanly-closed log ends with a {e seal} frame (payload
    ["LSM!SEAL"]); its presence distinguishes silent corruption (a bad
    frame in a sealed log) from an ordinary crash-truncated tail. An
    unsealed log's bad frame is bit rot, not a torn tail, when it bears
    a tell no crash can produce: the frame is complete (payload all
    present, CRC disagreeing), an intact frame follows it, or the file
    ends in a seal frame off by a bit flip or two. *)

type writer

val create : Device.t -> cls:Io_stats.op_class -> string -> writer
(** Opens a fresh log file for appending (truncates an existing one). *)

val append : writer -> (Buffer.t -> 'a -> unit) -> 'a -> unit
(** [append w encode x] appends one record: [encode b x] writes the
    payload into the writer's reused buffer, which is framed in place
    and reaches the device as one append. Not durable until {!sync}.
    @raise Invalid_argument after {!close}. *)

val sync : writer -> unit
(** Make every record appended so far crash-durable. *)

val close : writer -> unit
(** Appends the seal frame and closes the file (implies sync).
    Idempotent; the seal is skipped if the file was sealed by a crash. *)

(* lsm-lint: allow R14 — fault-injection aid: the crash and torn-seal tests cut a log
   exactly at its seal frame *)
val seal_size : int
(** On-device size of the seal frame. *)

val replay : Device.t -> name:string -> (string -> off:int -> len:int -> unit) -> int
(** [replay dev ~name f] calls [f data ~off ~len] on each intact record
    in order, where the payload is [data[off, off+len)] of the file's
    bytes, and returns how many it delivered. Nothing is copied: [f]
    reads the payload in place or copies what it keeps. A missing file
    delivers none. [f] may reject a payload with [Codec.Corrupt], which
    makes its frame bad. An unsealed (crash-truncated) log stops silently at a torn
    tail; a bad frame in a sealed log, or one bearing a rot tell in an
    unsealed log, raises [Lsm_util.Lsm_error.Corruption] naming its
    offset — records before it may already have been applied. *)

val salvage :
  Device.t -> name:string -> (string -> off:int -> len:int -> unit) -> int * (int * int) list
(** Tolerant counterpart of {!replay} for repair tools: applies [f] to
    each intact record in file order regardless of seal state,
    re-synchronizing past undecodable frames so records on {e both}
    sides of mid-log damage are delivered. Returns the count and the
    disclosed byte ranges [(start, stop)] skipped as lost. A benign
    crash-torn tail is truncated silently, exactly as {!replay} would,
    and not disclosed; trailing bytes after a seal are. *)

val damage : Device.t -> name:string -> (int * int) list
(** Every byte range of the log that is not a valid frame, torn tail
    included: the check for a log whose writer is still open, which has
    only ever appended whole frames, so no tail of it is a benign tear.
    @raise Not_found if the file does not exist. *)

val findings : name:string -> (int * int) list -> Lsm_util.Lsm_error.t list
(** One [Corruption] per range, naming the file and the range's start. *)
