(** The block-device / file-system abstraction underneath the engine.

    Files are append-only while being written and immutable once closed —
    exactly the discipline LSM components need (§2.1.1.C). The device
    charges every read and write to an {!Io_stats.op_class} at page
    granularity, which is what the experiments measure.

    Two backends:
    - {!in_memory} — the default substrate for tests and benchmarks. It can
      also simulate power loss, either immediately ({!crash}) or at a
      scheduled future instant ({!plan_crash}): all bytes not covered by an
      explicit {!sync} are lost — modulo an optional torn tail — which is
      how WAL and manifest recovery are exercised. A file is a table of
      fixed-size chunks written once: an append copies its bytes once,
      one of at most a chunk never straddles two chunks, and a read can
      return a window of a chunk in place ({!read_view}). A patch, a
      planted corruption or a crash tear copies the chunks it changes,
      so no byte a reader was handed ever changes under it.
    - {!on_disk} — real files under a directory, for running the engine
      against an actual file system.

    {b The sync/crash contract.} {!sync} makes every byte appended so far
    immune to any later crash; bytes appended after the last sync may, at a
    crash, be (a) discarded, (b) partially retained (a torn page), or
    (c) retained scrambled (a corrupt torn page) — but synced bytes are
    never altered. {!rename} is atomic and immediately durable. Recovery
    code must therefore treat everything past a file's last sync point as
    arbitrary garbage, which is what the CRC framing of the WAL and
    manifest is for. *)

type t
type writer

exception Crashed
(** Raised by the device operation during which an armed {!plan_crash}
    fires, by every subsequent mutating operation until {!revive}, and
    by an append whose file a crash on another domain tore while the
    append was under way. *)

(** What survives of the unsynced suffix of each file when a crash fires. *)
type tear =
  | Tear_none  (** lose everything past the synced prefix *)
  | Tear_keep of int
      (** additionally retain up to [n] unsynced bytes, intact (a torn
          write whose prefix made it to the platter) *)
  | Tear_corrupt of int
      (** additionally retain up to [n] unsynced bytes, bit-flipped (a
          torn write that scribbled the final page) — synced bytes are
          never touched *)

(** When an armed crash fires (counted from the moment of arming). *)
type crash_point =
  | After_syncs of int  (** immediately after the [n]-th sync completes *)
  | After_ops of int
      (** immediately after the [n]-th mutating device op (open / append
          / sync / delete / rename) completes *)
  | After_bytes of int
      (** mid-append, once [n] more bytes have been appended: the
          triggering append stores only the prefix that "made it" *)

val in_memory : ?page_size:int -> unit -> t
(** [page_size] defaults to 4096 bytes. *)

val on_disk : ?page_size:int -> dir:string -> unit -> t
(** Stores files under [dir] (created if missing). *)

val page_size : t -> int

val chunk_size : int
(** Bytes per chunk of an in-memory file (64 KiB): a constant of the
    simulator, not a setting. *)

val stats : t -> Io_stats.t
val sync_count : t -> int

val mutation_count : t -> int
(** Total mutating device ops so far — the coordinate system of
    [After_ops] crash points. *)

(** {1 Writing} *)

val open_writer : t -> cls:Io_stats.op_class -> string -> writer
(** Creates (or truncates) the named file for appending.
    @raise Invalid_argument if a writer is already open on that name. *)

val append : writer -> string -> unit

val append_sub : writer -> string -> off:int -> len:int -> unit
(** [append_sub w s ~off ~len] appends the window [s.[off .. off + len)],
    so a caller can write from a buffer it reuses.
    @raise Invalid_argument if the window is out of bounds. *)

val append_buffer : writer -> Buffer.t -> unit
(** Appends the buffer's contents, with no intermediate copy. *)

val written : writer -> int
(** Bytes appended so far (= current file size). *)

val sync : writer -> unit
(** Make all appended bytes crash-durable. *)

val close : writer -> unit
(** Seal the file (implies {!sync}); it becomes immutable and readable. *)

(** {1 Reading} *)

val read : t -> cls:Io_stats.op_class -> string -> off:int -> len:int -> string
(** The window as a fresh string: {!read_view}, then a copy of a window
    shown in place. Takes the device lock once: an armed read fault
    ({!plan_read_faults}) fires inside that section, before any byte is
    copied.
    @raise Not_found if the file does not exist.
    @raise Invalid_argument if the range is out of bounds. *)

type view = { mutable base : string; mutable pos : int }
(** Where a {!read_view} left the bytes: [base.[pos .. pos + len)]. A
    caller owns one and reuses it, so a read allocates nothing. *)

val view : unit -> view

val read_view :
  t -> cls:Io_stats.op_class -> string -> off:int -> len:int -> Bytes.t -> view -> bool
(** [read_view t ~cls name ~off ~len dst v] reads the window without
    copying it where it can: on the in-memory backend, a window that
    lies in one chunk (every append of at most a chunk does) is shown in
    place, [v.base] being that chunk, and the result is [true]. The
    chunk is shared and must never be written; its bytes in the window
    never change, since a patch, corruption or tear copies the chunks
    it changes. Otherwise (the on-disk backend, or a window across a
    chunk edge) the bytes are copied into [dst], or into a fresh buffer
    if [dst] is shorter than [len], [v] is set to that buffer at
    position 0, and the result is [false]. Same lock, faults, errors and
    accounting as {!read}. *)

val size : t -> string -> int
val exists : t -> string -> bool

val patch : t -> cls:Io_stats.op_class -> string -> off:int -> string -> unit
(** [patch t ~cls name ~off data] overwrites [data] in place at [off] in a
    file that has no open writer — the primitive ECC repair stands on. It
    never extends a file, and repaired bytes inherit the durability of the
    bytes they replace (a patch of the synced prefix stays synced).
    @raise Not_found if the file does not exist.
    @raise Invalid_argument if the range is out of bounds or the file has
    an open writer. *)

val delete : t -> string -> unit
(** Removing a missing file is a no-op. *)

val rename : t -> string -> string -> unit
(** [rename t src dst] atomically replaces [dst] (which may or may not
    exist) with [src]. The switch is crash-atomic and immediately durable;
    a writer open on [src] keeps appending to the renamed file.
    @raise Not_found if [src] does not exist. *)

val list_files : t -> string list
(** Sorted file names. *)

val total_bytes : t -> int
(** Sum of all file sizes: the space-amplification numerator. *)

(** {1 Fault injection}

    In-memory backend only. Typical harness loop: {!plan_crash}, run a
    workload until it raises {!Crashed}, {!revive}, reopen the database,
    and check the recovered state against the acknowledged prefix. *)

val crash : ?tear:tear -> t -> unit
(** Crash {e now}: discard all unsynced bytes (modulo [tear], default
    {!Tear_none}) and seal every file, as a power failure would. Open
    writers become unusable; the device itself stays usable, so a caller
    can immediately exercise recovery.
    @raise Invalid_argument on the on-disk backend. *)

val plan_crash : t -> ?tear:tear -> crash_point -> unit
(** Arm a crash at a future instant. When it fires, the triggering
    operation raises {!Crashed} after the crash semantics (truncate to
    the synced prefix, apply [tear], seal everything) have been applied.
    Re-arming replaces any previous plan. Test-only: the arming domain
    must be the only mutator.
    @raise Invalid_argument on the on-disk backend or a count < 1. *)

val cancel_crash_plan : t -> unit

val is_crashed : t -> bool
(** True between a planned crash firing and {!revive}. While true, every
    mutating operation raises {!Crashed}; reads still work. *)

val revive : t -> unit
(** Clear the crashed state ("reboot"): the surviving file images become
    the readable, durable on-device state, ready for recovery. *)

(** {1 Bit-rot and transient-fault injection}

    Orthogonal to crash injection: {!plan_crash} never alters synced
    bytes, whereas {!plan_corruption} deliberately flips bits {e inside}
    the synced prefix — silent corruption of data the device already
    acknowledged. This is what checksums, quarantine, and [lsm-doctor]
    defend against. *)

(** Coarse file classification by name, for targeting fault injection. *)
type file_class =
  | F_sst  (** [*.sst] table files *)
  | F_manifest  (** [MANIFEST] / [MANIFEST.tmp] *)
  | F_wal  (** [wal-*] log files *)
  | F_other

val classify : string -> file_class

type corruption_hit = {
  hit_file : string;
  hit_class : file_class;
  hit_off : int;  (** exact byte offset whose bit was flipped *)
}

val plan_corruption :
  t ->
  seed:int ->
  ?classes:file_class list ->
  ?pattern:(string -> bool) ->
  pages:int ->
  unit ->
  corruption_hit list
(** Flip one random bit in each of up to [pages] distinct pages of the
    synced prefix of every file matching [classes] (default: all) and
    [pattern] (default: all), deterministically in [seed]. Files are
    visited in name order. Returns one hit per flipped bit so harnesses
    can map damage to blocks. Applied immediately to the durable image.
    @raise Invalid_argument on the on-disk backend or [pages < 1]. *)

val plan_read_faults : t -> ?classes:file_class list -> int -> unit
(** Arm [n] transient read faults: the next [n] {!read}s of files in
    [classes] raise a retriable [Lsm_util.Lsm_error.Io_error] before
    returning any bytes (the data is undamaged — a retry succeeds once
    the charges are spent). [n = 0] disarms. Works on both backends. *)

val read_faults_fired : t -> int
(** Total injected read faults raised so far. *)

val simulate_latency : t -> ?read_ns_per_page:int -> ?write_ns_per_page:int -> unit -> unit
(** Model device speed: every subsequent {!read} ([append]) sleeps the
    given time per page touched, with no lock held — so concurrent I/O
    from different domains overlaps, exactly like queued requests on a
    real disk. The in-memory backend is otherwise so fast that I/O
    concurrency is invisible; benchmarks use this to measure it
    honestly on any host. Defaults/0 disable.
    @raise Invalid_argument on the on-disk backend or negative values. *)
