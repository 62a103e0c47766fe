(** Append-only log of version edits (the MANIFEST).

    One record of a {!Lsm_storage.Framed_log} per edit: this module holds
    only the edit codec's use and the file names; the frame, the seal
    and the torn-tail-versus-rot rule are the framed log's, shared with
    the WAL. Recovery folds the intact prefix of edits over
    {!Version.empty} to rebuild the tree shape, then the WAL replays on
    top.

    {b Manifest-swap protocol.} Reopening a database compacts the edit
    history into one snapshot edit — but the old manifest must stay
    durable until the snapshot is: the snapshot is written and synced to
    [MANIFEST.tmp] ({!create} with [~name:tmp_file_name]), then {!promote}
    atomically renames it over [MANIFEST]. A crash at any instant leaves
    exactly one readable manifest ({!recover} only ever reads
    [MANIFEST]; a stale [MANIFEST.tmp] is truncated by the next open). *)

type t

val file_name : string
(** ["MANIFEST"] — the only name {!recover} reads. *)

val tmp_file_name : string
(** ["MANIFEST.tmp"] — staging name for the swap protocol. *)

val create : ?name:string -> Lsm_storage.Device.t -> t
(** Opens a fresh manifest at [name] (default {!file_name}), truncating
    any previous file of that name — call only after {!recover} has been
    consumed, and with a [tmp_file_name] + {!promote} pair whenever an
    existing manifest must survive a crash mid-rewrite. *)

val log_edit : t -> Version.edit -> unit
(** Appends and syncs one edit. *)

val promote : t -> unit
(** Atomically rename a manifest created under {!tmp_file_name} to
    {!file_name}; no-op if it already is [MANIFEST]. Appending continues
    transparently afterwards. *)

val close : t -> unit
(** Appends the shared seal frame and seals the file: recovery of a
    cleanly-closed manifest is strict. Idempotent. *)

val recover : Lsm_storage.Device.t -> Version.t
(** Rebuild the version from the manifest; an absent manifest yields
    {!Version.empty}. This is {!Lsm_storage.Framed_log.replay}'s rule —
    torn tails of an {e unsealed} (crashed) manifest are ignored; any
    bad frame of a sealed one, or a rot-bearing frame of an unsealed
    one, raises a typed [Lsm_util.Lsm_error.Corruption] — plus the
    manifest's own check: a nonempty manifest with {e no} valid edit is
    corruption too, never an empty tree. *)

val verify : Lsm_storage.Device.t -> Lsm_util.Lsm_error.t list
(** Framing check of the live manifest, whose writer is open: every
    byte range that is not a valid frame is a [Corruption] naming its
    start ({!Lsm_storage.Framed_log.damage}); a missing manifest is one
    too. Edit decodability is {!recover}'s to prove. *)
