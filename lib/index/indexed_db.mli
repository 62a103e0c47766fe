(** Eager secondary indexing over the LSM engine (§2.1.3, after the
    composite-key designs surveyed in [97, 117]).

    The wrapper owns the whole key namespace of one {!Lsm_core.Db}:
    records live under a data prefix, and each secondary index [name]
    maintains composite entries [<index prefix>/name/term/primary-key]
    with empty values. Index maintenance is {e eager}: every record write
    reads the record's previous version, computes the old and new term
    sets, and applies record + index deltas in one atomic
    {!Lsm_core.Write_batch} — so a crash can never separate a record from
    its index entries.

    Term lookup is a prefix scan of the composite entries followed by
    primary-key point gets — the read path of an unclustered secondary
    index on an LSM store (each index probe costs one scan plus one get
    per match). *)

type t

type index_spec = {
  index_name : string;
  extract : key:string -> value:string -> string list;
      (** terms of a record; duplicates are ignored. Terms and keys may be
          arbitrary bytes. *)
}

val create : db:Lsm_core.Db.t -> indexes:index_spec list -> t
(** The [db] must be dedicated to this wrapper (it owns the namespace).
    Reopening over a recovered [db] with the same specs resumes cleanly —
    index entries are durable data. *)

val put : t -> key:string -> string -> unit
(* lsm-lint: allow R14 — public API of the secondary-index engine: primary lookup *)
val get : t -> string -> string option
val delete : t -> string -> unit

val scan :
  t -> ?limit:int -> lo:string -> hi:string option -> unit -> (string * string) list
(** Over record keys only (index entries are invisible). *)

(* lsm-lint: allow R14 — public API of the secondary-index engine: lookup by index term *)
val lookup : t -> index:string -> term:string -> (string * string) list
(** All (key, value) records whose extractor produced [term], in key
    order. @raise Not_found for an unknown index name. *)

val lookup_keys : t -> index:string -> term:string -> string list
(** Primary keys only: one scan, no per-record gets. *)

(* lsm-lint: allow R14 — public API of the secondary-index engine: live index entries *)
val index_entry_count : t -> index:string -> int
(** Live composite entries (for tests/metrics). *)
