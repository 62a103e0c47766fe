(** Per-file metadata as tracked by the manifest/version machinery.

    This is the information compaction-picking policies work from
    (§2.2.3): key range and size for overlap computations, tombstone
    counts and age for delete-aware policies (Lethe). *)

type t = {
  file_id : int;
  file_name : string;
  size : int;  (** bytes on device *)
  entries : int;
  point_tombstones : int;
  range_tombstones : int;
  min_key : string;
  max_key : string;
  min_seqno : int;
  max_seqno : int;
  created_at : int;  (** logical tick when the file was written *)
  data_bytes : int;
  ecc : (int * int) option;
      (** [(k, m)] stripe geometry when the file carries a Reed–Solomon
          parity section. Advisory and in-memory only: it is {e not}
          written to the manifest (keeping the MANIFEST byte format
          identical whether or not ECC is on), so metas round-tripped
          through {!decode} carry [None] — the authoritative record is
          the table's own props block and trailing locator. *)
}

val of_props : file_id:int -> file_name:string -> size:int -> Sstable.Props.t -> t

val file_name_of_id : int -> string
(** ["%06d.sst"]. *)

val id_of_file_name : string -> int option
(** The inverse of {!file_name_of_id}: [Some id] exactly for the names it
    generates, [None] for every other file (which the engine and its
    repair tool must neither open nor delete). *)

val overlaps : Lsm_util.Comparator.t -> t -> lo:string -> hi:string -> bool
(** Closed-interval key-range intersection test. *)

val tombstone_density : t -> float
(** (point + range tombstones) / entries — Lethe's file-picking signal. *)

val encode : Buffer.t -> t -> unit
val decode : Lsm_util.Codec.reader -> t
