(** Per-class I/O accounting.

    The paper states every tradeoff in terms of I/O counts — write
    amplification, read amplification, superfluous lookup I/Os — so the
    device attributes every page touched to an operation class and the
    experiments read the totals from here. *)

type op_class =
  | C_user_write  (** WAL and memtable-path writes issued for user puts *)
  | C_user_read  (** pages read serving gets and scans *)
  | C_flush  (** pages written by memtable flushes *)
  | C_compaction_read
  | C_compaction_write
  | C_gc  (** value-log garbage collection (kv-separation) *)
  | C_misc

type t

val create : unit -> t

val record_read : t -> op_class -> pages:int -> bytes:int -> unit
val record_write : t -> op_class -> bytes:int -> unit

val pages_read : ?cls:op_class -> t -> int
val bytes_read : ?cls:op_class -> t -> int
val bytes_written : ?cls:op_class -> t -> int

val diff : t -> t -> t
(** [diff now before] — counters accumulated between two snapshots. *)

val copy : t -> t
