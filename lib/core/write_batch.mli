(** Atomic multi-operation writes.

    A batch is applied with one sequence-number range, one WAL record, and
    one durability point ({!Db.apply_batch}): after a crash, either every
    operation in the batch is recovered or none is — the unit of atomicity
    production engines expose (RocksDB's WriteBatch). *)

type t

val create : unit -> t
val put : t -> key:string -> string -> unit
val delete : t -> string -> unit
val single_delete : t -> string -> unit

val range_delete : t -> lo:string -> hi:string -> unit
(** Deletes [\[lo, hi)]. The order of [lo] and [hi] is judged when the
    batch is applied, under the database's comparator: {!Db.apply_batch}
    rejects a batch holding an empty or inverted range with
    [Invalid_argument] before writing any of it. *)

val merge : t -> key:string -> string -> unit

val length : t -> int
val is_empty : t -> bool
val clear : t -> unit

val operations : t -> (Lsm_record.Entry.kind * string * string) list
(** In insertion order; consumed by [Db.apply_batch]. *)
