(** Atomic multi-operation writes.

    A batch is applied with one sequence-number range, one WAL record, and
    one durability point ({!Db.apply_batch}): after a crash, either every
    operation in the batch is recovered or none is — the unit of atomicity
    production engines expose (RocksDB's WriteBatch). *)

type t

val create : unit -> t
val put : t -> key:string -> string -> unit
val delete : t -> string -> unit
(* lsm-lint: allow R14 — public API: batch form of Db.single_delete *)
val single_delete : t -> string -> unit

(* lsm-lint: allow R14 — public API: batch form of Db.range_delete *)
val range_delete : t -> lo:string -> hi:string -> unit
(** Deletes [\[lo, hi)]. The order of [lo] and [hi] is judged when the
    batch is applied, under the database's comparator: {!Db.apply_batch}
    rejects a batch holding an empty or inverted range with
    [Invalid_argument] before writing any of it. *)

(* lsm-lint: allow R14 — public API: batch form of Db.merge *)
val merge : t -> key:string -> string -> unit

(* lsm-lint: allow R14 — public API: records staged in the batch *)
val length : t -> int
(* lsm-lint: allow R14 — public API: whether the batch stages anything *)
val is_empty : t -> bool
(* lsm-lint: allow R14 — public API: reuse a batch after commit *)
val clear : t -> unit

val operations : t -> (Lsm_record.Entry.kind * string * string) list
(** In insertion order; consumed by [Db.apply_batch]. *)
