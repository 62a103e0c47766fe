(** The internal key-value entry model.

    Every mutation in the tree is an [entry]: a user key, a monotonically
    increasing sequence number (assigned at write time), an operation
    [kind], and a value. Reads resolve a user key to the entry with the
    highest visible sequence number; compactions merge entries and drop
    the ones that are shadowed or whose tombstone has done its work.

    Ordering: entries sort by user key ascending, then by sequence number
    {e descending}, so that within any sorted run an iterator meets the
    newest version of a key first. This is the LSM invariant of the paper
    (§2.1.1.E) pushed down to the entry level. *)

type kind =
  | Put  (** insert or blind update *)
  | Delete  (** point tombstone *)
  | Single_delete
      (** RocksDB-style single delete: cancels exactly the one matching put
          and then disappears (§2.3.3) *)
  | Range_delete
      (** range tombstone; [key] is the range start, [value] the exclusive
          range end *)
  | Merge  (** read-modify-write operand (RocksDB merge operator, §2.2.6) *)

type t = {
  key : string;
  seqno : int;
  kind : kind;
  value : string;
}

val kind_to_int : kind -> int
val kind_of_int : int -> kind
(** @raise Lsm_util.Codec.Corrupt on unknown tags. *)

val put : key:string -> seqno:int -> string -> t
val delete : key:string -> seqno:int -> t

val compare : Lsm_util.Comparator.t -> t -> t -> int
(** Key ascending, then seqno descending, then kind (for determinism). *)

val encode : Buffer.t -> t -> unit
val decode : Lsm_util.Codec.reader -> t
(** Wire format: varint seqno | u8 kind | lp key | lp value. *)

val encoded_size_of : seqno:int -> key_len:int -> value_len:int -> int
(** {!encoded_size} of a record from its seqno and lengths, without the
    record. *)

val footprint : t -> int
(** Approximate in-memory footprint in bytes, used for buffer sizing. *)
