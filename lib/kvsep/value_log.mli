(** The WiscKey value log (§2.2.2): large values live in append-only
    segments; the LSM-tree stores only pointers. Compactions then move
    pointer-sized entries, which is where the ~4× write-amplification
    reduction for large values comes from.

    Records: [varint key_len | key | varint value_len | value]. A pointer
    is (segment number, record offset, record length); the key is stored
    alongside the value so garbage collection can check liveness. *)

type t

type pointer = { segment : int; offset : int; length : int }

val open_log : ?segment_bytes:int -> Lsm_storage.Device.t -> t
(** [segment_bytes] (default 1 MiB) is the rotation threshold. Recovers
    existing segments from the device. *)

val append : t -> key:string -> value:string -> pointer
(** Durable once returned (the segment is synced). *)

val read : t -> cls:Lsm_storage.Io_stats.op_class -> pointer -> string * string
(** (key, value) at the pointer.
    @raise Lsm_util.Codec.Corrupt on a dangling or damaged pointer. *)

val segments : t -> int list
(** Sealed, GC-eligible segment numbers, oldest first (excludes the
    active head segment). *)

val fold_segment :
  t -> cls:Lsm_storage.Io_stats.op_class -> int ->
  init:'a -> f:('a -> pointer -> string -> string -> 'a) -> 'a
(** Iterate every record of a segment (for garbage collection). *)

val drop_segment : t -> int -> unit
(* lsm-lint: allow R14 — public API of the key-value-separated engine: the log space gc
   reclaims *)
val total_bytes : t -> int
val close : t -> unit

val encode_pointer : pointer -> string
val decode_pointer : string -> pointer
