(** Binary encoding primitives shared by the on-disk formats.

    All multi-byte fixed-width integers are little-endian. Variable-length
    integers use the LEB128 encoding (7 bits per byte, high bit = "more"). *)

(** {1 Writers}

    Writers append to a [Buffer.t]; the SSTable and WAL builders assemble
    whole blocks in buffers before handing them to the storage layer. *)

val put_u8 : Buffer.t -> int -> unit
(** [put_u8 b v] appends the low 8 bits of [v]. *)

val put_u16 : Buffer.t -> int -> unit
(** [put_u16 b v] appends the low 16 bits of [v], little-endian. *)

val put_u32 : Buffer.t -> int -> unit
(** [put_u32 b v] appends the low 32 bits of [v], little-endian.
    [v] must fit in 32 unsigned bits. *)

val put_u64 : Buffer.t -> int64 -> unit
(** [put_u64 b v] appends [v] little-endian. *)

val put_varint : Buffer.t -> int -> unit
(** [put_varint b v] appends [v >= 0] as LEB128 (1–9 bytes). *)

val put_lp_string : Buffer.t -> string -> unit
(** [put_lp_string b s] appends [s] prefixed with its varint length. *)

(** {1 Readers}

    A reader is a cursor over an immutable string. All read functions
    advance the cursor and raise [Corrupt] on malformed input. *)

exception Corrupt of string
(** Raised when decoding runs past the end of input or meets an
    invalid encoding. *)

type reader = { src : string; mutable pos : int }

val reader : ?pos:int -> string -> reader
val remaining : reader -> int
val at_end : reader -> bool

val get_u8 : reader -> int
val get_u32 : reader -> int
val get_u64 : reader -> int64
val get_varint : reader -> int
val get_lp_string : reader -> string
val get_raw : reader -> int -> string
(** [get_raw r n] reads exactly [n] bytes. *)

(** {1 Sizes} *)

val varint_size : int -> int
(** Number of bytes [put_varint] will use for a value. *)
