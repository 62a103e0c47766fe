(** CRC-32C (Castagnoli) checksums, as used by the block and WAL formats. *)

val string : ?init:int32 -> string -> int32
(** [string s] is the CRC-32C of [s]. [init] continues a running checksum. *)

val sub : ?init:int32 -> string -> pos:int -> len:int -> int32
(** Checksum of a substring, by the kernel {!hardware} names.
    @raise Invalid_argument if the window is out of bounds. *)

val hardware : bool
(** [true] when {!sub} runs on the CPU's CRC-32C instruction (SSE4.2 on
    x86-64), [false] when it runs the portable slicing-by-8 kernel.
    Decided once, at module initialisation, from the CPU; not a setting. *)

val portable_sub : ?init:int32 -> string -> pos:int -> len:int -> int32
(** {!sub} by the portable kernel whatever the CPU: the fallback, exposed
    so tests can hold both kernels to the same oracle. *)

val mask : int32 -> int32
(** Rotate-and-offset masking (à la LevelDB) so that checksums of data that
    itself embeds checksums remain well-distributed. *)

val unmask : int32 -> int32
(** Inverse of {!mask}. *)
