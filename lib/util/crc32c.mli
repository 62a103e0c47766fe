(** CRC-32C (Castagnoli) checksums, as used by the block and WAL formats.

    A checksum is a native [int] holding 32 significant bits (OCaml 5
    native code is 64-bit only), so computing, masking and comparing one
    allocates nothing. A site that stores a checksum as an [int32] boxes
    it there. *)

val string : ?init:int -> string -> int
(** [string s] is the CRC-32C of [s], in [\[0, 2{^32})]. [init] continues
    a running checksum. *)

val sub : ?init:int -> string -> pos:int -> len:int -> int
(** Checksum of a substring, by the kernel {!hardware} names.
    @raise Invalid_argument if the window is out of bounds. *)

val hardware : bool
(** [true] when {!sub} runs on the CPU's CRC-32C instruction (SSE4.2 on
    x86-64), [false] when it runs the portable slicing-by-8 kernel.
    Decided once, at module initialisation, from the CPU; not a setting. *)

val portable_sub : ?init:int -> string -> pos:int -> len:int -> int
(** {!sub} by the portable kernel whatever the CPU: the fallback, exposed
    so tests can hold both kernels to the same oracle. *)

val mask : int -> int
(** Rotate-and-offset masking (à la LevelDB) of a 32-bit checksum, so
    that checksums of data that itself embeds checksums remain
    well-distributed. *)
