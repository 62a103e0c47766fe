(** A small LZ77 byte compressor (LZ4-style greedy matching, 64 KiB
    window) for SSTable block compression.

    Not a rival to real LZ4/zstd — the point is a self-contained,
    dependency-free codec so the engine's compression knob is a real knob:
    it reduces on-device bytes (space amplification, write amplification)
    at a measurable CPU cost, which is the tradeoff the experiments weigh. *)

val compress_into : Buffer.t -> string -> pos:int -> len:int -> unit
(** Compress [s.[pos .. pos + len)], where the bytes lie, appending the
    stream to a caller's buffer. Never fails on a valid range; the stream
    may be longer than the input for incompressible data (the SSTable
    layer stores such a block raw).
    @raise Invalid_argument if the range is out of bounds. *)

val decompress_into :
  string -> pos:int -> len:int -> Bytes.t -> expected_len:int -> unit
(** Decompress the stream [s.[pos .. pos + len)] into [dst.[0 ..
    expected_len)], for a caller that reuses [dst] across blocks.
    @raise Invalid_argument if the range is out of bounds or [dst] is
    shorter than [expected_len].
    @raise Lsm_util__Codec.Corrupt (as [Codec.Corrupt]) on a malformed
    stream or one that does not decode to exactly [expected_len] bytes. *)
