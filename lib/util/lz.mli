(** A small LZ77 byte compressor (LZ4-style greedy matching, 64 KiB
    window) for SSTable block compression.

    Not a rival to real LZ4/zstd — the point is a self-contained,
    dependency-free codec so the engine's compression knob is a real knob:
    it reduces on-device bytes (space amplification, write amplification)
    at a measurable CPU cost, which is the tradeoff the experiments weigh. *)

val compress : ?pos:int -> string -> string
(** Compresses the bytes of the string from [pos] (default 0) to its
    end, where they lie. Never fails; output may be larger than the
    input for incompressible data (the SSTable layer falls back to
    storing raw in that case). *)

val decompress : string -> expected_len:int -> string
(** @raise Lsm_util__Codec.Corrupt (as [Codec.Corrupt]) on malformed input
    or a length mismatch. *)
