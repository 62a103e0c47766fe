(** SuRF-style succinct range filter (§2.1.3).

    Stores each key truncated to its {e minimal distinguishing prefix}
    (the shortest prefix that separates it from both sorted neighbours) —
    semantically the leaves of SuRF-Base's truncated trie, kept here as a
    sorted prefix array. Because variable-length prefixes follow key
    density, false positives stay low even for long range queries, the
    property §2.1.3 credits SuRF with. No false negatives. *)

type t

val build : ?max_prefix:int -> ?suffix_len:int -> keys:string list -> unit -> t
(** [keys] need not be sorted or distinct. [max_prefix] (default: no limit)
    caps stored prefix length, trading memory for false positives.
    [suffix_len] (default 2) stores that many bytes beyond the minimal
    distinguishing prefix — SuRF-Real's real-suffix refinement, which is
    what lets the filter reject short ranges that fall inside a stored
    prefix's shadow. [suffix_len = 0] is SuRF-Base. *)

val may_overlap : t -> lo:string -> hi:string option -> bool
(** Overlap with [\[lo, hi)]; [None] = unbounded above. *)

val bit_count : t -> int
(** Memory: total stored prefix bytes * 8 (plus negligible structure). *)

val encode : t -> string
val decode : string -> t
